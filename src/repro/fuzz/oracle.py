"""Three-oracle differential checker for generated SQL cases.

One :class:`~repro.fuzz.grammar.FuzzCase` is loaded into

* a full simulated stack per :class:`SystemConfig` — every memory
  system (DRAM, GS-DRAM, row-only RRAM, RC-NVM), both intra-chunk
  layouts, with and without group caching ("Z-order" ordered reads,
  Figures 14-15);
* the functional :class:`~repro.imdb.reference.ReferenceEngine`
  (consulted *before* executors run, so UPDATE counts see pre-mutation
  state);
* an in-memory ``sqlite3`` database, the third, independent oracle.

Every statement must produce the same logical answer everywhere — the
metamorphic core of the harness: the same logical table in row-major,
column-major, and Z-order-grouped chunk layouts, and the same query
planned over row- and column-oriented accesses, must agree bit for
bit.  On top of result agreement, each execution's trace and timing
are audited by :mod:`repro.fuzz.invariants`.
"""

import math
import sqlite3
from dataclasses import dataclass

from repro.errors import ReproError, SqlError
from repro.fuzz import invariants
from repro.fuzz.grammar import render_sql
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database
from repro.imdb.sql_parser import parse
from repro.obs import tracer as obs


@dataclass(frozen=True)
class SystemConfig:
    """One point in the metamorphic configuration lattice."""

    key: str
    system: str  # build_system name: DRAM | GS-DRAM | RRAM | RC-NVM
    layout: str  # intra-chunk layout for every table: row | column
    group_lines: int = 0  # >0 enables Z-order group-cached ordered reads


#: The differential lattice. ``dram-row`` is listed first on purpose:
#: it hosts the reference engine (the plain system).
CONFIGS = {
    c.key: c
    for c in (
        SystemConfig("dram-row", "DRAM", "row"),
        SystemConfig("dram-col", "DRAM", "column"),
        SystemConfig("rram-row", "RRAM", "row"),
        SystemConfig("gsdram-row", "GS-DRAM", "row"),
        SystemConfig("rcnvm-row", "RC-NVM", "row"),
        SystemConfig("rcnvm-col", "RC-NVM", "column"),
        SystemConfig("rcnvm-col-z", "RC-NVM", "column", group_lines=2),
    )
}


def build_database(config: SystemConfig, case) -> Database:
    """Load ``case`` into a fresh simulated stack for one config."""
    db = Database(
        build_system(config.system, small=True),
        cache_config=SMALL_CACHE_CONFIG,
        default_group_lines=config.group_lines,
        verify=False,
    )
    for spec in case.tables:
        db.create_table(spec.name, [tuple(f) for f in spec.fields],
                        layout=config.layout)
        if spec.rows:
            db.insert_many(spec.name, [
                [tuple(v) if isinstance(v, list) else v for v in row]
                for row in spec.rows
            ])
        for field in spec.indexes:
            db.create_index(spec.name, field)
        for field in spec.ordered_indexes:
            db.create_ordered_index(spec.name, field)
    return db


# -- sqlite third oracle -------------------------------------------------------
def _q(name):
    """Quote an identifier for sqlite (table names may contain dashes)."""
    return '"' + name.replace('"', '""') + '"'


class SqliteOracle:
    """The case's tables mirrored into an in-memory sqlite database.

    Wide (multi-word) fields are stored one column per 64-bit word
    (``f5__w0``, ``f5__w1``, ...); predicates and updates address word 0,
    matching the simulated engines' word-0 semantics, and projections
    reassemble the words into tuples.  Statements sqlite cannot mirror
    faithfully (wide-field aggregates) return ``None`` — those stay
    covered by the reference engine and the cross-config comparison.
    """

    def __init__(self, case):
        self.case = case
        self.conn = sqlite3.connect(":memory:")
        self.words = {}  # (table, field) -> word count
        for spec in case.tables:
            cols = []
            for fname, nbytes in spec.fields:
                words = nbytes // 8
                self.words[(spec.name, fname)] = words
                cols.extend(self._cols(fname, words))
            self.conn.execute(
                f"CREATE TABLE {_q(spec.name)} ({', '.join(cols)})"
            )
            for row in spec.rows:
                flat = []
                for value in row:
                    if isinstance(value, (list, tuple)):
                        flat.extend(int(v) for v in value)
                    else:
                        flat.append(int(value))
                holes = ", ".join("?" * len(flat))
                self.conn.execute(
                    f"INSERT INTO {_q(spec.name)} VALUES ({holes})", flat
                )

    @staticmethod
    def _cols(fname, words):
        if words == 1:
            return [_q(fname)]
        return [_q(f"{fname}__w{w}") for w in range(words)]

    def _word0(self, table, fname):
        if self.words[(table, fname)] == 1:
            return _q(fname)
        return _q(f"{fname}__w0")

    def _where_sql(self, stmt, table):
        conds, binds = [], {}
        for clause in stmt.get("where", ()):
            op = "<>" if clause["op"] == "!=" else clause["op"]
            name = f"b{len(conds)}"
            conds.append(f"{self._word0(table, clause['field'])} {op} :{name}")
            binds[name] = int(clause["value"])
        return (" WHERE " + " AND ".join(conds) if conds else ""), binds

    def execute(self, stmt):
        """Run one statement dict; returns a normalized result or None."""
        kind = stmt["kind"]
        if kind == "select":
            return self._select(stmt)
        if kind == "join":
            return self._join(stmt)
        if kind == "update":
            return self._update(stmt)
        return None

    def _select(self, stmt):
        table = stmt["table"]
        spec = self.case.table(table)
        where, binds = self._where_sql(stmt, table)
        if stmt.get("agg"):
            func, fname = stmt["agg"]
            if self.words[(table, fname)] > 1:
                return None  # wide aggregate sums across words; not mirrored
            sql = f"SELECT {func}({_q(fname)}) FROM {_q(table)}{where}"
            value = self.conn.execute(sql, binds).fetchone()[0]
            if value is None:  # empty input: sqlite NULL vs our conventions
                value = {"SUM": 0, "AVG": 0.0, "COUNT": 0}.get(func)
            return ("scalar", value)
        names = ([f for f, _ in spec.fields] if stmt["items"] == "*"
                 else list(stmt["items"]))
        cols = []
        for fname in names:
            cols.extend(self._cols(fname, self.words[(table, fname)]))
        sql = f"SELECT {', '.join(cols)} FROM {_q(table)}{where}"
        order_rows = None
        if stmt.get("order_by"):
            fname, desc = stmt["order_by"]
            ordered_sql = (
                sql + f" ORDER BY {_q(fname)} {'DESC' if desc else 'ASC'}"
            )
            order_rows = [
                self._reassemble(table, names, raw)
                for raw in self.conn.execute(ordered_sql, binds)
            ]
        rows = [
            self._reassemble(table, names, raw)
            for raw in self.conn.execute(sql, binds)
        ]
        if stmt.get("order_by"):
            key_index = names.index(stmt["order_by"][0])
            return ("rows_ordered", order_rows, key_index, stmt.get("limit"))
        return ("rows", sorted(rows))

    def _reassemble(self, table, names, raw):
        out, i = [], 0
        for fname in names:
            words = self.words[(table, fname)]
            if words == 1:
                out.append(int(raw[i]))
            else:
                out.append(tuple(int(v) for v in raw[i : i + words]))
            i += words
        return tuple(out)

    def _join(self, stmt):
        left, right = stmt["left"], stmt["right"]
        cols = [f"{_q(t)}.{self._word0(t, f)}" for t, f in stmt["items"]]
        lf, rf = stmt["on"]
        conds = [f"{_q(left)}.{self._word0(left, lf)} = "
                 f"{_q(right)}.{self._word0(right, rf)}"]
        for l, op, r in stmt.get("extra", ()):
            sqlop = "<>" if op == "!=" else op
            conds.append(f"{_q(left)}.{self._word0(left, l)} {sqlop} "
                         f"{_q(right)}.{self._word0(right, r)}")
        sql = (f"SELECT {', '.join(cols)} FROM {_q(left)}, {_q(right)} "
               f"WHERE {' AND '.join(conds)}")
        rows = [tuple(int(v) for v in raw) for raw in self.conn.execute(sql)]
        return ("rows", sorted(rows))

    def _update(self, stmt):
        table = stmt["table"]
        where, binds = self._where_sql(stmt, table)
        sets = []
        for i, (fname, value, _param) in enumerate(stmt["set"]):
            name = f"s{i}"
            sets.append(f"{self._word0(table, fname)} = :{name}")
            binds[name] = int(value)
        sql = f"UPDATE {_q(table)} SET {', '.join(sets)}{where}"
        cursor = self.conn.execute(sql, binds)
        return ("count", cursor.rowcount)


# -- result comparison ---------------------------------------------------------
def _scalar_eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return int(a) == int(b)


def normalize(result):
    """A :class:`QueryResult` as a comparable value."""
    if result.kind == "scalar":
        return ("scalar", result.value)
    if result.kind == "count":
        return ("count", int(result.count))
    rows = [tuple(row) for row in result.rows]
    if result.ordered:
        return ("rows_exact", rows)
    return ("rows", sorted(rows))


def compare_results(label_a, a, label_b, b):
    """Discrepancy strings between two normalized results (exact forms)."""
    if a[0] != b[0]:
        return [f"{label_a} kind {a[0]} != {label_b} kind {b[0]}"]
    if a[0] == "scalar":
        if not _scalar_eq(a[1], b[1]):
            return [f"{label_a} scalar {a[1]!r} != {label_b} scalar {b[1]!r}"]
        return []
    if a != b:
        return [f"{label_a} {_brief(a)} != {label_b} {_brief(b)}"]
    return []


def compare_with_sqlite(label, ours, sq):
    """Compare an engine result against the sqlite oracle's.

    sqlite gives no stable tie order, so ordered+LIMIT results are
    checked as: same length, same ORDER BY key sequence as the first-n
    of sqlite's full ordering, and row multiset contained in sqlite's
    full result.
    """
    if sq[0] == "rows_ordered":
        full, key_index, limit = sq[1], sq[2], sq[3]
        if ours[0] != "rows_exact":
            return [f"{label} kind {ours[0]} != sqlite ordered rows"]
        rows = ours[1]
        expect = full if limit is None else full[: int(limit)]
        if len(rows) != len(expect):
            return [
                f"{label} returned {len(rows)} ordered rows, sqlite expects "
                f"{len(expect)}"
            ]
        keys = [r[key_index] for r in rows]
        expect_keys = [r[key_index] for r in expect]
        if keys != expect_keys:
            return [f"{label} ORDER BY keys {keys!r} != sqlite {expect_keys!r}"]
        pool = list(full)
        for row in rows:
            if row in pool:
                pool.remove(row)
            else:
                return [f"{label} row {row!r} not produced by sqlite"]
        return []
    if ours[0] == "rows_exact":
        ours = ("rows", sorted(ours[1]))
    return compare_results(label, ours, "sqlite", sq)


def _brief(norm):
    kind, payload = norm[0], norm[1]
    if isinstance(payload, list) and len(payload) > 6:
        return f"{kind}[{len(payload)} rows, head={payload[:3]!r}]"
    return f"{kind}[{payload!r}]"


# -- case execution ------------------------------------------------------------
def run_case(case, configs=None, check_invariants=True):
    """Run one case through every oracle; returns discrepancy strings.

    An empty list means the case passed: all system configs, the
    reference engine, and sqlite agreed on every statement, and every
    execution satisfied the trace/stats invariants, replayed again with
    the same timing (including flush conservation at the end of the
    case).
    """
    if configs is None:
        configs = list(CONFIGS.values())
    problems = []
    try:
        dbs = {c.key: build_database(c, case) for c in configs}
    except ReproError as exc:
        return [f"case setup failed: {type(exc).__name__}: {exc}"]
    sq = SqliteOracle(case)
    reference = dbs[configs[0].key].reference

    for index, stmt in enumerate(case.statements):
        sql, params = render_sql(stmt)
        tag = f"stmt[{index}] {sql!r}"

        # 1. the functional reference (pre-mutation for UPDATEs)
        ref_norm, ref_error = None, None
        try:
            statement = parse(sql)
            ref_norm = normalize(reference.execute(statement, params))
        except ReproError as exc:
            ref_error = exc
        except Exception as exc:  # raw exception = reference bug
            problems.append(
                f"{tag}: reference raised {type(exc).__name__}: {exc}"
            )
            ref_error = exc

        # 2. sqlite (only for statements it mirrors faithfully)
        sq_norm = None
        if not stmt.get("expect_error") and stmt["kind"] != "raw":
            try:
                sq_norm = sq.execute(stmt)
            except Exception as exc:
                # A statement sqlite cannot even run (e.g. a hand-edited
                # corpus case naming an unknown column without
                # expect_error) is a finding, not a harness crash.
                problems.append(
                    f"{tag}: sqlite oracle raised {type(exc).__name__}: {exc}"
                )

        # 3. every simulated configuration
        for config in configs:
            db = dbs[config.key]
            try:
                if check_invariants:
                    # Trace the statement so invariants.check_outcome can
                    # also audit span/counter consistency (the
                    # observability layer is under test like everything
                    # else).
                    with obs.tracing():
                        outcome = db.execute(sql, params=params)
                else:
                    outcome = db.execute(sql, params=params)
            except SqlError as exc:
                if not stmt.get("expect_error"):
                    problems.append(
                        f"{tag} [{config.key}]: unexpected SqlError: {exc}"
                    )
                continue
            except Exception as exc:
                problems.append(
                    f"{tag} [{config.key}]: raised {type(exc).__name__}: {exc}"
                )
                continue
            if stmt.get("expect_error"):
                problems.append(
                    f"{tag} [{config.key}]: expected SqlError, got "
                    f"{outcome.result!r}"
                )
                continue
            norm = normalize(outcome.result)
            if ref_norm is not None:
                problems.extend(
                    f"{tag} [{config.key}]: {p}"
                    for p in compare_results(config.key, norm,
                                             "reference", ref_norm)
                )
            elif ref_error is not None:
                problems.append(
                    f"{tag} [{config.key}]: executed but reference raised "
                    f"{type(ref_error).__name__}: {ref_error}"
                )
            if sq_norm is not None:
                problems.extend(
                    f"{tag} [{config.key}]: {p}"
                    for p in compare_with_sqlite(config.key, norm, sq_norm)
                )
            if check_invariants:
                found = invariants.check_outcome(db, outcome)
                found += invariants.check_replay(db, outcome)
                problems.extend(f"{tag} [{config.key}]: {p}" for p in found)
        if stmt.get("expect_error") and ref_norm is not None \
                and stmt["kind"] != "raw":
            problems.append(f"{tag}: expected SqlError but reference succeeded")

    if check_invariants:
        for config in configs:
            problems.extend(
                f"flush [{config.key}]: {p}"
                for p in invariants.check_flush_conservation(dbs[config.key])
            )
    return problems
