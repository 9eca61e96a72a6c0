"""Kill-and-recover conformance fuzzing.

The regular differential loop (:mod:`repro.fuzz.runner`) checks that
every configuration computes the same *answers*.  This module checks
that durability keeps the same *state*: each case runs on durable
RC-NVM stacks with a seeded :class:`~repro.durability.crash.CrashInjector`
armed, committed UPDATE effects are mirrored into the sqlite oracle
only after the simulated statement commits, and when the injector kills
execution the database is recovered from its surviving cells + WAL and
its full table state compared against sqlite's committed prefix.  The
remaining statements (starting with the one that crashed) then resume
on the recovered database and the final states must agree too.

The oracle argument is the classic one: sqlite only ever sees effects
the simulated engine claims are durable, so any uncommitted effect that
survives recovery — or committed effect that does not — shows up as a
state mismatch.

Regular result/trace invariants are *not* checked here: durable-commit
traffic (WAL appends, the persistence barrier) deliberately runs
outside the statement's timed trace, which is exactly what
:func:`repro.fuzz.invariants.check_outcome`'s live-stats comparison
forbids.  The two loops are complementary, not interchangeable.
"""

from dataclasses import dataclass, field
import os

from repro.durability import CrashInjector, SimulatedCrash, recover
from repro.errors import ReproError, SqlError
from repro.fuzz.grammar import CaseGenerator, render_sql
from repro.fuzz.oracle import CONFIGS, SqliteOracle, _q
from repro.fuzz.runner import load_case, save_case
from repro.fuzz.shrink import shrink_case
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database

#: Configurations the durable loop runs: every RC-NVM point of the
#: lattice (row, column, and Z-order group caching).
DURABLE_CONFIG_KEYS = ("rcnvm-row", "rcnvm-col", "rcnvm-col-z")


def build_durable_database(config, case, wal_rows=None):
    """Load ``case`` into a durable stack (WAL first, then tables)."""
    db = Database(
        build_system(config.system, small=True),
        cache_config=SMALL_CACHE_CONFIG,
        default_group_lines=config.group_lines,
        verify=False,
    )
    db.enable_durability(wal_rows=wal_rows)
    for spec in case.tables:
        db.create_table(spec.name, [tuple(f) for f in spec.fields],
                        layout=config.layout)
        if spec.rows:
            db.insert_many(spec.name, [
                [tuple(v) if isinstance(v, list) else v for v in row]
                for row in spec.rows
            ])
        for fname in spec.indexes:
            db.create_index(spec.name, fname)
        for fname in spec.ordered_indexes:
            db.create_ordered_index(spec.name, fname)
    return db


# -- state oracles -------------------------------------------------------------
def simulated_table_state(db):
    """``{table: sorted tuple rows}`` read functionally from the cells."""
    state = {}
    for name, table in db.tables.items():
        state[name] = sorted(
            table.read_tuple(i) for i in range(table.n_tuples)
        )
    return state


def sqlite_table_state(sq):
    """The sqlite mirror's ``{table: sorted tuple rows}``."""
    state = {}
    for spec in sq.case.tables:
        names = [f for f, _ in spec.fields]
        cols = []
        for fname in names:
            cols.extend(sq._cols(fname, sq.words[(spec.name, fname)]))
        rows = [
            sq._reassemble(spec.name, names, raw)
            for raw in sq.conn.execute(
                f"SELECT {', '.join(cols)} FROM {_q(spec.name)}"
            )
        ]
        state[spec.name] = sorted(rows)
    return state


def compare_states(db, sq):
    """Discrepancy strings between simulated and sqlite table states."""
    ours, theirs = simulated_table_state(db), sqlite_table_state(sq)
    problems = []
    for name in sorted(set(ours) | set(theirs)):
        mine, sqlite_rows = ours.get(name), theirs.get(name)
        if mine is None or sqlite_rows is None:
            problems.append(
                f"table {name!r} present only in "
                f"{'sqlite' if mine is None else 'simulation'}"
            )
            continue
        if mine != sqlite_rows:
            missing = [r for r in sqlite_rows if r not in mine]
            extra = [r for r in mine if r not in sqlite_rows]
            problems.append(
                f"table {name!r} state diverged: {len(extra)} rows only in "
                f"simulation (head {extra[:2]!r}), {len(missing)} only in "
                f"sqlite (head {missing[:2]!r})"
            )
    return problems


# -- one case, one config ------------------------------------------------------
def run_crash_case(case, configs=None, injector_seed=0):
    """Run one case's kill-and-recover check; returns problem strings.

    ``injector_seed`` picks the armed crash site and occurrence
    deterministically, so a reported failure replays bit-for-bit.
    """
    if configs is None:
        configs = [CONFIGS[k] for k in DURABLE_CONFIG_KEYS]
    problems = []
    for config in configs:
        _run_config(case, config, injector_seed, problems)
    return problems


def _run_config(case, config, injector_seed, problems):
    try:
        db = build_durable_database(config, case)
    except ReproError as exc:
        problems.append(
            f"[{config.key}] case setup failed: {type(exc).__name__}: {exc}"
        )
        return
    sq = SqliteOracle(case)
    db.durability.injector = CrashInjector.from_seed(injector_seed)
    index = 0
    statements = list(case.statements)
    while index < len(statements):
        stmt = statements[index]
        sql, params = render_sql(stmt)
        tag = f"stmt[{index}] {sql!r} [{config.key}]"
        try:
            db.execute(sql, params=params)
        except SimulatedCrash as crash:
            try:
                db, _report = recover(db)
            except Exception as exc:
                problems.append(
                    f"{tag}: recovery after crash at {crash.site!r} raised "
                    f"{type(exc).__name__}: {exc}"
                )
                return
            # The crashed statement never committed, so sqlite (which
            # only mirrors committed effects) IS the expected state.
            problems.extend(
                f"{tag}: after crash at {crash.site!r}: {p}"
                for p in compare_states(db, sq)
            )
            if problems:
                return
            # Resume: re-execute the crashed statement on the recovered
            # database (the new durability manager has no injector, so
            # the resumed run cannot crash again).
            continue
        except SqlError as exc:
            if not stmt.get("expect_error"):
                problems.append(f"{tag}: unexpected SqlError: {exc}")
            index += 1
            continue
        except Exception as exc:
            problems.append(
                f"{tag}: raised {type(exc).__name__}: {exc}"
            )
            index += 1
            continue
        if stmt.get("expect_error"):
            problems.append(f"{tag}: expected SqlError, statement succeeded")
            index += 1
            continue
        if stmt["kind"] == "update":
            # Mirror the *committed* effect into the state oracle.
            sq.execute(stmt)
        index += 1
    problems.extend(
        f"final state [{config.key}]: {p}" for p in compare_states(db, sq)
    )


# -- the campaign --------------------------------------------------------------
@dataclass
class CrashFailure:
    iteration: int
    case: object
    injector_seed: int
    problems: list
    path: str = ""


@dataclass
class CrashFuzzReport:
    seed: int
    iterations: int = 0
    statements: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        lines = [
            f"crash-fuzz seed={self.seed}: {self.iterations} cases, "
            f"{self.statements} statements, {len(self.failures)} failing"
        ]
        for failure in self.failures:
            lines.append(
                f"  iteration {failure.iteration} "
                f"(injector seed {failure.injector_seed}): "
                f"{len(failure.problems)} discrepancies"
                + (f" -> {failure.path}" if failure.path else "")
            )
            lines.extend(f"    {p}" for p in failure.problems[:5])
            if len(failure.problems) > 5:
                lines.append(f"    ... {len(failure.problems) - 5} more")
        return "\n".join(lines)


def _injector_seed(seed, iteration):
    """Deterministic per-iteration injector seed (disjoint from the
    case generator's own stream)."""
    return (seed + 1) * 7_654_321 + iteration


def run_crash_fuzz(seed=0, iterations=50, config_keys=None, save_dir=None,
                   shrink=True, max_failures=3, progress=None):
    """The kill-and-recover campaign; returns a :class:`CrashFuzzReport`."""
    configs = ([CONFIGS[k] for k in config_keys] if config_keys
               else [CONFIGS[k] for k in DURABLE_CONFIG_KEYS])
    generator = CaseGenerator(seed)
    report = CrashFuzzReport(seed=seed)
    for iteration in range(iterations):
        case = generator.case(iteration)
        inj_seed = _injector_seed(seed, iteration)
        problems = run_crash_case(case, configs, injector_seed=inj_seed)
        report.iterations += 1
        report.statements += len(case.statements)
        if progress and (iteration + 1) % 10 == 0:
            progress(f"  ... {iteration + 1}/{iterations} cases, "
                     f"{len(report.failures)} failing")
        if not problems:
            continue
        if shrink:
            case = shrink_case(
                case,
                lambda c: bool(
                    run_crash_case(c, configs, injector_seed=inj_seed)
                ),
            )
            problems = run_crash_case(case, configs, injector_seed=inj_seed)
        failure = CrashFailure(
            iteration=iteration, case=case, injector_seed=inj_seed,
            problems=problems,
        )
        if save_dir:
            os.makedirs(save_dir, exist_ok=True)
            failure.path = os.path.join(
                save_dir, f"crash-seed{seed}-iter{iteration}.json"
            )
            save_case(case, failure.path, problems=problems)
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    return report


def replay_corpus_with_crashes(directory, config_keys=None, seeds=(0, 1, 2)):
    """Kill-and-recover replay over every ``*.json`` corpus case.

    Each case runs once per injector seed; returns ``{filename:
    problems}`` for the failing files.
    """
    configs = ([CONFIGS[k] for k in config_keys] if config_keys
               else [CONFIGS[k] for k in DURABLE_CONFIG_KEYS])
    failures = {}
    names = sorted(
        name for name in os.listdir(directory) if name.endswith(".json")
    )
    for name in names:
        case = load_case(os.path.join(directory, name))
        problems = []
        for inj_seed in seeds:
            problems.extend(
                f"injector seed {inj_seed}: {p}"
                for p in run_crash_case(case, configs,
                                        injector_seed=inj_seed)
            )
        if problems:
            failures[name] = problems
    return failures
