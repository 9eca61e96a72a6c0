"""The differential fuzzing harness itself: generator, oracle, shrinker.

The harness is only trustworthy if it is deterministic (a CI failure
must replay locally from the seed alone), if everything it generates
stays inside the supported dialect, and if a short run over real
configs comes back clean.  The GS-DRAM regression at the bottom pins
the first real bug the fuzzer found.
"""

import pytest

from repro.fuzz import CONFIGS, CaseGenerator, run_case, run_fuzz, shrink_case
from repro.fuzz.grammar import FuzzCase, TableSpec, render_sql
from repro.fuzz.oracle import SqliteOracle, build_database
from repro.fuzz.shrink import clause_count
from repro.imdb.sql_parser import parse

FAST_KEYS = ["dram-row", "rcnvm-col"]
FAST_CONFIGS = [CONFIGS[key] for key in FAST_KEYS]


class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        for index in (0, 3, 17):
            a = CaseGenerator(seed=5).case(index)
            b = CaseGenerator(seed=5).case(index)
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = CaseGenerator(seed=1).case(0)
        b = CaseGenerator(seed=2).case(0)
        assert a.to_dict() != b.to_dict()

    def test_serialization_round_trip(self):
        case = CaseGenerator(seed=3).case(4)
        assert FuzzCase.from_dict(case.to_dict()).to_dict() == case.to_dict()

    def test_generated_sql_stays_inside_the_dialect(self):
        """Every non-raw statement must parse; raw statements exist only
        to exercise error paths and must be flagged expect_error."""
        generator = CaseGenerator(seed=11)
        parsed = 0
        for index in range(30):
            case = generator.case(index)
            for stmt in case.statements:
                sql, params = render_sql(stmt)
                if stmt["kind"] == "raw":
                    assert stmt.get("expect_error")
                    continue
                node = parse(sql)
                assert node is not None
                parsed += 1
                for name in params:
                    assert f" {name}" in sql or f"> {name}" in sql or name in sql
        assert parsed > 50

    def test_statement_mix_covers_all_kinds(self):
        generator = CaseGenerator(seed=0)
        kinds = set()
        aggs = ordered = 0
        for index in range(60):
            for stmt in generator.case(index).statements:
                kinds.add(stmt["kind"])
                if stmt.get("agg"):
                    aggs += 1
                if stmt.get("order_by"):
                    ordered += 1
        assert kinds == {"select", "join", "update", "raw"}
        assert aggs > 5 and ordered > 5

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            CaseGenerator(seed=0, profile="read-mostly")

    def test_write_heavy_profile_skews_toward_updates(self):
        """The --write-heavy mix must actually be UPDATE-dominated (it
        exists to exercise coalescing, read-around-write, and the
        write-direction planner differentially), while still emitting
        every statement kind and staying deterministic per seed."""
        counts = {}
        total = 0
        generator = CaseGenerator(seed=0, profile="write-heavy")
        for index in range(40):
            for stmt in generator.case(index).statements:
                counts[stmt["kind"]] = counts.get(stmt["kind"], 0) + 1
                total += 1
        assert set(counts) == {"select", "join", "update", "raw"}
        assert counts["update"] / total > 0.4  # ~55% by construction
        default_updates = sum(
            1
            for index in range(40)
            for stmt in CaseGenerator(seed=0).case(index).statements
            if stmt["kind"] == "update"
        )
        assert counts["update"] > 2 * default_updates
        again = CaseGenerator(seed=0, profile="write-heavy")
        assert again.case(7).to_dict() == generator.case(7).to_dict()


class TestConfigs:
    def test_lattice_sanity(self):
        assert list(CONFIGS)[0] == "dram-row"  # hosts the reference engine
        systems = {c.system for c in CONFIGS.values()}
        assert systems == {"DRAM", "GS-DRAM", "RRAM", "RC-NVM"}
        assert any(c.group_lines for c in CONFIGS.values())  # Z-order point
        assert all(c.key == key for key, c in CONFIGS.items())

    def test_build_database_honors_config(self):
        case = CaseGenerator(seed=6).case(1)
        db = build_database(CONFIGS["rcnvm-col"], case)
        for spec in case.tables:
            assert db.table(spec.name).n_tuples == len(spec.rows)


class TestOracle:
    def test_short_run_is_clean(self):
        problems = []
        for index in range(3):
            case = CaseGenerator(seed=13).case(index)
            problems.extend(run_case(case, configs=FAST_CONFIGS))
        assert problems == []

    def test_run_fuzz_report(self):
        report = run_fuzz(seed=13, iterations=3, config_keys=FAST_KEYS)
        assert report.ok
        assert report.iterations == 3
        assert report.statements >= 3
        assert "0 failing" in report.summary()

    def test_sqlite_oracle_agrees_on_a_known_case(self):
        spec = TableSpec(name="t", fields=[["f1", 8], ["f2", 8]],
                         rows=[[3, 30], [1, 10], [2, 20]])
        case = FuzzCase(seed=0, tables=[spec], statements=[])
        oracle = SqliteOracle(case)
        stmt = {"kind": "select", "table": "t", "items": ["f1"],
                "agg": None, "where": [], "order_by": ["f1", True],
                "limit": 2, "expect_error": False}
        kind, rows, key_index, limit = oracle.execute(stmt)
        assert kind == "rows_ordered"
        assert rows[:limit] == [(3,), (2,)]

    def test_oracle_detects_a_seeded_discrepancy(self):
        """A case whose data disagrees between simulated stack and sqlite
        mirror must produce problems — the oracle is not vacuous."""
        spec = TableSpec(name="t", fields=[["f1", 8]], rows=[[1], [2]])
        case = FuzzCase(seed=0, tables=[spec], statements=[
            {"kind": "select", "table": "t", "items": ["f1"], "agg": None,
             "where": [{"field": "f1", "op": ">", "value": 0, "param": None}],
             "order_by": None, "limit": None, "expect_error": False},
        ])
        clean = run_case(case, configs=FAST_CONFIGS)
        assert clean == []
        # Same statements, but sqlite sees different rows.
        broken = FuzzCase.from_dict(case.to_dict())
        real_rows = broken.tables[0].rows

        class LyingOracle(SqliteOracle):
            def __init__(self, c):
                c.tables[0].rows = [[1], [99]]
                super().__init__(c)
                c.tables[0].rows = real_rows

        import repro.fuzz.oracle as oracle_module
        original = oracle_module.SqliteOracle
        oracle_module.SqliteOracle = LyingOracle
        try:
            problems = run_case(broken, configs=FAST_CONFIGS)
        finally:
            oracle_module.SqliteOracle = original
        assert problems and any("sqlite" in p for p in problems)

    def test_unrunnable_statement_is_a_finding_not_a_crash(self):
        """A corpus case naming an unknown column without expect_error
        must surface as discrepancies from every oracle, never as a raw
        exception out of run_case."""
        spec = TableSpec(name="t", fields=[["f1", 8]], rows=[[1]])
        case = FuzzCase(seed=0, tables=[spec], statements=[
            {"kind": "select", "table": "t", "items": ["nope"], "agg": None,
             "where": [], "order_by": None, "limit": None,
             "expect_error": False},
        ])
        problems = run_case(case, configs=FAST_CONFIGS)
        assert any("sqlite oracle raised" in p for p in problems)
        assert any("unexpected SqlError" in p for p in problems)


class TestShrinker:
    def make_case(self):
        spec = TableSpec(
            name="t", fields=[["f1", 8], ["f2", 8]],
            rows=[[i, i * 10] for i in range(12)], indexes=["f1"],
        )
        statements = [
            {"kind": "select", "table": "t", "items": ["f1"], "agg": None,
             "where": [{"field": "f1", "op": ">", "value": 2, "param": None},
                       {"field": "f2", "op": "<", "value": 90, "param": None}],
             "order_by": None, "limit": None, "expect_error": False},
            {"kind": "update", "table": "t",
             "set": [["f2", 5, None]],
             "where": [{"field": "f1", "op": "=", "value": 3, "param": None}]},
            {"kind": "select", "table": "t", "items": ["f1", "f2"],
             "agg": None, "where": [], "order_by": ["f1", False],
             "limit": 4, "expect_error": False},
        ]
        return FuzzCase(seed=0, tables=[spec], statements=statements)

    def test_shrinks_to_the_failing_kernel(self):
        def still_fails(case):
            return any(s.get("limit") is not None for s in case.statements)

        shrunk = shrink_case(self.make_case(), still_fails)
        assert still_fails(shrunk)
        assert len(shrunk.statements) == 1
        assert shrunk.statements[0]["limit"] is not None
        assert clause_count(shrunk) == 0
        assert len(shrunk.tables[0].rows) <= 2
        assert shrunk.tables[0].indexes == []

    def test_shrinker_never_returns_a_passing_case(self):
        def still_fails(case):
            return any(s["kind"] == "update" for s in case.statements)

        shrunk = shrink_case(self.make_case(), still_fails)
        assert still_fails(shrunk)
        assert all(s["kind"] == "update" for s in shrunk.statements)

    def test_clause_count(self):
        assert clause_count(self.make_case()) == 3


class TestGsdramColumnRegression:
    """Found by the fuzzer: GS-DRAM planned a gathered scan over a
    column-major chunk, whose strided lines do not hold the gathered
    fields, and died on an internal assertion.  The planner must fall
    back to a plain scan and still match the reference."""

    def test_gsdram_column_layout_select(self):
        db_kwargs = dict(verify=True)
        from conftest import make_database
        db = make_database("GS-DRAM", **db_kwargs)
        db.create_table(
            "t", [("f1", 8), ("f2", 8), ("f3", 8)], layout="column"
        )
        db.insert_many("t", [(i, i * 7 % 13, i * 3) for i in range(40)])
        for sql in (
            "SELECT f1, f3 FROM t WHERE f2 > 5",
            "SELECT SUM(f3) FROM t WHERE f1 < 30",
            "SELECT * FROM t WHERE f2 = 1",
        ):
            outcome = db.execute(sql, simulate=False)
            assert outcome.result is not None  # verify=True checks reference

    def test_fuzz_configs_include_the_regressing_pair(self):
        # The lattice must keep exercising GS-DRAM; the column-layout
        # interaction is covered by gsdram-row + per-case layouts and
        # the direct test above.
        assert "gsdram-row" in CONFIGS


class TestCrashFuzz:
    """Kill-and-recover mode: durable configs + seeded crash injector."""

    def test_short_campaign_is_clean(self):
        from repro.fuzz.crashes import run_crash_fuzz

        report = run_crash_fuzz(seed=0, iterations=5)
        assert report.ok, report.summary()
        assert report.iterations == 5

    def test_crash_case_is_deterministic(self):
        from repro.fuzz.crashes import run_crash_case
        from repro.fuzz.grammar import CaseGenerator

        case = CaseGenerator(3).case(0)
        first = run_crash_case(case, injector_seed=11)
        second = run_crash_case(case, injector_seed=11)
        assert first == second

    def test_state_mismatch_is_reported(self):
        """Plant a bug: mirror an *uncommitted* statement into sqlite and
        the state oracle must flag the divergence."""
        from repro.fuzz.crashes import (
            build_durable_database, compare_states,
        )
        from repro.fuzz.grammar import CaseGenerator
        from repro.fuzz.oracle import CONFIGS, SqliteOracle

        case = CaseGenerator(5).case(1)
        config = CONFIGS["rcnvm-row"]
        db = build_durable_database(config, case)
        sq = SqliteOracle(case)
        spec = case.tables[0]
        if not spec.rows:
            return
        narrow = spec.narrow_fields()
        stmt = {
            "kind": "update", "table": spec.name,
            "set": [[narrow[0], 123456, None]], "where": [],
            "expect_error": False,
        }
        sq.execute(stmt)  # sqlite thinks it committed; simulation never ran it
        problems = compare_states(db, sq)
        assert problems, "planted divergence went undetected"
