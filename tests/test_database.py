"""Database facade: schema management, execution, timing lifecycle."""

import pytest

from conftest import SMALL_CACHES, make_database, simple_rows
from repro.cache.cache import EMPTY_SET
from repro.errors import LayoutError, SqlError
from repro.imdb.chunks import IntraLayout


class TestSchemaManagement:
    def test_create_table_by_string_layout(self, rcnvm_db):
        table = rcnvm_db.create_table("t", [("a", 8)], layout="column")
        assert table.layout is IntraLayout.COLUMN

    def test_duplicate_table_rejected(self, rcnvm_db):
        rcnvm_db.create_table("t", [("a", 8)])
        with pytest.raises(LayoutError):
            rcnvm_db.create_table("t", [("a", 8)])

    def test_unknown_table(self, rcnvm_db):
        with pytest.raises(SqlError):
            rcnvm_db.table("missing")

    def test_drop_table(self, rcnvm_db):
        rcnvm_db.create_table("t", [("a", 8)])
        rcnvm_db.drop_table("t")
        with pytest.raises(SqlError):
            rcnvm_db.table("t")


class TestExecution:
    def make_loaded(self, system="RC-NVM"):
        db = make_database(system)
        layout = "column" if db.memory.supports_column else "row"
        db.create_table("t", [("a", 8), ("b", 8)], layout=layout)
        db.insert_many("t", simple_rows(200, 2))
        return db

    def test_outcome_fields(self):
        db = self.make_loaded()
        outcome = db.execute("SELECT SUM(b) FROM t WHERE a > 500")
        assert outcome.cycles and outcome.cycles > 0
        assert outcome.trace_length > 0
        assert outcome.plan is not None
        assert outcome.sql.startswith("SELECT")

    def test_simulate_false_skips_timing(self):
        db = self.make_loaded()
        outcome = db.execute("SELECT SUM(b) FROM t", simulate=False)
        assert outcome.timing is None and outcome.cycles is None

    def test_fresh_timing_resets_stats(self):
        db = self.make_loaded()
        db.execute("SELECT SUM(b) FROM t")
        outcome = db.execute("SELECT SUM(b) FROM t")
        # Cold caches each time: identical queries cost identical cycles.
        outcome2 = db.execute("SELECT SUM(b) FROM t")
        assert outcome.cycles == outcome2.cycles

    def test_warm_timing_accumulates(self):
        db = self.make_loaded()
        first = db.execute("SELECT SUM(b) FROM t")
        warm = db.execute("SELECT SUM(b) FROM t", fresh_timing=False)
        # Second run hits caches: fewer misses.
        assert warm.timing.llc_misses < first.timing.llc_misses

    def test_reset_timing_leaves_every_set_unmaterialized(self):
        db = self.make_loaded()
        db.execute("SELECT SUM(b) FROM t", fresh_timing=False)
        db.reset_timing()
        for level in db.hierarchy.levels:
            assert all(cache_set is EMPTY_SET for cache_set in level.sets)

    def test_replay_materializes_only_touched_llc_sets(self):
        db = self.make_loaded()
        outcome = db.execute("SELECT SUM(b) FROM t")
        distinct = len(set(outcome.trace.finalize().line_key.tolist()))
        llc_sets = db.hierarchy.llc.sets
        materialized = sum(1 for s in llc_sets if s is not EMPTY_SET)
        assert 0 < materialized <= distinct < len(llc_sets)

    def test_verify_flag_checks_results(self):
        db = self.make_loaded()
        outcome = db.execute("SELECT COUNT(a) FROM t WHERE a > 100", verify=True)
        assert outcome.result.kind == "scalar"

    def test_explain(self):
        db = self.make_loaded()
        text = db.explain("SELECT SUM(b) FROM t WHERE a > 500")
        assert "AggregatePlan" in text

    def test_group_lines_default(self):
        db = make_database("RC-NVM", default_group_lines=16)
        db.create_table("t", [("a", 8), ("b", 8), ("c", 8), ("d", 8)], layout="column")
        db.insert_many("t", simple_rows(64, 4))
        plan = db.plan("SELECT a, c FROM t")
        assert plan.group_lines == 16


class TestVerificationFailureDetection:
    def test_check_result_catches_bad_scalar(self):
        from repro.imdb.database import _check_result
        from repro.imdb.executor import QueryResult

        with pytest.raises(AssertionError):
            _check_result(
                "q",
                QueryResult(kind="scalar", value=1),
                QueryResult(kind="scalar", value=2),
            )

    def test_check_result_catches_kind_mismatch(self):
        from repro.imdb.database import _check_result
        from repro.imdb.executor import QueryResult

        with pytest.raises(AssertionError):
            _check_result(
                "q",
                QueryResult(kind="scalar", value=1),
                QueryResult(kind="count", count=1),
            )

    def test_check_result_rows_order_insensitive(self):
        from repro.imdb.database import _check_result
        from repro.imdb.executor import QueryResult

        _check_result(
            "q",
            QueryResult(kind="rows", rows=[(1,), (2,)]),
            QueryResult(kind="rows", rows=[(2,), (1,)]),
        )


class TestTimingLifecycle:
    def test_reset_builds_synonym_only_for_rcnvm(self):
        rc = make_database("RC-NVM")
        assert rc.hierarchy.synonym is not None
        dram = make_database("DRAM")
        assert dram.hierarchy.synonym is None

    def test_cache_config_respected(self):
        db = make_database("RC-NVM", cache_config=dict(SMALL_CACHES, l3_kib=256))
        assert db.hierarchy.llc.size_bytes == 256 * 1024

    def test_data_survives_reset(self):
        db = make_database("RC-NVM")
        db.create_table("t", [("a", 8)], layout="column")
        db.insert_many("t", [(7,)])
        db.reset_timing()
        assert db.table("t").read_tuple(0) == (7,)
