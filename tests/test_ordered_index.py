"""Ordered (sorted-projection) index: probes, ranges, planner use."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_database, simple_rows
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import SqlError
from repro.imdb.planner import _compare


def indexed_db(system="RC-NVM", n=800, value_range=1000):
    db = make_database(system, verify=True)
    layout = "column" if db.memory.supports_column else "row"
    db.create_table("t", [("k", 8), ("v", 8), ("w", 8)], layout=layout)
    db.insert_many("t", simple_rows(n, 3, seed=21, value_range=value_range))
    db.create_ordered_index("t", "k")
    return db


class TestProbing:
    @pytest.mark.parametrize("op", [">", "<", ">=", "<=", "="])
    def test_range_probe_matches_mask(self, op):
        db = indexed_db()
        table = db.table("t")
        index = table.ordered_indexes["k"]
        values = table.field_values("k")
        for threshold in (0, 113, 500, 999, 2000):
            expected = sorted(int(i) for i in np.nonzero(
                _compare(values, op, threshold))[0])
            assert sorted(index.range_probe(op, threshold)) == expected, (op, threshold)

    def test_probe_emits_log_plus_range_accesses(self):
        db = indexed_db(n=800)
        index = db.table("t").ordered_indexes["k"]
        trace = TraceBuffer()
        ids = index.range_probe(">", 950, trace=trace, executor=db.executor)
        # Binary search ~log2(800) probes plus a compact range read.
        assert len(trace) <= 14 + len(ids) // 2 + 4

    def test_duplicates_all_found(self):
        db = make_database("RC-NVM", verify=False)
        db.create_table("d", [("k", 8)], layout="column")
        db.insert_many("d", [(5,)] * 20 + [(7,)] * 3)
        index = db.create_ordered_index("d", "k")
        assert len(index.range_probe("=", 5)) == 20
        assert len(index.range_probe(">", 5)) == 3

    def test_empty_results(self):
        db = indexed_db()
        index = db.table("t").ordered_indexes["k"]
        assert index.range_probe(">", 10_000) == []
        assert index.range_probe("<", -10_000) == []

    @given(seed=st.integers(0, 30), threshold=st.integers(-5, 25))
    @settings(max_examples=25, deadline=None)
    def test_probe_property(self, seed, threshold):
        db = make_database("RC-NVM", verify=False)
        db.create_table("p", [("k", 8)], layout="column")
        rng = np.random.default_rng(seed)
        values = rng.integers(-10, 20, size=150)
        db.insert_many("p", [(int(v),) for v in values])
        index = db.create_ordered_index("p", "k")
        expected = sorted(int(i) for i in np.nonzero(values >= threshold)[0])
        assert sorted(index.range_probe(">=", threshold)) == expected


class TestPlannerIntegration:
    def test_selective_range_uses_ordered_index(self):
        db = indexed_db()
        plan = db.plan("SELECT v, w FROM t WHERE k > 950")
        assert plan.use_ordered_index and not plan.use_index

    def test_unselective_range_scans(self):
        db = indexed_db()
        plan = db.plan("SELECT v, w FROM t WHERE k > 100")
        assert not plan.use_ordered_index

    def test_hash_index_preferred_for_equality(self):
        db = indexed_db()
        db.create_index("t", "k")
        plan = db.plan("SELECT v FROM t WHERE k = 7")
        assert plan.use_index and not plan.use_ordered_index

    def test_equality_falls_back_to_ordered(self):
        db = indexed_db(value_range=100_000)  # near-unique keys
        plan = db.plan("SELECT v FROM t WHERE k = 7")
        assert plan.use_ordered_index

    def test_update_of_ordered_indexed_field_rejected(self):
        db = indexed_db()
        with pytest.raises(SqlError):
            db.plan("UPDATE t SET k = 1 WHERE v = 7")

    def test_update_predicate_can_use_ordered_index(self):
        db = indexed_db()
        plan = db.plan("UPDATE t SET v = 1 WHERE k > 990")
        assert plan.use_ordered_index


class TestEndToEnd:
    @pytest.mark.parametrize("system", ["RC-NVM", "DRAM"])
    def test_results_match_reference(self, system):
        db = indexed_db(system)
        for sql in (
            "SELECT v, w FROM t WHERE k > 950",
            "SELECT * FROM t WHERE k <= 20",
            "SELECT SUM(v) FROM t WHERE k >= 980",
            "UPDATE t SET v = 5 WHERE k < 10",
        ):
            db.execute(sql, simulate=False)  # verify=True checks results

    def test_ordered_index_cuts_traffic(self):
        db = indexed_db(n=2000)
        indexed = db.execute("SELECT v, w FROM t WHERE k > 990")
        db.drop_ordered_index("t", "k")
        scanned = db.execute("SELECT v, w FROM t WHERE k > 990")
        assert indexed.timing.llc_misses < scanned.timing.llc_misses
        assert indexed.cycles < scanned.cycles

    def test_duplicate_creation_rejected(self):
        from repro.errors import LayoutError

        db = indexed_db()
        with pytest.raises(LayoutError):
            db.create_ordered_index("t", "k")
