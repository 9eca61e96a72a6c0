"""Hash index: structure, probing, planner integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_database, simple_rows
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import LayoutError, SqlError


def indexed_db(system="RC-NVM", n=600, value_range=50):
    db = make_database(system, verify=True)
    layout = "column" if db.memory.supports_column else "row"
    db.create_table("t", [("k", 8), ("v", 8), ("w", 8)], layout=layout)
    db.insert_many("t", simple_rows(n, 3, seed=5, value_range=value_range))
    db.create_index("t", "k")
    return db


class TestStructure:
    def test_capacity_keeps_load_factor(self):
        db = indexed_db(n=600)
        index = db.table("t").indexes["k"]
        assert index.capacity >= 2 * 600
        assert index.capacity & (index.capacity - 1) == 0

    def test_duplicate_index_rejected(self):
        db = indexed_db()
        with pytest.raises(LayoutError):
            db.create_index("t", "k")

    def test_wide_field_rejected(self):
        db = make_database("RC-NVM", verify=False)
        db.create_table("w", [("a", 8), ("wide", 16)], layout="column")
        db.insert_many("w", [(1, (2, 3))])
        with pytest.raises(LayoutError):
            db.create_index("w", "wide")

    def test_drop_index(self):
        db = indexed_db()
        db.drop_index("t", "k")
        assert "k" not in db.table("t").indexes


class TestProbing:
    def test_probe_matches_scan(self):
        db = indexed_db()
        table = db.table("t")
        index = table.indexes["k"]
        values = table.field_values("k")
        for key in (0, 7, 23, 49, 1000, -3):
            expected = sorted(int(i) for i in np.nonzero(values == key)[0])
            assert sorted(index.probe(key)) == expected

    def test_probe_emits_traced_accesses(self):
        db = indexed_db()
        index = db.table("t").indexes["k"]
        trace = TraceBuffer()
        index.probe(7, trace=trace, executor=db.executor)
        assert trace  # at least one slot read
        assert all(not a.is_write for a in trace)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_probe_property(self, seed):
        db = make_database("RC-NVM", verify=False)
        db.create_table("p", [("k", 8)], layout="column")
        rng = np.random.default_rng(seed)
        values = rng.integers(-10, 10, size=200)
        db.insert_many("p", [(int(v),) for v in values])
        index = db.create_index("p", "k")
        for key in range(-10, 10):
            expected = sorted(int(i) for i in np.nonzero(values == key)[0])
            assert sorted(index.probe(key)) == expected


class TestPlannerIntegration:
    def test_equality_select_uses_index(self):
        db = indexed_db()
        plan = db.plan("SELECT v, w FROM t WHERE k = 7")
        assert plan.use_index

    def test_inequality_does_not(self):
        db = indexed_db()
        plan = db.plan("SELECT v, w FROM t WHERE k > 7")
        assert not plan.use_index

    def test_conjunction_does_not(self):
        db = indexed_db()
        plan = db.plan("SELECT v FROM t WHERE k = 7 AND v > 3")
        assert not plan.use_index

    def test_unindexed_field_does_not(self):
        db = indexed_db()
        plan = db.plan("SELECT v FROM t WHERE v = 7")
        assert not plan.use_index

    def test_update_predicate_uses_index(self):
        db = indexed_db()
        plan = db.plan("UPDATE t SET v = 1 WHERE k = 7")
        assert plan.use_index

    def test_update_of_indexed_field_rejected(self):
        db = indexed_db()
        with pytest.raises(SqlError):
            db.plan("UPDATE t SET k = 1 WHERE v = 7")

    def test_star_equality_fetches_rows_via_index(self):
        from repro.imdb.planner import FetchMethod

        db = indexed_db(value_range=3)  # high selectivity per key
        plan = db.plan("SELECT * FROM t WHERE k = 1")
        assert plan.use_index
        assert plan.fetch_method is FetchMethod.ROW


class TestEndToEnd:
    @pytest.mark.parametrize("system", ["RC-NVM", "DRAM"])
    def test_results_still_match_reference(self, system):
        db = indexed_db(system)
        for sql in (
            "SELECT v, w FROM t WHERE k = 7",
            "SELECT * FROM t WHERE k = 23",
            "SELECT SUM(v) FROM t WHERE k = 7",
            "UPDATE t SET v = 99 WHERE k = 7",
        ):
            db.execute(sql, simulate=False)  # verify=True raises on mismatch

    def test_index_cuts_point_query_traffic(self):
        db = indexed_db(n=600, value_range=600)
        with_index = db.execute("SELECT v, w FROM t WHERE k = 7")
        db.drop_index("t", "k")
        without_index = db.execute("SELECT v, w FROM t WHERE k = 7")
        assert with_index.timing.llc_misses < without_index.timing.llc_misses / 4
        assert with_index.cycles < without_index.cycles
