"""Cost model: rankings must agree with measured simulation."""

import dataclasses

from conftest import make_database, simple_rows
from repro.imdb.cost import CostModel, explain_costs
from repro.imdb.planner import FetchMethod, ScanMethod


def loaded_db(system="RC-NVM", n=2000, fields=8):
    db = make_database(system, verify=False)
    layout = "column" if db.memory.supports_column else "row"
    db.create_table("t", [(f"f{i}", 8) for i in range(1, fields + 1)], layout=layout)
    db.insert_many("t", simple_rows(n, fields, seed=3))
    return db


def measure(db, plan):
    _result, trace = db.executor.execute(plan)
    db.reset_timing()
    return db.machine.run(trace).cycles


class TestEstimates:
    def test_every_plan_type_priced(self):
        db = loaded_db()
        db.create_table("u", [("g1", 8), ("g2", 8)], layout="column")
        db.insert_many("u", simple_rows(128, 2, seed=4))
        db.create_table("w", [("k", 8), ("wide", 32)], layout="column")
        db.insert_many("w", [(i, (i, i, i, i)) for i in range(64)])
        model = CostModel(db)
        statements = [
            "SELECT f3, f4 FROM t WHERE f1 > 900",
            "SELECT * FROM t WHERE f1 > 100",
            "SELECT SUM(f2) FROM t WHERE f1 > 500",
            "SELECT SUM(wide) FROM w",
            "SELECT f2, f5 FROM t",
            "SELECT t.f3, u.g2 FROM t, u WHERE t.f1 = u.g1",
            "UPDATE t SET f3 = 1 WHERE f1 = 500",
        ]
        for sql in statements:
            estimate = model.estimate(db.plan(sql))
            assert estimate.cycles > 0, sql
            assert estimate.lines > 0, sql

    def test_estimate_scales_with_table_size(self):
        small = loaded_db(n=500)
        large = loaded_db(n=4000)
        sql = "SELECT SUM(f2) FROM t WHERE f1 > 500"
        small_cost = CostModel(small).estimate(small.plan(sql)).cycles
        large_cost = CostModel(large).estimate(large.plan(sql)).cycles
        assert large_cost > 4 * small_cost

    def test_index_plan_priced_cheaper(self):
        db = loaded_db()
        db.create_index("t", "f1")
        model = CostModel(db)
        indexed = model.estimate(db.plan("SELECT f3, f4 FROM t WHERE f1 = 7"))
        db.drop_index("t", "f1")
        scanned = model.estimate(db.plan("SELECT f3, f4 FROM t WHERE f1 = 7"))
        assert indexed.cycles < scanned.cycles


class TestRankingMatchesSimulation:
    """The contract: the model orders alternatives like the simulator."""

    def test_fetch_methods_on_selective_projection(self):
        db = loaded_db("RC-NVM")
        plan = db.plan("SELECT f3, f4 FROM t WHERE f1 > 950")
        model = CostModel(db)
        estimated = {}
        measured = {}
        for method in FetchMethod:
            candidate = dataclasses.replace(plan, fetch_method=method)
            estimated[method] = model.estimate(candidate).cycles
            measured[method] = measure(db, candidate)
        estimated_order = sorted(estimated, key=estimated.get)
        measured_order = sorted(measured, key=measured.get)
        assert estimated_order[0] == measured_order[0]
        assert estimated_order[-1] == measured_order[-1]

    def test_scan_method_ranking_on_rcnvm(self):
        from repro.imdb.planner import ScanMethod

        db = loaded_db("RC-NVM")
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > 500")
        model = CostModel(db)
        column = model.estimate(plan).cycles
        row = model.estimate(
            dataclasses.replace(plan, scan_method=ScanMethod.ROW)
        ).cycles
        assert column < row

    def test_group_caching_priced_cheaper_than_naive(self):
        db = make_database("RC-NVM", verify=False)
        db.create_table("w", [("k", 8), ("wide", 32)], layout="column")
        db.insert_many("w", [(i, (i, i, i, i)) for i in range(512)])
        model = CostModel(db)
        naive = model.estimate(db.plan("SELECT SUM(wide) FROM w", group_lines=0))
        grouped = model.estimate(db.plan("SELECT SUM(wide) FROM w", group_lines=32))
        assert grouped.cycles < naive.cycles


class TestExplainCosts:
    def test_chosen_plus_alternatives(self):
        db = loaded_db()
        out = explain_costs(db, "SELECT f3, f4 FROM t WHERE f1 > 950")
        assert "chosen" in out
        assert len(out) == 3  # chosen + the two other fetch methods

    def test_chosen_is_cheapest_or_close(self):
        db = loaded_db()
        out = explain_costs(db, "SELECT f3, f4 FROM t WHERE f1 > 950")
        chosen = out.pop("chosen")
        assert all(chosen.cycles <= alt.cycles * 1.2 for alt in out.values())

    def test_str_is_readable(self):
        db = loaded_db()
        out = explain_costs(db, "SELECT SUM(f2) FROM t WHERE f1 > 500")
        assert "cycles" in str(out["chosen"])


def two_chunk_db():
    """A two-chunk table with chunk-aligned id ranges (insert_many always
    appends whole new chunks): ids [0, 200) in chunk 0, [200, 400) in
    chunk 1."""
    db = make_database("RC-NVM", verify=False)
    db.create_table("t", [("id", 8), ("v", 8)], layout="column")
    db.insert_many("t", [(i, i * 3) for i in range(200)])
    db.insert_many("t", [(i, i * 3) for i in range(200, 400)])
    assert len(db.tables["t"].chunks) == 2
    return db


class TestDirtyChunkBlending:
    def test_dirty_chunks_localize_the_predicate(self):
        db = two_chunk_db()
        table = db.tables["t"]
        model = CostModel(db)
        low = db.plan("UPDATE t SET v = 0 WHERE id < 50")
        assert model.dirty_chunks(table, low) == [table.chunks[0]]
        high = db.plan("UPDATE t SET v = 0 WHERE id >= 350")
        assert model.dirty_chunks(table, high) == [table.chunks[1]]

    def test_no_predicates_or_no_matches_fall_back_to_all_chunks(self):
        db = two_chunk_db()
        table = db.tables["t"]
        model = CostModel(db)
        everything = db.plan("UPDATE t SET v = 0")
        assert model.dirty_chunks(table, everything) == table.chunks
        nothing = db.plan("UPDATE t SET v = 0 WHERE id > 1000000")
        assert model.dirty_chunks(table, nothing) == table.chunks


class TestWriteDirection:
    def _update_db(self, n=2000):
        db = make_database("RC-NVM", verify=False)
        db.create_table("t", [(f"f{i}", 8) for i in range(1, 5)],
                        layout="column")
        db.insert_many("t", [(i, i, i, i) for i in range(n)])
        return db

    def test_column_writes_price_fewer_pulses_for_scattered_updates(self):
        db = self._update_db()
        plan = db.plan("UPDATE t SET f3 = 1, f4 = 2 WHERE f1 > 400")
        model = CostModel(db)
        row = model.estimate(
            dataclasses.replace(plan, write_method=ScanMethod.ROW)
        )
        column = model.estimate(
            dataclasses.replace(plan, write_method=ScanMethod.COLUMN)
        )
        assert column.write_pulses < row.write_pulses
        assert column.cycles < row.cycles

    def test_planner_picks_column_write_direction(self):
        db = self._update_db()
        plan = db.plan("UPDATE t SET f3 = 1, f4 = 2 WHERE f1 > 400")
        assert plan.write_method is ScanMethod.COLUMN

    def test_read_only_plans_price_zero_write_pulses(self):
        db = self._update_db()
        estimate = CostModel(db).estimate(
            db.plan("SELECT f2 FROM t WHERE f1 > 400")
        )
        assert estimate.write_pulses == 0

    def test_write_direction_ranking_matches_simulation(self):
        db = self._update_db()
        plan = db.plan("UPDATE t SET f3 = 1, f4 = 2 WHERE f1 > 400")
        row_plan = dataclasses.replace(plan, write_method=ScanMethod.ROW)
        column_plan = dataclasses.replace(plan, write_method=ScanMethod.COLUMN)
        model = CostModel(db)
        assert (model.estimate(column_plan).cycles
                < model.estimate(row_plan).cycles)
        row_measured = measure(db, row_plan)
        column_measured = measure(db, column_plan)
        assert column_measured < row_measured
        # The measured pulse counts must rank the same way the estimator
        # prices them: scattered row write-backs dirty one buffer entry
        # per match, the column direction one per field word per chunk.
        db.reset_timing()
        _result, trace = db.executor.execute(row_plan)
        row_pulses = db.machine.run(trace).memory["write_pulses"]
        db.reset_timing()
        _result, trace = db.executor.execute(column_plan)
        column_pulses = db.machine.run(trace).memory["write_pulses"]
        assert column_pulses < row_pulses

    def test_explain_costs_prices_the_write_alternative(self):
        db = self._update_db()
        out = explain_costs(db, "UPDATE t SET f3 = 1, f4 = 2 WHERE f1 > 400")
        assert "chosen" in out
        alternatives = [k for k in out if k.startswith("write=")]
        assert alternatives  # the unchosen direction is priced
        for key in alternatives:
            assert out[key].cycles >= out["chosen"].cycles
