"""End-to-end reliability pipeline: injection, scrubbing, recovery."""

import random

import pytest

from conftest import make_database, simple_rows
from repro.errors import ConfigurationError
from repro.imdb.binpack import Placement
from repro.imdb.chunks import Run
from repro.memsim.endurance import WearTracker
from repro.orientation import Orientation
from repro.reliability import (
    CampaignSpec,
    FaultInjector,
    ScrubScheduler,
    translate_run,
)
from repro.reliability.faults import occupied_rectangles


def make_protected_db(system="RC-NVM", rows=600, layout=None):
    db = make_database(system)
    layout = layout or ("column" if db.memory.supports_column else "row")
    db.create_table("t", [("a", 8), ("b", 8)], layout=layout)
    db.insert_many("t", simple_rows(rows, 2))
    db.enable_reliability()
    return db


def run_device_cells(run):
    if run.vertical:
        return [(run.subarray, run.start + i, run.fixed) for i in range(run.count)]
    return [(run.subarray, run.fixed, run.start + i) for i in range(run.count)]


def chunk_local_of(placement, row, col):
    """Device cell -> chunk-local (row, col) under a placement."""
    if placement.rotated:
        return col - placement.x, row - placement.y
    return row - placement.y, col - placement.x


class TestTranslateRun:
    @pytest.mark.parametrize("old_rotated", [False, True])
    @pytest.mark.parametrize("new_rotated", [False, True])
    @pytest.mark.parametrize("vertical", [False, True])
    def test_translation_preserves_chunk_local_cells(
        self, old_rotated, new_rotated, vertical
    ):
        # A 6 wide x 4 tall chunk rectangle under both placements.
        def placed(x, y, rotated, bin_index):
            w, h = (4, 6) if rotated else (6, 4)
            return Placement(
                bin_index=bin_index, x=x, y=y, rotated=rotated, width=w, height=h
            )

        old = placed(8, 16, old_rotated, 2)
        new = placed(32, 4, new_rotated, 5)
        if vertical:
            run = Run(
                subarray=2, vertical=True, fixed=old.x + 1, start=old.y,
                count=4, first_tuple=0, tuple_stride=1,
            )
        else:
            run = Run(
                subarray=2, vertical=False, fixed=old.y + 1, start=old.x,
                count=4, first_tuple=0, tuple_stride=1,
            )
        moved = translate_run(run, old, new)
        assert moved.subarray == new.bin_index
        assert moved.count == run.count
        assert moved.first_tuple == run.first_tuple
        assert moved.tuple_stride == run.tuple_stride
        old_locals = [
            chunk_local_of(old, r, c) for _s, r, c in run_device_cells(run)
        ]
        new_locals = [
            chunk_local_of(new, r, c) for _s, r, c in run_device_cells(moved)
        ]
        assert old_locals == new_locals

    def test_identity_translation(self):
        p = Placement(bin_index=1, x=0, y=0, rotated=False, width=8, height=8)
        run = Run(subarray=1, vertical=True, fixed=3, start=2, count=4,
                  first_tuple=7, tuple_stride=2)
        assert translate_run(run, p, p) == run


class TestFaultInjector:
    def rectangles(self):
        return [(0, 0, 0, 32, 16), (1, 8, 8, 16, 16)]

    def make_injector(self, db=None, tracker=None):
        db = db or make_protected_db()
        return db, FaultInjector(
            db.ecc, occupied_rectangles(db),
            geometry=db.memory.geometry, wear_tracker=tracker,
        )

    def test_requires_rectangles(self):
        db = make_protected_db()
        with pytest.raises(ConfigurationError):
            FaultInjector(db.ecc, [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(n_faults=1, mode="cosmic-rays")

    def test_campaign_is_deterministic(self):
        _db, injector_a = self.make_injector()
        _db, injector_b = self.make_injector()
        records_a = injector_a.run(CampaignSpec(n_faults=24, seed=11))
        records_b = injector_b.run(CampaignSpec(n_faults=24, seed=11))
        assert records_a == records_b

    def test_cells_distinct_and_inside_rectangles(self):
        db, injector = self.make_injector()
        records = injector.run(CampaignSpec(n_faults=40, seed=3))
        cells = [(r.subarray, r.row, r.col) for r in records]
        assert len(set(cells)) == len(cells) == 40
        rects = occupied_rectangles(db)
        for sub, row, col in cells:
            assert any(
                s == sub and x <= col < x + w and y <= row < y + h
                for s, x, y, w, h in rects
            )

    def test_double_fraction_extremes(self):
        _db, injector = self.make_injector()
        singles = injector.run(CampaignSpec(n_faults=10, double_fraction=0.0, seed=1))
        assert not any(r.double for r in singles)
        _db, injector = self.make_injector()
        doubles = injector.run(CampaignSpec(n_faults=10, double_fraction=1.0, seed=1))
        assert all(r.double for r in doubles)
        for record in doubles:
            assert len(set(record.bits)) == 2

    def test_hotline_targets_hot_lines(self):
        db = make_protected_db()
        rects = occupied_rectangles(db)
        sub, x, y, w, h = rects[0]
        coord = db.physmem.subarray_coord(sub)
        tracker = WearTracker()
        hot_row = y + 1
        for _ in range(50):
            tracker.record_flush(
                coord[0], coord[1], coord[2], coord[3], Orientation.ROW, hot_row
            )
        _db, injector = self.make_injector(db=db, tracker=tracker)
        records = injector.run(CampaignSpec(n_faults=4, mode="hotline", seed=5))
        assert all(r.subarray == sub and r.row == hot_row for r in records)

    def test_hotline_without_wear_falls_back_to_uniform(self):
        _db, injector = self.make_injector(tracker=None)
        records = injector.run(CampaignSpec(n_faults=6, mode="hotline", seed=5))
        assert len(records) == 6

    def test_burst_plants_consecutive_cells(self):
        _db, injector = self.make_injector()
        records = injector.run(
            CampaignSpec(n_faults=4, mode="burst", burst_span=4, seed=2)
        )
        rows = {(r.subarray, r.row) for r in records}
        assert len(rows) == 1
        cols = sorted(r.col for r in records)
        assert cols == list(range(cols[0], cols[0] + 4))


class TestScrubScheduler:
    def test_sweep_charges_memory_stats(self):
        db = make_protected_db()
        scrubber = ScrubScheduler(db.ecc, db.memory)
        report = scrubber.sweep()
        assert report.swept_subarrays >= 1
        assert report.scrub_reads > 0 and report.scrub_cycles > 0
        stats = db.memory.stats
        assert stats.scrub_reads == report.scrub_reads
        assert stats.scrub_cycles == report.scrub_cycles
        snap = stats.snapshot()
        assert snap["scrub_reads"] == report.scrub_reads

    def test_sweep_corrects_and_reports_deltas(self):
        db = make_protected_db()
        table = db.tables["t"]
        p = table.chunks[0].placement
        db.ecc.inject_fault(p.bin_index, p.y, p.x, bit=12)
        scrubber = ScrubScheduler(db.ecc, db.memory)
        first = scrubber.sweep()
        assert first.corrected == 1 and first.detected == 0
        second = scrubber.sweep()
        assert second.corrected == 0 and second.detected == 0

    def test_budget_stops_and_cursor_resumes(self):
        db = make_protected_db()
        subarrays = db.physmem.materialized_indexes()
        if len(subarrays) < 2:
            # Force a second materialized subarray for the budget test.
            db.physmem.subarray(subarrays[-1] + 1)
            subarrays = db.physmem.materialized_indexes()
        scrubber = ScrubScheduler(db.ecc, db.memory, cycle_budget=1)
        report = scrubber.sweep()
        assert not report.complete
        assert report.swept_subarrays < len(subarrays)
        seen = report.swept_subarrays
        for _ in range(len(subarrays) * 2):
            extra = scrubber.sweep()
            seen += extra.swept_subarrays
            if extra.complete:
                break
        assert seen >= len(subarrays)
        assert scrubber.total.swept_subarrays == seen

    def test_detected_cells_carry_subarray_ids(self):
        db = make_protected_db()
        p = db.tables["t"].chunks[0].placement
        db.ecc.inject_fault(p.bin_index, p.y + 1, p.x + 1, bit=3)
        db.ecc.inject_fault(p.bin_index, p.y + 1, p.x + 1, bit=55)
        scrubber = ScrubScheduler(db.ecc, db.memory)
        report = scrubber.sweep()
        assert (p.bin_index, p.y + 1, p.x + 1) in report.detected_cells


class TestRecovery:
    def pick_read_cell(self, db):
        """A device cell a full-table SUM query will actually read."""
        table = db.tables["t"]
        chunk = table.chunks[0]
        offset = table.field_offset("b")
        row, col = chunk.local_cell(0, offset)
        return table, chunk, chunk.device_cell(row, col)

    @pytest.mark.parametrize("system", ["RC-NVM", "DRAM"])
    def test_single_bit_fault_transparent(self, system):
        db = make_protected_db(system)
        expected = int(db.table("t").field_values("b").sum())
        _table, _chunk, (sub, row, col) = self.pick_read_cell(db)
        db.ecc.inject_fault(sub, row, col, bit=20)
        outcome = db.execute("SELECT SUM(b) FROM t", verify=True)
        assert outcome.result.value == expected
        assert db.degradation_events == []

    @pytest.mark.parametrize("system", ["RC-NVM", "DRAM"])
    def test_double_bit_fault_triggers_chunk_remap(self, system):
        db = make_protected_db(system)
        expected = int(db.table("t").field_values("b").sum())
        table, chunk, (sub, row, col) = self.pick_read_cell(db)
        old_placement = chunk.placement
        db.ecc.inject_fault(sub, row, col, bit=20)
        db.ecc.inject_fault(sub, row, col, bit=63)
        outcome = db.execute("SELECT SUM(b) FROM t", verify=True)
        assert outcome.result.value == expected
        assert len(db.degradation_events) == 1
        event = db.degradation_events[0]
        assert event.table == "t"
        assert event.cell == (sub, row, col)
        assert event.old_placement == old_placement
        assert chunk.placement == event.new_placement
        assert chunk.placement != old_placement
        assert db.allocator.retired == [old_placement]
        assert outcome.timing.degradation_events == [event]

    def test_remap_preserves_updates_made_through_ecc(self):
        db = make_protected_db()
        table = db.table("t")
        table.write_field(0, "b", 777_000)
        _table, chunk, (sub, row, col) = self.pick_read_cell(db)
        db.ecc.inject_fault(sub, row, col, bit=4)
        db.ecc.inject_fault(sub, row, col, bit=40)
        db.execute("SELECT SUM(b) FROM t", verify=True)
        assert len(db.degradation_events) == 1
        assert table.read_tuple(0)[1] == 777_000

    def test_recover_cell_outside_chunks_returns_none(self):
        db = make_protected_db()
        g = db.memory.geometry
        assert db.recover_cell(g.channels * g.ranks * g.banks * g.subarrays - 1,
                               0, 0) is None

    def test_scrub_driven_recovery_round_trip(self):
        db = make_protected_db()
        scrubber = db.scrubber
        table = db.tables["t"]
        p = table.chunks[0].placement
        cell = (p.bin_index, p.y + 2, p.x + 2)
        db.ecc.inject_fault(*cell, bit=7)
        db.ecc.inject_fault(*cell, bit=30)
        report = scrubber.sweep()
        assert cell in report.detected_cells
        event = db.recover_cell(*cell)
        assert event is not None and event.cell == cell
        resweep = scrubber.sweep()
        assert resweep.corrected == 0 and resweep.detected == 0

    def test_new_tables_are_protected_automatically(self):
        db = make_protected_db()
        db.create_table("t2", [("x", 8)])
        db.insert_many("t2", [(i,) for i in range(100)])
        table = db.tables["t2"]
        assert table.ecc is db.ecc
        assert table.chunks[0].backup is not None


class TestChunkPackedRoundTrip:
    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("rows", [3, 64, 257])
    def test_chunk_packed_inverts_write(self, layout, rows):
        db = make_database("RC-NVM")
        db.create_table("t", [("a", 8), ("b", 8), ("c", 8)], layout=layout)
        data = simple_rows(rows, 3, seed=9)
        db.insert_many("t", data)
        db.enable_reliability()
        table = db.tables["t"]
        packed = [table.chunk_packed(chunk) for chunk in table.chunks]
        flat = [tuple(int(v) for v in row) for part in packed for row in part]
        assert flat == [tuple(db.tables["t"].schema.pack(r)) for r in data]


class TestRunFaults:
    def run_small(self, **kwargs):
        from repro.harness.reliability import run_faults

        params = dict(
            systems=("RC-NVM",), scale=0.02, small=True,
            fault_rate=0.01, seed=7,
        )
        params.update(kwargs)
        return run_faults(**params)

    def test_invariants_hold(self):
        outcome = self.run_small()[0]
        assert outcome.check() == []
        assert outcome.injected == outcome.corrected + outcome.detected
        assert outcome.detected > 0  # recovery path actually exercised
        assert outcome.recovered == outcome.detected
        assert outcome.resweep_corrected == 0 and outcome.resweep_detected == 0
        assert outcome.scrub_cycles > 0 and outcome.scrub_reads > 0
        assert outcome.wear_imbalance > 0
        assert outcome.queries_verified == 4

    def test_deterministic_given_seed(self):
        first = self.run_small()[0]
        second = self.run_small()[0]
        assert first == second

    def test_all_double_campaign_recovers_everything(self):
        outcome = self.run_small(double_fraction=1.0)[0]
        assert outcome.corrected == 0
        assert outcome.detected == outcome.injected
        assert outcome.recovered == outcome.detected
