"""NVM wear tracking: flush accounting and distribution metrics."""

import pytest

from repro.core.addressing import Coordinate, Orientation
from repro.imdb.physmem import PhysicalMemory
from repro.memsim.endurance import (
    WearLine,
    WearTracker,
    attach_wear_tracker,
    subarray_index_of,
)
from repro.memsim.system import make_small_rcnvm


class TestTracker:
    def test_empty(self):
        tracker = WearTracker()
        assert tracker.total_flushes == 0
        assert tracker.max_wear == 0
        assert tracker.imbalance() == 0.0

    def test_record_and_aggregate(self):
        tracker = WearTracker()
        for _ in range(3):
            tracker.record_flush(0, 0, 0, 0, Orientation.ROW, 5)
        tracker.record_flush(0, 0, 0, 0, Orientation.ROW, 9)
        assert tracker.total_flushes == 4
        assert tracker.lines_touched == 2
        assert tracker.max_wear == 3
        assert tracker.imbalance() == pytest.approx(3 / 2)
        (hot_line, hot_count), *_rest = tracker.hottest(1)
        assert hot_count == 3 and hot_line.index == 5

    def test_row_and_column_lines_distinct(self):
        tracker = WearTracker()
        tracker.record_flush(0, 0, 0, 0, Orientation.ROW, 5)
        tracker.record_flush(0, 0, 0, 0, Orientation.COLUMN, 5)
        assert tracker.lines_touched == 2


class TestAttachment:
    def test_dirty_flushes_are_recorded(self):
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        # Write row 3, then conflict to row 4: the dirty buffer flushes.
        memory.access(Coordinate(0, 0, 0, 0, 3, 0), Orientation.ROW, True, 0)
        memory.access(Coordinate(0, 0, 0, 0, 4, 0), Orientation.ROW, False, 10_000)
        assert tracker.total_flushes == 1
        line = tracker.hottest(1)[0][0]
        assert line == WearLine(0, 0, 0, 0, Orientation.ROW, 3)

    def test_clean_traffic_no_wear(self):
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        for row in range(8):
            memory.access(Coordinate(0, 0, 0, 0, row, 0), Orientation.ROW, False, 0)
        assert tracker.total_flushes == 0

    def test_flush_buffers_records_wear(self):
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        memory.access(Coordinate(0, 0, 1, 1, 7, 0), Orientation.ROW, True, 0)
        memory.flush_buffers()
        assert tracker.total_flushes == 1
        line = tracker.hottest(1)[0][0]
        assert (line.bank, line.subarray, line.index) == (1, 1, 7)

    def test_column_buffer_wear(self):
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        memory.access(Coordinate(0, 0, 0, 0, 0, 9), Orientation.COLUMN, True, 0)
        memory.flush_buffers()
        line = tracker.hottest(1)[0][0]
        assert line.kind is Orientation.COLUMN and line.index == 9

    def test_wear_identity_pins_physmem_coordinates(self):
        """The (rank, bank) split of ``attach_wear_tracker`` must stay the
        inverse of ``PhysicalMemory.subarray_coord`` — a divergence would
        silently attribute wear to the wrong physical cells."""
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        physmem = PhysicalMemory(memory.geometry)
        g = memory.geometry
        now = 0
        for channel in range(g.channels):
            for rank in range(g.ranks):
                for bank in range(g.banks):
                    sub, row = 1 % g.subarrays, 3
                    memory.access(
                        Coordinate(channel, rank, bank, sub, row, 0),
                        Orientation.ROW, True, now,
                    )
                    now += 100_000
        memory.flush_buffers()
        assert tracker.lines_touched == g.channels * g.ranks * g.banks
        for line in tracker.counts:
            # The wear line round-trips through the flat subarray id back
            # to exactly the coordinates the request carried.
            flat = subarray_index_of(line, g)
            assert physmem.subarray_coord(flat) == (
                line.channel, line.rank, line.bank, line.subarray
            )
            assert (line.kind, line.index) == (Orientation.ROW, 3)

    def test_hot_line_imbalance_visible(self):
        memory = make_small_rcnvm()
        tracker = attach_wear_tracker(memory)
        # Hammer one row with writes; write each other row once.
        now = 0
        for i in range(10):
            memory.access(Coordinate(0, 0, 0, 0, 3, 0), Orientation.ROW, True, now)
            now += 10_000
            memory.access(Coordinate(0, 0, 0, 0, 4 + i, 0), Orientation.ROW, True, now)
            now += 10_000
        memory.flush_buffers()
        assert tracker.max_wear == 10
        assert tracker.imbalance() > 3
