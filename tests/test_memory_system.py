"""MemorySystem facade: factories, capabilities, routing, statistics."""

import copy
import dataclasses
import functools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.addressing import Coordinate, Orientation
from repro.cpu.multicore import MulticoreMachine
from repro.errors import CapabilityError, ConfigurationError
from repro.geometry import DRAM_GEOMETRY, RCNVM_GEOMETRY, SMALL_RCNVM_GEOMETRY
from repro.harness.systems import SMALL_CACHE_CONFIG, SYSTEM_NAMES, build_system
from repro.imdb.database import Database
from repro.memsim.stats import LatencyHistogram, MemoryStats
from repro.memsim.system import (
    make_dram,
    make_gsdram,
    make_rcnvm,
    make_rram,
    make_small_dram,
    make_small_rcnvm,
)


class TestFactories:
    def test_dram(self):
        memory = make_dram()
        assert memory.name == "DRAM"
        assert not memory.supports_column and not memory.supports_gather
        assert memory.geometry == DRAM_GEOMETRY

    def test_rram(self):
        memory = make_rram()
        assert not memory.supports_column
        assert memory.geometry == RCNVM_GEOMETRY

    def test_rcnvm(self):
        memory = make_rcnvm()
        assert memory.supports_column and not memory.supports_gather

    def test_gsdram(self):
        memory = make_gsdram()
        assert memory.supports_gather and not memory.supports_column

    def test_small_variants(self):
        assert make_small_rcnvm().geometry == SMALL_RCNVM_GEOMETRY
        assert make_small_dram().geometry.total_bytes == SMALL_RCNVM_GEOMETRY.total_bytes

    def test_controllers_per_channel(self):
        memory = make_small_rcnvm()
        assert len(memory.controllers) == memory.geometry.channels


class TestCapabilities:
    def test_column_rejected_on_dram(self):
        memory = make_small_dram()
        coord = Coordinate(0, 0, 0, 0, 0, 0)
        with pytest.raises(CapabilityError):
            memory.request_for_coord(coord, Orientation.COLUMN, False, 0)

    def test_gather_rejected_on_rcnvm(self):
        memory = make_small_rcnvm()
        coord = Coordinate(0, 0, 0, 0, 0, 0)
        with pytest.raises(CapabilityError):
            memory.request_for_coord(coord, Orientation.GATHER, False, 0)

    def test_column_accepted_on_rcnvm(self):
        memory = make_small_rcnvm()
        coord = Coordinate(0, 0, 0, 0, 0, 0)
        req = memory.request_for_coord(coord, Orientation.COLUMN, False, 0)
        assert memory.completion_of(req) > 0


class TestRouting:
    def test_requests_route_by_channel(self):
        memory = make_small_rcnvm()
        c0 = Coordinate(0, 0, 0, 0, 0, 0)
        c1 = Coordinate(1, 0, 0, 0, 0, 0)
        memory.request_for_coord(c0, Orientation.ROW, False, 0)
        memory.request_for_coord(c1, Orientation.ROW, False, 0)
        assert len(memory.controllers[0].pending) == 1
        assert len(memory.controllers[1].pending) == 1

    def test_request_for_line_decodes_column_space(self):
        memory = make_small_rcnvm()
        coord = Coordinate(0, 0, 1, 1, 32, 5)
        address = memory.mapper.encode_col(coord)
        req = memory.request_for_line(address, Orientation.COLUMN, False, 0)
        assert (req.bank, req.subarray, req.row, req.col) == (1, 1, 32, 5)
        assert req.buffer_kind is Orientation.COLUMN
        assert req.buffer_index == 5

    def test_access_convenience(self):
        memory = make_small_rcnvm()
        completion = memory.access(Coordinate(0, 0, 0, 0, 3, 3), Orientation.ROW, False, 0)
        assert completion > 0


class TestStats:
    def test_stats_merge_channels(self):
        memory = make_small_rcnvm()
        memory.access(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        memory.access(Coordinate(1, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        assert memory.stats.reads == 2

    def test_reset_clears(self):
        memory = make_small_rcnvm()
        memory.access(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        memory.reset()
        assert memory.stats.accesses == 0

    def test_merge_maxes_gauges_and_sums_counters_and_histograms(self):
        a, b = MemoryStats(), MemoryStats()
        for index, (name, kind) in enumerate(MemoryStats.INSTRUMENTS.items()):
            if kind == "histogram":
                getattr(a, name).record(10)
                getattr(b, name).record(10)
                getattr(b, name).record(5000)
            else:
                # Both orders of a < b occur, so neither operand wins by
                # position.
                setattr(a, name, 3 + index % 2 * 10)
                setattr(b, name, 7)
        for merged in (a.merge(b), b.merge(a)):
            for name, kind in MemoryStats.INSTRUMENTS.items():
                mine, theirs = getattr(a, name), getattr(b, name)
                if kind == "gauge":
                    assert getattr(merged, name) == max(mine, theirs), name
                elif kind == "counter":
                    assert getattr(merged, name) == mine + theirs, name
                else:
                    expected = LatencyHistogram()
                    for latency in (10, 10, 5000):
                        expected.record(latency)
                    assert getattr(merged, name) == expected, name

    def test_drain_returns_last_completion(self):
        memory = make_small_rcnvm()
        req = memory.request_for_coord(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        last = memory.drain()
        assert last >= req.completion

    def test_snapshot_has_derived_fields(self):
        memory = make_small_rcnvm()
        memory.access(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        snap = memory.stats.snapshot()
        assert snap["accesses"] == 1
        assert "buffer_miss_rate" in snap and "average_latency" in snap


def reference_merge(mine, theirs):
    """The per-field reflection merge ``MemoryStats.merge`` ran before one
    routine combined every block, kept as the reference for that routine:
    histograms pool their samples, gauges take the max, the rest adds."""
    gauges = {
        name for name, kind in MemoryStats.INSTRUMENTS.items() if kind == "gauge"
    }
    merged = MemoryStats()
    for name in vars(mine):
        a, b = getattr(mine, name), getattr(theirs, name)
        if isinstance(a, LatencyHistogram):
            hist = LatencyHistogram()
            hist.count = a.count + b.count
            hist.buckets = dict(a.buckets)
            for bucket, n in b.buckets.items():
                hist.buckets[bucket] = hist.buckets.get(bucket, 0) + n
            setattr(merged, name, hist)
        elif name in gauges:
            setattr(merged, name, max(a, b))
        else:
            setattr(merged, name, a + b)
    return merged


@st.composite
def stat_blocks(draw):
    """A ``MemoryStats`` with every counter, gauge and histogram drawn."""
    block = MemoryStats()
    for name, kind in MemoryStats.INSTRUMENTS.items():
        if kind == "histogram":
            hist = getattr(block, name)
            hist.buckets = draw(st.dictionaries(
                st.integers(0, 40), st.integers(1, 10**6), max_size=6
            ))
            hist.count = sum(hist.buckets.values())
        else:
            setattr(block, name, draw(st.integers(0, 10**12)))
    return block


def _fields(stats):
    """Every field's value, histograms as plain ``(buckets, count)``."""
    return {
        name: (value.buckets, value.count)
        if isinstance(value, LatencyHistogram) else value
        for name, value in vars(stats).items()
    }


class TestMergeMatchesReference:
    """``MemorySystem.stats`` and ``MemoryStats.merge`` share one merge,
    driven by ``INSTRUMENTS``; both must equal the per-field reference."""

    @staticmethod
    def _system(blocks):
        memory = make_small_rcnvm()
        memory.controllers = [SimpleNamespace(stats=block) for block in blocks]
        return memory

    @settings(deadline=None)
    @given(st.lists(stat_blocks(), min_size=1, max_size=4))
    def test_system_stats_and_merge_equal_the_reference(self, blocks):
        expected = functools.reduce(reference_merge, blocks, MemoryStats())
        merged = functools.reduce(MemoryStats.merge, blocks, MemoryStats())
        for got in (self._system(blocks).stats, merged):
            assert _fields(got) == _fields(expected)
            assert got.snapshot() == expected.snapshot()
        pairwise = blocks[0].merge(blocks[-1])
        assert _fields(pairwise) == _fields(reference_merge(blocks[0], blocks[-1]))

    @settings(deadline=None)
    @given(st.lists(stat_blocks(), min_size=1, max_size=4))
    def test_mutating_a_merged_block_changes_no_controller(self, blocks):
        memory = self._system(blocks)
        before = [_fields(copy.deepcopy(block)) for block in blocks]
        expected = memory.stats.snapshot()
        merged = memory.stats
        merged.latency_hist.record(7)
        merged.read_latency_hist.buckets.clear()
        merged.reads += 1
        merged.max_bypass += 1
        pair = blocks[0].merge(blocks[-1])
        pair.latency_hist.buckets[3] = 99
        pair.read_latency_hist.record(12)
        assert [_fields(block) for block in blocks] == before
        assert memory.stats.snapshot() == expected

    def test_no_blocks_merge_to_fresh_stats(self):
        assert self._system([]).stats == MemoryStats()


#: The full snapshot contract.  Downstream consumers (energy model, figure
#: tables, benchmark ablations) index these keys by name, so a rename must
#: fail here first, loudly.
SNAPSHOT_GOLDEN_KEYS = frozenset({
    # raw counters
    "reads", "writes", "buffer_hits", "buffer_empty_misses",
    "buffer_conflicts", "orientation_switches", "dirty_flushes",
    "activations", "buffer_closes", "bus_busy_cycles",
    "total_latency_cycles", "row_oriented", "col_oriented", "gathers",
    # write-asymmetry accounting (coalescing + read-around-write)
    "write_pulses", "writes_coalesced", "read_around_writes",
    "read_latency_hist",
    # scheduler telemetry
    "write_drain_episodes", "starvation_cap_hits", "max_bypass",
    "queue_occupancy_sum", "queue_occupancy_samples",
    "max_queue_occupancy", "max_bank_queue_occupancy", "latency_hist",
    # fair-share arbitration (multi-tenant serving, repro.serving)
    "cross_stream_bypasses", "stream_rotations", "opportunistic_stream_hits",
    # durability (WAL appends + persistence barriers, repro.durability)
    "wal_records", "wal_cells", "persist_barriers", "persist_flush_lines",
    # the deleted hybrid DRAM tier and scrub scheduler: derived from the
    # counters above until a benchmark change re-records the goldens that
    # digest them
    "tier_dram_accesses", "tier_nvm_accesses",
    "tier_dram_hits", "tier_nvm_hits",
    "chunks_promoted", "chunks_demoted",
    "migration_cells", "migration_cycles",
    "scrub_reads", "scrub_cycles",
    # derived
    "accesses", "buffer_miss_rate", "average_latency",
    "avg_queue_occupancy", "latency_p50", "latency_p95", "latency_p99",
    "read_latency_p50", "read_latency_p99",
})


class TestSnapshotGolden:
    def test_snapshot_keys_are_exactly_the_golden_set(self):
        memory = make_small_rcnvm()
        memory.access(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        assert set(memory.stats.snapshot()) == SNAPSHOT_GOLDEN_KEYS

    def test_empty_snapshot_has_same_keys(self):
        assert set(make_small_rcnvm().stats.snapshot()) == SNAPSHOT_GOLDEN_KEYS

    def test_histogram_fields_are_consistent(self):
        memory = make_small_rcnvm()
        for i in range(8):
            memory.access(
                Coordinate(0, 0, 0, 0, i, 0), Orientation.ROW, False, i * 10
            )
        snap = memory.stats.snapshot()
        assert isinstance(snap["latency_hist"], dict)
        assert sum(snap["latency_hist"].values()) == snap["accesses"] == 8
        assert 0 < snap["latency_p50"] <= snap["latency_p95"] <= snap["latency_p99"]

    def test_histogram_merges_across_channels(self):
        memory = make_small_rcnvm()
        memory.access(Coordinate(0, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        memory.access(Coordinate(1, 0, 0, 0, 0, 0), Orientation.ROW, False, 0)
        assert memory.stats.latency_hist.count == 2

    @staticmethod
    def _assert_untiered_keys(snap):
        assert set(snap) == SNAPSHOT_GOLDEN_KEYS
        assert snap["accesses"] > 0
        assert snap["tier_nvm_accesses"] == snap["accesses"]
        assert snap["tier_nvm_hits"] == snap["buffer_hits"]
        for name in ("tier_dram_accesses", "tier_dram_hits",
                     "chunks_promoted", "chunks_demoted",
                     "migration_cells", "migration_cycles",
                     "scrub_reads", "scrub_cycles"):
            assert snap[name] == 0, name
        stat_fields = {f.name for f in dataclasses.fields(MemoryStats)}
        assert not stat_fields & {"scrub_reads", "scrub_cycles"}

    @staticmethod
    def _loaded_db(system):
        db = Database(build_system(system, small=True),
                      cache_config=SMALL_CACHE_CONFIG, verify=False)
        db.create_table("t", [("id", 8), ("v", 8)], layout="row")
        db.insert_many("t", [(i, i * 3) for i in range(256)])
        return db

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_tier_keys_hold_untiered_values_after_machine_run(self, system):
        db = self._loaded_db(system)
        snaps = [db.execute(sql).timing.memory
                 for sql in ("SELECT id, v FROM t WHERE v > 30",
                             "UPDATE t SET v = 1 WHERE id < 100")]
        for snap in snaps:
            self._assert_untiered_keys(snap)
        assert snaps[0]["buffer_hits"] > 0

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_tier_keys_hold_untiered_values_after_run_segmented(self, system):
        db = self._loaded_db(system)
        traces = [
            db.execute(sql, simulate=False).trace
            for sql in ("SELECT id, v FROM t WHERE v > 30",
                        "UPDATE t SET v = 1 WHERE id < 100")
        ]
        machine = MulticoreMachine(build_system(system, small=True),
                                   n_cores=2, l1_kib=4, llc_kib=64)
        result = machine.run_segmented(
            [[(traces[0], 1, "a")], [(traces[1], 2, "b")]]
        )
        self._assert_untiered_keys(result.memory)
        assert result.memory["buffer_hits"] > 0


def test_build_system_refuses_the_deleted_tiered_system():
    with pytest.raises(ConfigurationError) as exc:
        build_system("TIERED")
    assert SYSTEM_NAMES == ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
    for name in SYSTEM_NAMES:
        assert repr(name) in str(exc.value)
