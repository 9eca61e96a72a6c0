"""Multi-core machine: interleaved execution, sharing, contention."""

import pytest

from replay_oracle import PreciseMachine, PreciseMulticoreMachine
from repro.cache.hierarchy import make_hierarchy
from repro.cache.line import line_key
from repro.core import isa
from repro.core.addressing import Coordinate, Orientation
from repro.cpu.machine import Machine
from repro.cpu.multicore import MulticoreMachine
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.memsim.system import make_rcnvm, make_small_dram, make_small_rcnvm


def machine(system="RC-NVM", n_cores=2, **kwargs):
    memory = make_small_rcnvm() if system == "RC-NVM" else make_small_dram()
    kwargs.setdefault("l1_kib", 4)
    kwargs.setdefault("llc_kib", 64)
    return MulticoreMachine(memory, n_cores=n_cores, **kwargs), memory


def row_trace(memory, rows, bank=0, **kwargs):
    return [
        isa.load(memory.mapper.encode_row(Coordinate(0, 0, bank, 0, r, 0)), size=64, **kwargs)
        for r in rows
    ]


class TestBasics:
    def test_empty(self):
        m, _mem = machine()
        result = m.run([[], []])
        assert result.cycles == 0

    def test_single_core_runs(self):
        m, mem = machine(n_cores=1)
        result = m.run([row_trace(mem, range(16))])
        assert result.cores[0].accesses == 16
        assert result.cores[0].misses == 16
        assert result.cycles > 0

    def test_too_many_traces_rejected(self):
        m, mem = machine(n_cores=1)
        with pytest.raises(ValueError):
            m.run([[], []])

    def test_per_core_results(self):
        m, mem = machine(n_cores=2)
        result = m.run([row_trace(mem, range(8)), row_trace(mem, range(8, 24))])
        assert result.cores[0].accesses == 8
        assert result.cores[1].accesses == 16
        assert result.total_accesses == 24


class TestSharing:
    def test_second_core_hits_llc(self):
        m, mem = machine(n_cores=2)
        trace = row_trace(mem, range(8))
        result = m.run([trace, list(trace)])
        # One core fetched from memory, the other found data in the LLC
        # (or vice versa, interleaved).
        total_misses = sum(core.misses for core in result.cores)
        total_llc_hits = sum(core.llc_hits for core in result.cores)
        assert total_misses == 8
        assert total_llc_hits == 8

    def test_write_sharing_invalidates(self):
        m, mem = machine(n_cores=2)
        addr = mem.mapper.encode_row(Coordinate(0, 0, 0, 0, 0, 0))
        reader = [isa.load(addr, size=64) for _ in range(4)]
        writer = [isa.store(addr, size=64) for _ in range(4)]
        result = m.run([reader, writer])
        assert result.coherence["invalidations_sent"] + result.coherence["downgrades"] > 0

    def test_coherence_cycles_charged(self):
        m, mem = machine(n_cores=2)
        addr = mem.mapper.encode_row(Coordinate(0, 0, 0, 0, 0, 0))
        result = m.run(
            [[isa.load(addr, size=64)], [isa.store(addr, size=64)]]
        )
        assert sum(core.coherence_cycles for core in result.cores) > 0


class TestContention:
    def test_two_cores_slower_than_one_on_same_bank(self):
        m1, mem1 = machine(n_cores=1)
        solo = m1.run([row_trace(mem1, range(64))]).cycles
        m2, mem2 = machine(n_cores=2)
        both = m2.run(
            [row_trace(mem2, range(64)), row_trace(mem2, range(64, 128))]
        ).cycles
        # Sharing one memory is slower than one core alone, but much
        # faster than twice the solo time would suggest if there were no
        # bank parallelism at all.
        assert both > solo

    def test_rcnvm_synonym_stats_present(self):
        m, mem = machine("RC-NVM", n_cores=2)
        result = m.run([row_trace(mem, range(4)), []])
        assert result.synonym is not None

    def test_dram_has_no_synonym(self):
        m, mem = machine("DRAM", n_cores=2)
        result = m.run([row_trace(mem, range(4)), []])
        assert result.synonym == {}


class TestMixedOrientations:
    def test_row_and_column_cores(self):
        m, mem = machine("RC-NVM", n_cores=2)
        rows = row_trace(mem, range(16))
        cols = [
            isa.cload(mem.mapper.encode_col(Coordinate(0, 0, 0, 0, r, 5)), size=64)
            for r in range(0, 128, 8)
        ]
        result = m.run([rows, cols])
        assert result.memory["col_oriented"] > 0
        assert result.memory["row_oriented"] > 0


class TestPinning:
    TRACE = (Access(Op.CREAD, 320), Access(Op.CREAD, 320, pin=True))
    KEY = line_key(320, Orientation.COLUMN)

    @pytest.mark.parametrize(
        "as_buffer, single_class, multi_class",
        [
            (False, PreciseMachine, PreciseMulticoreMachine),
            (True, Machine, MulticoreMachine),
        ],
        ids=["list", "buffer"],
    )
    def test_pinned_private_hit_pins_the_llc_line(
        self, as_buffer, single_class, multi_class
    ):
        """The second access hits the private cache; like the single-core
        machine at every hit level, it still pins the line in the LLC.
        An access list runs on the per-access reference engines."""
        trace = list(self.TRACE)
        if as_buffer:
            trace = TraceBuffer()
            trace.extend(self.TRACE)
        single = single_class(make_rcnvm(SMALL_RCNVM_GEOMETRY), make_hierarchy())
        single.run(trace)
        assert single.hierarchy.llc.probe(self.KEY).pinned
        multi = multi_class(make_rcnvm(SMALL_RCNVM_GEOMETRY), n_cores=1)
        result = multi.run([trace])
        assert result.cores[0].private_hits == 1
        assert multi.directory.llc.probe(self.KEY).pinned
