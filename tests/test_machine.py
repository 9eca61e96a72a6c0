"""Single-core machine model: window, barriers, pinning, accounting."""

import pytest

from repro.cache.hierarchy import make_hierarchy
from repro.cache.synonym import SynonymDirectory
from repro.core import isa
from repro.core.addressing import Coordinate, Orientation
from repro.cpu.machine import Machine
from repro.cpu.multicore import MulticoreMachine
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import CapabilityError
from repro.memsim.system import make_small_dram, make_small_rcnvm

SMALL = dict(l1_kib=4, l2_kib=16, l3_kib=64)


def rcnvm_machine(window=8):
    memory = make_small_rcnvm()
    hierarchy = make_hierarchy(synonym=SynonymDirectory(memory.mapper), **SMALL)
    return Machine(memory, hierarchy, window=window), memory


def dram_machine(window=8):
    memory = make_small_dram()
    hierarchy = make_hierarchy(**SMALL)
    return Machine(memory, hierarchy, window=window), memory


def row_addr(memory, row, col=0):
    return memory.mapper.encode_row(Coordinate(0, 0, 0, 0, row, col))


def col_addr(memory, row, col):
    return memory.mapper.encode_col(Coordinate(0, 0, 0, 0, row, col))


class TestBasics:
    def test_empty_trace(self):
        machine, _memory = rcnvm_machine()
        result = machine.run([])
        assert result.cycles == 0 and result.accesses == 0

    def test_single_read(self):
        machine, memory = rcnvm_machine()
        result = machine.run([isa.load(row_addr(memory, 0), size=64)])
        assert result.llc_misses == 1
        assert result.cycles > 0
        assert result.memory["reads"] == 1

    def test_repeat_hits_l1(self):
        machine, memory = rcnvm_machine()
        addr = row_addr(memory, 0)
        result = machine.run([isa.load(addr), isa.load(addr), isa.load(addr)])
        assert result.llc_misses == 1
        assert result.l1_hits == 2

    def test_multi_line_access_split(self):
        machine, memory = rcnvm_machine()
        result = machine.run([isa.load(row_addr(memory, 0), size=256)])
        assert result.lines_touched == 4
        assert result.llc_misses == 4

    def test_write_allocates_and_writes_back_on_flush(self):
        machine, memory = rcnvm_machine()
        result = machine.run([isa.store(row_addr(memory, 0), size=64)])
        # Write-allocate: a read fill happened; dirty data stays cached.
        assert result.llc_misses == 1
        assert result.writes == 1

    def test_column_read_on_rcnvm(self):
        machine, memory = rcnvm_machine()
        result = machine.run([isa.cload(col_addr(memory, 0, 5), size=64)])
        assert result.memory["col_oriented"] == 1

    def test_column_read_on_dram_rejected(self):
        machine, memory = dram_machine()
        with pytest.raises(CapabilityError):
            machine.run([isa.cload(0, size=64)])

    def test_gather_requires_coord(self):
        machine, _memory = rcnvm_machine()
        access = Access(Op.GATHER, 1 << 41, size=64)
        with pytest.raises(CapabilityError):
            machine.run([access])

    def test_gather_on_gsdram(self):
        from repro.memsim.system import make_gsdram
        from repro.geometry import SMALL_DRAM_GEOMETRY

        memory = make_gsdram(SMALL_DRAM_GEOMETRY)
        machine = Machine(memory, make_hierarchy(**SMALL))
        coord = Coordinate(0, 0, 0, 0, 3, 0)
        result = machine.run([isa.gather_load(1 << 41, coord)])
        assert result.memory["gathers"] == 1


class TestWindow:
    def test_window_limits_overlap(self):
        # A tiny window must be slower than a big one on a miss stream
        # spread across banks.
        def run(window):
            machine, memory = rcnvm_machine(window=window)
            trace = [
                isa.load(memory.mapper.encode_row(Coordinate(0, 0, b % 4, 0, i, 0)), size=64)
                for i, b in zip(range(64), range(64))
            ]
            return machine.run(trace).cycles

        assert run(window=1) > run(window=8)

    def test_barrier_serializes(self):
        machine, memory = rcnvm_machine()
        trace = [isa.load(row_addr(memory, i), size=64) for i in range(8)]
        barrier_trace = [
            isa.load(row_addr(memory, i), size=64, barrier=True) for i in range(8)
        ]
        free = machine.run(trace).cycles
        machine2, memory2 = rcnvm_machine()
        barrier_trace = [
            isa.load(row_addr(memory2, i), size=64, barrier=True) for i in range(8)
        ]
        serialized = machine2.run(barrier_trace).cycles
        assert serialized >= free

    def test_gap_accumulates(self):
        machine, memory = rcnvm_machine()
        addr = row_addr(memory, 0)
        base = machine.run([isa.load(addr)]).cycles
        machine2, memory2 = rcnvm_machine()
        padded = machine2.run([isa.load(row_addr(memory2, 0), gap=1000)]).cycles
        assert padded >= base + 900


class TestPinning:
    def test_pin_then_unpin(self):
        machine, memory = rcnvm_machine()
        addr = col_addr(memory, 0, 5)
        result = machine.run(
            [
                isa.cload(addr, size=64, pin=True),
                isa.unpin(addr, 64, Orientation.COLUMN),
            ]
        )
        from repro.cache.line import line_key

        line = machine.hierarchy.llc.probe(line_key(addr, Orientation.COLUMN))
        assert line is not None and not line.pinned

    def test_pin_flag_sets_llc_pin(self):
        machine, memory = rcnvm_machine()
        addr = col_addr(memory, 0, 5)
        machine.run([isa.cload(addr, size=64, pin=True)])
        from repro.cache.line import line_key

        assert machine.hierarchy.llc.probe(line_key(addr, Orientation.COLUMN)).pinned


class TestAccounting:
    def test_synonym_cycles_counted(self):
        machine, memory = rcnvm_machine()
        # A column line then a crossing row line.
        trace = [
            isa.cload(col_addr(memory, 8, 16), size=64),
            isa.load(row_addr(memory, 10, 16), size=64),
        ]
        result = machine.run(trace)
        assert result.synonym_cycles > 0
        assert result.coherence_overhead_ratio > 0

    def test_memory_accesses_include_writebacks(self):
        machine, memory = rcnvm_machine()
        # Dirty a line, then push it out of the tiny LLC with reads.
        trace = [isa.store(row_addr(memory, 0), size=64)]
        trace += [isa.load(row_addr(memory, i), size=64) for i in range(1, 200)]
        result = machine.run(trace)
        assert result.writebacks > 0
        assert result.memory_accesses == result.llc_misses + result.writebacks

    def test_result_has_cache_snapshots(self):
        machine, memory = rcnvm_machine()
        result = machine.run([isa.load(row_addr(memory, 0), size=64)])
        assert set(result.caches) == {"L1", "L2", "L3"}
        assert result.synonym  # RC-NVM machine carries synonym stats


# -- trace-buffer capability checks ---------------------------------------------
def _column_on_dram():
    return make_small_dram(), isa.cload(0, size=64), "column"


def _gather_on_rcnvm():
    coord = Coordinate(0, 0, 0, 0, 0, 0)
    return make_small_rcnvm(), isa.gather_load(1 << 41, coord), "gathered"


def _machine_run(memory, trace):
    return Machine(memory, make_hierarchy(**SMALL)).run(trace)


def _multicore_run(memory, trace):
    return MulticoreMachine(memory, n_cores=1, l1_kib=4, llc_kib=64).run([trace])


def _run_segmented(memory, trace):
    machine = MulticoreMachine(memory, n_cores=1, l1_kib=4, llc_kib=64)
    return machine.run_segmented([[(trace, 1, "t")]])


@pytest.mark.parametrize("case", [_column_on_dram, _gather_on_rcnvm])
@pytest.mark.parametrize("replay", [_machine_run, _multicore_run, _run_segmented])
def test_unsupported_buffer_raises_through_every_entry_point(case, replay):
    """A buffer the memory cannot serve is refused up front, the same way
    by every replay entry point, before any line is replayed."""
    memory, access, kind = case()
    trace = TraceBuffer()
    trace.append(access)
    with pytest.raises(CapabilityError, match=f"does not support {kind}"):
        replay(memory, trace)
