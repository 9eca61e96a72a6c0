"""The equivalence oracle for the replay fast paths.

``Machine.run`` replays a finalized
:class:`~repro.cpu.tracebuffer.TraceBuffer` through the whole-trace
kernel when it is eligible and through the batched structure-of-arrays
loop otherwise; ``MulticoreMachine.run`` steps finalized traces one
access per heap turn.  The per-access engines they replaced live in
``replay_oracle`` as the reference (``PreciseMachine``,
``PreciseMulticoreMachine``) and take ``List[Access]`` traces.  The fast
paths are only performance optimizations: on the same trace they must
produce *bit-for-bit* identical results — every counter, every
cache/memory stats snapshot, every latency histogram bucket — and the
same simulator end state.  These tests enforce that on the SQL benchmark
suite (scale from ``REPRO_BENCH_SCALE``, default 0.05) for every figure
system, on the multicore OLXP mix, and on random single-core and
multicore traces.
"""

import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import event, given, strategies as st

from replay_oracle import (
    PreciseMachine,
    PreciseMulticoreMachine,
    simulator_state,
)
from repro.cache.hierarchy import make_hierarchy
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import Coordinate, Orientation
from repro.cpu.machine import Machine
from repro.cpu import replaykernel
from repro.cpu.multicore import MulticoreMachine
from repro.cpu.replaykernel import kernel_eligible
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.geometry import SMALL_DRAM_GEOMETRY, SMALL_RCNVM_GEOMETRY
from repro.harness.systems import build_system
from repro.memsim.system import make_gsdram, make_rcnvm
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
SYSTEMS = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
#: A cross-section of the suite: row scans, column scans, gathers,
#: selective point lookups, a column scan followed by row fetches of the
#: same tuples (Q2: both orientations, crossing checks on RC-NVM), and
#: updates (writes + unpins).
QIDS = ("Q1", "Q2", "Q3", "Q4", "Q6", "Q10", "Q12")


def _query_traces(db, qids=QIDS):
    for qid in qids:
        spec = QUERIES[qid]
        plan = db.plan(
            spec.sql, params=spec.params, selectivity_hint=spec.selectivity_hint
        )
        _result, buffer = db.executor.execute(plan)
        yield qid, buffer


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_batched_replay_is_bit_for_bit(system_name):
    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    for qid, buffer in _query_traces(db):
        accesses = list(buffer.to_accesses())
        db.reset_timing()
        precise = PreciseMachine(db.memory, db.hierarchy, window=db.window).run(
            accesses
        )
        precise_state = simulator_state(db.machine)
        db.reset_timing()
        batched = db.machine._run_batched(buffer.finalize())
        assert precise == batched, (system_name, qid)
        assert precise_state == simulator_state(db.machine), (system_name, qid)


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_kernel_replay_is_bit_for_bit(system_name):
    """``Machine.run`` picks the kernel for every eligible buffer: for
    every suite query it must match the batched path (and thereby the
    per-access reference) bit for bit — including the simulator end
    state it leaves behind, which downstream reporting reads."""
    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    eligible = []
    for qid, buffer in _query_traces(db):
        fin = buffer.finalize()
        db.reset_timing()
        batched = db.machine._run_batched(fin)
        batched_state = simulator_state(db.machine)
        db.reset_timing()
        if kernel_eligible(db.machine, fin):
            eligible.append(qid)
        replayed = db.machine.run(buffer)
        replayed_state = simulator_state(db.machine)
        assert batched == replayed, (system_name, qid)
        assert batched_state == replayed_state, (system_name, qid)
    # Otherwise a gate that never fires would compare batched with batched.
    assert eligible, system_name
    if system_name == "RC-NVM":
        assert "Q2" in eligible  # mixed orientations with a synonym tracker


def _assert_same_multicore_result(precise, batched, label):
    """``MulticoreMachine.run`` reports each core's finish clock under its
    index in ``segment_ends``; the reference ``run`` reports none.  The
    rest must be equal."""
    assert batched.segment_ends == {
        core: result.cycles for core, result in enumerate(batched.cores)
    }, label
    assert precise == dataclasses.replace(batched, segment_ends={}), label


@pytest.mark.parametrize("system_name", ("RC-NVM", "DRAM"))
def test_multicore_batched_replay_is_bit_for_bit(system_name):
    from repro.harness.multicore import DEFAULT_CORE_MIX, build_core_traces

    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    buffers = build_core_traces(db, DEFAULT_CORE_MIX)
    lists = [list(buffer.to_accesses()) for buffer in buffers]

    memory.reset()
    machine = PreciseMulticoreMachine(memory, n_cores=len(buffers))
    precise = machine.run(lists)

    memory.reset()
    machine = MulticoreMachine(memory, n_cores=len(buffers))
    batched = machine.run(buffers)

    _assert_same_multicore_result(precise, batched, system_name)


#: Small systems for random multicore traces, with the ops each serves
#: and the address spaces its unpins name.
_MC_SYSTEMS = {
    "RC-NVM": (
        lambda: make_rcnvm(SMALL_RCNVM_GEOMETRY),
        (Op.READ, Op.WRITE, Op.CREAD, Op.CWRITE, Op.UNPIN),
        (Orientation.ROW, Orientation.COLUMN),
    ),
    "GS-DRAM": (
        lambda: make_gsdram(SMALL_DRAM_GEOMETRY),
        (Op.READ, Op.WRITE, Op.GATHER, Op.UNPIN),
        (Orientation.ROW,),
    ),
}
#: 1 KiB private caches and a 2 KiB LLC, both 2-way, against accesses to
#: the first 48 lines of each address space: private and LLC sets
#: overflow, and pinned LLC ways get skipped.
_MC_CACHES = dict(l1_kib=1, llc_kib=2, ways=2)
_MC_LINES = 48


@st.composite
def _access(draw, ops, unpin_orientations):
    op = draw(st.sampled_from(ops))
    gap = draw(st.integers(0, 40))
    if op is Op.GATHER:
        coord = Coordinate(
            0, 0, draw(st.integers(0, 3)), 0, draw(st.integers(0, 15)),
            8 * draw(st.integers(0, 15)),
        )
        line = draw(st.integers(0, _MC_LINES - 1))
        return Access(op, line * 64, 64, gap, draw(st.booleans()), coord=coord)
    address = 8 * draw(st.integers(0, _MC_LINES * 8 - 1))
    size = draw(st.sampled_from((8, 16, 64, 128)))
    if op is Op.UNPIN:
        orientation = draw(st.sampled_from(unpin_orientations))
        return Access(op, address, size, gap, orientation=orientation)
    return Access(
        op, address, size, gap, barrier=draw(st.booleans()), pin=draw(st.booleans())
    )


@st.composite
def _multicore_traces(draw):
    """A small system and 1-4 per-core access lists for it."""
    system = draw(st.sampled_from(sorted(_MC_SYSTEMS)))
    _factory, ops, unpin_orientations = _MC_SYSTEMS[system]
    access = _access(ops, unpin_orientations)
    traces = draw(st.lists(st.lists(access, max_size=30), min_size=1, max_size=4))
    return system, traces


def _directory_state(machine):
    """Private sets in LRU order with their states, the sharer masks, the
    LLC lines in LRU order with their bits, and every cache's stats."""
    directory = machine.directory
    caches = [*directory.private_caches, directory.llc]
    return (
        [[list(cache_set.items()) for cache_set in cache.sets]
         for cache in directory.private_caches],
        directory.directory,
        [[(key, line.dirty, line.pinned, line.crossing)
          for key, line in cache_set.items()]
         for cache_set in directory.llc.sets],
        [cache.stats.snapshot() for cache in caches],
    )


@given(case=_multicore_traces())
def test_random_multicore_traces_replay_identically(case):
    """The reference on access lists (``_step``) and
    ``MulticoreMachine.run`` on trace buffers (``_step_soa``) end in the
    same result and directory state."""
    system, traces = case
    factory = _MC_SYSTEMS[system][0]
    precise_machine = PreciseMulticoreMachine(factory(), len(traces), **_MC_CACHES)
    precise = precise_machine.run(traces)
    buffers = []
    for trace in traces:
        buffer = TraceBuffer()
        buffer.extend(trace)
        buffers.append(buffer)
    batched_machine = MulticoreMachine(factory(), len(traces), **_MC_CACHES)
    batched = batched_machine.run(buffers)
    _assert_same_multicore_result(precise, batched, system)
    assert _directory_state(precise_machine) == _directory_state(batched_machine)


#: A single-core stack for the same ~50 lines per address space: 1 KiB
#: L1, 2 KiB L2 and 4 KiB L3, all 2-way.  L1 and L2 sets overflow on
#: every system; an L3 set overflows only when row and column (or row
#: and gather) keys share it, so single-orientation traces always fit
#: and mixed ones often do.
_SC_CACHES = dict(l1_kib=1, l2_kib=2, l3_kib=4, ways=2)
_READ_OPS = (Op.READ, Op.CREAD, Op.GATHER)


@st.composite
def _single_core_traces(draw):
    """A small system, one access list for it and a follow-up list to
    replay warm.  Half the first lists are kernel-shaped: the system's
    read ops (READ and CREAD, or READ and GATHER), no barrier, pin or
    unpin."""
    system = draw(st.sampled_from(sorted(_MC_SYSTEMS)))
    _factory, ops, unpin_orientations = _MC_SYSTEMS[system]
    follow_up = st.lists(_access(ops, unpin_orientations), max_size=30)
    if not draw(st.booleans()):
        trace = draw(st.lists(_access(ops, unpin_orientations), max_size=60))
        return system, trace, draw(follow_up)
    read_ops = tuple(op for op in ops if op in _READ_OPS)
    accesses = draw(
        st.lists(_access(read_ops, unpin_orientations), min_size=1, max_size=60)
    )
    return system, [
        Access(access.op, access.address, access.size, access.gap, coord=access.coord)
        for access in accesses
    ], draw(follow_up)


def _single_core_machine(system, machine_class=Machine):
    memory = _MC_SYSTEMS[system][0]()
    synonym = SynonymDirectory(memory.mapper) if memory.supports_column else None
    return machine_class(memory, make_hierarchy(synonym=synonym, **_SC_CACHES))


@given(case=_single_core_traces())
def test_random_single_core_traces_replay_identically(case):
    """The reference on access lists, the batched loop on finalized traces
    and ``Machine.run`` on buffers (the kernel whenever ``kernel_eligible``
    admits the first trace) give the same results and end in the same
    simulator state, with clean crossing bits after each replay.  The
    audit builds only the LLC, so the follow-up's own reads build the
    upper levels the kernel left pending.  A kernel-admitted trace
    replayed again on a fresh machine of the same configuration commits
    the memoized outcome: no simulation, the same result and state."""
    system, trace, follow_up = case
    precise_machine = _single_core_machine(system, PreciseMachine)
    batched_machine = _single_core_machine(system)
    machine = _single_core_machine(system)
    machines = (precise_machine, batched_machine, machine)
    for accesses in (trace, follow_up):
        buffer = TraceBuffer()
        buffer.extend(accesses)
        fin = buffer.finalize()
        if accesses is trace:
            eligible = kernel_eligible(machine, fin)
            mixed = len(set(fin.line_orient.tolist())) > 1
            event(f"kernel_eligible={eligible} mixed={mixed}")
        precise = precise_machine.run(accesses)
        batched = batched_machine._run_batched(fin)
        replayed = machine.run(buffer)
        assert precise == batched == replayed, system
        if accesses is trace:
            first, first_fin = replayed, fin
            first_state = simulator_state(precise_machine)
        for each in machines:
            synonym = each.hierarchy.synonym
            if synonym is not None:
                assert synonym.problems(each.hierarchy.llc) == [], system
    state = simulator_state(precise_machine)
    assert state == simulator_state(batched_machine), system
    assert state == simulator_state(machine), system
    if eligible:
        again = _single_core_machine(system)
        with mock.patch.object(
            replaykernel, "_simulate", wraps=replaykernel._simulate
        ) as simulate:
            assert again.run(first_fin) == first, system
        simulate.assert_not_called()
        assert simulator_state(again) == first_state, system


#: Hypothesis found this trace: line 0 hits in LLC set 0 (after L1 and
#: L2 evicted it) before line 32 first fills that set, so the LLC's LRU
#: order is each line's last touch, not fills first and hits after.  The
#: follow-up then evicts from that set and reads both lines back.
_LLC_ORDER_TRACE = [Access(Op.READ, 0x0, 8, 0)] * 11 + [
    Access(Op.READ, address, 128, 0) for address in (0x388, 0xB88)
] + [Access(Op.READ, 0x0, 8, 0), Access(Op.READ, 0x788, 128, 0)]
_LLC_ORDER_FOLLOW_UP = [Access(Op.READ, line * 64, 64, 0) for line in (64, 32, 0)]


@pytest.mark.parametrize("system", ("GS-DRAM", "RC-NVM"))
def test_kernel_leaves_llc_in_last_touch_order(system):
    precise_machine = _single_core_machine(system, PreciseMachine)
    machine = _single_core_machine(system)
    for accesses in (_LLC_ORDER_TRACE, _LLC_ORDER_FOLLOW_UP):
        buffer = TraceBuffer()
        buffer.extend(accesses)
        if accesses is _LLC_ORDER_TRACE:
            assert kernel_eligible(machine, buffer.finalize())
        assert precise_machine.run(accesses) == machine.run(buffer), system
        assert simulator_state(precise_machine) == simulator_state(machine), system
