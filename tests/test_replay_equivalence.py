"""The equivalence oracle for the replay fast paths.

``Machine.run`` takes either a ``List[Access]`` (the precise per-access
path, the reference) or a :class:`~repro.cpu.tracebuffer.TraceBuffer`,
which replays through the whole-trace kernel when it is eligible and
through the batched structure-of-arrays loop otherwise.  Both fast
paths are only performance optimizations: on the same trace they must
produce *bit-for-bit* identical :class:`RunResult`\\ s — every counter,
every cache/memory stats snapshot, every latency histogram bucket.
These tests enforce that on the SQL benchmark suite (scale from
``REPRO_BENCH_SCALE``, default 0.05) for every figure system, and on
the multicore OLXP mix.
"""

import os

import pytest

from repro.harness.systems import build_system
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
SYSTEMS = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
#: A cross-section of the suite: row scans, column scans, gathers,
#: selective point lookups, and updates (writes + unpins).
QIDS = ("Q1", "Q3", "Q4", "Q6", "Q10", "Q12")


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
        precise = db.machine.run(accesses)
        db.reset_timing()
        batched = db.machine._run_batched(buffer.finalize())
        assert precise == batched, (system_name, qid)


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_kernel_replay_is_bit_for_bit(system_name):
    """``Machine.run`` picks the kernel for every eligible buffer: for
    every suite query it must match the batched path (and thereby the
    precise path) bit for bit — including the simulator end state it
    leaves behind, which downstream reporting reads."""
    from repro.cpu.replaykernel import kernel_eligible

    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    eligible = []
    for qid, buffer in _query_traces(db):
        fin = buffer.finalize()
        db.reset_timing()
        batched = db.machine._run_batched(fin)
        batched_state = _simulator_state(db)
        db.reset_timing()
        if kernel_eligible(db.machine, fin):
            eligible.append(qid)
        replayed = db.machine.run(buffer)
        replayed_state = _simulator_state(db)
        assert batched == replayed, (system_name, qid)
        assert batched_state == replayed_state, (system_name, qid)
    # Otherwise a gate that never fires would compare batched with batched.
    assert eligible, system_name


def _simulator_state(db):
    """Everything a replay leaves behind: cache contents in LRU order,
    per-level stats, synonym counters, controller stats and bank state."""
    hierarchy = db.machine.hierarchy
    state = []
    for level in hierarchy.levels:
        state.append(level.stats.snapshot())
        state.append([list(cache_set.keys()) for cache_set in level.sets])
    state.append(list(hierarchy._counts))
    for ctrl in db.memory.controllers:
        state.append(ctrl.stats.snapshot())
        state.append(ctrl.bus_free)
        for bank in ctrl.banks:
            state.append((
                bank.open_kind, bank.open_subarray, bank.open_index,
                bank.open_entry, bank.ready_at, bank.activated_at,
                bank.accesses, bank.activations,
            ))
    return state


@pytest.mark.parametrize("system_name", ("RC-NVM", "DRAM"))
def test_multicore_batched_replay_is_bit_for_bit(system_name):
    from repro.cpu.multicore import MulticoreMachine
    from repro.harness.multicore import DEFAULT_CORE_MIX, build_core_traces

    memory = build_system(system_name)
    db = build_benchmark_database(memory, scale=SCALE)
    buffers = build_core_traces(db, DEFAULT_CORE_MIX)
    lists = [list(buffer.to_accesses()) for buffer in buffers]

    memory.reset()
    machine = MulticoreMachine(memory, n_cores=len(buffers))
    precise = machine.run(lists)

    memory.reset()
    machine = MulticoreMachine(memory, n_cores=len(buffers))
    batched = machine.run(buffers)

    assert precise == batched, system_name
