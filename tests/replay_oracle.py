"""Per-access replay engines, kept as the reference for the fast paths.

``Machine.run`` and ``MulticoreMachine.run`` replay only finalized
structure-of-arrays traces (see :func:`repro.cpu.tracebuffer.as_finalized`).
The engines below are the per-access paths they replaced, kept verbatim
apart from their names: :class:`PreciseMachine` walks a ``List[Access]``
one access and one line at a time (its ``run`` was
``Machine._run_precise``), and :class:`PreciseMulticoreMachine` keeps the
multicore ``run`` loop with its per-access ``_step`` next to
``_step_soa``.  ``tests/test_replay_equivalence.py`` and
``tests/test_multicore.py`` compare the shipped engines against them;
:func:`simulator_state` is the single-core end state they compare.
"""

import heapq
from collections import deque

from repro.cache.hierarchy import MISS
from repro.cache.line import key_address, key_orientation, line_key_from_index
from repro.core.addressing import Orientation
from repro.cpu.machine import Machine, RunResult, post_writeback
from repro.cpu.multicore import (
    CoreResult,
    MulticoreMachine,
    MulticoreResult,
    _SoaCursor,
)
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import CapabilityError
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES
from repro.obs import tracer as obs


class PreciseMachine(Machine):
    """A :class:`Machine` whose ``run`` replays an ``Access`` iterable
    access by access."""

    def run(self, trace, stream=0) -> RunResult:
        result = RunResult()
        hierarchy = self.hierarchy
        memory = self.memory
        outstanding = deque()
        now = 0

        for access in trace:
            now += access.gap
            op = access.op
            if op == Op.UNPIN:
                self._unpin_range(access)
                continue
            if access.barrier and outstanding:
                while outstanding:
                    now = max(now, memory.completion_of(outstanding.popleft()))
            result.accesses += 1
            if access.is_write:
                result.writes += 1
            else:
                result.reads += 1

            orientation = access.orientation
            first_line = access.address // CACHE_LINE_BYTES
            last_line = (access.address + access.size - 1) // CACHE_LINE_BYTES
            for line_index in range(first_line, last_line + 1):
                key = line_key_from_index(line_index, orientation)
                result.lines_touched += 1
                word_mask = (
                    line_word_mask(access, line_index) if access.is_write else 0xFF
                )
                level, extra = hierarchy.lookup(key, access.is_write, word_mask)
                if extra:
                    now += extra
                    result.synonym_cycles += extra
                if level != MISS:
                    now += self._hit_costs[level]
                    if level == 0:
                        result.l1_hits += 1
                    elif level == 1:
                        result.l2_hits += 1
                    else:
                        result.l3_hits += 1
                    if access.pin:
                        hierarchy.pin(key)
                    continue
                # -- LLC miss: fetch the line from main memory.
                result.llc_misses += 1
                req = line_request(
                    memory, key, access, now + self._llc_latency, stream
                )
                outstanding.append(req)
                if len(outstanding) > self.window:
                    now = max(now, memory.completion_of(outstanding.popleft()))
                extra = hierarchy.fill(key, access.is_write, access.pin, word_mask)
                if extra:
                    now += extra
                    result.synonym_cycles += extra
                for victim_key in hierarchy.drain_writebacks():
                    result.writebacks += 1
                    post_writeback(memory, victim_key, now, stream)

        while outstanding:
            now = max(now, memory.completion_of(outstanding.popleft()))
        result.cycles = now
        # Retire posted writes so statistics are complete.
        with obs.span("controller.drain") as dsp:
            drained_at = memory.drain()
            if dsp.enabled:
                dsp.set(end_cycles=drained_at, accesses=memory.stats.accesses)
        result.memory = memory.stats.snapshot()
        result.caches = hierarchy.stats_by_level()
        if hierarchy.synonym is not None:
            result.synonym = hierarchy.synonym.stats.snapshot()
        return result

    def _unpin_range(self, access):
        first_line = access.address // CACHE_LINE_BYTES
        last_line = (access.address + access.size - 1) // CACHE_LINE_BYTES
        orientation = access.orientation
        for line_index in range(first_line, last_line + 1):
            self.hierarchy.unpin(line_key_from_index(line_index, orientation))


class PreciseMulticoreMachine(MulticoreMachine):
    """A :class:`MulticoreMachine` whose ``run`` steps ``Access`` lists
    with ``_step`` and trace buffers with ``_step_soa``, one access per
    heap turn."""

    def run(self, traces, streams=None) -> MulticoreResult:
        """Run one trace per core to completion.

        Cores whose trace is a :class:`TraceBuffer` step over the
        finalized per-line arrays (same decisions, precomputed line
        keys/masks/decodes); any other iterable of ``Access`` objects
        keeps the precise per-access path.  The heap interleaving is per
        access either way, so mixing the two kinds is fine.

        ``streams`` optionally gives one tenant stream tag per trace
        (overriding each trace's own tag) so the controllers' fair-share
        arbiter can tell the cores' request streams apart.
        """
        if len(traces) > self.n_cores:
            raise ValueError(f"{len(traces)} traces for {self.n_cores} cores")
        if streams is None:
            streams = [getattr(trace, "stream", 0) for trace in traces]
        elif len(streams) != len(traces):
            raise ValueError("streams must parallel traces")
        memory = self.memory
        cursors = []
        iterators = []
        for trace, stream in zip(traces, streams):
            if isinstance(trace, TraceBuffer):
                fin = trace.finalize()
                fin.check_capabilities(memory)
                cursors.append(_SoaCursor(fin, memory.mapper, stream))
                iterators.append(None)
            else:
                cursors.append(None)
                iterators.append(iter(trace))
        clocks = [0] * len(traces)
        outstanding = [deque() for _ in traces]
        results = [CoreResult() for _ in traces]
        # Min-heap of (clock, core) — always step the core furthest behind.
        active = [(0, core) for core in range(len(traces))]
        heapq.heapify(active)
        while active:
            core = active[0][1]
            cursor = cursors[core]
            if cursor is None:
                access = next(iterators[core], None)
                stepped = access is not None
                if stepped:
                    self._step(
                        core, access, clocks, outstanding, results, streams[core]
                    )
            else:
                position = cursor.pos
                stepped = position < cursor.n
                if stepped:
                    cursor.pos = position + 1
                    self._step_soa(
                        core, cursor, position, clocks, outstanding, results
                    )
            if stepped:
                heapq.heapreplace(active, (clocks[core], core))
                continue
            self._drain(core, clocks, outstanding[core])
            results[core].cycles = clocks[core]
            heapq.heappop(active)
        result = MulticoreResult(cores=results)
        self.memory.drain()
        result.coherence = self.directory.stats.snapshot()
        if self.directory.synonym is not None:
            result.synonym = self.directory.synonym.stats.snapshot()
        result.memory = self.memory.stats.snapshot()
        return result

    # -- one trace entry ----------------------------------------------------------
    def _step(self, core, access, clocks, outstanding, results, stream=0):
        clocks[core] += access.gap
        op = access.op
        llc = self.directory.llc
        if op == Op.UNPIN:
            first = access.address // CACHE_LINE_BYTES
            last = (access.address + access.size - 1) // CACHE_LINE_BYTES
            for index in range(first, last + 1):
                llc.set_pinned(line_key_from_index(index, access.orientation), False)
            return
        if access.barrier:
            self._drain(core, clocks, outstanding[core])
        result = results[core]
        result.accesses += 1
        orientation = access.orientation
        first = access.address // CACHE_LINE_BYTES
        last = (access.address + access.size - 1) // CACHE_LINE_BYTES
        for index in range(first, last + 1):
            key = line_key_from_index(index, orientation)
            if access.is_write:
                hit, llc_hit, extra, writebacks = self.directory.write(
                    core, key, line_word_mask(access, index)
                )
            else:
                hit, llc_hit, extra, writebacks = self.directory.read(core, key)
            clocks[core] += extra
            result.coherence_cycles += extra
            for victim_key in writebacks:
                post_writeback(self.memory, victim_key, clocks[core], stream)
            if hit:
                result.private_hits += 1
            elif llc_hit:
                result.llc_hits += 1
                clocks[core] += self.llc_latency
            else:
                result.misses += 1
                req = line_request(
                    self.memory, key, access, clocks[core] + self.llc_latency,
                    stream,
                )
                outstanding[core].append(req)
                if len(outstanding[core]) > self.window:
                    clocks[core] = max(
                        clocks[core],
                        self.memory.completion_of(outstanding[core].popleft()),
                    )
            if access.pin:
                llc.set_pinned(key, True)


# -- request helpers, shared with the multicore machine ---------------------------
def line_request(memory, key, access, arrival, stream=0):
    """Submit the memory request that fetches line ``key`` for ``access``."""
    orientation = key_orientation(key)
    if orientation is Orientation.GATHER:
        if access.coord is None:
            raise CapabilityError("gather access requires a device coordinate")
        return memory.request_for_coord(
            access.coord, orientation, access.is_write, arrival, stream=stream
        )
    return memory.request_for_line(
        key_address(key), orientation, access.is_write, arrival, stream=stream
    )


def line_word_mask(access, line_index):
    """Bitmask of the 8-byte words of line ``line_index`` covered by
    ``access`` (used for crossing-bit write updates)."""
    line_start = line_index * CACHE_LINE_BYTES
    start = max(access.address, line_start)
    end = min(access.address + access.size, line_start + CACHE_LINE_BYTES)
    first_word = (start - line_start) // WORD_BYTES
    last_word = (end - 1 - line_start) // WORD_BYTES
    mask = 0
    for word in range(first_word, last_word + 1):
        mask |= 1 << word
    return mask


def simulator_state(machine):
    """Everything a replay leaves behind: per-level stats, every level's
    lines in LRU order with their dirty, pinned and crossing bits, the
    synonym counts and stats, controller stats and every bank register."""
    hierarchy = machine.hierarchy
    state = []
    for level in hierarchy.levels:
        state.append(level.stats.snapshot())
        state.append([
            [(key, line.dirty, line.pinned, line.crossing)
             for key, line in cache_set.items()]
            for cache_set in level.sets
        ])
    if hierarchy.synonym is not None:
        state.append(list(hierarchy.synonym.resident))
        state.append(hierarchy.synonym.stats.snapshot())
    for ctrl in machine.memory.controllers:
        state.append(ctrl.stats.snapshot())
        state.append(ctrl.bus_free)
        for bank in ctrl.banks:
            state.append((
                bank.open_kind, bank.open_subarray, bank.open_index,
                bank.open_entry, bank.dirty, bank.ready_at, bank.activated_at,
                bank.accesses, bank.activations,
            ))
    return state
