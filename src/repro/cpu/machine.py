"""Single-core machine model: window core + cache stack + memory system.

The core is in-order but memory-level parallel: it keeps up to ``window``
misses outstanding (an MSHR file), blocking only when the window is full,
when a trace entry is marked as a barrier, or at the end of the run.  This
captures the first-order overlap a real core extracts from independent
scan loads while staying a simple, fast model.

Latency accounting:

* L1 hits are hidden by the pipeline (their cost is the access ``gap``);
* L2/L3 hits expose their level's hit latency;
* LLC misses become :class:`~repro.memsim.request.MemRequest` objects and
  block only through the window;
* dirty LLC victims are posted writes — they consume bank/bus time but the
  core does not wait for them;
* synonym bookkeeping cycles (Section 4.3) are added to the core's clock
  and tallied separately so Figure 21's overhead ratio can be computed.
"""

from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.addressing import Orientation
from repro.errors import CapabilityError
from repro.cache.hierarchy import MISS, CacheHierarchy
from repro.cache.line import SPACE_SHIFT, key_address, key_line_index, key_orientation
from repro.cpu.replaykernel import kernel_eligible, run_kernel
from repro.cpu.tracebuffer import (
    LINE_BARRIER,
    LINE_GATHER,
    LINE_PIN,
    LINE_UNPIN,
    LINE_WRITE,
    as_finalized,
)
from repro.geometry import CACHE_LINE_BYTES
from repro.memsim.request import MemRequest
from repro.memsim.system import MemorySystem
from repro.obs import tracer as obs
from repro.orientation import ORIENTATIONS


@dataclass
class RunResult:
    """Outcome of executing one trace."""

    cycles: int = 0
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    lines_touched: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    llc_misses: int = 0
    writebacks: int = 0
    synonym_cycles: int = 0
    memory: dict = field(default_factory=dict)
    caches: dict = field(default_factory=dict)
    synonym: dict = field(default_factory=dict)
    #: Exported span tree for this statement (``Span.to_dict`` form),
    #: populated by ``Database.execute`` when a tracer is installed
    #: (see :mod:`repro.obs.tracer`); None when tracing is disabled.
    spans: dict = None

    @property
    def coherence_overhead_ratio(self):
        """Fraction of execution spent on synonym bookkeeping (Figure 21)."""
        if not self.cycles:
            return 0.0
        return self.synonym_cycles / self.cycles

    @property
    def memory_accesses(self):
        """Total requests that reached main memory (Figure 19's metric)."""
        return self.llc_misses + self.writebacks

    def simulated(self):
        """Every field but ``spans``, by name: what the replay simulated,
        not how the statement was observed.  Replays of one trace from
        the same timing reset agree on all of it."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "spans"
        }


class Machine:
    """One core in front of a cache hierarchy and a memory system."""

    def __init__(self, memory: MemorySystem, hierarchy: CacheHierarchy, window=8):
        self.memory = memory
        self.hierarchy = hierarchy
        self.window = window
        self._hit_costs = [0] + [level.hit_latency for level in hierarchy.levels[1:]]
        self._llc_latency = hierarchy.llc.hit_latency

    # -- main loop -----------------------------------------------------------
    def run(self, trace, stream=None) -> RunResult:
        """Execute a trace.

        ``trace`` is a :class:`~repro.cpu.tracebuffer.TraceBuffer`, an
        already-finalized :class:`~repro.cpu.tracebuffer.FinalizedTrace`,
        or any other iterable of :class:`~repro.cpu.trace.Access`, which
        is copied into a buffer once
        (:func:`~repro.cpu.tracebuffer.as_finalized`).  The finalized
        trace replays through the whole-trace kernel
        (:mod:`repro.cpu.replaykernel`) when
        :func:`~repro.cpu.replaykernel.kernel_eligible` admits it, and
        through the batched per-line loop otherwise.  Both produce
        bit-for-bit identical :class:`RunResult`s and simulator end
        state, and both match the per-access reference in
        ``tests/replay_oracle.py``: they replay the same per-line
        decisions in the same order, and precompute everything that does
        not depend on cache or controller state (see
        ``tests/test_replay_equivalence``).

        ``stream`` overrides the trace's tenant stream tag for this run
        (cached template traces are shared between tenants, so the tag
        must travel with the replay, not the trace).  ``None`` uses the
        trace's own tag; plain ``Access`` iterables default to 0.
        """
        with obs.span("machine.run") as sp:
            fin = as_finalized(trace)
            if stream is None:
                stream = fin.stream
            fin.check_capabilities(self.memory)
            if kernel_eligible(self, fin, stream):
                result = run_kernel(self, fin)
            else:
                result = self._run_batched(fin, stream)
            if sp.enabled:
                mem = result.memory
                sp.set(
                    cycles=result.cycles,
                    accesses=result.accesses,
                    reads=result.reads,
                    writes=result.writes,
                    llc_misses=result.llc_misses,
                    writebacks=result.writebacks,
                    memory_accesses=mem["accesses"],
                    orientation_mix={
                        "row": mem["row_oriented"],
                        "column": mem["col_oriented"],
                        "gather": mem["gathers"],
                    },
                )
            return result

    def _run_batched(self, fin, stream=0) -> RunResult:
        """Replay a finalized structure-of-arrays trace (the fallback for
        traces the kernel cannot take; :meth:`run` has already checked
        the memory system's column/gather capability).

        The per-line work that does not depend on simulator state — line
        splitting, key packing, write word masks, address decode — was
        done vectorized at :meth:`TraceBuffer.finalize` time, so this
        loop only advances the stateful parts (caches, controllers, the
        core clock) and is careful to do so in exactly the order of the
        per-access reference (``PreciseMachine`` in
        ``tests/replay_oracle.py``):

        * plain read lines (no write/pin/barrier/gather/unpin bits) take
          an inlined L1 probe; a line whose key equals the immediately
          preceding line's key is a guaranteed L1 hit already at MRU and
          skips the dict access entirely;
        * L1 hit/miss statistics from the inlined probe are accumulated
          locally and flushed into ``l1.stats`` before the snapshot;
        * LLC misses build their :class:`MemRequest` directly from the
          precomputed decode columns — the same values a scalar
          ``mapper.decode`` of the line produces;
        * everything else (writes, pins, barriers, gathers, unpins)
          funnels through the same hierarchy calls the per-access
          reference makes.
        """
        result = RunResult()
        hierarchy = self.hierarchy
        memory = self.memory
        window = self.window
        llc_latency = self._llc_latency
        hit_costs = self._hit_costs

        lkeys, lgaps, lspecials, lmasks, laccs, lorients = fin.replay_lists()
        dch, drk, dbk, dsa, drow, dcol = fin.decoded_for(memory.mapper)

        levels = hierarchy.levels
        n_levels = len(levels)
        l1 = levels[0]
        l1_sets = l1.sets
        l1_set_mask = l1._set_mask
        promote = hierarchy._promote
        fill_absent_read = hierarchy.fill_absent_read
        lookup = hierarchy.lookup
        controllers = memory.controllers
        completion_of = memory.completion_of
        coords = fin.coords
        outstanding = deque()
        outstanding_append = outstanding.append
        outstanding_popleft = outstanding.popleft

        now = 0
        prev_key = -1  # key of the last processed line; resident at L1 MRU
        c_l1_hits = 0  # local Cache-stats counters for the inlined L1 probe
        c_l1_misses = 0
        r_l1 = r_l2 = r_l3 = 0
        llc_misses = 0
        writebacks = 0
        synonym_cycles = 0

        for i, key, gap, special in zip(range(len(lkeys)), lkeys, lgaps, lspecials):
            if gap:
                now += gap
            if special == 0:
                # -- plain read line: the hot path.
                if key == prev_key:
                    c_l1_hits += 1
                    r_l1 += 1
                    continue
                cache_set = l1_sets[key & l1_set_mask]
                if cache_set.get(key) is not None:
                    cache_set.move_to_end(key)
                    c_l1_hits += 1
                    r_l1 += 1
                    prev_key = key
                    continue
                c_l1_misses += 1
                prev_key = key
                hit_level = MISS
                for idx in range(1, n_levels):
                    if levels[idx].lookup(key) is not None:
                        promote(key, idx)
                        hit_level = idx
                        break
                if hit_level != MISS:
                    now += hit_costs[hit_level]
                    if hit_level == 1:
                        r_l2 += 1
                    else:
                        r_l3 += 1
                    continue
                llc_misses += 1
                channel = dch[i]
                req = MemRequest(
                    channel, drk[i], dbk[i], dsa[i], drow[i], dcol[i],
                    ORIENTATIONS[lorients[i]], False, now + llc_latency,
                    stream,
                )
                controllers[channel].submit(req)
                outstanding_append(req)
                if len(outstanding) > window:
                    oldest = outstanding_popleft()
                    done = controllers[oldest.channel].completion_of(oldest)
                    if done > now:
                        now = done
                extra = fill_absent_read(key)
                if extra:
                    now += extra
                    synonym_cycles += extra
                if hierarchy.pending_writebacks:
                    for victim_key in hierarchy.drain_writebacks():
                        writebacks += 1
                        post_writeback(memory, victim_key, now, stream)
                continue
            # -- special lines: unpins, barriers, writes, pins, gathers.
            if special & LINE_UNPIN:
                hierarchy.unpin(key)
                continue
            if special & LINE_BARRIER:
                while outstanding:
                    done = completion_of(outstanding_popleft())
                    if done > now:
                        now = done
            is_write = (special & LINE_WRITE) != 0
            word_mask = lmasks[i]
            level, extra = lookup(key, is_write, word_mask)
            if extra:
                now += extra
                synonym_cycles += extra
            prev_key = key
            if level != MISS:
                now += hit_costs[level]
                if level == 0:
                    r_l1 += 1
                elif level == 1:
                    r_l2 += 1
                else:
                    r_l3 += 1
                if special & LINE_PIN:
                    hierarchy.pin(key)
                continue
            llc_misses += 1
            if special & LINE_GATHER:
                coord = coords.get(laccs[i])
                if coord is None:
                    raise CapabilityError("gather access requires a device coordinate")
                req = memory.request_for_coord(
                    coord, Orientation.GATHER, is_write, now + llc_latency,
                    stream=stream,
                )
            else:
                channel = dch[i]
                req = MemRequest(
                    channel, drk[i], dbk[i], dsa[i], drow[i], dcol[i],
                    ORIENTATIONS[lorients[i]], is_write, now + llc_latency,
                    stream,
                )
                controllers[channel].submit(req)
            outstanding_append(req)
            if len(outstanding) > window:
                done = completion_of(outstanding_popleft())
                if done > now:
                    now = done
            extra = hierarchy.fill(key, is_write, (special & LINE_PIN) != 0, word_mask)
            if extra:
                now += extra
                synonym_cycles += extra
            if hierarchy.pending_writebacks:
                for victim_key in hierarchy.drain_writebacks():
                    writebacks += 1
                    post_writeback(memory, victim_key, now, stream)

        while outstanding:
            done = completion_of(outstanding_popleft())
            if done > now:
                now = done
        l1.stats.hits += c_l1_hits
        l1.stats.misses += c_l1_misses
        result.cycles = now
        result.accesses = fin.n_accesses
        result.reads = fin.n_reads
        result.writes = fin.n_writes
        result.lines_touched = fin.n_lines
        result.l1_hits = r_l1
        result.l2_hits = r_l2
        result.l3_hits = r_l3
        result.llc_misses = llc_misses
        result.writebacks = writebacks
        result.synonym_cycles = synonym_cycles
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

    # -- helpers ----------------------------------------------------------------
    def flush_caches(self, now=0, on_line=None):
        """Write every dirty cached line back to memory and drain it.

        Used as the durability persistence barrier so buffered writes
        reach the cell arrays, and by the fuzzer's write-conservation
        check.  Returns the number of
        lines actually written back — gather-orientation lines are
        read-only snapshots and post no write, so they are not counted.
        ``on_line`` (if given) is called with the running count after
        each posted writeback; it may raise to model a crash mid-flush.
        The keys are decoded in one batch; each request is the one
        :func:`post_writeback` would submit, in the same order."""
        keys = np.array(self.hierarchy.flush(), dtype=np.int64)
        keys = keys[keys >> SPACE_SHIFT != int(Orientation.GATHER)]
        orients = keys >> SPACE_SHIFT
        memory = self.memory
        fields = memory.mapper.decode_fields(
            key_line_index(keys) * CACHE_LINE_BYTES, orients
        )
        for flushed, (channel, rank, bank, sub, row, col, orient) in enumerate(
            zip(*(column.tolist() for column in fields), orients.tolist()), 1
        ):
            memory.controllers[channel].submit(MemRequest(
                channel, rank, bank, sub, row, col, ORIENTATIONS[orient], True, now
            ))
            if on_line is not None:
                on_line(flushed)
        memory.drain()
        memory.flush_buffers()
        return len(keys)


# -- request helper, shared with the multicore machine ----------------------------
def post_writeback(memory, key, now, stream=0):
    """Post a dirty-victim write to memory (the core does not block).

    Returns the posted request, or ``None`` for gather lines (which are
    read-only snapshots of row data and never written back)."""
    orientation = key_orientation(key)
    if orientation is Orientation.GATHER:
        return None
    return memory.request_for_line(
        key_address(key), orientation, True, now, stream=stream
    )

