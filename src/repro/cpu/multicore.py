"""Multi-core machine: N window cores over a MESI directory and one
shared memory system.

Each core executes its own trace with a private cache and its own clock;
the machine always advances the core whose clock is furthest behind, so
memory-controller arbitration sees a realistically interleaved request
stream.  Coherence and synonym costs are charged to the core that caused
them (Section 4.3.3).
"""

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import List

from repro.cache.cache import Cache
from repro.cache.coherence import MesiDirectory
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import Orientation
from repro.errors import CapabilityError
from repro.cpu.machine import post_writeback
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import FLAG_BARRIER, FLAG_PIN, as_finalized
from repro.memsim.request import MemRequest
from repro.memsim.system import MemorySystem
from repro.orientation import ORIENTATIONS

_OP_WRITE = int(Op.WRITE)
_OP_CWRITE = int(Op.CWRITE)
_OP_GATHER = int(Op.GATHER)
_OP_UNPIN = int(Op.UNPIN)


class _SoaCursor:
    """Per-core replay position over a finalized structure-of-arrays
    trace (plain-list columns; see :class:`~repro.cpu.tracebuffer.FinalizedTrace`)."""

    __slots__ = (
        "pos", "n", "ops", "gaps", "flags", "starts", "counts",
        "lkeys", "lmasks", "lorients", "coords", "stream",
        "dch", "drk", "dbk", "dsa", "drow", "dcol",
    )

    def __init__(self, fin, mapper, stream=None):
        self.stream = fin.stream if stream is None else stream
        self.ops, self.gaps, self.flags, self.starts, self.counts = (
            fin.access_lists()
        )
        self.lkeys, _gaps, _special, self.lmasks, _acc, self.lorients = (
            fin.replay_lists()
        )
        self.dch, self.drk, self.dbk, self.dsa, self.drow, self.dcol = (
            fin.decoded_for(mapper)
        )
        self.coords = fin.coords
        self.pos = 0
        self.n = len(self.ops)


@dataclass
class CoreResult:
    """Per-core outcome."""

    cycles: int = 0
    accesses: int = 0
    private_hits: int = 0
    llc_hits: int = 0
    misses: int = 0
    coherence_cycles: int = 0


@dataclass
class MulticoreResult:
    """Aggregate outcome of a multi-core run."""

    cores: List[CoreResult] = field(default_factory=list)
    coherence: dict = field(default_factory=dict)
    synonym: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)
    #: ``token -> finish clock`` of every segment
    #: :meth:`MulticoreMachine.run_segmented` ran; for
    #: :meth:`MulticoreMachine.run` that is ``core -> finish clock``.
    segment_ends: dict = field(default_factory=dict)

    @property
    def cycles(self):
        return max((core.cycles for core in self.cores), default=0)

    @property
    def total_accesses(self):
        return sum(core.accesses for core in self.cores)


class MulticoreMachine:
    """N cores, private L1s, shared inclusive LLC with a MESI directory."""

    def __init__(
        self,
        memory: MemorySystem,
        n_cores=4,
        l1_kib=32,
        llc_kib=1024,
        ways=8,
        l1_latency=4,
        llc_latency=38,
        window=8,
    ):
        self.memory = memory
        self.n_cores = n_cores
        self.window = window
        self.llc_latency = llc_latency
        privates = [
            Cache(f"L1-{core}", l1_kib * 1024, ways, l1_latency)
            for core in range(n_cores)
        ]
        llc = Cache("LLC", llc_kib * 1024, ways, llc_latency)
        synonym = SynonymDirectory(memory.mapper) if memory.supports_column else None
        self.directory = MesiDirectory(privates, llc, synonym=synonym)

    def run(self, traces, streams=None) -> MulticoreResult:
        """Run one trace per core to completion.

        This is :meth:`run_segmented` with one segment per core, whose
        token is the core index.  Each trace is anything
        :func:`~repro.cpu.tracebuffer.as_finalized` takes: a
        :class:`~repro.cpu.tracebuffer.TraceBuffer`, a finalized trace,
        or an iterable of ``Access`` objects, copied into a buffer once.

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
        return self.run_segmented([
            [(trace, stream, core)]
            for core, (trace, stream) in enumerate(zip(traces, streams))
        ])

    def run_segmented(self, core_segments, on_segment=None,
                      base_clocks=0) -> MulticoreResult:
        """Run a queue of trace segments per core, reporting each
        segment's finish clock.

        ``core_segments`` is one list per core of ``(trace, stream,
        token)`` tuples — ``trace`` anything
        :func:`~repro.cpu.tracebuffer.as_finalized` takes, ``stream`` the
        tenant tag its requests carry, ``token`` an opaque caller
        identifier.  Cores step their current segment interleaved at
        access granularity, always the core furthest behind; when a core's
        segment is exhausted its outstanding misses are drained, the
        finish clock is recorded under ``token`` in the result's
        ``segment_ends`` (and passed to ``on_segment(core, token,
        clock)`` if given), and the core continues with its next segment
        without resetting its private cache — a session keeps its core's
        locality across statements.

        This is the serving front end's replay engine
        (:mod:`repro.serving`): one tenant statement = one segment, so
        statements from different tenants interleave in the memory
        controllers at trace granularity while per-statement latencies
        stay observable.

        ``base_clocks`` starts every core clock at that absolute cycle
        instead of zero, so successive serving rounds share one time
        domain with the controller's persistent bus/bank state.
        """
        if len(core_segments) > self.n_cores:
            raise ValueError(
                f"{len(core_segments)} segment queues for {self.n_cores} cores"
            )
        memory = self.memory
        n = len(core_segments)
        queues = [list(reversed(segments)) for segments in core_segments]
        cursors = [None] * n
        tokens = [None] * n
        clocks = [int(base_clocks)] * n
        outstanding = [deque() for _ in range(n)]
        results = [CoreResult() for _ in range(n)]
        result = MulticoreResult(cores=results)

        def finish_segment(core):
            self._drain(core, clocks, outstanding[core])
            results[core].cycles = clocks[core]
            result.segment_ends[tokens[core]] = clocks[core]
            if on_segment is not None:
                on_segment(core, tokens[core], clocks[core])

        def load_next(core):
            while queues[core]:
                trace, stream, token = queues[core].pop()
                fin = as_finalized(trace)
                fin.check_capabilities(memory)
                cursor = _SoaCursor(fin, memory.mapper, stream)
                tokens[core] = token
                if cursor.n == 0:
                    finish_segment(core)  # empty trace: done at current clock
                    continue
                cursors[core] = cursor
                return True
            cursors[core] = None
            return False

        active = []
        for core in range(n):
            if load_next(core):
                active.append((clocks[core], core))
        heapq.heapify(active)
        while active:
            core = active[0][1]
            cursor = cursors[core]
            position = cursor.pos
            if position < cursor.n:
                cursor.pos = position + 1
                self._step_soa(core, cursor, position, clocks, outstanding, results)
            else:
                finish_segment(core)
                if not load_next(core):
                    heapq.heappop(active)
                    continue
            heapq.heapreplace(active, (clocks[core], core))
        memory.drain()
        result.coherence = self.directory.stats.snapshot()
        if self.directory.synonym is not None:
            result.synonym = self.directory.synonym.stats.snapshot()
        result.memory = memory.stats.snapshot()
        return result

    # -- one trace entry ----------------------------------------------------------
    def _step_soa(self, core, cursor, position, clocks, outstanding, results):
        """One finalized-trace access for one core: the same calls in the
        same order as the per-access ``_step`` of
        ``PreciseMulticoreMachine`` in ``tests/replay_oracle.py``."""
        clocks[core] += cursor.gaps[position]
        op = cursor.ops[position]
        start = cursor.starts[position]
        stop = start + cursor.counts[position]
        lkeys = cursor.lkeys
        directory = self.directory
        if op == _OP_UNPIN:
            set_pinned = directory.llc.set_pinned
            for k in range(start, stop):
                set_pinned(lkeys[k], False)
            return
        flags = cursor.flags[position]
        queue = outstanding[core]
        if flags & FLAG_BARRIER:
            self._drain(core, clocks, queue)
        result = results[core]
        result.accesses += 1
        is_write = op == _OP_WRITE or op == _OP_CWRITE
        is_gather = op == _OP_GATHER
        pin = (flags & FLAG_PIN) != 0
        for k in range(start, stop):
            key = lkeys[k]
            if is_write:
                hit, llc_hit, extra, writebacks = directory.write(
                    core, key, cursor.lmasks[k]
                )
            else:
                hit, llc_hit, extra, writebacks = directory.read(core, key)
            if extra:
                clocks[core] += extra
                result.coherence_cycles += extra
            for victim_key in writebacks:
                post_writeback(self.memory, victim_key, clocks[core], cursor.stream)
            if hit:
                result.private_hits += 1
            elif llc_hit:
                result.llc_hits += 1
                clocks[core] += self.llc_latency
            else:
                result.misses += 1
                arrival = clocks[core] + self.llc_latency
                if is_gather:
                    coord = cursor.coords.get(position)
                    if coord is None:
                        raise CapabilityError(
                            "gather access requires a device coordinate"
                        )
                    req = self.memory.request_for_coord(
                        coord, Orientation.GATHER, is_write, arrival,
                        stream=cursor.stream,
                    )
                else:
                    channel = cursor.dch[k]
                    req = MemRequest(
                        channel, cursor.drk[k], cursor.dbk[k], cursor.dsa[k],
                        cursor.drow[k], cursor.dcol[k],
                        ORIENTATIONS[cursor.lorients[k]], is_write, arrival,
                        cursor.stream,
                    )
                    self.memory.controllers[channel].submit(req)
                queue.append(req)
                if len(queue) > self.window:
                    clocks[core] = max(
                        clocks[core], self.memory.completion_of(queue.popleft())
                    )
            if pin:
                directory.llc.set_pinned(key, True)

    def _drain(self, core, clocks, queue):
        """Block ``core`` until every miss in its ``queue`` completes."""
        while queue:
            clocks[core] = max(clocks[core], self.memory.completion_of(queue.popleft()))
