"""Locality-aware per-channel memory controller.

The controller keeps one read queue and one write queue *per bank* so that
bank-level parallelism is visible to the scheduler, and services them with
a configurable policy stack:

* **Scheduling policy** — ``frfcfs`` (first-ready, first-come-first-served
  [Rixner et al., ISCA 2000]: open-buffer hits first, oldest otherwise) or
  ``fcfs`` (strict submission order; ablation baseline).
* **Starvation age cap** — under FR-FCFS a queued request may be bypassed
  by younger buffer-hit requests at most ``age_cap`` times; after that it
  is scheduled unconditionally, bounding worst-case queueing delay.
* **Write draining** — writes are posted into the per-bank write queues
  and serviced in batches: when write occupancy reaches the high
  watermark the controller drains writes until the low watermark, and
  otherwise serves them only when no reads are waiting.  This keeps
  NVM's slow writes off the read critical path (Yoon et al., ICCD 2012).
* **Write coalescing** (``write_coalescing``, off by default) — a write
  posted while an older write to the *same row/col buffer entry* (and
  same stream) is still queued is absorbed into that entry instead of
  occupying a queue slot: the merged writes dirty the buffer once and
  pay one write pulse on flush instead of one each (Ma et al.'s
  asymmetry argument: every absorbed NVM write is a cell-array write
  avoided).  Absorbed writes still count as accesses/buffer hits so all
  conservation laws hold; ``writes_coalesced`` counts the absorptions.
* **Read-around-write** (``read_around_write``, off by default) — during
  a drain episode, a queued read that hits a currently open buffer may
  preempt the drain for one pick (``read_around_writes`` counts these).
  At most ``age_cap`` bypasses are allowed per drain episode, so drains
  still finish and the worst-case write queueing bound is unchanged;
  the preempted pick goes through the normal FR-FCFS + fair-share path,
  so per-stream accounting is preserved.
* **Fair-share streams** — requests carry a tenant ``stream`` tag
  (:attr:`MemRequest.stream`; 0 means untagged).  While more than one
  stream is queued in a class, a deficit-round-robin arbiter picks which
  stream the next FR-FCFS decision is restricted to: locality-aware
  *within* a stream, round-robin with a ``stream_quantum`` deficit
  *across* streams (Yoon et al.'s hybrid-memory arbitration by
  row-buffer locality, applied per tenant).  The starvation age cap
  stays global — a request bypassed ``age_cap`` times is serviced
  unconditionally regardless of whose turn it is — so cross-stream
  bypasses keep the same worst-case queueing bound as single-stream
  FR-FCFS.  With at most one stream queued the arbiter never engages
  and scheduling is bit-for-bit the single-stream behaviour.
* **Page policy** — ``open`` keeps the row/column buffer open after an
  access (best for streams), ``closed`` precharges immediately (best for
  random conflict traffic, since the precharge hides in idle time), and
  ``adaptive`` starts open and switches a bank to closed-page behaviour
  after its conflict streak crosses a threshold.  Orientation switches
  (row<->column, RC-NVM's costliest conflict) count double toward the
  streak, and a close that turns out to have been wasted — the very next
  access to the bank wanted the entry we closed — snaps the bank back to
  open-page mode (Meza et al., IEEE CAL 2012 call this buffer-locality
  awareness).

Scheduling stays lazy: requests accumulate until a client asks for a
specific request's completion time (or a queue overflows), at which point
the controller schedules queued requests one at a time, advancing per-bank
state and the shared data bus.
"""

import itertools

from repro.orientation import Orientation
from repro.memsim.bank import Bank
from repro.memsim.stats import MemoryStats


class _Queued:
    """One queue entry: the request, its submission order, its bank's
    index (cached — the scheduler reads it on every pick), how many
    times the scheduler has picked a younger request over it, and any
    younger writes to the same buffer entry coalesced into it."""

    __slots__ = ("seq", "req", "bank_index", "bypassed", "coalesced")

    def __init__(self, seq, req, bank_index):
        self.seq = seq
        self.req = req
        self.bank_index = bank_index
        self.bypassed = 0
        self.coalesced = None


class ChannelController:
    """Owns the banks of one channel plus that channel's data bus."""

    #: Scheduling policies: FR-FCFS (the paper's choice) or plain FCFS
    #: (ablation baseline; no buffer-hit reordering, no write buffering).
    POLICIES = ("frfcfs", "fcfs")
    #: Page-management policies for the open row/column buffer.
    PAGE_POLICIES = ("open", "closed", "adaptive")

    def __init__(self, geometry, timing, supports_column, queue_depth=32,
                 policy="frfcfs", page_policy="open", write_queue_depth=None,
                 age_cap=16, drain_high=0.75, drain_low=0.25,
                 adaptive_threshold=4, stream_quantum=4, track_streams=False,
                 write_coalescing=False, read_around_write=False):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}")
        if page_policy not in self.PAGE_POLICIES:
            raise ValueError(f"unknown page policy {page_policy!r}")
        if not 0 <= drain_low <= drain_high <= 1:
            raise ValueError("need 0 <= drain_low <= drain_high <= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if write_queue_depth is not None and write_queue_depth < 1:
            raise ValueError("write_queue_depth must be at least 1")
        if age_cap < 1:
            raise ValueError("age_cap must be at least 1")
        if adaptive_threshold < 1:
            raise ValueError("adaptive_threshold must be at least 1")
        if stream_quantum < 1:
            raise ValueError("stream_quantum must be at least 1")
        self.geometry = geometry
        self.timing = timing
        self.supports_column = supports_column
        self.queue_depth = queue_depth
        self.write_queue_depth = (
            queue_depth if write_queue_depth is None else write_queue_depth
        )
        self.policy = policy
        self.page_policy = page_policy
        self.age_cap = age_cap
        self.adaptive_threshold = adaptive_threshold
        self.write_coalescing = write_coalescing
        self.read_around_write = read_around_write
        #: Write-drain watermarks, in queued writes.  The low watermark is
        #: clamped strictly below the high one: with a small
        #: ``write_queue_depth`` the two integer counts can otherwise
        #: collide (e.g. depth 4, drain_high=0.75, drain_low=0.75 -> both
        #: 3), making every drain episode exit after a single write and
        #: inflating ``write_drain_episodes``.
        self.drain_high_count = max(1, int(self.write_queue_depth * drain_high))
        self.drain_low_count = min(
            int(self.write_queue_depth * drain_low), self.drain_high_count - 1
        )
        n_banks = geometry.ranks * geometry.banks
        self.banks = [Bank(timing, supports_column) for _ in range(n_banks)]
        self.read_queues = [[] for _ in range(n_banks)]
        self.write_queues = [[] for _ in range(n_banks)]
        self.reads_pending = 0
        self.writes_pending = 0
        self.draining = False
        #: Read-around-write bypasses spent in the current drain episode
        #: (reset when a new episode starts; capped at ``age_cap``).
        self._drain_bypasses = 0
        #: Adaptive page policy state, per bank.
        self._conflict_streak = [0] * n_banks
        self._last_closed = [None] * n_banks
        #: How many queued reads/writes have hit the starvation age cap.
        #: Nonzero is rare; the scheduler only scans per-entry bypass
        #: counters when the class it is picking from has a starved entry.
        self._starved_reads = 0
        self._starved_writes = 0
        #: Fair-share arbitration state.  Per-class pending counts per
        #: stream (entries pruned at zero, so ``len(dict) > 1`` means the
        #: arbiter must engage for that class), the deficit-round-robin
        #: rotation (insertion-ordered stream list + pointer + per-stream
        #: credit in requests), and optional per-stream service tallies.
        self.stream_quantum = stream_quantum
        self.track_streams = track_streams
        self._read_streams = {}
        self._write_streams = {}
        self._stream_order = []
        self._stream_rr = 0
        self._stream_credit = {}
        #: ``stream -> [reads, writes, buffer_hits, total_latency_cycles]``
        #: maintained only when ``track_streams`` is set (see
        #: :meth:`stream_snapshot`).
        self.stream_stats = {}
        self._seq = itertools.count()
        self.bus_free = 0
        self.stats = MemoryStats()
        # DeviceTiming is frozen; cache the per-request burst length.
        self._burst_cpu = timing.burst_cpu

    # -- client interface --------------------------------------------------
    @property
    def pending(self):
        """All queued requests in submission order (diagnostics/tests)."""
        entries = [e for q in self.read_queues for e in q]
        entries += [e for q in self.write_queues for e in q]
        entries.sort(key=lambda e: e.seq)
        return [e.req for e in entries]

    def submit(self, req):
        """Queue a request; may trigger scheduling if a queue fills up."""
        bank_index = req.rank * self.geometry.banks + req.bank
        if self.write_coalescing and req.is_write:
            want = req.want
            stream = req.stream
            for queued in self.write_queues[bank_index]:
                if queued.req.want == want and queued.req.stream == stream:
                    # Merge into the older queued write: one buffer dirtying
                    # (and one eventual write pulse) covers both.  The
                    # absorbed request completes with the survivor and is
                    # fully counted then; it never occupies a queue slot.
                    if queued.coalesced is None:
                        queued.coalesced = [req]
                    else:
                        queued.coalesced.append(req)
                    self.stats.writes_coalesced += 1
                    return
        entry = _Queued(next(self._seq), req, bank_index)
        queues = self.write_queues if req.is_write else self.read_queues
        bank_queue = queues[bank_index]
        bank_queue.append(entry)
        stream = req.stream
        if req.is_write:
            self.writes_pending += 1
            streams = self._write_streams
        else:
            self.reads_pending += 1
            streams = self._read_streams
        count = streams.get(stream)
        if count is None:
            streams[stream] = 1
            if stream not in self._stream_credit:
                self._stream_order.append(stream)
                self._stream_credit[stream] = self.stream_quantum
        else:
            streams[stream] = count + 1
        # -- occupancy telemetry
        stats = self.stats
        total = self.reads_pending + self.writes_pending
        stats.queue_occupancy_sum += total
        stats.queue_occupancy_samples += 1
        if total > stats.max_queue_occupancy:
            stats.max_queue_occupancy = total
        if len(bank_queue) > stats.max_bank_queue_occupancy:
            stats.max_bank_queue_occupancy = len(bank_queue)
        while (self.reads_pending > self.queue_depth
               or self.writes_pending > self.write_queue_depth):
            self._schedule_one()

    def completion_of(self, req):
        """Schedule until ``req`` has been serviced; return its completion."""
        while req.completion is None:
            if not (self.reads_pending or self.writes_pending):
                raise LookupError(f"{req!r} was never submitted to this controller")
            self._schedule_one()
        return req.completion

    def drain(self):
        """Service everything still queued; return the last completion time."""
        last = self.bus_free
        while self.reads_pending or self.writes_pending:
            last = self._schedule_one()
        return last

    # -- scheduling ---------------------------------------------------------
    def _candidate_queues(self):
        """Which queues the next pick may come from, honouring write drains.

        Plain FCFS never buffers writes: it always considers everything.
        FR-FCFS serves reads unless a drain episode is in progress (entered
        at the high watermark, left at the low watermark) or no reads wait.
        """
        if self.policy == "fcfs":
            return self.read_queues + self.write_queues
        if self.draining:
            if self.writes_pending <= self.drain_low_count:
                self.draining = False
        elif self.writes_pending >= self.drain_high_count:
            self.draining = True
            self._drain_bypasses = 0
            self.stats.write_drain_episodes += 1
        if self.draining:
            if (
                self.read_around_write
                and self.reads_pending
                and self._drain_bypasses < self.age_cap
                and self._read_hit_waiting()
            ):
                # A queued read hits a buffer that is open *right now*;
                # service it before the next drained write closes that
                # buffer.  Bounded per episode so drains still complete.
                self._drain_bypasses += 1
                self.stats.read_around_writes += 1
                return self.read_queues
            return self.write_queues
        if self.reads_pending:
            return self.read_queues
        return self.write_queues  # opportunistic: bus is otherwise idle

    def _read_hit_waiting(self):
        """True when any queued read wants its bank's open buffer entry."""
        banks = self.banks
        for queue in self.read_queues:
            if not queue:
                continue
            open_entry = banks[queue[0].bank_index].open_entry
            if open_entry is None:
                continue
            for entry in queue:
                if entry.req.want == open_entry:
                    return True
        return False

    def _pick_frfcfs(self, queues):
        """FR-FCFS pick over one class of per-bank FIFO queues.

        Entries within a queue are seq-ascending (appended at submit,
        removed anywhere), which the scan exploits: a queue's oldest
        entry is its head, and its oldest buffer hit is its first
        want-match, so the common streaming case touches one entry per
        non-empty queue.  Per-entry starvation counters are only scanned
        when the class counter says a starved entry exists, and bypass
        bookkeeping only runs when the pick actually jumped the queue —
        over each queue's seq < chosen prefix.
        """
        is_write_class = queues is self.write_queues
        starved_count = self._starved_writes if is_write_class else self._starved_reads
        if starved_count:
            age_cap = self.age_cap
            starved = None
            for queue in queues:
                for entry in queue:
                    if entry.bypassed >= age_cap and (
                        starved is None or entry.seq < starved.seq
                    ):
                        starved = entry
            if starved is not None:
                self.stats.starvation_cap_hits += 1
                if is_write_class:
                    self._starved_writes -= 1
                else:
                    self._starved_reads -= 1
                return starved
        stream_pending = self._write_streams if is_write_class else self._read_streams
        if len(stream_pending) > 1:
            return self._pick_frfcfs_stream(queues, is_write_class, stream_pending)
        banks = self.banks
        oldest = None
        ready = None
        for queue in queues:
            if not queue:
                continue
            head = queue[0]
            if oldest is None or head.seq < oldest.seq:
                oldest = head
            if ready is None or head.seq < ready.seq:
                open_entry = banks[head.bank_index].open_entry
                for entry in queue:
                    if entry.req.want == open_entry:
                        if ready is None or entry.seq < ready.seq:
                            ready = entry
                        break
        if ready is None or ready is oldest:
            return oldest
        chosen_seq = ready.seq
        stats = self.stats
        max_bypass = stats.max_bypass
        age_cap = self.age_cap
        newly_starved = 0
        for queue in queues:
            for entry in queue:
                if entry.seq >= chosen_seq:
                    break
                bypassed = entry.bypassed + 1
                entry.bypassed = bypassed
                if bypassed > max_bypass:
                    max_bypass = bypassed
                if bypassed == age_cap:
                    newly_starved += 1
        stats.max_bypass = max_bypass
        if newly_starved:
            if is_write_class:
                self._starved_writes += newly_starved
            else:
                self._starved_reads += newly_starved
        return ready

    def _next_stream(self, stream_pending):
        """Deficit-round-robin choice among streams with pending requests.

        Streams rotate in first-seen order; a stream keeps its turn while
        it has credit (``stream_quantum`` requests per replenish) and is
        skipped while it has nothing queued in the class being picked.
        Credit is charged per pick in `_pick_frfcfs_stream`.
        """
        order = self._stream_order
        credit = self._stream_credit
        n = len(order)
        rotations = 0
        for _ in range(2 * n):
            stream = order[self._stream_rr % n]
            if stream in stream_pending:
                if credit[stream] > 0:
                    if rotations:
                        self.stats.stream_rotations += rotations
                    return stream
                credit[stream] = self.stream_quantum
                rotations += 1
            self._stream_rr = (self._stream_rr + 1) % n
        # Unreachable while pending counts are maintained correctly: two
        # passes replenish every active stream's credit.
        raise AssertionError("no queued stream found")  # pragma: no cover

    def _pick_frfcfs_stream(self, queues, is_write_class, stream_pending):
        """FR-FCFS pick restricted to the deficit-round-robin stream.

        Same first-ready-else-oldest rule as the single-stream scan, but
        only entries of the arbiter-chosen stream are candidates.  Bypass
        bookkeeping still covers *every* older queued entry — other
        streams' requests age toward the (global) starvation cap while
        they wait their turn, preserving the single-stream worst-case
        queueing bound.
        """
        stream = self._next_stream(stream_pending)
        banks = self.banks
        oldest = None
        ready = None
        any_ready = None
        for queue in queues:
            if not queue:
                continue
            open_entry = banks[queue[0].bank_index].open_entry
            seen_first = False
            matched_other = False
            for entry in queue:
                if not seen_first and entry.req.stream == stream:
                    seen_first = True
                    if oldest is None or entry.seq < oldest.seq:
                        oldest = entry
                if entry.req.want == open_entry:
                    if entry.req.stream == stream:
                        if ready is None or entry.seq < ready.seq:
                            ready = entry
                        break  # this queue's first in-stream hit
                    if not matched_other:
                        matched_other = True
                        if any_ready is None or entry.seq < any_ready.seq:
                            any_ready = entry
        if ready is not None:
            chosen = ready
            # Charge the quantum here, not in `_schedule_one`: forced
            # starvation-cap picks and single-stream picks don't spend
            # credit.
            self._stream_credit[stream] -= 1
        elif any_ready is not None:
            # Work-conserving opportunism: the turn-holding stream has no
            # open-row hit anywhere, so take another stream's ready hit
            # instead of forcing a conflict.  Hits ride free (no credit
            # charged, the DRR turn stays put); activations remain
            # arbitrated, and bypass aging below still walks the skipped
            # stream's oldest entry toward the global starvation cap.
            chosen = any_ready
            self.stats.opportunistic_stream_hits += 1
        else:
            chosen = oldest
            self._stream_credit[stream] -= 1
        # -- bypass bookkeeping over every older entry, any stream
        chosen_seq = chosen.seq
        stats = self.stats
        max_bypass = stats.max_bypass
        age_cap = self.age_cap
        newly_starved = 0
        cross_stream = 0
        for queue in queues:
            for entry in queue:
                if entry.seq >= chosen_seq:
                    break
                bypassed = entry.bypassed + 1
                entry.bypassed = bypassed
                if entry.req.stream != stream:
                    cross_stream += 1
                if bypassed > max_bypass:
                    max_bypass = bypassed
                if bypassed == age_cap:
                    newly_starved += 1
        stats.max_bypass = max_bypass
        stats.cross_stream_bypasses += cross_stream
        if newly_starved:
            if is_write_class:
                self._starved_writes += newly_starved
            else:
                self._starved_reads += newly_starved
        return chosen

    def _schedule_one(self):
        # Inlined self._pick(): one call per serviced request matters here.
        queues = self._candidate_queues()
        if self.policy == "fcfs":
            entry = None
            for queue in queues:
                if queue and (entry is None or queue[0].seq < entry.seq):
                    entry = queue[0]
        else:
            entry = self._pick_frfcfs(queues)
        req = entry.req
        stream = req.stream
        if req.is_write:
            self.write_queues[entry.bank_index].remove(entry)
            self.writes_pending -= 1
            streams = self._write_streams
        else:
            self.read_queues[entry.bank_index].remove(entry)
            self.reads_pending -= 1
            streams = self._read_streams
        count = streams[stream] - 1
        if count:
            streams[stream] = count
        else:
            del streams[stream]
        bank_index = entry.bank_index
        bank = self.banks[bank_index]
        stats = self.stats
        hits_before = stats.buffer_hits
        conflicts_before = stats.buffer_conflicts
        switches_before = stats.orientation_switches
        start, data_at = bank.prepare(req, stats)
        bus_start = max(data_at, self.bus_free)
        end = bus_start + self._burst_cpu
        self.bus_free = end
        req.completion = end
        # -- statistics
        if req.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if req.orientation is Orientation.COLUMN:
            stats.col_oriented += 1
        elif req.orientation is Orientation.GATHER:
            stats.gathers += 1
        else:
            stats.row_oriented += 1
        hit = stats.buffer_hits > hits_before
        stats.bus_busy_cycles += self._burst_cpu
        latency = end - req.arrival
        stats.total_latency_cycles += latency
        # Inlined stats.latency_hist.record(latency) — one call per
        # serviced request adds up in the replay loop.
        hist = stats.latency_hist
        bucket = latency.bit_length()
        hist.buckets[bucket] = hist.buckets.get(bucket, 0) + 1
        hist.count += 1
        if not req.is_write:
            rhist = stats.read_latency_hist
            rhist.buckets[bucket] = rhist.buckets.get(bucket, 0) + 1
            rhist.count += 1
        if self.track_streams:
            tally = self.stream_stats.get(stream)
            if tally is None:
                tally = self.stream_stats[stream] = [0, 0, 0, 0]
            if req.is_write:
                tally[1] += 1
            else:
                tally[0] += 1
            if hit:
                tally[2] += 1
            tally[3] += latency
        if entry.coalesced is not None:
            # Writes absorbed into this entry complete with it.  Each is a
            # real access (the conservation laws partition accesses), and by
            # construction each hits the buffer the survivor just opened —
            # what coalescing saves is the bank/bus time and the extra
            # dirty-buffer write pulses, not the bookkeeping.
            for areq in entry.coalesced:
                # An absorbed write can arrive after the survivor's service
                # slot in simulated time; never complete before arrival.
                areq.completion = completion = max(end, areq.arrival)
                stats.writes += 1
                if areq.orientation is Orientation.COLUMN:
                    stats.col_oriented += 1
                elif areq.orientation is Orientation.GATHER:
                    stats.gathers += 1
                else:
                    stats.row_oriented += 1
                stats.buffer_hits += 1
                alat = completion - areq.arrival
                stats.total_latency_cycles += alat
                bucket = alat.bit_length()
                hist.buckets[bucket] = hist.buckets.get(bucket, 0) + 1
                hist.count += 1
                if self.track_streams:
                    tally = self.stream_stats.get(areq.stream)
                    if tally is None:
                        tally = self.stream_stats[areq.stream] = [0, 0, 0, 0]
                    tally[1] += 1
                    tally[2] += 1
                    tally[3] += alat
        # -- page policy
        if self.page_policy == "closed":
            self._close(bank)
        elif self.page_policy == "adaptive":
            self._adapt(bank, bank_index, req,
                        hit=hit,
                        conflict=stats.buffer_conflicts > conflicts_before,
                        switched=stats.orientation_switches > switches_before)
        return end

    def _close(self, bank):
        """Precharge right after the access: the bank pays tRP (plus the
        write pulse if dirty) in the background, off the request's path."""
        bank.flush(self.stats, 0)
        self.stats.buffer_closes += 1

    def _adapt(self, bank, bank_index, req, hit, conflict, switched):
        """Adaptive page policy: track a per-bank conflict streak and close
        the buffer once it crosses the threshold.  Orientation switches
        count double; a close proven wasted (the next access to this bank
        wanted the entry we closed) resets the bank to open-page mode."""
        streak = self._conflict_streak[bank_index]
        if hit:
            streak = 0
            self._last_closed[bank_index] = None
        elif conflict:
            streak = min(self.adaptive_threshold, streak + (2 if switched else 1))
        else:  # empty miss: the buffer was closed before this access
            wanted = (req.buffer_kind, req.subarray, req.buffer_index)
            if wanted == self._last_closed[bank_index]:
                streak = 0  # locality came back; the close was wasted
        if streak >= self.adaptive_threshold:
            self._last_closed[bank_index] = (
                bank.open_kind, bank.open_subarray, bank.open_index
            )
            self._close(bank)
        self._conflict_streak[bank_index] = streak

    def stream_snapshot(self):
        """Per-stream service tallies: ``{stream: {...}}`` (needs
        ``track_streams``; empty otherwise).  ``hit_rate`` is the
        stream's row/column-buffer hit rate — the fairness experiments
        compare it against a global-FIFO baseline per tenant."""
        snapshot = {}
        for stream, (reads, writes, hits, latency) in self.stream_stats.items():
            accesses = reads + writes
            snapshot[stream] = {
                "reads": reads,
                "writes": writes,
                "accesses": accesses,
                "buffer_hits": hits,
                "hit_rate": hits / accesses if accesses else 0.0,
                "total_latency_cycles": latency,
                "average_latency": latency / accesses if accesses else 0.0,
            }
        return snapshot

    # -- maintenance ---------------------------------------------------------
    def flush_all(self, now=0):
        """Close every open buffer (e.g. between benchmark phases)."""
        for bank in self.banks:
            now = max(now, bank.flush(self.stats, now))
        return now

    def reset(self):
        if self.reads_pending or self.writes_pending:
            # Every queued entry is counted pending, so with nothing
            # pending the queues are already empty.
            for queue in self.read_queues:
                queue.clear()
            for queue in self.write_queues:
                queue.clear()
        self.reads_pending = 0
        self.writes_pending = 0
        self.draining = False
        self._drain_bypasses = 0
        self._conflict_streak = [0] * len(self.banks)
        self._last_closed = [None] * len(self.banks)
        self._starved_reads = 0
        self._starved_writes = 0
        self._read_streams = {}
        self._write_streams = {}
        self._stream_order = []
        self._stream_rr = 0
        self._stream_credit = {}
        self.stream_stats = {}
        self._seq = itertools.count()
        self.bus_free = 0
        self.stats = MemoryStats()
        for bank in self.banks:
            bank.reset()
