"""Statistics counters for the memory system."""

import operator
from dataclasses import dataclass, field, fields


class LatencyHistogram:
    """Power-of-two-bucketed request-latency histogram.

    Latencies are binned by bit length, so bucket ``k`` holds requests whose
    end-to-end latency (completion - arrival, in CPU cycles) lies in
    ``[2**(k-1), 2**k)``.  Percentiles are reported as the upper bound of the
    bucket where the cumulative count crosses the requested fraction, which
    is exact enough for p50/p95/p99 monitoring while keeping merge O(buckets).
    """

    __slots__ = ("buckets", "count")

    def __init__(self):
        self.buckets = {}
        self.count = 0

    def record(self, latency_cycles):
        latency_cycles = int(latency_cycles)
        if latency_cycles < 0:
            # bit_length() of a negative int is the magnitude's, so -5
            # would silently land in bucket 3 ([4, 8)); a negative
            # latency is always an accounting bug upstream.
            raise ValueError(
                f"negative latency {latency_cycles} cannot be recorded"
            )
        bucket = latency_cycles.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1

    @classmethod
    def combined(cls, hists):
        """A new histogram holding every sample of ``hists``."""
        result = cls()
        buckets = result.buckets
        count = 0
        for hist in hists:
            count += hist.count
            for bucket, n in hist.buckets.items():
                buckets[bucket] = buckets.get(bucket, 0) + n
        result.count = count
        return result

    def percentile(self, pct):
        """Upper bound (cycles) of the bucket containing the pct-th request.

        ``percentile(0)`` is the distribution's minimum: the *lower*
        bound of the smallest occupied bucket (the first-crossing rule
        would report that bucket's upper bound, overstating the minimum
        by up to 2x).
        """
        if not self.count:
            return 0
        if pct <= 0:
            low = min(self.buckets)
            return 0 if low == 0 else 1 << (low - 1)
        threshold = pct / 100.0 * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= threshold:
                return (1 << bucket) - 1
        return (1 << max(self.buckets)) - 1  # pragma: no cover - loop covers

    def to_dict(self):
        """``{bucket upper bound: count}`` with ascending bounds."""
        return {(1 << b) - 1: n for b, n in sorted(self.buckets.items())}

    @classmethod
    def from_dict(cls, bounds):
        """The histogram :meth:`to_dict` exported (keys may be strings)."""
        hist = cls()
        for bound, n in bounds.items():
            hist.buckets[(int(bound) + 1).bit_length() - 1] = n
            hist.count += n
        return hist

    def __eq__(self, other):
        return (
            isinstance(other, LatencyHistogram)
            and self.buckets == other.buckets
            and self.count == other.count
        )

    def __repr__(self):
        return f"LatencyHistogram({self.count} samples, {len(self.buckets)} buckets)"


@dataclass
class MemoryStats:
    """Aggregated counters for one controller (or a whole memory system)."""

    reads: int = 0
    writes: int = 0
    #: Requests served from an already-open, matching buffer.
    buffer_hits: int = 0
    #: Requests to a bank with no open buffer (activation only).
    buffer_empty_misses: int = 0
    #: Requests that had to close a different open buffer first.
    buffer_conflicts: int = 0
    #: Subset of conflicts caused by a row<->column orientation switch
    #: (RC-NVM only): the active buffer must be flushed and the bank
    #: reopened (Section 3).
    orientation_switches: int = 0
    #: Dirty-buffer flushes that paid the NVM write pulse.
    dirty_flushes: int = 0
    #: Dirty-buffer flushes whose device charged a *nonzero* write pulse —
    #: the cell-array writes that age NVM.  Always ``<= dirty_flushes``;
    #: zero on DRAM, whose restore is covered by tRAS.
    write_pulses: int = 0
    #: Writes absorbed into an older queued write to the same buffer entry
    #: (controller ``write_coalescing``).  Subset of ``writes``.
    writes_coalesced: int = 0
    #: Drain-episode picks preempted by a buffer-hitting read
    #: (controller ``read_around_write``).
    read_around_writes: int = 0
    activations: int = 0
    #: Buffers closed by the page policy (closed/adaptive precharges).
    buffer_closes: int = 0
    #: CPU cycles the data bus was transferring bursts.
    bus_busy_cycles: int = 0
    #: Total CPU cycles requests spent queued + in service.
    total_latency_cycles: int = 0
    #: Per-orientation request counts.
    row_oriented: int = 0
    col_oriented: int = 0
    gathers: int = 0
    # -- scheduler telemetry -------------------------------------------------
    #: Times the write queue crossed its high watermark and forced a drain.
    write_drain_episodes: int = 0
    #: Times the FR-FCFS age cap forced the oldest request over a buffer hit.
    starvation_cap_hits: int = 0
    #: Most times any single request was bypassed (bounded by the age cap).
    max_bypass: int = 0
    #: Total queued requests summed over scheduling decisions, plus the
    #: sample count: ``queue_occupancy_sum / queue_occupancy_samples`` is
    #: the mean controller occupancy seen by the scheduler.
    queue_occupancy_sum: int = 0
    queue_occupancy_samples: int = 0
    max_queue_occupancy: int = 0
    #: Deepest any single bank's (read or write) queue ever got.
    max_bank_queue_occupancy: int = 0
    # -- fair-share (multi-tenant) telemetry ----------------------------------
    #: Bypasses where the fair-share arbiter favoured another tenant's
    #: stream over a globally older request (subset of all bypasses;
    #: always 0 when at most one stream is queued).
    cross_stream_bypasses: int = 0
    #: Times the deficit-round-robin arbiter exhausted a stream's quantum
    #: and rotated to the next active stream.
    stream_rotations: int = 0
    #: Work-conserving picks: the turn-holding stream had no open-row hit,
    #: so another stream's ready hit was served instead of forcing a
    #: buffer conflict (no credit charged).
    opportunistic_stream_hits: int = 0
    # -- durability accounting -------------------------------------------------
    #: Write-ahead log records appended (schema ops, tuple writes, and
    #: commit markers alike).
    wal_records: int = 0
    #: Cell words those records occupy, framing included — the numerator
    #: of the WAL write-amplification ratio.
    wal_cells: int = 0
    #: Persistence barriers run (one per durable statement commit).
    persist_barriers: int = 0
    #: Dirty cache lines the persistence barriers wrote back.
    persist_flush_lines: int = 0
    #: End-to-end request latency distribution (completion - arrival).
    latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Read-only slice of ``latency_hist`` — the wear/latency ablation
    #: gates on read p99 specifically, since write draining and coalescing
    #: deliberately trade write latency for read latency.
    read_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    #: Typed instrument declaration consumed by the metrics registry
    #: (:func:`repro.obs.metrics.bind_stats`): every dataclass field,
    #: classified as counter (monotone totals), gauge (high-water marks
    #: and other non-monotone values) or histogram.  Keys mirror the
    #: field names, so ``snapshot()`` output is unchanged by the
    #: migration; a test pins the two in sync.
    INSTRUMENTS = {
        "reads": "counter",
        "writes": "counter",
        "buffer_hits": "counter",
        "buffer_empty_misses": "counter",
        "buffer_conflicts": "counter",
        "orientation_switches": "counter",
        "dirty_flushes": "counter",
        "write_pulses": "counter",
        "writes_coalesced": "counter",
        "read_around_writes": "counter",
        "activations": "counter",
        "buffer_closes": "counter",
        "bus_busy_cycles": "counter",
        "total_latency_cycles": "counter",
        "row_oriented": "counter",
        "col_oriented": "counter",
        "gathers": "counter",
        "write_drain_episodes": "counter",
        "starvation_cap_hits": "counter",
        "max_bypass": "gauge",
        "queue_occupancy_sum": "counter",
        "queue_occupancy_samples": "counter",
        "max_queue_occupancy": "gauge",
        "max_bank_queue_occupancy": "gauge",
        "cross_stream_bypasses": "counter",
        "stream_rotations": "counter",
        "opportunistic_stream_hits": "counter",
        "wal_records": "counter",
        "wal_cells": "counter",
        "persist_barriers": "counter",
        "persist_flush_lines": "counter",
        "latency_hist": "histogram",
        "read_latency_hist": "histogram",
    }

    @property
    def accesses(self):
        return self.reads + self.writes

    @property
    def buffer_misses(self):
        return self.buffer_empty_misses + self.buffer_conflicts

    @property
    def buffer_miss_rate(self):
        """Combined row-/column-buffer miss rate (paper Figure 20)."""
        if not self.accesses:
            return 0.0
        return self.buffer_misses / self.accesses

    @property
    def average_latency(self):
        if not self.accesses:
            return 0.0
        return self.total_latency_cycles / self.accesses

    @property
    def avg_queue_occupancy(self):
        if not self.queue_occupancy_samples:
            return 0.0
        return self.queue_occupancy_sum / self.queue_occupancy_samples

    @property
    def latency_p50(self):
        return self.latency_hist.percentile(50)

    @property
    def latency_p95(self):
        return self.latency_hist.percentile(95)

    @property
    def latency_p99(self):
        return self.latency_hist.percentile(99)

    @property
    def read_latency_p50(self):
        return self.read_latency_hist.percentile(50)

    @property
    def read_latency_p99(self):
        return self.read_latency_hist.percentile(99)

    def merge(self, other: "MemoryStats") -> "MemoryStats":
        """Return the element-wise combination of two stat blocks."""
        return combine_stats((self, other))

    def check_conservation(self):
        """Internal-consistency violations of this stat block, as strings.

        Every memory request is classified exactly once on two axes, so
        for any snapshot (single controller or merged system):

        * buffer outcomes partition the requests:
          ``buffer_hits + buffer_empty_misses + buffer_conflicts == accesses``
        * orientations partition the requests:
          ``row_oriented + col_oriented + gathers == accesses``
        * orientation switches are a subset of buffer conflicts.

        Used by the fuzz harness (repro.fuzz.invariants) after every
        statement; an empty list means the counters are conserved.
        """
        problems = []
        outcomes = self.buffer_hits + self.buffer_empty_misses + self.buffer_conflicts
        if outcomes != self.accesses:
            problems.append(
                f"buffer outcomes {outcomes} != accesses {self.accesses} "
                f"(hits={self.buffer_hits}, empty={self.buffer_empty_misses}, "
                f"conflicts={self.buffer_conflicts})"
            )
        oriented = self.row_oriented + self.col_oriented + self.gathers
        if oriented != self.accesses:
            problems.append(
                f"orientation counts {oriented} != accesses {self.accesses} "
                f"(row={self.row_oriented}, col={self.col_oriented}, "
                f"gather={self.gathers})"
            )
        if self.orientation_switches > self.buffer_conflicts:
            problems.append(
                f"orientation switches {self.orientation_switches} exceed "
                f"buffer conflicts {self.buffer_conflicts}"
            )
        if self.write_pulses > self.dirty_flushes:
            problems.append(
                f"write pulses {self.write_pulses} exceed "
                f"dirty flushes {self.dirty_flushes}"
            )
        if self.writes_coalesced > self.writes:
            problems.append(
                f"coalesced writes {self.writes_coalesced} exceed "
                f"writes {self.writes}"
            )
        if self.read_latency_hist.count > self.latency_hist.count:
            problems.append(
                f"read latency samples {self.read_latency_hist.count} exceed "
                f"total latency samples {self.latency_hist.count}"
            )
        return problems

    def snapshot(self) -> dict:
        data = dict(vars(self))
        data["latency_hist"] = self.latency_hist.to_dict()
        data["read_latency_hist"] = self.read_latency_hist.to_dict()
        data["accesses"] = self.accesses
        data["buffer_miss_rate"] = self.buffer_miss_rate
        data["average_latency"] = self.average_latency
        data["avg_queue_occupancy"] = self.avg_queue_occupancy
        data["latency_p50"] = self.latency_p50
        data["latency_p95"] = self.latency_p95
        data["latency_p99"] = self.latency_p99
        data["read_latency_p50"] = self.read_latency_p50
        data["read_latency_p99"] = self.read_latency_p99
        # Keys of the deleted hybrid DRAM tier and scrub scheduler, kept
        # with their untiered, unscrubbed values because every committed
        # benchmark golden digests the whole snapshot.  A benchmark change
        # that re-records the goldens removes them.
        data["tier_nvm_accesses"] = data["accesses"]
        data["tier_nvm_hits"] = self.buffer_hits
        for name in ("tier_dram_accesses", "tier_dram_hits",
                     "chunks_promoted", "chunks_demoted",
                     "migration_cells", "migration_cycles",
                     "scrub_reads", "scrub_cycles"):
            data[name] = 0
        return data


#: Every field in declaration order, read in one call per block.
_FIELDS = tuple(f.name for f in fields(MemoryStats))
_read_fields = operator.attrgetter(*_FIELDS)
#: How :func:`combine_stats` folds a field's column, by the kind
#: ``INSTRUMENTS`` declares: counters add, gauges (high-water marks) take
#: the max, histograms pool their samples.
_FOLD_BY_KIND = {"counter": sum, "gauge": max, "histogram": LatencyHistogram.combined}
_FOLDS = tuple(_FOLD_BY_KIND[MemoryStats.INSTRUMENTS[name]] for name in _FIELDS)


def combine_stats(blocks):
    """One new :class:`MemoryStats` combining ``blocks`` field by field.

    The one merge behind :meth:`MemoryStats.merge` and
    ``MemorySystem.stats``.  Its histograms are new objects, so mutating
    the result never touches a block it was combined from."""
    columns = zip(*map(_read_fields, blocks))
    return MemoryStats(*[fold(column) for fold, column in zip(_FOLDS, columns)])
