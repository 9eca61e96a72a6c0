"""Statistics counters for caches and synonym handling."""

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0
    #: Victim search had to skip pinned lines.
    pin_skips: int = 0
    #: A fill could not evict because every way in the set was pinned;
    #: the oldest pinned line was forcibly unpinned (Section 5 notes the
    #: group size must respect the physical cache size).
    pin_overflows: int = 0

    #: Typed instrument declaration for the metrics registry
    #: (:func:`repro.obs.metrics.bind_stats`); field names mirror the
    #: dataclass so ``snapshot()`` keys are unchanged.
    INSTRUMENTS = {
        "hits": "counter",
        "misses": "counter",
        "evictions": "counter",
        "writebacks": "counter",
        "fills": "counter",
        "pin_skips": "counter",
        "pin_overflows": "counter",
    }

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def snapshot(self):
        data = dict(vars(self))
        data["accesses"] = self.accesses
        data["hit_rate"] = self.hit_rate
        return data


@dataclass
class SynonymStats:
    """Bookkeeping costs of the orientation-bit / crossing-bit mechanism
    (paper Section 4.3, measured in Figure 21)."""

    #: Fills that triggered a crossing check (opposite-orientation lines
    #: were present somewhere in the hierarchy).
    crossing_checks: int = 0
    #: 8-byte duplicates copied between crossed lines on a fill.
    crossing_copies: int = 0
    #: Duplicate updates performed on writes to words with a crossing bit.
    write_updates: int = 0
    #: Crossing bits cleared because a crossed line was evicted.
    eviction_clears: int = 0
    #: Total extra cycles charged for all of the above.
    overhead_cycles: int = 0

    INSTRUMENTS = {
        "crossing_checks": "counter",
        "crossing_copies": "counter",
        "write_updates": "counter",
        "eviction_clears": "counter",
        "overhead_cycles": "counter",
    }

    def snapshot(self):
        return dict(vars(self))
