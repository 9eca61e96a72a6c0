"""NVM write-endurance tracking.

Crossbar NVM cells wear out with writes; in this model the cell array is
written exactly when a dirty row/column buffer is flushed back (the
write pulse of Section 3).  A :class:`WearTracker` attached to a memory
system records every such flush per buffer line, giving the wear
distribution a wear-leveling study needs — an extension beyond the
paper's evaluation, but a first-order concern for any NVM main memory
(one of the reasons the paper's IMDB controls data placement
explicitly).
"""

from collections import Counter
from dataclasses import dataclass

from repro.orientation import Orientation


@dataclass(frozen=True)
class WearLine:
    """Identity of one wearable unit: a physical row (or column) of one
    subarray of one bank."""

    channel: int
    rank: int
    bank: int
    subarray: int
    kind: Orientation
    index: int


class WearTracker:
    """Counts array write-backs (dirty buffer flushes) per line."""

    def __init__(self):
        self.counts = Counter()

    def record_flush(self, channel, rank, bank, subarray, kind, index):
        self.counts[WearLine(channel, rank, bank, subarray, kind, index)] += 1

    # -- aggregate views -------------------------------------------------------
    @property
    def total_flushes(self):
        return sum(self.counts.values())

    @property
    def lines_touched(self):
        return len(self.counts)

    @property
    def max_wear(self):
        return max(self.counts.values(), default=0)

    def hottest(self, n=10):
        """The ``n`` most-written lines as (line, count) pairs."""
        return self.counts.most_common(n)

    def imbalance(self):
        """Max/mean wear ratio over touched lines (1.0 = perfectly even).

        The classic motivation for wear leveling: a hot row wears out
        orders of magnitude before the array average."""
        if not self.counts:
            return 0.0
        mean = self.total_flushes / len(self.counts)
        return self.max_wear / mean

    def snapshot(self):
        return {
            "total_flushes": self.total_flushes,
            "lines_touched": self.lines_touched,
            "max_wear": self.max_wear,
            "imbalance": self.imbalance(),
        }


def subarray_index_of(line: WearLine, geometry):
    """Flat subarray id of a wear line's subarray.

    Must stay the inverse of
    :meth:`repro.imdb.physmem.PhysicalMemory.subarray_coord`, so a wear
    line names the same physical subarray the functional store writes
    (pinned by tests)."""
    return (
        (line.channel * geometry.ranks + line.rank) * geometry.banks
        + line.bank
    ) * geometry.subarrays + line.subarray


def attach_wear_tracker(memory_system):
    """Attach a fresh tracker to every bank of a memory system; returns
    the tracker.  Only meaningful for NVM systems (DRAM does not wear).

    A controller's flat bank index is ``rank * banks + bank``; the
    ``(rank, bank)`` split below inverts it and is pinned against
    :meth:`PhysicalMemory.subarray_coord` by tests, so wear lines and
    physical coordinates cannot silently diverge."""
    tracker = WearTracker()
    for channel_index, controller in enumerate(memory_system.controllers):
        for flat, bank in enumerate(controller.banks):
            bank.wear_tracker = tracker
            bank.wear_identity = (
                channel_index,
                flat // memory_system.geometry.banks,
                flat % memory_system.geometry.banks,
            )
    return tracker
