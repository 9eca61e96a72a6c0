"""Inclusive multi-level cache hierarchy.

Lookups walk L1 -> L2 -> L3; hits promote the line into the upper levels.
Fills install at every level (the hierarchy is inclusive), and an LLC
eviction back-invalidates the upper levels and triggers a memory
writeback if any copy was dirty.

The hierarchy also drives the synonym machinery of Section 4.3: crossing
checks on fills, duplicate updates on writes, and crossing-bit clears on
evictions, all priced by a :class:`~repro.cache.synonym.SynonymDirectory`.
Synonym work only applies to row/column-oriented lines of an RC-NVM
system; conventional systems pass ``synonym=None`` and skip it entirely.
"""

from repro.core.addressing import Orientation
from repro.cache.cache import Cache
from repro.cache.line import CacheLine, SPACE_SHIFT, key_orientation

MISS = -1

_GATHER_TAG = int(Orientation.GATHER)


class CacheHierarchy:
    """L1/L2/L3 stack for one core (L3 may be shared via MESI; see
    :mod:`repro.cache.coherence`)."""

    def __init__(self, levels, synonym=None):
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        self.levels = list(levels)
        self.llc = self.levels[-1]
        #: Non-LLC levels in fill order (upper levels last-to-first) — the
        #: fill path runs once per LLC miss and must not re-slice.
        self._upper_rev = tuple(reversed(self.levels[:-1]))
        self.synonym = synonym
        #: Number of LLC-resident lines per orientation; used to skip
        #: crossing checks when no opposite-orientation line exists.
        self._counts = [0, 0, 0]
        #: Dirty LLC victims awaiting a memory writeback, drained by the
        #: machine model after each access.
        self.pending_writebacks = []

    # -- public interface ---------------------------------------------------
    def lookup(self, key, is_write, word_mask=0xFF):
        """Look ``key`` up; promote on lower-level hits.

        Returns ``(level_index, synonym_cycles)`` with ``level_index`` =
        :data:`MISS` when the line is not resident anywhere.
        """
        extra = 0
        for index, level in enumerate(self.levels):
            line = level.lookup(key)
            if line is None:
                continue
            if index:
                self._promote(key, index)
            if is_write:
                self.levels[0].probe(key).dirty = True
                extra += self._on_write(key, word_mask)
            return index, extra
        return MISS, extra

    def fill(self, key, is_write, pin=False, word_mask=0xFF):
        """Install a line fetched from memory into every level.

        Returns ``synonym_cycles``; dirty LLC victims are queued on
        :attr:`pending_writebacks` for the machine to issue to memory.
        """
        extra = self._install_llc(key, pinned=pin)
        for level in self._upper_rev:
            _line, victim = level.install(key, dirty=False)
            if victim is not None:
                self._demote(level, victim)
        if is_write:
            self.levels[0].probe(key).dirty = True
            extra += self._on_write(key, word_mask)
        return extra

    def fill_absent_read(self, key):
        """Read-fill a key known to be absent from every level.

        Exactly ``fill(key, is_write=False)`` minus the membership
        re-checks each :meth:`Cache.install` would repeat — the replay
        fast path only fills after a full-miss lookup, so the key cannot
        be resident anywhere.  Returns ``synonym_cycles``.
        """
        extra = 0
        llc = self.llc
        index = key & llc._set_mask
        cache_set = llc.sets[index]
        victim = None
        if len(cache_set) >= llc.ways:
            victim = llc._evict_one(cache_set)
        llc.writable_set(index)[key] = line = CacheLine(key)
        llc.stats.fills += 1
        if victim is not None:
            extra += self._on_llc_eviction(victim)
        if self.synonym is not None:
            tag = key >> SPACE_SHIFT
            if tag != _GATHER_TAG:
                self._counts[tag] += 1
            extra += self._crossing_check(line)
        for level in self._upper_rev:
            index = key & level._set_mask
            cache_set = level.sets[index]
            victim = None
            if len(cache_set) >= level.ways:
                victim = level._evict_one(cache_set)
            level.writable_set(index)[key] = CacheLine(key)
            level.stats.fills += 1
            if victim is not None:
                self._demote(level, victim)
        return extra

    def unpin(self, key):
        """Clear the pin flag on an LLC line (group caching release)."""
        line = self.llc.set_pinned(key, False)
        return line is not None

    def pin(self, key):
        line = self.llc.set_pinned(key, True)
        return line is not None

    def drain_writebacks(self):
        pending, self.pending_writebacks = self.pending_writebacks, []
        return pending

    def flush(self):
        """Write back and drop everything (between benchmark phases)."""
        dirty = []
        seen_dirty = set()
        for level in self.levels:
            for line in level.resident_lines():
                if line.dirty and line.key not in seen_dirty:
                    seen_dirty.add(line.key)
                    dirty.append(line.key)
            level.clear()
        self._counts = [0, 0, 0]
        return dirty

    # -- internals --------------------------------------------------------------
    def _promote(self, key, found_at):
        for level in reversed(self.levels[:found_at]):
            _line, victim = level.install(key, dirty=False)
            if victim is not None:
                self._demote(level, victim)

    def _demote(self, level, victim):
        """Push an upper-level victim down one level (write-back path)."""
        position = self.levels.index(level)
        below = self.levels[position + 1]
        line = below.probe(victim.key)
        if line is not None:
            line.dirty = line.dirty or victim.dirty
        elif victim.dirty:
            # Non-inclusive corner (line slipped out of the level below):
            # forward the dirty data toward memory.
            _line, lower_victim = below.install(victim.key, dirty=True)
            if lower_victim is not None:
                if below is self.llc:
                    self._on_llc_eviction(lower_victim)
                else:
                    self._demote(below, lower_victim)

    def _install_llc(self, key, pinned):
        extra = 0
        line, victim = self.llc.install(key, dirty=False, pinned=pinned)
        if victim is not None:
            extra += self._on_llc_eviction(victim)
        if self.synonym is None:
            # _counts only gates _crossing_check, which is a no-op without
            # a synonym directory — skip the bookkeeping entirely.
            return extra
        tag = key >> SPACE_SHIFT
        if tag != _GATHER_TAG:
            self._counts[tag] += 1
        extra += self._crossing_check(line)
        return extra

    def _on_llc_eviction(self, victim):
        """Back-invalidate, collect dirtiness, queue writeback, clear
        crossing bits that point at the victim."""
        dirty = victim.dirty
        for level in self._upper_rev:
            upper = level.invalidate(victim.key)
            if upper is not None and upper.dirty:
                dirty = True
        extra = 0
        if self.synonym is not None and (victim.key >> SPACE_SHIFT) != _GATHER_TAG:
            self._counts[victim.key >> SPACE_SHIFT] -= 1
            if victim.crossing:
                clears = 0
                for cross_key, word_self, word_other in self.synonym.crossing_keys(
                    victim.key
                ):
                    if not victim.has_crossing(word_self):
                        continue
                    other = self.llc.probe(cross_key)
                    if other is not None:
                        other.clear_crossing(word_other)
                        clears += 1
                extra += self.synonym.charge_eviction_clears(clears)
        if dirty:
            self.pending_writebacks.append(victim.key)
        return extra

    def _crossing_check(self, line):
        """Fill-time synonym resolution (first bullet of Section 4.3.2)."""
        if self.synonym is None:
            return 0
        orientation = key_orientation(line.key)
        if orientation is Orientation.GATHER:
            return 0
        if not self._counts[orientation.opposite]:
            return 0
        copies = 0
        for cross_key, word_self, word_other in self.synonym.crossing_keys(line.key):
            other = self.llc.probe(cross_key)
            if other is None:
                continue
            # Copy the crossed 8 bytes from the resident line into the new
            # one so the duplicates agree, and mark both sides.
            line.set_crossing(word_self)
            other.set_crossing(word_other)
            copies += 1
        return self.synonym.charge_fill_check(copies)

    def _on_write(self, key, word_mask):
        """Write-time duplicate update (third bullet of Section 4.3.2)."""
        if self.synonym is None:
            return 0
        if key_orientation(key) is Orientation.GATHER:
            return 0
        line = self.llc.probe(key)
        if line is None or not (line.crossing & word_mask):
            return 0
        updates = bin(line.crossing & word_mask).count("1")
        return self.synonym.charge_write_updates(updates)

    # -- conformance ---------------------------------------------------------
    def check_invariants(self):
        """Structural-consistency violations, as strings (empty = clean).

        Audited by the fuzz harness after every simulated statement:

        * all dirty LLC victims have been drained to memory;
        * the per-orientation residency counts (``_counts``) match the
          actual LLC contents — these gate crossing checks, so a drift
          would silently skip synonym resolution;
        * crossing bits are symmetric and live: a set bit always names a
          resident opposite-orientation line whose mirrored bit is set,
          i.e. every synonym pair the directory tracks maps to one datum.
        """
        problems = []
        if self.pending_writebacks:
            problems.append(
                f"{len(self.pending_writebacks)} dirty LLC victims never "
                "drained to memory"
            )
        if self.synonym is None:
            return problems
        counts = [0, 0, 0]
        for line in self.llc.resident_lines():
            tag = line.key >> SPACE_SHIFT
            if tag != _GATHER_TAG:
                counts[tag] += 1
        for tag, name in ((0, "row"), (1, "column")):
            if counts[tag] != self._counts[tag]:
                problems.append(
                    f"LLC {name}-orientation count drifted: tracked "
                    f"{self._counts[tag]}, resident {counts[tag]}"
                )
        for line in self.llc.resident_lines():
            if not line.crossing or (line.key >> SPACE_SHIFT) == _GATHER_TAG:
                continue
            for cross_key, word_self, word_other in self.synonym.crossing_keys(
                line.key
            ):
                if not line.has_crossing(word_self):
                    continue
                other = self.llc.probe(cross_key)
                if other is None:
                    problems.append(
                        f"crossing bit {word_self} of line {line.key:#x} "
                        "names an absent synonym line"
                    )
                elif not other.has_crossing(word_other):
                    problems.append(
                        f"asymmetric crossing bits between {line.key:#x} "
                        f"and {cross_key:#x}"
                    )
        return problems

    # -- statistics ----------------------------------------------------------
    @property
    def llc_misses(self):
        return self.llc.stats.misses

    def stats_by_level(self):
        return {level.name: level.stats.snapshot() for level in self.levels}


def make_hierarchy(synonym=None, l1_kib=32, l2_kib=256, l3_kib=8192, ways=8,
                   l1_latency=4, l2_latency=12, l3_latency=38):
    """Build the paper's Table 1 cache stack (sizes overridable)."""
    levels = [
        Cache("L1", l1_kib * 1024, ways, l1_latency),
        Cache("L2", l2_kib * 1024, ways, l2_latency),
        Cache("L3", l3_kib * 1024, ways, l3_latency),
    ]
    return CacheHierarchy(levels, synonym=synonym)
