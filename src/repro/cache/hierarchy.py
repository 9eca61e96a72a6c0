"""Inclusive multi-level cache hierarchy.

Lookups walk L1 -> L2 -> L3; hits promote the line into the upper levels.
Fills install at every level (the hierarchy is inclusive), and an LLC
eviction back-invalidates the upper levels and triggers a memory
writeback if any copy was dirty.

On an RC-NVM system the hierarchy tells its
:class:`~repro.cache.synonym.SynonymDirectory` about every LLC fill, write
and eviction; the resolver applies the Section 4.3 synonym rules and
keeps the LLC's residency counts.  Conventional systems pass
``synonym=None`` and skip it entirely.
"""

from repro.cache.cache import Cache
from repro.cache.line import CacheLine

MISS = -1


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
        #: Dirty LLC victims awaiting a memory writeback, drained by the
        #: machine model after each access.
        self.pending_writebacks = []

    # -- public interface ---------------------------------------------------
    def lookup(self, key, is_write, word_mask=0xFF):
        """Look ``key`` up; promote on lower-level hits.

        Returns ``(level_index, synonym_cycles)`` with ``level_index`` =
        :data:`MISS` when the line is not resident anywhere.
        """
        for index, level in enumerate(self.levels):
            line = level.lookup(key)
            if line is None:
                continue
            if index:
                self._promote(key, index)
            if is_write:
                self.levels[0].probe(key).dirty = True
                if self.synonym is not None:
                    return index, self.synonym.on_write(self.llc, key, word_mask)
            return index, 0
        return MISS, 0

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
            if self.synonym is not None:
                extra += self.synonym.on_write(self.llc, key, word_mask)
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
            extra += self.synonym.on_fill(llc, line)
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
        """Write back and drop everything (between benchmark phases); the
        resolver's residency counts go back to zero with the LLC."""
        dirty = []
        seen_dirty = set()
        for level in self.levels:
            for line in level.resident_lines():
                if line.dirty and line.key not in seen_dirty:
                    seen_dirty.add(line.key)
                    dirty.append(line.key)
            level.clear()
        if self.synonym is not None:
            self.synonym.resident = [0, 0, 0]
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
        line, victim = self.llc.install(key, dirty=False, pinned=pinned)
        extra = 0 if victim is None else self._on_llc_eviction(victim)
        if self.synonym is not None:
            extra += self.synonym.on_fill(self.llc, line)
        return extra

    def _on_llc_eviction(self, victim):
        """Back-invalidate, collect dirtiness, queue writeback; the
        resolver uncounts the victim and clears its partners' bits."""
        dirty = victim.dirty
        for level in self._upper_rev:
            upper = level.invalidate(victim.key)
            if upper is not None and upper.dirty:
                dirty = True
        if dirty:
            self.pending_writebacks.append(victim.key)
        if self.synonym is None:
            return 0
        return self.synonym.on_evict(self.llc, victim)

    # -- conformance ---------------------------------------------------------
    def check_invariants(self):
        """Structural-consistency violations, as strings (empty = clean).

        Audited by the fuzz harness after every simulated statement: all
        dirty LLC victims have been drained to memory, and the resolver's
        :meth:`~repro.cache.synonym.SynonymDirectory.problems` audit of
        residency counts and crossing bits comes back clean.
        """
        problems = []
        if self.pending_writebacks:
            problems.append(
                f"{len(self.pending_writebacks)} dirty LLC victims never "
                "drained to memory"
            )
        if self.synonym is not None:
            problems += self.synonym.problems(self.llc)
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
