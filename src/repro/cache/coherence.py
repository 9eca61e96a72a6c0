"""Directory-based MESI coherence (paper Sections 4.3.3, 6.1).

The paper simulates "a directory based MESI cache coherence protocol with
Ruby in gem5" and resolves the dual-address synonym problem *before*
coherence: crossing bits live in the directory, duplicates are updated on
writes, and only then does the ordinary protocol (which never mixes the
two address spaces) make copies consistent across cores.

This module implements that structure over private per-core caches and a
shared inclusive LLC:

* each private line carries a MESI state;
* the directory (at the LLC) tracks, per line, the bitmask of sharers;
  the exclusive owner is the sole sharer when it holds the line in M or E;
* reads without other sharers install E, with sharers install S
  (downgrading an M/E owner); writes invalidate all other sharers and
  install M;
* LLC evictions recall the line from every private cache;
* synonym resolution comes first: every LLC fill, write and eviction is
  handed to the shared LLC's :class:`~repro.cache.synonym.SynonymDirectory`,
  the same resolver rules the single-core hierarchy calls, which also
  keeps the LLC's residency counts.

Message costs are fixed per hop and charged to the requesting core.
"""

import enum
from dataclasses import dataclass

from repro.cache.cache import EMPTY_SET, Cache
from repro.errors import ProtocolError


class Mesi(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    # Invalid is represented by absence from the cache.


# Enum attribute lookups are slow on the per-line path; compare by identity
# against these.
_MODIFIED, _EXCLUSIVE, _SHARED = Mesi.MODIFIED, Mesi.EXCLUSIVE, Mesi.SHARED

#: What every private read hit returns: nothing extra, nothing written back.
_PRIVATE_HIT = (True, True, 0, ())


@dataclass
class CoherenceStats:
    """Protocol event counters."""

    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0  # S -> M on a write hit
    invalidations_sent: int = 0
    downgrades: int = 0  # M/E -> S on a remote read
    writebacks_recalled: int = 0  # dirty data pulled out of an owner
    llc_recalls: int = 0  # back-invalidations on LLC eviction

    def snapshot(self):
        return dict(vars(self))


def _cores(sharers):
    """The core ids set in a sharer bitmask, in ascending order."""
    core = 0
    while sharers:
        if sharers & 1:
            yield core
        sharers >>= 1
        core += 1


class MesiDirectory:
    """A shared LLC plus directory over N private caches.

    Each line's coherence state is recorded once.  The private caches are
    plain :class:`~repro.cache.cache.Cache` instances (geometry, LRU order
    and hit/miss/fill/eviction stats) whose sets map a resident key to its
    :class:`Mesi` state instead of a line object, so only this class fills
    them.  ``self.directory`` maps a key to the bitmask of the cores
    holding it.  Three invariants make that enough:

    * only LLC lines are ever pinned, so a private victim is simply the
      LRU entry of its set;
    * only a sole holder can be in M or E, so the owner is implied by the
      sharer mask and the holder's state;
    * E and S lines are clean, so M is a private line's dirty bit.
    """

    #: Fixed message costs in CPU cycles.
    DIRECTORY_LOOKUP_COST = 6
    INVALIDATION_COST = 12
    DOWNGRADE_COST = 16

    def __init__(self, private_caches, llc: Cache, synonym=None):
        self.private_caches = list(private_caches)
        self.llc = llc
        self.synonym = synonym
        self.directory = {}
        self.stats = CoherenceStats()

    @property
    def n_cores(self):
        return len(self.private_caches)

    # -- state inspection (used heavily by tests) ----------------------------
    def state_of(self, core, key):
        """The MESI state of ``key`` in ``core``'s private cache (None =
        Invalid)."""
        return self.private_caches[core].probe(key)

    def check_invariants(self, key):
        """Protocol invariants for one line; raises ProtocolError."""
        states = [self.state_of(core, key) for core in range(self.n_cores)]
        modified = [c for c, s in enumerate(states) if s is Mesi.MODIFIED]
        exclusive = [c for c, s in enumerate(states) if s is Mesi.EXCLUSIVE]
        shared = [c for c, s in enumerate(states) if s is Mesi.SHARED]
        if len(modified) + len(exclusive) > 1:
            raise ProtocolError(f"multiple owners for {key:#x}: {states}")
        if (modified or exclusive) and shared:
            raise ProtocolError(f"owner coexists with sharers for {key:#x}")
        holders = {c for c, s in enumerate(states) if s is not None}
        recorded = set(_cores(self.directory.get(key, 0)))
        if holders != recorded:
            raise ProtocolError(
                f"directory out of sync for {key:#x}: holds {recorded}, "
                f"caches say {holders}"
            )

    # -- core-side operations ----------------------------------------------------
    def read(self, core, key):
        """Core ``core`` reads ``key``.

        Returns ``(hit_private, llc_hit, extra_cycles, writebacks)`` where
        ``writebacks`` are dirty line keys that must be written to memory.
        """
        cache = self.private_caches[core]
        cache_set = cache.sets[key & cache._set_mask]
        if key in cache_set:
            cache_set.move_to_end(key)
            cache.stats.hits += 1
            return _PRIVATE_HIT
        cache.stats.misses += 1
        self.stats.read_misses += 1
        extra = self.DIRECTORY_LOOKUP_COST
        writebacks = ()
        llc_hit = self.llc.lookup(key) is not None
        if not llc_hit:
            cycles, writebacks = self._install_llc(key)
            extra += cycles
        sharers = self.directory.get(key, 0)
        if sharers:
            extra += self._downgrade_owner(key, sharers)
        self._install_private(core, cache_set, key, _SHARED if sharers else _EXCLUSIVE)
        self.directory[key] = sharers | 1 << core
        return False, llc_hit, extra, writebacks

    def write(self, core, key, word_mask=0xFF):
        """Core ``core`` writes ``key``; returns the same tuple as read."""
        cache = self.private_caches[core]
        cache_set = cache.sets[key & cache._set_mask]
        state = cache_set.get(key)
        if state is not None:
            cache_set.move_to_end(key)
            cache.stats.hits += 1
            extra = 0
            if state is _SHARED:  # upgrade, invalidating other sharers
                self.stats.upgrades += 1
                extra = self.DIRECTORY_LOOKUP_COST + self._invalidate_others(
                    core, key, self.directory[key]
                )
                self.directory[key] = 1 << core
            cache_set[key] = _MODIFIED
            if self.synonym is not None:
                extra += self.synonym.on_write(self.llc, key, word_mask)
            return True, True, extra, ()
        cache.stats.misses += 1
        self.stats.write_misses += 1
        extra = self.DIRECTORY_LOOKUP_COST
        writebacks = ()
        llc_hit = self.llc.lookup(key) is not None
        if not llc_hit:
            cycles, writebacks = self._install_llc(key)
            extra += cycles
        sharers = self.directory.get(key, 0)
        if sharers:
            extra += self._downgrade_owner(key, sharers)
            extra += self._invalidate_others(core, key, sharers)
        self._install_private(core, cache_set, key, _MODIFIED)
        self.directory[key] = 1 << core
        if self.synonym is not None:
            extra += self.synonym.on_write(self.llc, key, word_mask)
        return False, llc_hit, extra, writebacks

    # -- internals -------------------------------------------------------------
    def _install_private(self, core, cache_set, key, state):
        """Fill ``key`` into ``core``'s private set ``cache_set`` (the one
        the miss probed), evicting the set's LRU line if it is full."""
        cache = self.private_caches[core]
        if cache_set is EMPTY_SET:
            cache_set = cache.writable_set(key & cache._set_mask)
        elif len(cache_set) >= cache.ways:
            victim, victim_state = cache_set.popitem(last=False)
            cache.stats.evictions += 1
            sharers = self.directory[victim] & ~(1 << core)
            if sharers:
                self.directory[victim] = sharers
            else:
                del self.directory[victim]
            if victim_state is _MODIFIED:
                # Inclusion: the LLC holds every privately cached line.
                self.llc.probe(victim).dirty = True
        cache_set[key] = state
        cache.stats.fills += 1

    def _install_llc(self, key):
        """Fill ``key`` into the LLC; returns ``(extra, writebacks)``."""
        extra = 0
        writebacks = ()
        line, victim = self.llc.install(key, dirty=False)
        if victim is not None:
            extra, writebacks = self._evict_llc(victim)
        if self.synonym is not None:
            extra += self.synonym.on_fill(self.llc, line)
        return extra, writebacks

    def _evict_llc(self, victim):
        """Inclusive LLC eviction: recall from every private cache.

        Returns ``(extra, writebacks)``."""
        extra = 0
        key = victim.key
        dirty = victim.dirty
        for core in _cores(self.directory.pop(key, 0)):
            self.stats.llc_recalls += 1
            cache = self.private_caches[core]
            if cache.sets[key & cache._set_mask].pop(key) is _MODIFIED:
                dirty = True
                self.stats.writebacks_recalled += 1
            extra += self.INVALIDATION_COST
        if self.synonym is not None:
            extra += self.synonym.on_evict(self.llc, victim)
        return extra, ((key,) if dirty else ())

    def _invalidate_others(self, core, key, sharers):
        """Invalidate ``key`` in every sharer but ``core``."""
        extra = 0
        for sharer in _cores(sharers & ~(1 << core)):
            self.stats.invalidations_sent += 1
            extra += self.INVALIDATION_COST
            cache = self.private_caches[sharer]
            if cache.sets[key & cache._set_mask].pop(key) is _MODIFIED:
                self._recall_dirty(key)
        return extra

    def _downgrade_owner(self, key, sharers):
        """Another core misses on ``key``, held by ``sharers``: a sole M/E
        holder is the owner and is demoted to S, pulling dirty data into
        the LLC."""
        if sharers & (sharers - 1):
            return 0  # two or more holders: all in S
        owner = self.private_caches[sharers.bit_length() - 1]
        owner_set = owner.sets[key & owner._set_mask]
        state = owner_set[key]
        if state is _SHARED:
            return 0
        self.stats.downgrades += 1
        if state is _MODIFIED:
            self._recall_dirty(key)
        owner_set[key] = _SHARED
        return self.DOWNGRADE_COST

    def _recall_dirty(self, key):
        """Dirty data leaves a private cache for the (inclusive) LLC."""
        self.llc.probe(key).dirty = True
        self.stats.writebacks_recalled += 1
