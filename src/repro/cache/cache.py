"""Set-associative cache with LRU replacement and pinning support."""

from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.cache.line import CacheLine
from repro.cache.stats import CacheStats
from repro.geometry import CACHE_LINE_BYTES


class _EmptySet(OrderedDict):
    """Read-only stand-in for every never-filled cache set."""

    def __setitem__(self, key, value):
        raise TypeError(
            "write into an unmaterialized cache set; "
            "fill through Cache.install or Cache.writable_set"
        )


#: The one empty set all unfilled slots of all caches share, so building
#: a cache allocates nothing per set and clearing one touches only the
#: sets it filled.  Reads treat it as any empty set; writers go through
#: :meth:`Cache.writable_set`, which records each set it materializes.
EMPTY_SET = _EmptySet()


class Cache:
    """One cache level.

    Lines are keyed by :func:`repro.cache.line.line_key`, which already
    includes the orientation tag, so the same physical data cached under
    row- and column-oriented addresses occupies two distinct entries —
    exactly the synonym situation of Section 4.3 that the crossing-bit
    machinery resolves.

    The replacement policy is LRU, except that pinned lines are skipped
    during victim selection (the cache-pinning primitive that group
    caching relies on).  If every way of a set is pinned, the least
    recently used pinned line is forcibly unpinned and evicted, and the
    event is counted — the paper notes the group caching size must not
    exceed the physical cache.

    A cache allocates its set list (``sets``, one slot per set) on the
    first read of ``sets`` or ``_filled``, not on construction: until then
    it is a :class:`_PendingCache` with nothing to build.
    """

    # Slots, because every cache switches class between pending and plain:
    # a class switch gives an object with an instance ``__dict__`` a
    # materialized dict, which makes every later attribute load on it
    # (``sets``, ``_set_mask``, ``stats`` in the hot loops) about three
    # times slower on CPython 3.11.
    __slots__ = (
        "name", "size_bytes", "ways", "line_bytes", "hit_latency", "num_sets",
        "_set_mask", "sets", "_filled", "stats", "_build", "__weakref__",
    )

    def __init__(self, name, size_bytes, ways, hit_latency, line_bytes=CACHE_LINE_BYTES):
        if size_bytes % (ways * line_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by ways*line ({ways}x{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(f"{name}: number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self.stats = CacheStats()
        # ``sets`` (one slot per set) and ``_filled`` (the indices of the
        # materialized sets, in fill order) are allocated on first read:
        # a fresh cache is a pending one with nothing to build, so a
        # timing reset that drops it unread allocates no set list.
        self._build = None
        self.__class__ = _PendingCache

    # -- indexing ------------------------------------------------------------
    def set_of(self, key):
        return self.sets[key & self._set_mask]

    def writable_set(self, index):
        """Set ``index``, materialized on its first write."""
        cache_set = self.sets[index]
        if cache_set is EMPTY_SET:
            cache_set = self.sets[index] = OrderedDict()
            self._filled.append(index)
        return cache_set

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key):
        """Return the resident line and refresh its LRU position, or None."""
        cache_set = self.sets[key & self._set_mask]
        line = cache_set.get(key)
        if line is not None:
            cache_set.move_to_end(key)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return line

    def probe(self, key):
        """Tag check without LRU update or hit/miss accounting."""
        return self.sets[key & self._set_mask].get(key)

    def contains(self, key):
        return key in self.set_of(key)

    # -- fills and evictions ---------------------------------------------------
    def install(self, key, dirty=False, pinned=False):
        """Insert a line, evicting if needed.

        Returns ``(line, victim)`` where ``victim`` is the evicted
        :class:`CacheLine` or ``None``.  Installing a key that is already
        resident just refreshes it.
        """
        index = key & self._set_mask
        cache_set = self.sets[index]
        line = cache_set.get(key)
        if line is not None:
            cache_set.move_to_end(key)
            line.dirty = line.dirty or dirty
            line.pinned = line.pinned or pinned
            return line, None
        victim = None
        if len(cache_set) >= self.ways:
            victim = self._evict_one(cache_set)
        line = CacheLine(key, dirty=dirty, pinned=pinned)
        self.writable_set(index)[key] = line
        self.stats.fills += 1
        return line, victim

    def _evict_one(self, cache_set):
        victim_key = None
        for candidate_key, candidate in cache_set.items():
            if not candidate.pinned:
                victim_key = candidate_key
                break
            self.stats.pin_skips += 1
        if victim_key is None:
            # Every way pinned: forcibly unpin the LRU line.
            victim_key = next(iter(cache_set))
            self.stats.pin_overflows += 1
        victim = cache_set.pop(victim_key)
        self.stats.evictions += 1
        return victim

    def invalidate(self, key):
        """Remove a line without eviction accounting; returns it or None."""
        return self.set_of(key).pop(key, None)

    # -- pinning ------------------------------------------------------------------
    def set_pinned(self, key, pinned):
        line = self.probe(key)
        if line is not None:
            line.pinned = pinned
        return line

    # -- introspection (walks only the materialized sets) ----------------------
    def resident_lines(self):
        """Resident lines by ascending set index, LRU first within a set."""
        for index in sorted(self._filled):
            yield from self.sets[index].values()

    def occupancy(self):
        return sum(len(self.sets[index]) for index in self._filled)

    def clear(self):
        for index in self._filled:
            self.sets[index] = EMPTY_SET
        self._filled = []

    # -- deferred contents ------------------------------------------------------
    def defer_contents(self, build):
        """Leave this empty cache's contents to ``build(cache)``, which runs
        the first time anything reads ``sets`` or ``_filled``.

        Until then neither attribute exists, so no reader can see an
        unbuilt set; the cache is a :class:`_PendingCache` meanwhile, and
        a plain :class:`Cache` again once built.  A cache allocates its set
        list on first read, so deferring the contents of one nothing has
        read yet frees nothing.  ``build`` fills through
        :meth:`writable_set` and must not reference the cache, so a cache
        dropped unread frees its pending contents at once, unbuilt.
        """
        assert not self._filled, "only an empty cache can defer its contents"
        del self.sets, self._filled
        self._build = build
        self.__class__ = _PendingCache

    def __repr__(self):
        return f"Cache({self.name}, {self.size_bytes >> 10} KiB, {self.ways}-way)"


class _PendingCache(Cache):
    """A :class:`Cache` whose set list waits for its first reader: a fresh
    cache (``_build`` None) or one whose contents a build will fill (see
    :meth:`Cache.defer_contents`).  Only this subclass defines
    ``__getattr__``, so plain caches keep CPython's fast attribute path."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("sets", "_filled"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        build = self._build
        del self._build
        self.__class__ = Cache
        self.sets = [EMPTY_SET] * self.num_sets
        self._filled = []
        if build is not None:
            build(self)
        return getattr(self, name)

    def defer_contents(self, build):
        assert self._build is None, "only an empty cache can defer its contents"
        self._build = build
