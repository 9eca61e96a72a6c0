"""Set-associative cache: LRU, eviction, pinning."""

import pytest

from repro.cache.cache import EMPTY_SET, Cache, _PendingCache
from repro.cache.line import CacheLine, line_key
from repro.core.addressing import Orientation
from repro.errors import ConfigurationError


def key(i, orientation=Orientation.ROW):
    return line_key(i * 64, orientation)


@pytest.fixture
def cache():
    # 4 sets x 2 ways.
    return Cache("test", size_bytes=8 * 64, ways=2, hit_latency=4)


class TestBasics:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(key(0)) is None
        cache.install(key(0))
        assert cache.lookup(key(0)) is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_probe_does_not_count(self, cache):
        cache.install(key(0))
        cache.probe(key(0))
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_orientation_distinguishes_lines(self, cache):
        cache.install(key(0, Orientation.ROW))
        assert cache.lookup(key(0, Orientation.COLUMN)) is None

    def test_install_existing_refreshes(self, cache):
        cache.install(key(0))
        line, victim = cache.install(key(0), dirty=True)
        assert victim is None
        assert line.dirty

    def test_invalidate(self, cache):
        cache.install(key(0))
        assert cache.invalidate(key(0)) is not None
        assert cache.invalidate(key(0)) is None
        assert not cache.contains(key(0))

    def test_occupancy(self, cache):
        for i in range(3):
            cache.install(key(i))
        assert cache.occupancy() == 3

    def test_clear(self, cache):
        cache.install(key(0))
        cache.clear()
        assert cache.occupancy() == 0


class TestLazySets:
    def test_unfilled_set_rejects_direct_writes(self, cache):
        cache.install(key(0))
        with pytest.raises(TypeError):
            cache.sets[1][key(1)] = None
        assert cache.sets[1] is EMPTY_SET and not EMPTY_SET

    def test_clear_returns_every_set_to_empty_set(self, cache):
        for i in range(6):
            cache.install(key(i))
        cache.clear()
        assert all(cache_set is EMPTY_SET for cache_set in cache.sets)

    def test_install_after_clear_refills(self, cache):
        for i in (0, 4, 1):
            cache.install(key(i))
        cache.clear()
        cache.install(key(4))
        cache.install(key(0))
        assert list(cache.sets[0]) == [key(4), key(0)]
        cache.lookup(key(4))
        _line, victim = cache.install(key(8))
        assert victim.key == key(0)
        assert cache.sets[1] is EMPTY_SET
        assert cache.occupancy() == 2


class TestDeferredContents:
    """``Cache.defer_contents``: the build runs once, on the first read of
    ``sets`` or ``_filled``, and leaves a plain ``Cache``."""

    @staticmethod
    def _defer(cache, keys):
        builds = []

        def build(target):
            builds.append(target)
            for k in keys:
                target.writable_set(k & target._set_mask)[k] = CacheLine(k)

        cache.defer_contents(build)
        return builds

    def test_plain_caches_define_no_getattr(self):
        assert not hasattr(Cache, "__getattr__")

    @pytest.mark.parametrize("read", [
        lambda c: c.probe(key(4)),
        lambda c: c.occupancy(),
        lambda c: list(c.resident_lines()),
        lambda c: c.install(key(8)),
        lambda c: c.sets,
    ])
    def test_first_read_builds_once(self, cache, read):
        keys = [key(0), key(4), key(1)]
        builds = self._defer(cache, keys)
        assert type(cache) is _PendingCache and builds == []
        read(cache)
        assert type(cache) is Cache and builds == [cache]
        plain = Cache("plain", size_bytes=8 * 64, ways=2, hit_latency=4)
        self._defer(plain, keys)
        plain.sets  # built before the read this time
        read(plain)
        assert [list(s) for s in cache.sets] == [list(s) for s in plain.sets]
        cache.clear()
        assert builds == [cache] and cache.occupancy() == 0

    def test_other_missing_attributes_still_raise(self, cache):
        builds = self._defer(cache, [key(0)])
        with pytest.raises(AttributeError):
            cache.no_such_attribute
        assert type(cache) is _PendingCache and builds == []
        assert cache.num_sets == 4 and cache.stats.fills == 0

    def test_only_an_empty_cache_defers(self, cache):
        cache.install(key(0))
        with pytest.raises(AssertionError):
            cache.defer_contents(lambda target: None)


class TestLru:
    def test_lru_victim(self, cache):
        # Keys 0, 4, 8 map to the same set (4 sets).
        cache.install(key(0))
        cache.install(key(4))
        cache.lookup(key(0))  # refresh 0; 4 becomes LRU
        _line, victim = cache.install(key(8))
        assert victim.key == key(4)

    def test_eviction_counted(self, cache):
        cache.install(key(0))
        cache.install(key(4))
        cache.install(key(8))
        assert cache.stats.evictions == 1


class TestPinning:
    def test_pinned_skipped(self, cache):
        cache.install(key(0), pinned=True)
        cache.install(key(4))
        _line, victim = cache.install(key(8))
        assert victim.key == key(4)
        assert cache.stats.pin_skips >= 1

    def test_all_pinned_forces_unpin(self, cache):
        cache.install(key(0), pinned=True)
        cache.install(key(4), pinned=True)
        _line, victim = cache.install(key(8))
        assert victim is not None
        assert cache.stats.pin_overflows == 1

    def test_set_pinned(self, cache):
        cache.install(key(0))
        assert cache.set_pinned(key(0), True).pinned
        assert not cache.set_pinned(key(0), False).pinned

    def test_set_pinned_missing(self, cache):
        assert cache.set_pinned(key(0), True) is None


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=100, ways=2, hit_latency=1)

    def test_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=3 * 2 * 64, ways=2, hit_latency=1)
