"""Cache hierarchy: promotion, inclusivity, write-back, synonym driving."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.cache import EMPTY_SET, Cache
from repro.cache.hierarchy import MISS, CacheHierarchy
from repro.cache.line import line_key
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.geometry import SMALL_RCNVM_GEOMETRY


def small_hierarchy(synonym=None):
    return CacheHierarchy(
        [
            Cache("L1", 4 * 64, 2, hit_latency=4),
            Cache("L2", 16 * 64, 2, hit_latency=12),
            Cache("L3", 64 * 64, 4, hit_latency=38),
        ],
        synonym=synonym,
    )


def key(i, orientation=Orientation.ROW):
    return line_key(i * 64, orientation)


MAPPER = AddressMapper(SMALL_RCNVM_GEOMETRY)
#: Row lines of rows 8-15 at column blocks 16 and 24, and column lines of
#: columns 16-23 at row blocks 8 and 16: the row lines at block 16 cross
#: the column lines at block 8, and all 32 keys crowd three LLC sets.
SYNONYM_KEYS = [
    line_key(MAPPER.encode_row(Coordinate(0, 0, 0, 0, row, col)), Orientation.ROW)
    for row in range(8, 16)
    for col in (16, 24)
] + [
    line_key(MAPPER.encode_col(Coordinate(0, 0, 0, 0, row, col)), Orientation.COLUMN)
    for col in range(16, 24)
    for row in (8, 16)
]


class TestLookupAndFill:
    def test_cold_miss(self):
        hierarchy = small_hierarchy()
        level, extra = hierarchy.lookup(key(0), False)
        assert level == MISS and extra == 0

    def test_fill_installs_everywhere(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), False)
        for cache in hierarchy.levels:
            assert cache.contains(key(0))

    def test_hit_after_fill_is_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), False)
        level, _ = hierarchy.lookup(key(0), False)
        assert level == 0

    def test_promotion_from_l3(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), False)
        hierarchy.levels[0].invalidate(key(0))
        hierarchy.levels[1].invalidate(key(0))
        level, _ = hierarchy.lookup(key(0), False)
        assert level == 2
        assert hierarchy.levels[0].contains(key(0))

    def test_write_dirties_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), True)
        assert hierarchy.levels[0].probe(key(0)).dirty


class TestEvictionAndWriteback:
    def test_llc_eviction_back_invalidates(self):
        hierarchy = small_hierarchy()
        llc = hierarchy.llc
        # Fill enough same-set lines to force an LLC eviction.
        set_count = llc.num_sets
        keys = [key(i * set_count) for i in range(llc.ways + 1)]
        for k in keys:
            hierarchy.fill(k, False)
        victim = keys[0]
        assert not llc.contains(victim)
        for cache in hierarchy.levels[:-1]:
            assert not cache.contains(victim)

    def test_dirty_eviction_queues_writeback(self):
        hierarchy = small_hierarchy()
        llc = hierarchy.llc
        set_count = llc.num_sets
        keys = [key(i * set_count) for i in range(llc.ways + 1)]
        hierarchy.fill(keys[0], True)  # dirty in L1
        for k in keys[1:]:
            hierarchy.fill(k, False)
        writebacks = hierarchy.drain_writebacks()
        assert keys[0] in writebacks

    def test_clean_eviction_no_writeback(self):
        hierarchy = small_hierarchy()
        llc = hierarchy.llc
        set_count = llc.num_sets
        for i in range(llc.ways + 1):
            hierarchy.fill(key(i * set_count), False)
        assert hierarchy.drain_writebacks() == []

    def test_flush_returns_dirty_keys(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), True)
        hierarchy.fill(key(1), False)
        dirty = hierarchy.flush()
        assert dirty == [key(0)]
        assert all(cache.occupancy() == 0 for cache in hierarchy.levels)

    def test_flush_orders_by_level_then_set_then_lru(self):
        """The durability commit barrier writes back in this order, so it
        must not depend on the order sets were first touched in."""
        hierarchy = small_hierarchy()  # L1: 2 sets x 2 ways, L2: 8 sets
        for i in (3, 2, 1, 0):  # touches L1 set 1 before set 0
            hierarchy.fill(key(i), True)
        hierarchy.lookup(key(2), False)  # L1 set 0 LRU order: 0, 2
        hierarchy.fill(key(5), True)  # evicts dirty 3 from L1 into L2
        hierarchy.fill(key(7), True)  # evicts dirty 1 from L1 into L2
        assert hierarchy.flush() == [
            key(0), key(2), key(5), key(7),  # L1 set 0, then set 1
            key(1), key(3),  # L2 sets 1 and 3, though 3 went dirty first
        ]

    @given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                    min_size=1, max_size=80))
    def test_flush_walks_filled_sets_like_a_full_walk(self, fills):
        """Sets filled in random order flush exactly as a walk over every
        set would; flush leaves no set filled, and the caches refill."""

        def fill_all():
            for index, dirty in fills:
                hierarchy.fill(key(index), dirty)
            expected, seen = [], set()
            for level in hierarchy.levels:
                for cache_set in level.sets:
                    for line in cache_set.values():
                        if line.dirty and line.key not in seen:
                            seen.add(line.key)
                            expected.append(line.key)
            return expected

        hierarchy = small_hierarchy()
        expected = fill_all()
        assert hierarchy.flush() == expected
        for level in hierarchy.levels:
            assert all(cache_set is EMPTY_SET for cache_set in level.sets)
            assert level.occupancy() == 0
        assert hierarchy.flush() == []
        assert fill_all() == expected
        assert hierarchy.flush() == expected


class TestPinning:
    def test_pin_and_unpin(self):
        hierarchy = small_hierarchy()
        hierarchy.fill(key(0), False, pin=True)
        assert hierarchy.llc.probe(key(0)).pinned
        assert hierarchy.unpin(key(0))
        assert not hierarchy.llc.probe(key(0)).pinned

    def test_unpin_missing_returns_false(self):
        hierarchy = small_hierarchy()
        assert not hierarchy.unpin(key(0))

    def test_pinned_survives_pressure(self):
        hierarchy = small_hierarchy()
        llc = hierarchy.llc
        set_count = llc.num_sets
        pinned_key = key(0)
        hierarchy.fill(pinned_key, False, pin=True)
        for i in range(1, llc.ways + 2):
            hierarchy.fill(key(i * set_count), False)
        assert llc.contains(pinned_key)


class TestSynonymIntegration:
    @pytest.fixture
    def mapper(self):
        return AddressMapper(SMALL_RCNVM_GEOMETRY)

    def row_key(self, mapper, row, col):
        return line_key(
            mapper.encode_row(Coordinate(0, 0, 0, 0, row, col)), Orientation.ROW
        )

    def col_key(self, mapper, row, col):
        return line_key(
            mapper.encode_col(Coordinate(0, 0, 0, 0, row, col)), Orientation.COLUMN
        )

    def test_crossing_bits_set_on_fill(self, mapper):
        synonym = SynonymDirectory(mapper)
        hierarchy = small_hierarchy(synonym)
        col = self.col_key(mapper, row=8, col=16)
        row = self.row_key(mapper, row=10, col=16)
        hierarchy.fill(col, False)
        extra = hierarchy.fill(row, False)
        assert extra > 0
        row_line = hierarchy.llc.probe(row)
        col_line = hierarchy.llc.probe(col)
        # The row line's word 0 (col 16) crosses the column line's word 2
        # (row 10 within rows 8..15).
        assert row_line.has_crossing(0)
        assert col_line.has_crossing(2)
        assert synonym.stats.crossing_copies == 1

    def test_no_check_without_opposite_lines(self, mapper):
        synonym = SynonymDirectory(mapper)
        hierarchy = small_hierarchy(synonym)
        hierarchy.fill(self.row_key(mapper, 0, 0), False)
        hierarchy.fill(self.row_key(mapper, 1, 0), False)
        assert synonym.stats.crossing_checks == 0

    def test_write_updates_duplicate(self, mapper):
        synonym = SynonymDirectory(mapper)
        hierarchy = small_hierarchy(synonym)
        col = self.col_key(mapper, row=8, col=16)
        row = self.row_key(mapper, row=10, col=16)
        hierarchy.fill(col, False)
        hierarchy.fill(row, False)
        # Write the crossed word (word 0 of the row line).
        _level, extra = hierarchy.lookup(row, True, word_mask=0b1)
        assert extra == synonym.WRITE_UPDATE_COST
        assert synonym.stats.write_updates == 1

    def test_write_to_uncrossed_word_is_free(self, mapper):
        synonym = SynonymDirectory(mapper)
        hierarchy = small_hierarchy(synonym)
        col = self.col_key(mapper, row=8, col=16)
        row = self.row_key(mapper, row=10, col=16)
        hierarchy.fill(col, False)
        hierarchy.fill(row, False)
        _level, extra = hierarchy.lookup(row, True, word_mask=0b10)
        assert extra == 0

    def test_eviction_clears_crossing_bits(self, mapper):
        synonym = SynonymDirectory(mapper)
        hierarchy = small_hierarchy(synonym)
        col = self.col_key(mapper, row=8, col=16)
        row = self.row_key(mapper, row=10, col=16)
        hierarchy.fill(col, False)
        hierarchy.fill(row, False)
        # Force the row line out of the LLC.
        llc = hierarchy.llc
        victim_line = llc.probe(row)
        llc.set_of(row)  # ensure present
        hierarchy._on_llc_eviction(llc.invalidate(row))
        col_line = llc.probe(col)
        assert col_line is not None and col_line.crossing == 0
        assert synonym.stats.eviction_clears == 1


class TestRandomSynonymOperations:
    """Random traffic on a single-core RC-NVM hierarchy small enough
    (L1 2x2, L2 4x2, L3 8x2 sets x ways) that crossed lines are filled,
    written and evicted from the LLC all the time."""

    OPERATIONS = st.lists(
        st.tuples(
            # "batched read" misses fill through fill_absent_read, as the
            # batched replay loop does for plain reads; the other reads and
            # writes through fill, as it does for every other line.
            st.sampled_from(
                ("read", "batched read", "write", "write", "pin", "unpin", "flush")
            ),
            st.integers(0, len(SYNONYM_KEYS) - 1),
            st.integers(1, 0xFF),  # word mask of a write
        ),
        min_size=30,
        max_size=150,
    )

    @given(operations=OPERATIONS)
    def test_audit_stays_clean_and_every_cycle_is_returned(self, operations):
        synonym = SynonymDirectory(MAPPER)
        hierarchy = CacheHierarchy(
            [
                Cache("L1", 4 * 64, 2, hit_latency=4),
                Cache("L2", 8 * 64, 2, hit_latency=12),
                Cache("L3", 16 * 64, 2, hit_latency=38),
            ],
            synonym=synonym,
        )
        stats = synonym.stats
        returned = 0
        for kind, index, word_mask in operations:
            k = SYNONYM_KEYS[index]
            if kind == "flush":
                hierarchy.flush()
            elif kind == "unpin":
                hierarchy.unpin(k)
            else:
                is_write = kind == "write"
                if not is_write:
                    word_mask = 0xFF
                level, extra = hierarchy.lookup(k, is_write, word_mask)
                returned += extra
                if level == MISS and kind == "batched read":
                    returned += hierarchy.fill_absent_read(k)
                elif level == MISS:
                    pin = kind == "pin"
                    returned += hierarchy.fill(k, is_write, pin, word_mask)
                elif kind == "pin":
                    hierarchy.pin(k)
                hierarchy.drain_writebacks()
            assert hierarchy.check_invariants() == []
            assert returned == stats.overhead_cycles
            assert stats.overhead_cycles == (
                synonym.PROBE_BATCH_COST * stats.crossing_checks
                + synonym.COPY_COST * stats.crossing_copies
                + synonym.WRITE_UPDATE_COST * stats.write_updates
                + synonym.CLEAR_COST * stats.eviction_clears
            )
