"""Crossing-bit synonym machinery (paper Section 4.3, Figure 8)."""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.line import CacheLine, key_orientation, line_key, line_key_from_index
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.geometry import (
    CACHE_LINE_BYTES,
    RCNVM_GEOMETRY,
    SMALL_RCNVM_GEOMETRY,
    WORDS_PER_LINE,
)


@pytest.fixture(scope="module")
def mapper():
    return AddressMapper(SMALL_RCNVM_GEOMETRY)


@pytest.fixture
def directory(mapper):
    return SynonymDirectory(mapper)


def row_line_key(mapper, row, col_base, subarray=0, bank=0):
    coord = Coordinate(0, 0, bank, subarray, row, col_base)
    return line_key(mapper.encode_row(coord), Orientation.ROW)


def col_line_key(mapper, col, row_base, subarray=0, bank=0):
    coord = Coordinate(0, 0, bank, subarray, row_base, col)
    return line_key(mapper.encode_col(coord), Orientation.COLUMN)


class TestCrossingGeometry:
    def test_row_line_has_eight_crossings(self, mapper, directory):
        crossings = directory.crossing_keys(row_line_key(mapper, row=10, col_base=16))
        assert len(crossings) == WORDS_PER_LINE
        assert all(key_orientation(k) is Orientation.COLUMN for k, _s, _o in crossings)

    def test_crossing_columns_and_row_block(self, mapper, directory):
        # A row line at (row 10, cols 16..23) crosses the column lines of
        # cols 16..23 covering rows 8..15.
        crossings = directory.crossing_keys(row_line_key(mapper, row=10, col_base=16))
        expected = {col_line_key(mapper, col=16 + i, row_base=8) for i in range(8)}
        assert {k for k, _s, _o in crossings} == expected

    def test_word_indices(self, mapper, directory):
        crossings = directory.crossing_keys(row_line_key(mapper, row=10, col_base=16))
        for i, (_key, word_self, word_other) in enumerate(crossings):
            assert word_self == i  # i-th word along the row line
            assert word_other == 10 % 8  # the row's position in the column line

    def test_crossing_is_symmetric(self, mapper, directory):
        """If A crosses B at (i, j) then B crosses A at (j, i)."""
        row_key = row_line_key(mapper, row=10, col_base=16)
        for cross_key, word_self, word_other in directory.crossing_keys(row_key):
            back = directory.crossing_keys(cross_key)
            matches = [
                (ws, wo) for k, ws, wo in back if k == row_key
            ]
            assert matches == [(word_other, word_self)]

    @given(
        row=st.integers(0, SMALL_RCNVM_GEOMETRY.rows - 1),
        col_block=st.integers(0, SMALL_RCNVM_GEOMETRY.cols // 8 - 1),
        subarray=st.integers(0, SMALL_RCNVM_GEOMETRY.subarrays - 1),
    )
    @settings(max_examples=100)
    def test_symmetry_property(self, mapper, row, col_block, subarray):
        directory = SynonymDirectory(mapper)
        row_key = row_line_key(mapper, row=row, col_base=col_block * 8, subarray=subarray)
        for cross_key, word_self, word_other in directory.crossing_keys(row_key):
            back = {k: (ws, wo) for k, ws, wo in directory.crossing_keys(cross_key)}
            assert back[row_key] == (word_other, word_self)

    def test_crossings_stay_in_same_subarray(self, mapper, directory):
        crossings = directory.crossing_keys(
            row_line_key(mapper, row=3, col_base=8, subarray=1, bank=2)
        )
        from repro.cache.line import key_address

        for cross_key, _ws, _wo in crossings:
            coord = mapper.decode_col(key_address(cross_key))
            assert coord.subarray == 1
            assert coord.bank == 2


_GEOMETRIES = pytest.mark.parametrize(
    "geometry", (SMALL_RCNVM_GEOMETRY, RCNVM_GEOMETRY), ids=("small", "full")
)


def _row_or_column_keys(geometry, min_size=0):
    """Row and column line keys anywhere in ``geometry``."""
    key = st.builds(
        line_key_from_index,
        st.integers(0, geometry.total_bytes // CACHE_LINE_BYTES - 1),
        st.sampled_from((Orientation.ROW, Orientation.COLUMN)),
    )
    return st.lists(key, min_size=min_size, max_size=40)


class TestBulkCrossingKeys:
    """``crossing_keys_bulk`` is ``crossing_keys`` for many keys at once."""

    @_GEOMETRIES
    @given(data=st.data())
    def test_matches_scalar_crossing_keys(self, geometry, data):
        directory = SynonymDirectory(AddressMapper(geometry))
        keys = data.draw(_row_or_column_keys(geometry, min_size=1))
        cross, word_in_other = directory.crossing_keys_bulk(keys)
        assert cross.shape == (len(keys), WORDS_PER_LINE)
        for key, row, other in zip(keys, cross.tolist(), word_in_other.tolist()):
            assert directory.crossing_keys(key) == [
                (cross_key, word, other) for word, cross_key in enumerate(row)
            ]


class TestReadFills:
    """``read_fills`` plus ``add_fills`` equal one ``on_fill`` per key on
    an LLC that never evicts: cycles, crossing bits, counts and stats."""

    @_GEOMETRIES
    @given(data=st.data())
    def test_matches_on_fill_in_order(self, geometry, data):
        mapper = AddressMapper(geometry)
        directory = SynonymDirectory(mapper)
        # Seed keys plus some of their crossing lines, so fills cross.
        seeds = data.draw(_row_or_column_keys(geometry))
        pool = list(dict.fromkeys(
            seeds + [
                cross_key
                for key in seeds
                for cross_key, _ws, _wo in directory.crossing_keys(key)
                if data.draw(st.booleans())
            ]
        ))
        keys = data.draw(st.permutations(pool))
        reference = SynonymDirectory(mapper)
        ways = max(len(keys), 1)  # one set that never evicts
        llc = Cache("L3", ways * CACHE_LINE_BYTES, ways, 0)
        cycles = []
        for key in keys:
            line = CacheLine(key)
            llc.writable_set(key & llc._set_mask)[key] = line
            cycles.append(reference.on_fill(llc, line))

        fills = directory.read_fills(keys)
        event(f"copies={bool(fills.copies)}")
        assert fills.cycles.tolist() == cycles
        assert fills.crossing.tolist() == [llc.probe(key).crossing for key in keys]
        assert directory.resident == [0, 0, 0]  # read_fills changes nothing
        assert directory.add_fills(fills) == sum(cycles)
        assert directory.resident == reference.resident
        assert directory.stats == reference.stats
        assert reference.problems(llc) == []


class TestPricing:
    def test_fill_check_cost(self, directory):
        cycles = directory.charge_fill_check(copies=3)
        assert cycles == directory.PROBE_BATCH_COST + 3 * directory.COPY_COST
        assert directory.stats.crossing_checks == 1
        assert directory.stats.crossing_copies == 3

    def test_write_updates_cost(self, directory):
        assert directory.charge_write_updates(0) == 0
        assert directory.charge_write_updates(2) == 2 * directory.WRITE_UPDATE_COST
        assert directory.stats.write_updates == 2

    def test_eviction_clears_cost(self, directory):
        assert directory.charge_eviction_clears(0) == 0
        assert directory.charge_eviction_clears(4) == 4 * directory.CLEAR_COST

    def test_overhead_accumulates(self, directory):
        directory.charge_fill_check(1)
        directory.charge_write_updates(1)
        directory.charge_eviction_clears(1)
        expected = (
            directory.PROBE_BATCH_COST
            + directory.COPY_COST
            + directory.WRITE_UPDATE_COST
            + directory.CLEAR_COST
        )
        assert directory.stats.overhead_cycles == expected
