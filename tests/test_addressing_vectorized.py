"""Property tests for the vectorized address-space conversions.

The scalar ``row_to_col_address``/``col_to_row_address`` pair and the
array-valued ``row_to_col_addresses``/``col_to_row_addresses`` pair run
off the same precomputed permutation tables; these tests pin down the
contract over random geometries: the conversions are mutually inverse,
the vectorized forms agree element-wise with the scalar forms, the
batched ``decode_fields`` matches scalar ``decode``, and ``encode_cells``
matches scalar ``encode`` — including the errors it raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.addressing import AddressMapper, Coordinate, Orientation
from repro.errors import AddressError
from repro.geometry import Geometry


def _pow2(lo, hi):
    return st.integers(lo, hi).map(lambda exponent: 1 << exponent)


GEOMETRIES = st.builds(
    Geometry,
    channels=_pow2(0, 2),
    ranks=_pow2(0, 2),
    banks=_pow2(0, 3),
    subarrays=_pow2(0, 3),
    rows=_pow2(2, 10),
    cols=_pow2(2, 10),
)


@st.composite
def mapper_and_addresses(draw):
    geometry = draw(GEOMETRIES)
    mapper = AddressMapper(geometry)
    n = draw(st.integers(min_value=1, max_value=48))
    raw = draw(
        st.lists(
            st.integers(min_value=0, max_value=mapper._address_mask),
            min_size=n,
            max_size=n,
        )
    )
    return mapper, np.asarray(raw, dtype=np.int64)


@settings(deadline=None)
@given(mapper_and_addresses())
def test_conversions_are_mutually_inverse(case):
    mapper, addresses = case
    there = mapper.row_to_col_addresses(addresses)
    back = mapper.col_to_row_addresses(there)
    np.testing.assert_array_equal(back, addresses)
    there = mapper.col_to_row_addresses(addresses)
    back = mapper.row_to_col_addresses(there)
    np.testing.assert_array_equal(back, addresses)


@settings(deadline=None)
@given(mapper_and_addresses())
def test_vectorized_matches_scalar(case):
    mapper, addresses = case
    expected = [mapper.row_to_col_address(int(a)) for a in addresses]
    np.testing.assert_array_equal(mapper.row_to_col_addresses(addresses), expected)
    expected = [mapper.col_to_row_address(int(a)) for a in addresses]
    np.testing.assert_array_equal(mapper.col_to_row_addresses(addresses), expected)


@settings(deadline=None)
@given(mapper_and_addresses(), st.data())
def test_decode_fields_matches_scalar_decode(case, data):
    mapper, addresses = case
    orientations = np.asarray(
        data.draw(
            st.lists(
                st.sampled_from((int(Orientation.ROW), int(Orientation.COLUMN))),
                min_size=len(addresses),
                max_size=len(addresses),
            )
        )
    )
    ch, rk, bk, sa, row, col = mapper.decode_fields(addresses, orientations)
    for i, (address, orientation) in enumerate(zip(addresses, orientations)):
        coord = mapper.decode(int(address), Orientation(int(orientation)))
        assert (ch[i], rk[i], bk[i], sa[i], row[i], col[i]) == (
            coord.channel,
            coord.rank,
            coord.bank,
            coord.subarray,
            coord.row,
            coord.col,
        )


@st.composite
def mapper_and_cells(draw, min_size=0):
    """A mapper, the scalar (channel, rank, bank, subarray) parts of one
    subarray, and in-range ``rows``/``cols`` arrays of its cells."""
    geometry = draw(GEOMETRIES)
    parts = tuple(
        draw(st.integers(0, limit - 1))
        for limit in (geometry.channels, geometry.ranks, geometry.banks,
                      geometry.subarrays)
    )
    n = draw(st.integers(min_size, 40))
    rows = draw(st.lists(st.integers(0, geometry.rows - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, geometry.cols - 1), min_size=n, max_size=n))
    return AddressMapper(geometry), parts, np.asarray(rows, dtype=np.int64), np.asarray(
        cols, dtype=np.int64
    )


ORIENTATIONS = st.sampled_from([Orientation.ROW, Orientation.COLUMN])


@settings(deadline=None)
@given(mapper_and_cells(), ORIENTATIONS)
def test_encode_cells_matches_scalar_encode(case, orientation):
    mapper, parts, rows, cols = case
    expected = [
        mapper.encode(Coordinate(*parts, int(r), int(c)), orientation)
        for r, c in zip(rows, cols)
    ]
    got = mapper.encode_cells(*parts, rows, cols, orientation)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.asarray(expected, dtype=np.int64))


@settings(deadline=None)
@given(mapper_and_cells(min_size=1), ORIENTATIONS, st.data())
def test_encode_cells_raises_like_scalar_encode(case, orientation, data):
    mapper, parts, rows, cols = case
    g = mapper.geometry
    part = data.draw(st.sampled_from(["row", "col", "subarray"]))
    limit = {"row": g.rows, "col": g.cols, "subarray": g.subarrays}[part]
    bad = data.draw(st.sampled_from([-1, limit, limit + 3]))
    if part == "subarray":
        parts = parts[:3] + (bad,)
    else:
        target = rows if part == "row" else cols
        target[data.draw(st.integers(0, len(target) - 1))] = bad
    with pytest.raises(AddressError) as vectorized:
        mapper.encode_cells(*parts, rows, cols, orientation)
    with pytest.raises(AddressError) as scalar:
        for r, c in zip(rows, cols):
            mapper.encode(Coordinate(*parts, int(r), int(c)), orientation)
    assert str(vectorized.value) == str(scalar.value)


def test_encode_cells_checks_scalar_parts_of_an_empty_batch():
    mapper = AddressMapper(Geometry(channels=1, ranks=1, banks=1, subarrays=2,
                                    rows=4, cols=4))
    empty = np.empty(0, dtype=np.int64)
    assert mapper.encode_cells(0, 0, 0, 1, empty, empty, Orientation.ROW).size == 0
    with pytest.raises(AddressError, match=r"subarray=2 out of range \[0, 2\)"):
        mapper.encode_cells(0, 0, 0, 2, empty, empty, Orientation.ROW)
    with pytest.raises(AddressError, match="gathered"):
        mapper.encode_cells(0, 0, 0, 0, empty, empty, Orientation.GATHER)
