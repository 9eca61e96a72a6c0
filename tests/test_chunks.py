"""Chunk layouts (Figure 13 semantics), runs, rotation, slicing."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import row_cells_reference
from repro.errors import LayoutError
from repro.imdb.binpack import Placement
from repro.imdb.chunks import Chunk, IntraLayout, slice_table


def make_chunk(layout, n=16, tw=2, width=8, height=8, rotated=False,
               origin=(0, 0), subarray=0, first=0):
    chunk = Chunk(
        first_tuple=first, n_tuples=n, tuple_words=tw, layout=layout,
        width=width, height=height,
    )
    placed_w, placed_h = (height, width) if rotated else (width, height)
    chunk.placement = Placement(
        bin_index=subarray, x=origin[1], y=origin[0], rotated=rotated,
        width=placed_w, height=placed_h,
    )
    return chunk


class TestRowLayout:
    """Figure 13(a): consecutive tuples advance along the row."""

    def test_first_tuples_share_row(self):
        chunk = make_chunk(IntraLayout.ROW)
        assert chunk.local_cell(0, 0) == (0, 0)
        assert chunk.local_cell(1, 0) == (0, 2)
        assert chunk.local_cell(3, 1) == (0, 7)

    def test_wraps_to_next_row(self):
        chunk = make_chunk(IntraLayout.ROW)
        assert chunk.local_cell(4, 0) == (1, 0)

    def test_used_rows(self):
        assert make_chunk(IntraLayout.ROW, n=9).used_rows() == 3
        assert make_chunk(IntraLayout.ROW, n=8).used_rows() == 2


class TestColumnLayout:
    """Figure 13(b): consecutive tuples stack vertically."""

    def test_tuples_stack_vertically(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        assert chunk.local_cell(0, 0) == (0, 0)
        assert chunk.local_cell(1, 0) == (1, 0)
        assert chunk.local_cell(7, 1) == (7, 1)

    def test_next_group_after_height(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        assert chunk.local_cell(8, 0) == (0, 2)

    def test_used_groups(self):
        assert make_chunk(IntraLayout.COLUMN, n=9).used_groups() == 2
        assert make_chunk(IntraLayout.COLUMN, n=16).used_groups() == 2


class TestValidation:
    def test_capacity_enforced(self):
        with pytest.raises(LayoutError):
            Chunk(0, 100, 2, IntraLayout.ROW, width=8, height=8)

    def test_width_multiple_of_tuple(self):
        with pytest.raises(LayoutError):
            Chunk(0, 4, 3, IntraLayout.ROW, width=8, height=8)

    def test_bad_tuple_index(self):
        chunk = make_chunk(IntraLayout.ROW)
        with pytest.raises(LayoutError):
            chunk.local_cell(16, 0)

    def test_bad_word(self):
        chunk = make_chunk(IntraLayout.ROW)
        with pytest.raises(LayoutError):
            chunk.local_cell(0, 2)

    def test_unplaced_device_cell(self):
        chunk = Chunk(0, 4, 2, IntraLayout.ROW, width=8, height=8)
        with pytest.raises(LayoutError):
            chunk.device_cell(0, 0)


class TestDeviceMapping:
    def test_origin_offset(self):
        chunk = make_chunk(IntraLayout.ROW, origin=(10, 20), subarray=3)
        sub, row, col = chunk.device_cell(2, 5)
        assert (sub, row, col) == (3, 12, 25)

    def test_rotation_swaps_axes(self):
        chunk = make_chunk(IntraLayout.ROW, rotated=True, origin=(10, 20))
        sub, row, col = chunk.device_cell(2, 5)
        assert (row, col) == (15, 22)


class TestFieldRuns:
    @pytest.mark.parametrize("layout", [IntraLayout.ROW, IntraLayout.COLUMN])
    def test_runs_cover_every_tuple_once(self, layout):
        chunk = make_chunk(layout, n=13)
        covered = []
        for run in chunk.field_runs(1):
            for j in range(run.count):
                covered.append(run.first_tuple + j * run.tuple_stride)
        assert sorted(covered) == list(range(13))

    @pytest.mark.parametrize("layout", [IntraLayout.ROW, IntraLayout.COLUMN])
    def test_runs_point_at_correct_cells(self, layout):
        chunk = make_chunk(layout, n=16)
        for run in chunk.field_runs(1):
            assert run.vertical  # unrotated: chunk-vertical = device-vertical
            for j in range(run.count):
                local = run.first_tuple + j * run.tuple_stride
                row, col = chunk.local_cell(local, 1)
                assert (row, col) == (run.start + j, run.fixed)

    def test_column_layout_runs_are_tuple_ordered(self):
        chunk = make_chunk(IntraLayout.COLUMN, n=16)
        runs = chunk.field_runs(0)
        assert [r.first_tuple for r in runs] == [0, 8]
        assert all(r.tuple_stride == 1 for r in runs)

    def test_row_layout_runs_stride_by_slots(self):
        chunk = make_chunk(IntraLayout.ROW, n=16)
        runs = chunk.field_runs(0)
        assert [r.first_tuple for r in runs] == [0, 1, 2, 3]
        assert all(r.tuple_stride == 4 for r in runs)

    def test_rotated_runs_become_horizontal(self):
        chunk = make_chunk(IntraLayout.COLUMN, rotated=True)
        for run in chunk.field_runs(0):
            assert not run.vertical


class TestTupleAndRowRuns:
    def test_tuple_cells_contiguous(self):
        chunk = make_chunk(IntraLayout.ROW)
        run = chunk.tuple_cells(5, 0, 2)
        assert not run.vertical and run.count == 2
        row, col = chunk.local_cell(5, 0)
        assert (run.fixed, run.start) == (row, col)

    def test_row_run_full_width(self):
        chunk = make_chunk(IntraLayout.ROW)
        run = chunk.row_run(3)
        assert (run.fixed, run.start, run.count) == (3, 0, 8)

    def test_col_run(self):
        chunk = make_chunk(IntraLayout.COLUMN)
        run = chunk.col_run(2)
        assert run.vertical and run.fixed == 2
        assert run.count == chunk.used_rows()

    def test_row_cells_row_layout(self):
        chunk = make_chunk(IntraLayout.ROW, n=10)
        _sub, rows, _cols, tuples = chunk.row_scan_cells([0])
        # Row 2 holds tuples 8, 9 only (10 tuples, 4 per row).
        assert tuples[rows == 2].tolist() == [8, 9]

    def test_row_cells_column_layout(self):
        chunk = make_chunk(IntraLayout.COLUMN, n=16)
        _sub, rows, _cols, tuples = chunk.row_scan_cells([0])
        assert tuples[rows == 3].tolist() == [3, 11]

    def test_row_scan_cells_rejects_bad_word(self):
        chunk = make_chunk(IntraLayout.ROW)
        with pytest.raises(LayoutError, match="word 2 outside tuple of 2"):
            chunk.row_scan_cells([0, 2])


@st.composite
def placed_chunks(draw):
    """A placed chunk with a possibly partial last row (ROW layout) or
    short last group (COLUMN layout), possibly rotated."""
    tw = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 6))
    height = draw(st.integers(1, 9))
    return make_chunk(
        draw(st.sampled_from([IntraLayout.ROW, IntraLayout.COLUMN])),
        n=draw(st.integers(1, slots * height)),
        tw=tw,
        width=slots * tw,
        height=height,
        rotated=draw(st.booleans()),
        origin=(draw(st.integers(0, 20)), draw(st.integers(0, 20))),
        subarray=draw(st.integers(0, 3)),
        first=draw(st.integers(0, 1000)),
    )


class TestVectorizedCells:
    @given(placed_chunks(), st.data())
    @settings(deadline=None)
    def test_local_cells_match_local_cell(self, chunk, data):
        indices = data.draw(st.lists(st.integers(0, chunk.n_tuples - 1), max_size=30))
        word = data.draw(st.integers(0, chunk.tuple_words - 1))
        rows, cols = chunk.local_cells(indices, word)
        assert list(zip(rows.tolist(), cols.tolist())) == [
            chunk.local_cell(index, word) for index in indices
        ]

    @given(placed_chunks(), st.data())
    @settings(deadline=None)
    def test_local_cells_raise_like_local_cell(self, chunk, data):
        bad = data.draw(st.sampled_from([-1, chunk.n_tuples]))
        with pytest.raises(LayoutError) as scalar:
            chunk.local_cell(bad, 0)
        with pytest.raises(LayoutError) as vectorized:
            chunk.local_cells([0, bad], 0)
        assert str(vectorized.value) == str(scalar.value)
        with pytest.raises(LayoutError, match="outside tuple"):
            chunk.local_cells([0], chunk.tuple_words)

    @given(placed_chunks(), st.data())
    @settings(deadline=None)
    def test_row_scan_cells_follow_row_scan_order(self, chunk, data):
        offsets = sorted(data.draw(st.lists(
            st.integers(0, chunk.tuple_words - 1), min_size=1, unique=True,
        )))
        expected = [
            cell
            for chunk_row in range(chunk.used_rows())
            for offset in offsets
            for cell in row_cells_reference(chunk, chunk_row, offset)
        ]
        sub, rows, cols, tuples = chunk.row_scan_cells(offsets)
        got = [(sub, r, c, t) for r, c, t in zip(rows.tolist(), cols.tolist(), tuples.tolist())]
        assert got == expected


class TestSliceTable:
    def test_single_small_chunk(self):
        shapes = slice_table(10, 2, IntraLayout.ROW, subarray_rows=64, subarray_cols=64)
        assert len(shapes) == 1
        first, count, width, height = shapes[0]
        assert (first, count) == (0, 10)

    def test_multiple_chunks(self):
        shapes = slice_table(5000, 2, IntraLayout.ROW, subarray_rows=32, subarray_cols=32)
        per_chunk = (32 // 2) * 32
        assert len(shapes) == -(-5000 // per_chunk)
        assert sum(s[1] for s in shapes) == 5000

    def test_column_layout_dimensions(self):
        shapes = slice_table(100, 4, IntraLayout.COLUMN, subarray_rows=64, subarray_cols=64)
        first, count, width, height = shapes[0]
        assert height == 64
        assert width == 2 * 4  # ceil(100/64)=2 groups

    def test_tuple_too_wide(self):
        with pytest.raises(LayoutError):
            slice_table(10, 100, IntraLayout.ROW, subarray_rows=64, subarray_cols=64)

    @given(
        n=st.integers(1, 3000),
        tw=st.integers(1, 8),
        layout=st.sampled_from([IntraLayout.ROW, IntraLayout.COLUMN]),
    )
    @settings(max_examples=80, deadline=None)
    def test_shapes_fit_and_cover(self, n, tw, layout):
        shapes = slice_table(n, tw, layout, subarray_rows=32, subarray_cols=32)
        assert sum(s[1] for s in shapes) == n
        cursor = 0
        for first, count, width, height in shapes:
            assert first == cursor
            cursor += count
            assert width <= 32 and height <= 32
            assert width % tw == 0
            chunk = Chunk(first, count, tw, layout, width, height)  # capacity check
            assert chunk.n_tuples == count
