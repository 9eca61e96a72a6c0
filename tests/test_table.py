"""Table storage: loading, functional reads, runs, layouts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_database, simple_rows
from repro.errors import LayoutError
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.imdb.allocator import SubarrayAllocator
from repro.imdb.chunks import IntraLayout
from repro.imdb.physmem import PhysicalMemory
from repro.imdb.schema import Schema
from repro.imdb.table import Table


def make_table(layout="row", fields=None, name="t"):
    physmem = PhysicalMemory(SMALL_RCNVM_GEOMETRY)
    allocator = SubarrayAllocator(SMALL_RCNVM_GEOMETRY)
    schema = Schema(fields or [("a", 8), ("b", 8), ("c", 8)])
    return Table(name, schema, IntraLayout(layout), physmem, allocator)


def rows_of(n, width=3, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(int(v) for v in row) for row in rng.integers(0, 10_000, (n, width))]


class TestLoading:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_roundtrip(self, layout):
        table = make_table(layout)
        rows = rows_of(100)
        table.insert_many(rows)
        assert table.n_tuples == 100
        for i in (0, 1, 50, 99):
            assert table.read_tuple(i) == rows[i]

    def test_empty_insert(self):
        table = make_table()
        table.insert_many([])
        assert table.n_tuples == 0

    def test_incremental_inserts(self):
        table = make_table()
        table.insert_many(rows_of(10, seed=1))
        table.insert_many(rows_of(10, seed=2))
        assert table.n_tuples == 20
        assert table.read_tuple(15) == rows_of(10, seed=2)[5]

    def test_insert_packed_shape_check(self):
        table = make_table()
        with pytest.raises(LayoutError):
            table.insert_packed(np.zeros((5, 99), dtype=np.int64))

    def test_multi_chunk_table(self):
        table = make_table()
        per_subarray = (SMALL_RCNVM_GEOMETRY.cols // 3) * SMALL_RCNVM_GEOMETRY.rows
        n = per_subarray + 10
        packed = np.arange(n * 3, dtype=np.int64).reshape(n, 3)
        table.insert_packed(packed)
        assert len(table.chunks) == 2
        assert table.read_tuple(per_subarray + 5) == tuple(
            packed[per_subarray + 5]
        )


class TestFieldValues:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_matches_read_tuple(self, layout):
        table = make_table(layout)
        rows = rows_of(64)
        table.insert_many(rows)
        values = table.field_values("b")
        assert [int(v) for v in values] == [r[1] for r in rows]

    def test_wide_field_words(self):
        table = make_table(fields=[("k", 8), ("w", 24)])
        table.insert_many([(i, (i, i * 2, i * 3)) for i in range(20)])
        assert list(table.field_values("w", 0)) == list(range(20))
        assert list(table.field_values("w", 2)) == [i * 3 for i in range(20)]

    def test_empty_table(self):
        table = make_table()
        assert len(table.field_values("a")) == 0

    def test_bad_word_index(self):
        table = make_table()
        table.insert_many(rows_of(4))
        with pytest.raises(LayoutError):
            table.field_offset("a", 1)


class TestRuns:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_field_runs_read_the_right_values(self, layout):
        table = make_table(layout)
        rows = rows_of(50)
        table.insert_many(rows)
        collected = {}
        for run in table.field_runs("c"):
            physmem = table.physmem
            if run.vertical:
                values = physmem.read_vertical(run.subarray, run.fixed, run.start, run.count)
            else:
                values = physmem.read_horizontal(run.subarray, run.fixed, run.start, run.count)
            for j, value in enumerate(values):
                collected[run.first_tuple + j * run.tuple_stride] = int(value)
        assert collected == {i: rows[i][2] for i in range(50)}

    def test_tuple_run_reads_whole_tuple(self):
        table = make_table()
        rows = rows_of(10)
        table.insert_many(rows)
        run = table.tuple_run(7)
        values = table.physmem.read_horizontal(run.subarray, run.fixed, run.start, run.count)
        assert tuple(int(v) for v in values) == rows[7]

    def test_chunk_of_out_of_range(self):
        table = make_table()
        table.insert_many(rows_of(5))
        with pytest.raises(LayoutError):
            table.chunk_of(5)


class TestWrites:
    def test_write_field(self):
        table = make_table()
        table.insert_many(rows_of(10))
        table.write_field(3, "b", 4242)
        assert table.read_tuple(3)[1] == 4242
        assert table.field_values("b")[3] == 4242

    def test_write_preserves_neighbours(self):
        table = make_table()
        rows = rows_of(10)
        table.insert_many(rows)
        table.write_field(3, "b", 1)
        assert table.read_tuple(2) == rows[2]
        assert table.read_tuple(4) == rows[4]
        assert table.read_tuple(3)[0] == rows[3][0]


class TestPropertyRoundtrip:
    @given(
        n=st.integers(1, 200),
        layout=st.sampled_from(["row", "column"]),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_size_roundtrips(self, n, layout, seed):
        table = make_table(layout)
        rows = rows_of(n, seed=seed)
        table.insert_many(rows)
        sample = [0, n // 2, n - 1]
        for i in sample:
            assert table.read_tuple(i) == rows[i]
        assert [int(v) for v in table.field_values("a")] == [r[0] for r in rows]


class TestChunkPackedRoundTrip:
    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("rows", [3, 64, 257])
    def test_chunk_packed_inverts_write(self, layout, rows):
        db = make_database("RC-NVM")
        db.create_table("t", [("a", 8), ("b", 8), ("c", 8)], layout=layout)
        data = simple_rows(rows, 3, seed=9)
        db.insert_many("t", data)
        table = db.tables["t"]
        packed = [table.chunk_packed(chunk) for chunk in table.chunks]
        flat = [tuple(int(v) for v in row) for part in packed for row in part]
        assert flat == [tuple(db.tables["t"].schema.pack(r)) for r in data]
