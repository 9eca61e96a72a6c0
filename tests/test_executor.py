"""Executor: results always match the reference engine; traces obey the
system's capabilities."""

import dataclasses

import numpy as np
import pytest

from conftest import make_database, row_cells_reference, simple_rows
from repro.core.addressing import Coordinate, Orientation
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES, WORDS_PER_LINE

QUERIES = [
    "SELECT * FROM t WHERE f1 > 800",
    "SELECT * FROM t WHERE f1 > 50",
    "SELECT f3, f4 FROM t WHERE f1 > 700",
    "SELECT f3, f4 FROM t WHERE f1 > 100 AND f2 < 600",
    "SELECT SUM(f2) FROM t WHERE f1 > 300",
    "SELECT AVG(f3) FROM t WHERE f1 > 300",
    "SELECT COUNT(f1) FROM t WHERE f2 < 100",
    "SELECT f2, f4 FROM t",
    "UPDATE t SET f3 = 1, f4 = 2 WHERE f1 = 500",
]


def build_db(system, layout, n=700, fields=6):
    db = make_database(system, verify=True)
    db.create_table("t", [(f"f{i}", 8) for i in range(1, fields + 1)], layout=layout)
    db.insert_many("t", simple_rows(n, fields, seed=9))
    return db


class TestResultCorrectness:
    """Every statement, on every system and layout, is checked against the
    naive reference engine (Database(verify=True) raises on mismatch)."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_all_systems_layouts(self, sql, any_system_name, any_layout):
        db = build_db(any_system_name, any_layout)
        outcome = db.execute(sql, simulate=False)
        assert outcome.result is not None

    def test_join_result_matches_reference(self, any_system_name):
        db = make_database(any_system_name, verify=True)
        layout = "column" if db.memory.supports_column else "row"
        db.create_table("a", [("k", 8), ("v", 8), ("w", 8)], layout=layout)
        db.create_table("b", [("k", 8), ("x", 8), ("y", 8)], layout=layout)
        rng = np.random.default_rng(4)
        keys = rng.permutation(200)
        db.insert_many("a", [(int(k), i, i * 2) for i, k in enumerate(keys)])
        keys2 = rng.permutation(200)
        db.insert_many("b", [(int(k), i * 3, i) for i, k in enumerate(keys2)])
        outcome = db.execute(
            "SELECT a.v, b.x FROM a, b WHERE a.w > b.y AND a.k = b.k",
            simulate=False,
        )
        assert outcome.result.kind == "rows"

    def test_update_really_mutates(self):
        db = build_db("RC-NVM", "column")
        before = int(db.table("t").field_values("f3")[0])
        outcome = db.execute("UPDATE t SET f3 = 123456", simulate=False)
        assert outcome.result.count == db.table("t").n_tuples
        assert int(db.table("t").field_values("f3")[0]) == 123456 != before

    def test_wide_aggregate(self, any_system_name):
        db = make_database(any_system_name, verify=True)
        layout = "column" if db.memory.supports_column else "row"
        db.create_table("w", [("k", 8), ("wide", 32), ("z", 8)], layout=layout)
        db.insert_many("w", [(i, (i, 2 * i, 3 * i, 4 * i), i) for i in range(100)])
        outcome = db.execute("SELECT SUM(wide) FROM w", simulate=False)
        assert outcome.result.value == sum(10 * i for i in range(100))


class TestTraceProperties:
    def test_dram_trace_never_column_oriented(self):
        db = build_db("DRAM", "row")
        for sql in QUERIES[:6]:
            plan = db.plan(sql)
            _result, trace = db.executor.execute(plan)
            assert all(a.orientation is not Orientation.COLUMN for a in trace)

    def test_rcnvm_scan_uses_cload(self):
        db = build_db("RC-NVM", "column")
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > 300")
        _result, trace = db.executor.execute(plan)
        assert any(a.op == Op.CREAD for a in trace)

    def test_gsdram_trace_contains_gathers(self):
        db = build_db("GS-DRAM", "row", fields=8)  # power-of-two tuple
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > 300")
        _result, trace = db.executor.execute(plan)
        gathers = [a for a in trace if a.op == Op.GATHER]
        assert gathers
        assert all(a.coord is not None for a in gathers)

    def test_gather_addresses_unique_per_field(self):
        db = build_db("GS-DRAM", "row", fields=8)
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > 300")
        _result, trace = db.executor.execute(plan)
        addresses = [a.address for a in trace if a.op == Op.GATHER]
        assert len(addresses) == len(set(addresses))

    def test_update_trace_contains_stores(self):
        db = build_db("RC-NVM", "column")
        plan = db.plan("UPDATE t SET f3 = 9 WHERE f1 > 900")
        _result, trace = db.executor.execute(plan)
        assert any(a.is_write for a in trace)

    def test_full_scan_on_rcnvm_column_layout_goes_vertical(self):
        db = build_db("RC-NVM", "column", n=650)
        plan = db.plan("SELECT * FROM t WHERE f1 > 10")
        _result, trace = db.executor.execute(plan)
        # Tall, narrow COLUMN-layout chunks are scanned column-wise.
        assert any(a.op == Op.CREAD for a in trace)

    def test_trace_sizes_are_positive_multiples_of_words(self):
        db = build_db("RC-NVM", "column")
        plan = db.plan("SELECT f3, f4 FROM t WHERE f1 > 700")
        _result, trace = db.executor.execute(plan)
        assert all(a.size > 0 and a.size % 8 == 0 for a in trace)


class TestGroupCachingTrace:
    def build_wide_db(self):
        db = make_database("RC-NVM", verify=True)
        db.create_table("w", [("k", 8), ("wide", 32), ("z", 8)], layout="column")
        db.insert_many("w", [(i, (i, i, i, i), i) for i in range(256)])
        return db

    def test_grouped_trace_pins_and_unpins(self):
        db = self.build_wide_db()
        plan = db.plan("SELECT SUM(wide) FROM w", group_lines=8)
        _result, trace = db.executor.execute(plan)
        assert any(a.pin for a in trace)
        unpins = [a for a in trace if a.op == Op.UNPIN]
        pins = [a for a in trace if a.pin]
        assert len(unpins) == len(pins)

    def test_naive_trace_has_no_pins(self):
        db = self.build_wide_db()
        plan = db.plan("SELECT SUM(wide) FROM w", group_lines=0)
        _result, trace = db.executor.execute(plan)
        assert not any(a.pin for a in trace)
        assert not any(a.op == Op.UNPIN for a in trace)

    def test_grouped_faster_than_naive(self):
        db = self.build_wide_db()
        naive = db.execute("SELECT SUM(wide) FROM w", group_lines=0).cycles
        db2 = self.build_wide_db()
        grouped = db2.execute("SELECT SUM(wide) FROM w", group_lines=16).cycles
        assert grouped < naive


# -- vectorized emitters vs the scalar per-cell reference ----------------------
def _coord(db, sub, device_row, device_col):
    return Coordinate(*db.physmem.subarray_coord(sub), device_row, device_col)


def reference_rowwise_scan(db, table, field_words):
    """Per-cell row-wise scan: one encode per cell, a read per new line."""
    trace = TraceBuffer()
    offsets = sorted(table.field_offset(f, w) for f, w in field_words)
    last_line = None
    for chunk in table.chunks:
        for chunk_row in range(chunk.used_rows()):
            for offset in offsets:
                for cell in row_cells_reference(chunk, chunk_row, offset):
                    address = db.physmem.mapper.encode_row(_coord(db, *cell[:3]))
                    if address // CACHE_LINE_BYTES != last_line:
                        trace.emit(int(Op.READ), address, WORD_BYTES, 1)
                        last_line = address // CACHE_LINE_BYTES
    return trace


def reference_column_fetch(db, table, ids, fields, write=False):
    """Per-tuple selective column fetch: the set of (col, line row) pairs
    holding matches, walked column by column."""
    trace = TraceBuffer()
    mapper = db.physmem.mapper
    fields = fields if fields is not None else table.schema.field_names()
    for name in fields:
        for word in range(table.schema.field(name).words):
            offset = table.field_offset(name, word)
            for chunk in table.chunks:
                first = chunk.first_tuple
                lines = set()
                for tuple_id in ids:
                    if first <= tuple_id < first + chunk.n_tuples:
                        row, col = chunk.local_cell(int(tuple_id) - first, offset)
                        lines.add((col, row & ~(WORDS_PER_LINE - 1)))
                for col, line_row in sorted(lines):
                    size = min(WORDS_PER_LINE, chunk.height - line_row) * WORD_BYTES
                    coord = _coord(db, *chunk.device_cell(line_row, col))
                    if chunk.placement.rotated:
                        op = Op.WRITE if write else Op.READ
                        address = mapper.encode_row(coord)
                    else:
                        op = Op.CWRITE if write else Op.CREAD
                        address = mapper.encode_col(coord)
                    trace.emit(int(op), address, size, 1)
    return trace


def assert_same_columns(got, expected):
    for got_column, expected_column in zip(got.columns(), expected.columns()):
        np.testing.assert_array_equal(got_column, expected_column)
    assert len(got) == len(expected)


def _loaded(system, layout, fields, n, loads=1):
    db = make_database(system, verify=False)
    db.create_table("t", [(f"f{i}", 8) for i in range(1, fields + 1)], layout=layout)
    for part in range(loads):
        db.insert_many("t", simple_rows(n, fields, seed=part))
    return db, db.table("t")


def _rotate_in_place(table):
    for chunk in table.chunks:
        p = chunk.placement
        chunk.placement = dataclasses.replace(
            p, rotated=True, width=p.height, height=p.width
        )


class TestVectorizedEmitters:
    """The per-chunk vectorized emitters produce exactly the per-cell
    reference's trace columns."""

    @pytest.mark.parametrize("system", ["DRAM", "RC-NVM"])
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_rowwise_scan_matches_reference(self, system, layout):
        db, table = _loaded(system, layout, fields=6, n=700)
        for field_words in ([("f2", 0)], [("f5", 0), ("f1", 0), ("f3", 0)]):
            trace = TraceBuffer()
            db.executor.emit_rowwise_field_scan(trace, table, field_words)
            assert_same_columns(trace, reference_rowwise_scan(db, table, field_words))

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_multi_chunk_table_matches_reference(self, layout):
        db, table = _loaded("RC-NVM", layout, fields=32, n=4200)
        assert len(table.chunks) == 2
        trace = TraceBuffer()
        db.executor.emit_rowwise_field_scan(trace, table, [("f1", 0), ("f7", 0)])
        assert_same_columns(
            trace, reference_rowwise_scan(db, table, [("f1", 0), ("f7", 0)])
        )

    def test_last_line_carries_across_chunk_boundary(self):
        # Two loads make two one-row chunks side by side on one device
        # row; the second chunk's first cell shares the first chunk's
        # last line, so the scan must not read that line twice.
        db, table = _loaded("RC-NVM", "row", fields=2, n=13, loads=2)
        first, second = table.chunks
        assert (first.placement.y, second.placement.y) == (0, 0)
        last_col = first.device_cell(*first.local_cell(12, 0))[2]
        next_col = second.device_cell(*second.local_cell(0, 0))[2]
        assert last_col // WORDS_PER_LINE == next_col // WORDS_PER_LINE
        trace = TraceBuffer()
        db.executor.emit_rowwise_field_scan(trace, table, [("f1", 0)])
        expected = reference_rowwise_scan(db, table, [("f1", 0)])
        assert_same_columns(trace, expected)
        lines = (trace.columns()[1] // CACHE_LINE_BYTES).tolist()
        assert len(lines) == len(set(lines))

    @pytest.mark.parametrize("layout", ["row", "column"])
    @pytest.mark.parametrize("write", [False, True])
    def test_column_fetch_matches_reference(self, layout, write):
        db, table = _loaded("RC-NVM", layout, fields=6, n=900)
        ids = np.nonzero(np.random.default_rng(5).random(table.n_tuples) < 0.2)[0]
        for fields in (["f3", "f4"], None):
            trace = TraceBuffer()
            db.executor._emit_selective_column_fetch(trace, table, ids, fields, write=write)
            assert_same_columns(
                trace, reference_column_fetch(db, table, ids, fields, write=write)
            )

    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_rotated_chunk_matches_reference(self, layout):
        db, table = _loaded("RC-NVM", layout, fields=3, n=40)
        _rotate_in_place(table)
        trace = TraceBuffer()
        db.executor.emit_rowwise_field_scan(trace, table, [("f2", 0), ("f3", 0)])
        assert_same_columns(
            trace, reference_rowwise_scan(db, table, [("f2", 0), ("f3", 0)])
        )
        ids = np.arange(0, 40, 3)
        for write in (False, True):
            trace = TraceBuffer()
            db.executor._emit_selective_column_fetch(trace, table, ids, None, write=write)
            assert_same_columns(
                trace, reference_column_fetch(db, table, ids, None, write=write)
            )

    def test_empty_id_set_emits_nothing(self):
        db, table = _loaded("RC-NVM", "column", fields=4, n=300)
        trace = TraceBuffer()
        db.executor._emit_selective_column_fetch(trace, table, [], None)
        assert len(trace) == 0
        assert_same_columns(trace, reference_column_fetch(db, table, [], None))
