"""A durable UPDATE logs its tuple writes as one WAL block.

The reference below is the per-record logging loop the block replaced,
rebuilt from ``encode_record``, ``tuple_write_payload``,
``WalRegion.segments`` and ``Executor.emit_run``: one record per tuple and
assignment, appended and traced one at a time right where each write path
put it.  On both write paths the block must leave the same WAL cells,
writer and open-group counters, table cells and trace columns.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cpu.tracebuffer import TraceBuffer
from repro.durability import RecordType, WalError, WalFullError, encode_record
from repro.durability.wal import tuple_write_payload
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.chunks import Run
from repro.imdb.database import Database
from repro.imdb.planner import PlannedPredicate, ScanMethod, UpdatePlan

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
WAL_ROWS = 4

#: Names of 0-20 UTF-8 bytes (a character cut at byte 20 is dropped).
names = st.text(max_size=20).map(
    lambda s: s.encode("utf-8")[:20].decode("utf-8", "ignore")
)
values = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)


def _build(table_name, fields, selected, layout):
    """A small durable RC-NVM database holding one table whose first
    field is 1 on the ``selected`` tuples and 0 elsewhere."""
    db = Database(build_system("RC-NVM", small=True),
                  cache_config=SMALL_CACHE_CONFIG, verify=False)
    db.enable_durability(wal_rows=WAL_ROWS)
    db.create_table(table_name, [(name, 8) for name in fields], layout=layout)
    db.insert_many(table_name, [
        (int(chosen),) + (index,) * (len(fields) - 1)
        for index, chosen in enumerate(selected)
    ])
    return db


def _plan(table_name, fields, assignments, write_method):
    return UpdatePlan(
        table=table_name,
        predicates=(PlannedPredicate(fields[0], "=", 1),),
        scan_method=ScanMethod.COLUMN,
        assignments=tuple(assignments),
        write_method=write_method,
    )


def block_update(db, plan):
    """The executor's UPDATE, which logs through the block path."""
    trace = TraceBuffer()
    db.executor._run_update(plan, trace)
    return trace


def reference_update(db, plan):
    """The per-record loop: each tuple's records are appended and traced
    one at a time, before that tuple's cells change."""
    executor, dur = db.executor, db.durability
    region = dur.region
    table = db.table(plan.table)
    trace = TraceBuffer()
    mask = executor._evaluate_predicates(
        trace, table, plan.predicates, plan.scan_method
    )
    ids = [int(i) for i in np.nonzero(mask)[0]]

    def log_and_write(tuple_id):
        for name, value in plan.assignments:
            if dur._open_seq is None:
                dur._open_seq = dur._next_seq
                dur._next_seq += 1
            words = encode_record(
                RecordType.TUPLE_WRITE, dur._open_seq,
                tuple_write_payload(table.name, name, tuple_id, 0, value),
            )
            cursor = dur.writer.cursor
            region.write(cursor, words)
            for row, col, count in region.segments(cursor, len(words)):
                run = Run(region.subarray, False, row, col, count, 0, 0)
                executor.emit_run(trace, run, write=True, gap=1)
            dur.writer.cursor += len(words)
            dur.writer.records_written += 1
            dur._open_records += 1
            dur._open_words += len(words)
            table.write_field(tuple_id, name, value)

    fields = [name for name, _value in plan.assignments]
    if plan.write_method is ScanMethod.COLUMN and ids:
        executor._emit_selective_column_fetch(trace, table, ids, fields,
                                              write=True)
        for tuple_id in ids:
            log_and_write(tuple_id)
        return trace
    ranges = executor._word_ranges(table, fields)
    for tuple_id in ids:
        chunk, local = table.chunk_of(tuple_id)
        for offset, count in ranges:
            executor.emit_run(trace, chunk.tuple_cells(local, offset, count),
                              write=True, gap=1)
        log_and_write(tuple_id)
    return trace


def _state(db, table_name):
    dur = db.durability
    table = db.table(table_name)
    return {
        "wal": dur.region.read(0, dur.region.capacity).tolist(),
        "cursor": dur.writer.cursor,
        "records_written": dur.writer.records_written,
        "group": (dur._open_seq, dur._next_seq, dur._open_records,
                  dur._open_words),
        "table": [table.read_tuple(i) for i in range(table.n_tuples)],
    }


def _columns(trace):
    return [column.tolist() for column in trace.columns()]


@pytest.mark.parametrize("write_method", [ScanMethod.COLUMN, ScanMethod.ROW])
@given(
    table_name=names,
    fields=st.lists(names, min_size=1, max_size=3, unique=True),
    selected=st.lists(st.booleans(), min_size=1, max_size=12),
    assignments=st.data(),
    layout=st.sampled_from(["row", "column"]),
    start_row=st.integers(1, 2),
    back=st.integers(0, 40),
)
def test_block_log_matches_per_record_loop(write_method, table_name, fields,
                                           selected, assignments, layout,
                                           start_row, back):
    assignments = assignments.draw(st.lists(
        st.tuples(st.sampled_from(fields), values), min_size=1, max_size=3,
    ))
    plan = _plan(table_name, fields, assignments, write_method)
    states, traces = [], []
    for run_update in (block_update, reference_update):
        db = _build(table_name, fields, selected, layout)
        dur = db.durability
        # Start so that records straddle the end of a WAL row.
        dur.writer.cursor = start_row * dur.region.placement.width - back
        trace = run_update(db, plan)
        states.append(_state(db, table_name))
        traces.append(_columns(trace))
    assert states[0] == states[1]
    assert traces[0] == traces[1]


@pytest.mark.parametrize("write_method", [ScanMethod.COLUMN, ScanMethod.ROW])
@pytest.mark.parametrize("error, value, room", [
    (WalError, INT64_MAX + 1, None),
    (WalError, INT64_MIN - 1, None),
    (WalFullError, 7, 20),  # room for one 11-word record, not six
])
def test_rejected_block_changes_nothing(write_method, error, value, room):
    """A value that does not fit a cell, or a block that overflows the
    log, raises before any WAL or table cell or counter moves."""
    fields = ["k", "v", "w"]
    db = _build("t", fields, [True, False, True, True], "column")
    dur = db.durability
    if room is not None:
        dur.writer.cursor = dur.region.capacity - room
    plan = _plan("t", fields, [("w", 1), ("v", value)], write_method)
    before = _state(db, "t")
    with pytest.raises(error):
        block_update(db, plan)
    assert _state(db, "t") == before
    assert not dur.pending
