"""Durability subsystem tests: WAL wire format, crash-point injection,
kill-and-recover determinism, and the persistence barrier.

The crash matrix is the heart of this file: every named crash site,
under every (layout, group-caching) combination, must recover to
the oracle-identical committed state — twice, from the same seed, with
identical recovery reports (the determinism the fuzz harness's replay
files rely on).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import (
    CRASH_SITES,
    CrashInjector,
    SimulatedCrash,
    RecordType,
    WalFullError,
    WalReader,
    WalRegion,
    WalWriter,
    decode_record,
    recover,
)
from repro.durability.wal import (
    create_table_payload,
    drop_table_payload,
    insert_payload,
    name_field_payload,
    tuple_write_payload,
)
from repro.errors import LayoutError, ReproError
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.cache.line import line_key
from repro.core.addressing import Orientation
from repro.cpu.machine import post_writeback
from repro.imdb.binpack import Placement
from repro.imdb.database import Database
from repro.imdb.physmem import PhysicalMemory
from repro.imdb.planner import ScanMethod
from repro.imdb.sql_parser import parse
from repro.memsim import attach_wear_tracker
from repro.workloads.datagen import generate_packed, populate
from repro.workloads.suite import default_layout
from repro.workloads.tables import ALL_TABLES, TABLE_A, TABLE_B


# -- fixtures ------------------------------------------------------------------
def _region(rows=64):
    physmem = PhysicalMemory(SMALL_RCNVM_GEOMETRY)
    placement = Placement(
        bin_index=0, x=0, y=0, rotated=False,
        width=SMALL_RCNVM_GEOMETRY.cols, height=rows,
    )
    return WalRegion(physmem, placement)


def _durable_db(layout="row", group_lines=0, wal_rows=None, n_rows=32):
    db = Database(
        build_system("RC-NVM", small=True),
        cache_config=SMALL_CACHE_CONFIG,
        default_group_lines=group_lines,
        verify=False,
    )
    db.enable_durability(wal_rows=wal_rows)
    db.create_table("t", [("id", 8), ("v", 8)], layout=layout)
    db.insert_many("t", [(i, i * 3) for i in range(n_rows)])
    return db


def _state(db, name="t"):
    table = db.tables[name]
    return {
        row[0]: row[1]
        for row in (table.read_tuple(i) for i in range(table.n_tuples))
    }


# -- WAL wire format -----------------------------------------------------------
def test_record_round_trip_every_type():
    region = _region()
    writer = WalWriter(region)
    payloads = [
        (RecordType.CREATE_TABLE, 1,
         create_table_payload("t-x", [("id", 8), ("wide", 24)], "column")),
        (RecordType.INSERT, 1, insert_payload("t-x", [[1, 2, 3, 4], [5, 6, 7, 8]])),
        (RecordType.COMMIT, 1, []),
        (RecordType.TUPLE_WRITE, 2, tuple_write_payload("t-x", "id", 7, 0, -42)),
        (RecordType.CREATE_INDEX, 3, name_field_payload("t-x", "id")),
        (RecordType.DROP_INDEX, 4, name_field_payload("t-x", "id")),
        (RecordType.CREATE_ORDERED_INDEX, 5, name_field_payload("t-x", "id")),
        (RecordType.DROP_ORDERED_INDEX, 6, name_field_payload("t-x", "id")),
        (RecordType.DROP_TABLE, 7, drop_table_payload("t-x")),
    ]
    for rtype, seq, payload in payloads:
        writer.append(rtype, seq, payload)
    records, torn = WalReader(region).scan()
    assert not torn
    assert [(r.rtype, r.seq) for r in records] == [
        (rtype, seq) for rtype, seq, _ in payloads
    ]
    ops = [decode_record(r) for r in records]
    assert ops[0] == {
        "op": "create_table", "name": "t-x",
        "fields": [("id", 8), ("wide", 24)], "layout": "column",
    }
    assert ops[1]["op"] == "insert"
    assert ops[1]["packed"].tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    assert ops[3] == {
        "op": "tuple_write", "name": "t-x", "field": "id",
        "tuple_id": 7, "word": 0, "value": -42,
    }
    assert [op["op"] for op in ops[4:]] == [
        "create_index", "drop_index", "create_ordered_index",
        "drop_ordered_index", "drop_table",
    ]


def test_scan_stops_cleanly_at_end_of_log():
    region = _region()
    writer = WalWriter(region)
    writer.append(RecordType.COMMIT, 1, [])
    records, torn = WalReader(region).scan()
    assert len(records) == 1 and not torn


def test_region_rejects_overflow():
    region = _region(rows=1)  # capacity = one device row of words
    writer = WalWriter(region)
    with pytest.raises(WalFullError):
        writer.append(
            RecordType.INSERT, 1,
            insert_payload("t", [[i, i] for i in range(400)]),
        )


def test_writer_resume_zeroes_tail():
    region = _region()
    writer = WalWriter(region)
    _, first_words = writer.append(RecordType.COMMIT, 1, [])
    writer.append(RecordType.TUPLE_WRITE, 2,
                  tuple_write_payload("t", "v", 0, 0, 9))
    writer.resume(first_words)
    records, torn = WalReader(region).scan()
    assert [r.rtype for r in records] == [RecordType.COMMIT]
    assert not torn


_PAYLOAD_WORD = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(list(RecordType)),
            st.integers(min_value=0, max_value=2**31),
            st.lists(_PAYLOAD_WORD, max_size=12),
        ),
        min_size=1,
        max_size=12,
    ),
    data=st.data(),
)
def test_corrupted_tail_yields_valid_prefix(records, data):
    """Corrupting any single word makes the scan stop at or before the
    damaged record — everything it does return is bit-exact."""
    region = _region()
    writer = WalWriter(region)
    for rtype, seq, payload in records:
        writer.append(rtype, seq, payload)
    clean, torn = WalReader(region).scan()
    assert not torn and len(clean) == len(records)

    victim = data.draw(
        st.integers(min_value=0, max_value=writer.cursor - 1), label="word"
    )
    original = int(region.read(victim, 1)[0])
    corrupt = data.draw(
        _PAYLOAD_WORD.filter(lambda v: v != original), label="value"
    )
    region.write(victim, [corrupt])

    scanned, _torn = WalReader(region).scan()
    assert len(scanned) <= len(clean)
    for got, want in zip(scanned, clean):
        assert (got.rtype, got.seq, got.payload) == \
            (want.rtype, want.seq, want.payload)
    # The corrupted word can only survive inside a record whose checksum
    # still passes - i.e. never: every surviving record ends before it
    # or starts after it was zero-skipped.
    for got in scanned:
        if got.offset <= victim < got.end:
            pytest.fail("scan returned a record containing the corrupt word")


@settings(max_examples=25, deadline=None)
@given(
    n_groups=st.integers(min_value=1, max_value=5),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_replay_filter_stops_at_last_committed_group(n_groups, cut):
    """Chop the log at an arbitrary word: the committed-seq filter only
    admits groups whose commit marker survived intact."""
    region = _region()
    writer = WalWriter(region)
    for seq in range(1, n_groups + 1):
        writer.append(RecordType.TUPLE_WRITE, seq,
                      tuple_write_payload("t", "v", seq, 0, seq * 11))
        writer.append(RecordType.COMMIT, seq, [])
    chop = int(writer.cursor * cut)
    region.zero(chop)

    records, _torn = WalReader(region).scan()
    committed = {r.seq for r in records if r.rtype is RecordType.COMMIT}
    applied = [r for r in records
               if r.seq in committed and r.rtype is not RecordType.COMMIT]
    # Commit markers come after their group's records, so the admitted
    # groups are exactly the fully intact prefix.
    assert committed == set(range(1, len(committed) + 1))
    assert [r.seq for r in applied] == sorted(committed)


# -- crash injector ------------------------------------------------------------
def test_injector_validates_site_and_occurrence():
    for site in ("no-such-site", "mid-scrub", "during-remap"):
        with pytest.raises(ValueError):
            CrashInjector(site)
    with pytest.raises(ValueError):
        CrashInjector("pre-flush", occurrence=0)


def test_injector_fires_on_nth_occurrence_only():
    injector = CrashInjector("mid-flush", occurrence=3)
    injector.point("mid-flush")
    injector.point("pre-flush")
    injector.point("mid-flush")
    with pytest.raises(SimulatedCrash) as exc:
        injector.point("mid-flush")
    assert exc.value.site == "mid-flush"
    assert injector.fired
    # After firing it keeps counting but never raises again.
    injector.point("mid-flush")


def test_injector_from_seed_is_deterministic():
    picks = {(CrashInjector.from_seed(s).site,
              CrashInjector.from_seed(s).occurrence) for s in range(20)}
    assert (CrashInjector.from_seed(7).site,
            CrashInjector.from_seed(7).occurrence) == \
        (CrashInjector.from_seed(7).site, CrashInjector.from_seed(7).occurrence)
    assert len(picks) > 1  # the seed actually varies the choice


def test_simulated_crash_is_not_a_repro_error():
    assert not issubclass(SimulatedCrash, ReproError)


# -- enable_durability contract ------------------------------------------------
def test_enable_durability_must_precede_tables():
    db = Database(build_system("RC-NVM", small=True),
                  cache_config=SMALL_CACHE_CONFIG, verify=False)
    db.create_table("t", [("id", 8)], layout="row")
    with pytest.raises(LayoutError):
        db.enable_durability()


def test_recover_requires_durability():
    db = Database(build_system("RC-NVM", small=True),
                  cache_config=SMALL_CACHE_CONFIG, verify=False)
    with pytest.raises(ReproError):
        recover(db)


def test_durable_statement_attaches_receipt_and_stats():
    db = _durable_db()
    outcome = db.execute("UPDATE t SET v = 5 WHERE id < 4")
    receipt = outcome.durability
    assert receipt is not None
    assert receipt.records == 4
    assert receipt.flushed_lines > 0
    stats = db.memory.stats
    assert stats.wal_records == receipt.records + 1  # + commit marker
    assert stats.wal_cells == receipt.wal_words
    assert stats.persist_barriers == 1
    assert stats.persist_flush_lines == receipt.flushed_lines
    # Read-only statements commit nothing.
    outcome = db.execute("SELECT id FROM t WHERE id = 0")
    assert outcome.durability is None


def test_wal_writes_are_traced():
    durable = _durable_db()
    plain = Database(build_system("RC-NVM", small=True),
                     cache_config=SMALL_CACHE_CONFIG, verify=False)
    plain.create_table("t", [("id", 8), ("v", 8)], layout="row")
    plain.insert_many("t", [(i, i * 3) for i in range(32)])
    sql = "UPDATE t SET v = 5 WHERE id < 4"
    assert durable.execute(sql).trace_length > plain.execute(sql).trace_length


# -- the crash matrix ----------------------------------------------------------
_MATRIX = [
    (site, layout, group_lines)
    for site in CRASH_SITES
    for layout in ("row", "column")
    for group_lines in (0, 2)
]


def _crash_and_recover(site, layout, group_lines):
    """One deterministic kill-and-recover pass; returns (state, report)."""
    db = _durable_db(layout=layout, group_lines=group_lines)
    db.execute("UPDATE t SET v = 5555 WHERE id < 6")  # committed
    db.durability.injector = CrashInjector(site)
    with pytest.raises(SimulatedCrash):
        db.execute("UPDATE t SET v = 7777 WHERE id >= 28")
    rdb, report = recover(db)
    return _state(rdb), (
        report.records_scanned, report.records_replayed,
        report.records_discarded, report.torn_tail,
    )


@pytest.mark.parametrize(
    "site,layout,group_lines", _MATRIX,
    ids=[f"{s}-{l}-g{g}" for s, l, g in _MATRIX],
)
def test_crash_matrix_recovers_committed_state(site, layout, group_lines):
    expected = {i: (5555 if i < 6 else i * 3) for i in range(32)}
    state, report = _crash_and_recover(site, layout, group_lines)
    assert state == expected
    # Determinism: the same seed/site replays to the identical outcome.
    state2, report2 = _crash_and_recover(site, layout, group_lines)
    assert state2 == state
    assert report2 == report


def test_populate_is_logged_and_recovers():
    # Bulk loads go through Database.insert_packed, which writes the WAL
    # record before the cells; a populated durable database recovers equal.
    db = Database(
        build_system("RC-NVM", small=True),
        cache_config=SMALL_CACHE_CONFIG,
        verify=False,
    )
    db.enable_durability()
    for name in (TABLE_A, TABLE_B):
        populate(db, name, ALL_TABLES[name](), 300, "column")
    rdb, _report = recover(db)
    for name in (TABLE_A, TABLE_B):
        live, recovered = db.tables[name], rdb.tables[name]
        assert recovered.n_tuples == live.n_tuples == 300
        for field in live.schema.field_names():
            np.testing.assert_array_equal(
                recovered.field_values(field), live.field_values(field)
            )


def test_insert_packed_rejects_bad_shape_before_logging():
    db = _durable_db()
    records, _torn = db.durability.scan()
    with pytest.raises(LayoutError):
        db.insert_packed("t", np.zeros((3, 5), dtype=np.int64))
    assert db.durability.scan()[0] == records


def test_recovered_database_stays_durable():
    db = _durable_db()
    db.durability.injector = CrashInjector("post-flush-pre-commit")
    with pytest.raises(SimulatedCrash):
        db.execute("UPDATE t SET v = 1 WHERE id < 3")
    rdb, _report = recover(db)
    rdb.execute("UPDATE t SET v = 1 WHERE id < 3")
    rdb.durability.injector = CrashInjector("pre-flush")
    with pytest.raises(SimulatedCrash):
        rdb.execute("UPDATE t SET v = 2 WHERE id < 3")
    rdb2, _report = recover(rdb)
    assert _state(rdb2) == {i: (1 if i < 3 else i * 3) for i in range(32)}


@pytest.mark.parametrize("system, wal_rows, write_method", [
    ("RC-NVM", 6, ScanMethod.COLUMN),
    ("DRAM", 24, ScanMethod.ROW),
])
def test_update_that_overflows_the_wal_changes_nothing(system, wal_rows,
                                                       write_method):
    """An UPDATE whose records do not all fit the log raises before any
    tuple changes, so the live table still equals the recovered one."""
    memory = build_system(system)
    db = Database(memory, verify=False)
    db.enable_durability(wal_rows=wal_rows)
    table = db.create_table(TABLE_A, ALL_TABLES[TABLE_A](),
                            layout=default_layout(memory))
    packed = generate_packed(TABLE_A, 256, table.tuple_words)
    db.insert_many(TABLE_A, [table.schema.unpack(row) for row in packed])
    sql = f"UPDATE {TABLE_A} SET f2 = 7"
    assert db.planner.plan(parse(sql)).write_method is write_method
    cursor = db.durability.writer.cursor

    def rows(database):
        t = database.table(TABLE_A)
        return [t.read_tuple(i) for i in range(t.n_tuples)]

    before = rows(db)
    with pytest.raises(WalFullError):
        db.execute(sql)
    assert db.durability.writer.cursor == cursor
    assert not db.durability.pending
    assert rows(db) == before
    recovered, _report = recover(db)
    assert rows(recovered) == before


# -- satellite: flush_caches count + wear --------------------------------------
def test_flush_caches_posts_what_post_writeback_would():
    """The batched barrier submits the scalar path's requests in flush
    order; a dirty gather line posts nothing and is not counted."""
    posted = []
    for batched in (True, False):
        db = Database(build_system("RC-NVM", small=True),
                      cache_config=SMALL_CACHE_CONFIG, verify=False)
        db.create_table("t", [("id", 8), ("v", 8)], layout="column")
        db.insert_many("t", [(i, i) for i in range(300)])
        db.execute("UPDATE t SET v = 9 WHERE id < 200")
        for tuple_id in (251, 260, 299):  # row-path UPDATEs
            db.execute(f"UPDATE t SET v = 8 WHERE id = {tuple_id}",
                       fresh_timing=False)
        db.hierarchy.levels[0].install(
            line_key(1 << 12, Orientation.GATHER), dirty=True
        )
        requests = []
        for controller in db.memory.controllers:
            submit = controller.submit
            controller.submit = (lambda req, submit=submit: (
                requests.append((req.channel, req.rank, req.bank,
                                 req.subarray, req.row, req.col,
                                 req.orientation, req.is_write, req.arrival,
                                 req.stream)),
                submit(req),
            ))
        if batched:
            count = db.machine.flush_caches(now=5)
        else:
            keys = db.hierarchy.flush()
            count = sum(post_writeback(db.memory, key, 5) is not None
                        for key in keys)
        posted.append((count, requests))
    assert posted[0] == posted[1]
    assert {req[6] for req in posted[0][1]} == {Orientation.ROW,
                                                 Orientation.COLUMN}


def test_flush_caches_returns_posted_count_and_charges_wear():
    db = Database(build_system("RC-NVM", small=True),
                  cache_config=SMALL_CACHE_CONFIG, verify=False)
    db.create_table("t", [("id", 8), ("v", 8)], layout="row")
    db.insert_many("t", [(i, i) for i in range(64)])
    db.execute("UPDATE t SET v = 9 WHERE id < 40")
    tracker = attach_wear_tracker(db.memory)
    writes_before = db.memory.stats.writes
    calls = []
    flushed = db.machine.flush_caches(on_line=calls.append)
    assert flushed > 0
    # The count is the number of writebacks actually posted: it must
    # match the memory write delta exactly (flush conservation), and the
    # per-line callback saw every one in order.
    assert db.memory.stats.writes - writes_before == flushed
    assert calls == list(range(1, flushed + 1))
    # Flushed lines dirty the device buffers, so wear was recorded.
    assert tracker.total_flushes > 0
    # A second flush finds nothing dirty.
    assert db.machine.flush_caches() == 0


def test_flush_caches_on_line_can_abort():
    # A non-durable stack: a durable one flushes at commit, leaving
    # nothing dirty for this flush to iterate over.
    db = Database(build_system("RC-NVM", small=True),
                  cache_config=SMALL_CACHE_CONFIG, verify=False)
    db.create_table("t", [("id", 8), ("v", 8)], layout="row")
    db.insert_many("t", [(i, i) for i in range(64)])
    db.execute("UPDATE t SET v = 9 WHERE id < 20")

    class Boom(Exception):
        pass

    def abort(count):
        if count == 2:
            raise Boom()

    with pytest.raises(Boom):
        db.machine.flush_caches(on_line=abort)
