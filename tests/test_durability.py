"""Durability subsystem tests: WAL wire format, crash-point injection,
kill-and-recover determinism, and the persistence barrier.

The crash matrix is the heart of this file: every named crash site,
under every (layout, ECC, group-caching) combination, must recover to
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
    WalError,
    WalFullError,
    WalReader,
    WalRegion,
    WalWriter,
    decode_record,
    recover,
)
from repro.durability.wal import (
    FRAME_WORDS,
    create_table_payload,
    drop_table_payload,
    insert_payload,
    name_field_payload,
    tuple_write_payload,
)
from repro.errors import LayoutError, ReproError
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.binpack import Placement
from repro.imdb.chunks import Run
from repro.imdb.database import Database
from repro.imdb.physmem import PhysicalMemory
from repro.memsim import attach_wear_tracker
from repro.workloads.datagen import populate
from repro.workloads.tables import ALL_TABLES, TABLE_A, TABLE_B
from repro.reliability import translate_run


# -- fixtures ------------------------------------------------------------------
def _region(rows=64):
    physmem = PhysicalMemory(SMALL_RCNVM_GEOMETRY)
    placement = Placement(
        bin_index=0, x=0, y=0, rotated=False,
        width=SMALL_RCNVM_GEOMETRY.cols, height=rows,
    )
    return WalRegion(physmem, placement)


def _durable_db(layout="row", ecc=False, group_lines=0, wal_rows=None,
                n_rows=32):
    db = Database(
        build_system("RC-NVM", small=True),
        cache_config=SMALL_CACHE_CONFIG,
        default_group_lines=group_lines,
        verify=False,
    )
    db.enable_durability(wal_rows=wal_rows)
    db.create_table("t", [("id", 8), ("v", 8)], layout=layout)
    db.insert_many("t", [(i, i * 3) for i in range(n_rows)])
    if ecc:
        db.enable_reliability()
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
    with pytest.raises(ValueError):
        CrashInjector("no-such-site")
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
    (site, layout, ecc, group_lines)
    for site in CRASH_SITES
    for layout in ("row", "column")
    for ecc in (False, True)
    for group_lines in (0, 2)
    # The scrub/remap sites only exist with ECC attached, and the
    # migration site only on a tiered memory (dedicated tests below).
    if site != "during-migration"
    and (ecc or site not in ("mid-scrub", "during-remap"))
]


def _crash_and_recover(site, layout, ecc, group_lines):
    """One deterministic kill-and-recover pass; returns (state, report)."""
    db = _durable_db(layout=layout, ecc=ecc, group_lines=group_lines)
    db.execute("UPDATE t SET v = 5555 WHERE id < 6")  # committed
    db.durability.injector = CrashInjector(site)
    with pytest.raises(SimulatedCrash):
        if site == "mid-scrub":
            chunk = db.tables["t"].chunks[0]
            p = chunk.placement
            db.ecc.inject_fault(p.bin_index, p.y, p.x, 3)
            db.ecc.inject_fault(p.bin_index, p.y, p.x, 17)
            db.scrubber.sweep()
        elif site == "during-remap":
            chunk = db.tables["t"].chunks[0]
            p = chunk.placement
            db.ecc.inject_fault(p.bin_index, p.y, p.x, 3)
            db.ecc.inject_fault(p.bin_index, p.y, p.x, 17)
            db.execute("SELECT id, v FROM t")
        else:
            db.execute("UPDATE t SET v = 7777 WHERE id >= 28")
    rdb, report = recover(db)
    return _state(rdb), (
        report.records_scanned, report.records_replayed,
        report.records_discarded, report.torn_tail,
    )


@pytest.mark.parametrize(
    "site,layout,ecc,group_lines", _MATRIX,
    ids=[f"{s}-{l}-ecc{int(e)}-g{g}" for s, l, e, g in _MATRIX],
)
def test_crash_matrix_recovers_committed_state(site, layout, ecc, group_lines):
    expected = {i: (5555 if i < 6 else i * 3) for i in range(32)}
    state, report = _crash_and_recover(site, layout, ecc, group_lines)
    assert state == expected
    # Determinism: the same seed/site replays to the identical outcome.
    state2, report2 = _crash_and_recover(site, layout, ecc, group_lines)
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


# -- satellite: flush_caches count + wear --------------------------------------
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


# -- satellite: translate_run robustness ---------------------------------------
def _placement(bin_index=0, x=4, y=8, rotated=False, width=16, height=8):
    return Placement(bin_index=bin_index, x=x, y=y, rotated=rotated,
                     width=width, height=height)


def test_translate_run_empty_run():
    old, new = _placement(), _placement(bin_index=1, x=0, y=0)
    run = Run(subarray=0, vertical=False, fixed=8, start=4, count=0,
              first_tuple=0, tuple_stride=1)
    moved = translate_run(run, old, new)
    assert moved.count == 0
    assert moved.subarray == 1


def test_translate_run_negative_count_raises():
    old, new = _placement(), _placement(bin_index=1)
    run = Run(subarray=0, vertical=False, fixed=8, start=4, count=-1,
              first_tuple=0, tuple_stride=1)
    with pytest.raises(LayoutError):
        translate_run(run, old, new)


def test_translate_run_wrong_subarray_raises():
    old, new = _placement(bin_index=0), _placement(bin_index=1)
    run = Run(subarray=3, vertical=False, fixed=8, start=4, count=4,
              first_tuple=0, tuple_stride=1)
    with pytest.raises(LayoutError):
        translate_run(run, old, new)


def test_translate_run_outside_rect_raises():
    old, new = _placement(), _placement(bin_index=1)
    # Horizontal run overrunning the right edge of the 16-wide rect.
    run = Run(subarray=0, vertical=False, fixed=8, start=18, count=4,
              first_tuple=0, tuple_stride=1)
    with pytest.raises(LayoutError):
        translate_run(run, old, new)
    # Vertical run overrunning the bottom edge.
    run = Run(subarray=0, vertical=True, fixed=4, start=14, count=4,
              first_tuple=0, tuple_stride=1)
    with pytest.raises(LayoutError):
        translate_run(run, old, new)


def test_translate_run_inside_rect_still_translates():
    old = _placement()
    new = _placement(bin_index=1, x=0, y=0)
    run = Run(subarray=0, vertical=False, fixed=9, start=6, count=4,
              first_tuple=0, tuple_stride=1)
    moved = translate_run(run, old, new)
    assert moved.subarray == 1
    assert moved.count == 4
    assert (moved.fixed, moved.start) == (1, 2)


# -- satellite: crash inside a tier migration ----------------------------------
def _durable_tiered_db(n_rows=32):
    """A durable database on the hybrid tier.  Default engine thresholds
    keep migrations quiet during setup; tests arm them explicitly (after
    arming the crash injector) via :func:`_make_migration_aggressive`."""
    db = Database(
        build_system("TIERED", small=True),
        cache_config=SMALL_CACHE_CONFIG,
        verify=False,
    )
    db.enable_durability()
    db.create_table("t", [("id", 8), ("v", 8)], layout="column")
    db.insert_many("t", [(i, i * 3) for i in range(n_rows)])
    return db


def _make_migration_aggressive(db):
    db.tiering.epoch_statements = 1
    db.tiering.promote_threshold = 2.0
    db.tiering.demote_threshold = 0.5


def _heat_until_crash(db):
    """SELECT until the armed during-migration site fires."""
    with pytest.raises(SimulatedCrash):
        for _ in range(16):
            db.execute("SELECT id, v FROM t WHERE v > 10")
        pytest.fail("promotion never started; migration site never reached")


def test_crash_during_promotion_recovers_consistent_placement():
    db = _durable_tiered_db()
    db.execute("UPDATE t SET v = 5555 WHERE id < 6")  # committed
    db.durability.injector = CrashInjector("during-migration")
    _make_migration_aggressive(db)
    _heat_until_crash(db)
    # The crash fired after the chunk's placement switched to the DRAM
    # rectangle but before any cell was copied: the live placement
    # points at garbage.  Recovery must not trust it.
    rdb, report = recover(db)
    assert report.records_replayed > 0
    assert _state(rdb) == {i: (5555 if i < 6 else i * 3) for i in range(32)}
    # Consistent placement: every chunk lands wholly in exactly one
    # tier — the non-volatile one (the DRAM tier died with the power).
    engine = rdb.tiering
    assert engine is not None
    for table in rdb.tables.values():
        for chunk in table.chunks:
            assert engine.tier_of_placement(chunk.placement) == 0
    assert engine.dram_resident_cells() == 0
    assert engine.check_consistency() == []
    # The committed prefix is intact and the recovered stack is live.
    rdb.execute("UPDATE t SET v = 1 WHERE id = 0")
    assert _state(rdb)[0] == 1


def test_crash_during_promotion_is_deterministic():
    def once():
        db = _durable_tiered_db()
        db.execute("UPDATE t SET v = 5555 WHERE id < 6")
        db.durability.injector = CrashInjector("during-migration")
        _make_migration_aggressive(db)
        _heat_until_crash(db)
        rdb, report = recover(db)
        return _state(rdb), (
            report.records_scanned, report.records_replayed,
            report.records_discarded, report.torn_tail,
        )

    state1, report1 = once()
    state2, report2 = once()
    assert state1 == state2
    assert report1 == report2


def test_migration_never_splits_a_durability_barrier():
    """rebalance() refuses while a WAL group is open (mid-commit)."""
    db = _durable_tiered_db()
    _make_migration_aggressive(db)
    engine = db.tiering
    table = db.tables["t"]
    engine.tracker.heat[engine.chunk_key(table, table.chunks[0])] = 1e6
    dur = db.durability
    dur.log_tuple_write(None, "t", 0, "v", 1)  # open, uncommitted group
    try:
        assert dur.pending
        assert engine.rebalance() == 0  # refused inside the barrier
        assert engine.promotions == 0
    finally:
        dur.begin_statement()  # drop the stale group
    assert not dur.pending
    assert engine.rebalance() == 1  # allowed once the barrier closes
