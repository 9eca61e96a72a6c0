"""Unit tests for the whole-trace replay kernel (repro.cpu.replaykernel).

Bit-for-bit equivalence against the batched path over the full SQL suite
lives in ``tests/test_replay_equivalence.py``; these tests pin the
supporting machinery — automatic engine selection, the eligibility
gate's fallback decisions, and the end state on a small system,
including the cache contents the kernel leaves to their first reader.
"""

import weakref

import pytest

from replay_oracle import PreciseMachine, simulator_state
from repro.cache.cache import Cache, _PendingCache
from repro.cache.line import CacheLine
from repro.cache.synonym import SynonymDirectory
from repro.cpu.replaykernel import kernel_eligible
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import TraceBuffer, as_finalized
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database


def _small_db(system="RC-NVM", rows=32):
    # 32 rows keeps the trace's unique lines within the small LLC's
    # associativity, so pure-read traces stay kernel-eligible.
    memory = build_system(system, small=True)
    db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
    db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
    db.insert_many("t", [(i, i * 3) for i in range(rows)])
    return db


def test_llc_set_overflow_falls_back():
    # More distinct lines than LLC ways in one set would make the
    # inclusive LLC evict (and back-invalidate), which the flat cache
    # model does not track.
    db = _small_db(rows=64)
    fin = _read_trace(db).finalize()
    db.reset_timing()
    assert not kernel_eligible(db.machine, fin)


def _read_trace(db, sql="SELECT SUM(f2) FROM t WHERE f1 > x"):
    plan = db.plan(sql, params={"x": 10})
    _result, buffer = db.executor.execute(plan)
    return buffer


def test_run_selects_kernel_exactly_when_eligible():
    # The kernel memoizes its flattened columns on the trace ("static");
    # only a replay that took the kernel leaves them behind.
    db = _small_db()
    fin = _read_trace(db).finalize()
    db.reset_timing()
    assert kernel_eligible(db.machine, fin)
    db.machine.run(fin)
    assert "static" in fin._kernel_cache

    plan = db.plan("UPDATE t SET f2 = 7 WHERE f1 > x", params={"x": 20})
    _result, buffer = db.executor.execute(plan)
    update = buffer.finalize()
    db.reset_timing()
    assert not kernel_eligible(db.machine, update)
    db.machine.run(update)
    assert "static" not in update._kernel_cache


class TestEligibility:
    def test_pure_read_trace_is_eligible(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)

    def test_writes_fall_back(self):
        db = _small_db()
        plan = db.plan("UPDATE t SET f2 = 7 WHERE f1 > x", params={"x": 20})
        _result, buffer = db.executor.execute(plan)
        fin = buffer.finalize()
        assert fin.n_writes > 0
        db.reset_timing()
        assert not kernel_eligible(db.machine, fin)
        batched = db.machine._run_batched(fin)
        db.reset_timing()
        assert db.machine.run(fin) == batched

    def test_empty_trace_falls_back(self):
        db = _small_db()
        db.reset_timing()
        assert not kernel_eligible(db.machine, TraceBuffer().finalize())

    def test_dirty_simulator_state_falls_back(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        db.machine.run(fin)  # leaves warm caches and touched banks
        assert not kernel_eligible(db.machine, fin)

    def test_shallow_queue_falls_back(self):
        # queue_depth <= window could force overflow-driven early
        # scheduling, which the flat loop does not model.
        memory = build_system("RC-NVM", small=True, queue_depth=4)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG, window=8)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(64)])
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert not kernel_eligible(db.machine, fin)

    def test_closed_page_policy_falls_back(self):
        memory = build_system("RC-NVM", small=True, page_policy="closed")
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(64)])
        fin = _read_trace(db).finalize()
        db.reset_timing()
        assert not kernel_eligible(db.machine, fin)

    @pytest.mark.parametrize(
        "column_address, copies", ((0x0, 1), (0x40, 0)), ids=("crossed", "uncrossed")
    )
    def test_mixed_orientation_with_synonym_is_admitted(self, column_address, copies):
        # RC-NVM arms a synonym tracker.  The column line's fill runs one
        # crossing check: column line 0 shares a word with row line 0 (one
        # copy), column line 0x40 crosses rows 8-15 (none).  Its cycles
        # land after the trace's last line, and the bank switches from its
        # row buffer to its column buffer.
        db = _small_db("RC-NVM")
        accesses = [
            Access(Op.READ, 0x0, 64, 1), Access(Op.CREAD, column_address, 64, 1)
        ]
        db.reset_timing()
        machine = PreciseMachine(db.memory, db.hierarchy, window=db.window)
        precise = machine.run(accesses)
        precise_state = simulator_state(db.machine)
        fin = as_finalized(accesses)
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)
        assert db.machine.run(fin) == precise
        assert simulator_state(db.machine) == precise_state
        assert precise.synonym["crossing_checks"] == 1
        assert precise.synonym["crossing_copies"] == copies
        assert precise.synonym_cycles == (
            SynonymDirectory.PROBE_BATCH_COST + SynonymDirectory.COPY_COST * copies
        )
        assert precise.memory["orientation_switches"] == 1

    def test_fallback_still_replays_correctly(self):
        # A pure-read trace can fall back too (here: LLC-set overflow).
        db = _small_db(rows=64)
        buffer = _read_trace(db)
        fin = buffer.finalize()
        db.reset_timing()
        assert not kernel_eligible(db.machine, fin)
        batched = db.machine._run_batched(fin)
        db.reset_timing()
        assert db.machine.run(buffer) == batched


class TestEndState:
    def test_kernel_leaves_identical_simulator_state(self):
        db = _small_db()
        buffer = _read_trace(db)
        fin = buffer.finalize()
        db.reset_timing()
        db.machine._run_batched(fin)
        expected = simulator_state(db.machine)
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)
        db.machine.run(fin)
        assert simulator_state(db.machine) == expected

    def test_repeat_replay_reuses_memoized_columns(self):
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        first = db.machine.run(fin)
        assert "static" in fin._kernel_cache
        assert db.memory.mapper in fin._kernel_cache
        db.reset_timing()
        assert db.machine.run(fin) == first


#: What each reader of a hierarchy returns, as plain values.
_READERS = {
    "resident_lines": lambda hierarchy, keys: [
        [(line.key, line.dirty, line.pinned, line.crossing)
         for line in level.resident_lines()]
        for level in hierarchy.levels
    ],
    "occupancy": lambda hierarchy, keys: [
        level.occupancy() for level in hierarchy.levels
    ],
    "probe": lambda hierarchy, keys: [
        [level.probe(key) is not None for key in keys]
        for level in hierarchy.levels
    ],
    "check_invariants": lambda hierarchy, keys: hierarchy.check_invariants(),
    "flush": lambda hierarchy, keys: hierarchy.flush(),
}


class TestDeferredContents:
    """The kernel leaves each level's lines to a build that runs on the
    first read (``Cache.defer_contents``); no reader can tell."""

    @pytest.mark.parametrize("system", ("RC-NVM", "DRAM", "GS-DRAM"))
    def test_warm_batched_replay_after_kernel_matches_two_batched(self, system):
        # Nothing reads the kernel's state before the second replay, so
        # the batched loop's own reads are what build it.
        db = _small_db(system)
        first = _read_trace(db).finalize()
        second = _read_trace(db, "SELECT SUM(f1) FROM t WHERE f2 < x").finalize()
        db.reset_timing()
        expected = [db.machine._run_batched(first), db.machine._run_batched(second)]
        expected_state = simulator_state(db.machine)
        db.reset_timing()
        assert kernel_eligible(db.machine, first)
        replayed = [db.machine.run(first)]
        levels = db.hierarchy.levels
        assert all(type(level) is _PendingCache for level in levels)
        replayed.append(db.machine.run(second))
        assert replayed == expected
        assert simulator_state(db.machine) == expected_state
        assert all(type(level) is Cache for level in levels)

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("system", ("RC-NVM", "DRAM", "GS-DRAM"))
    def test_first_reader_sees_what_batched_leaves(self, system, reader):
        read = _READERS[reader]
        db = _small_db(system)
        fin = _read_trace(db).finalize()
        keys = fin.line_key.tolist()
        db.reset_timing()
        db.machine._run_batched(fin)
        expected = read(db.hierarchy, keys), simulator_state(db.machine)
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)
        db.machine.run(fin)
        assert (read(db.hierarchy, keys), simulator_state(db.machine)) == expected

    @pytest.mark.parametrize("system", ("RC-NVM", "DRAM"))
    def test_reset_after_kernel_builds_no_cache_line(self, system, monkeypatch):
        db = _small_db(system)
        fin = _read_trace(db).finalize()
        db.reset_timing()
        built = []
        init = CacheLine.__init__

        def counting_init(line, key, *args, **kwargs):
            built.append(key)
            init(line, key, *args, **kwargs)

        monkeypatch.setattr(CacheLine, "__init__", counting_init)
        assert kernel_eligible(db.machine, fin)
        db.machine.run(fin)
        levels = [weakref.ref(level) for level in db.hierarchy.levels]
        db.reset_timing()
        assert built == []
        # Freed at once: no build holds its cache.
        assert [level() for level in levels] == [None, None, None]
        # The hook does count: reading the next kernel run's state builds
        # exactly its resident lines.
        db.machine.run(fin)
        resident = sum(level.occupancy() for level in db.hierarchy.levels)
        assert len(built) == resident > 0


class TestWriteAfterReadHazard:
    """A write to a line the trace already read would leave the kernel's
    flat per-line state stale; the pure-read shape check rejects every
    trace with a write, so such traces replay through the batched loop."""

    def test_mixed_trace_rejected_and_fallback_matches_batched(self):
        db = _small_db()
        buffer = TraceBuffer()
        buffer.emit(int(Op.READ), 0x0, 64, 1)
        buffer.emit(int(Op.WRITE), 0x0, 64, 1)
        buffer.emit(int(Op.READ), 0x40, 64, 1)
        fin = buffer.finalize()
        db.reset_timing()
        assert not kernel_eligible(db.machine, fin)
        batched = db.machine._run_batched(fin)
        db.reset_timing()
        assert db.machine.run(buffer) == batched
