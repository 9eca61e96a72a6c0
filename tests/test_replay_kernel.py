"""Unit tests for the whole-trace replay kernel (repro.cpu.replaykernel).

Bit-for-bit equivalence against the batched path over the full SQL suite
lives in ``tests/test_replay_equivalence.py``; these tests pin the
supporting machinery — automatic engine selection, the eligibility
gate's fallback decisions, and the end state on a small system,
including the cache contents the kernel leaves to their first reader.
"""

import copy
import random
import weakref
from unittest import mock

import pytest

from replay_oracle import PreciseMachine, simulator_state
from repro.cache.cache import Cache, _PendingCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.line import CacheLine
from repro.cache.synonym import SynonymDirectory
from repro.core.addressing import AddressMapper
from repro.cpu import replaykernel
from repro.cpu.machine import Machine
from repro.cpu.replaykernel import _outcome_key, kernel_eligible
from repro.cpu.trace import Access, Op
from repro.cpu.tracebuffer import TraceBuffer, as_finalized
from repro.geometry import SMALL_RCNVM_GEOMETRY, Geometry
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database
from repro.memsim.system import make_rcnvm
from repro.memsim.timing import LPDDR3_800_RCNVM


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
    # The kernel memoizes its outcome on the trace under the machine's
    # configuration; only a replay that took the kernel leaves one behind.
    db = _small_db()
    fin = _read_trace(db).finalize()
    db.reset_timing()
    assert kernel_eligible(db.machine, fin)
    db.machine.run(fin)
    assert _outcome_key(db.machine) in fin._kernel_cache

    plan = db.plan("UPDATE t SET f2 = 7 WHERE f1 > x", params={"x": 20})
    _result, buffer = db.executor.execute(plan)
    update = buffer.finalize()
    db.reset_timing()
    assert not kernel_eligible(db.machine, update)
    db.machine.run(update)
    assert _outcome_key(db.machine) not in update._kernel_cache


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
        # A repeat on a fresh machine commits the memoized outcome: it
        # runs no loop, and leaves the first replay's result and state.
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        first = db.machine.run(fin)
        first_state = simulator_state(db.machine)
        assert _outcome_key(db.machine) in fin._kernel_cache
        db.reset_timing()
        with mock.patch.object(
            replaykernel, "_simulate", wraps=replaykernel._simulate
        ) as simulate:
            assert db.machine.run(fin) == first
        simulate.assert_not_called()
        assert simulator_state(db.machine) == first_state


def _memo_accesses():
    """Row and column reads over both channels, every bank and three rows
    of each, each line read several times: with the 2-way L1 and L2
    below, repeats hit at every level, younger row hits bypass older
    conflicts in the controllers, and the column line at 0 crosses the
    row line at 0."""
    rng = random.Random(5)
    rows = [0] + [
        rng.randrange(8) << 21 | rng.randrange(3) << 12 | rng.randrange(64) << 6
        for _ in range(40)
    ]
    columns = [0] + [rng.randrange(1 << 18) << 6 for _ in range(15)]
    pool = [(Op.READ, address) for address in rows]
    pool += [(Op.CREAD, address) for address in columns]
    return [
        Access(op, address, 64, rng.randrange(4))
        for op, address in rng.choices(pool, k=200)
    ]


#: The base configuration of the outcome-memo tests: window, each level's
#: (bytes, ways, hit latency), one age cap per controller, device timing,
#: geometry and the synonym directory's geometry (None: no directory).
_BASE = dict(
    window=8,
    levels=((1024, 2, 4), (2048, 2, 12), (16384, 8, 38)),
    age_caps=(16, 16),
    timing=LPDDR3_800_RCNVM,
    geometry=SMALL_RCNVM_GEOMETRY,
    synonym=SMALL_RCNVM_GEOMETRY,
)

#: Machines that differ from ``_BASE`` in exactly one value the kernel
#: reads, so each must simulate again.
_KEYED = {
    "window": dict(window=4),
    "l1-size": dict(levels=((2048, 2, 4), (2048, 2, 12), (16384, 8, 38))),
    "l2-ways": dict(levels=((1024, 2, 4), (2048, 4, 12), (16384, 8, 38))),
    "l2-latency": dict(levels=((1024, 2, 4), (2048, 2, 20), (16384, 8, 38))),
    "llc-latency": dict(levels=((1024, 2, 4), (2048, 2, 12), (16384, 8, 50))),
    "age-cap": dict(age_caps=(16, 1)),
    # Fig. 22's latency sweep rescales the array read latency (tRCD).
    "device-timing": dict(timing=LPDDR3_800_RCNVM.scaled(40, 150)),
    # The same address bits and channels, decoded into four subarrays of
    # 128 rows (the synonym directory keeps the base geometry).
    "geometry": dict(geometry=Geometry(
        channels=2, ranks=1, banks=4, subarrays=4, rows=128, cols=512
    )),
    "no-synonym": dict(synonym=None),
}


def _memo_machine(machine_class=Machine, **changes):
    config = {**_BASE, **changes}
    memory = make_rcnvm(config["geometry"], timing=config["timing"])
    for ctrl, age_cap in zip(memory.controllers, config["age_caps"]):
        ctrl.age_cap = age_cap
    levels = [
        Cache(name, size, ways, latency)
        for name, (size, ways, latency) in zip(("L1", "L2", "L3"), config["levels"])
    ]
    synonym = None
    if config["synonym"] is not None:
        synonym = SynonymDirectory(AddressMapper(config["synonym"]))
    return machine_class(
        memory, CacheHierarchy(levels, synonym=synonym), window=config["window"]
    )


def _reference(accesses, **changes):
    machine = _memo_machine(PreciseMachine, **changes)
    return machine.run(accesses), simulator_state(machine)


class TestOutcomeMemo:
    """``run_kernel`` memoizes each outcome on the trace, keyed by every
    machine value the loop reads; a hit only commits the outcome."""

    def _replay(self, fin, **changes):
        """``Machine.run`` on a fresh machine: result, end state and the
        number of ``_simulate`` calls it made."""
        machine = _memo_machine(**changes)
        assert kernel_eligible(machine, fin)
        with mock.patch.object(
            replaykernel, "_simulate", wraps=replaykernel._simulate
        ) as simulate:
            result = machine.run(fin)
        return result, simulator_state(machine), simulate.call_count

    @pytest.mark.parametrize("change", sorted(_KEYED))
    def test_each_keyed_value_simulates_again(self, change):
        accesses = _memo_accesses()
        fin = as_finalized(accesses)
        self._replay(fin)
        result, state, simulated = self._replay(fin, **_KEYED[change])
        expected = _reference(accesses, **_KEYED[change])
        assert simulated == 1
        assert (result, state) == expected
        # The change matters on this trace, so a stale outcome would show.
        assert expected != _reference(accesses)

    def test_memo_holds_verdicts_and_packed_outcomes(self):
        # Two configurations, two outcomes; beside them only the
        # trace-shape verdicts.  No outcome holds a per-line Python list:
        # its only list is the synonym fills' [row, column] residency.
        fin = as_finalized(_memo_accesses())
        self._replay(fin)
        self._replay(fin, window=4)
        kinds = sorted(
            key if isinstance(key, str) else key[0] for key in fin._kernel_cache
        )
        assert kinds == ["llc_fits", "outcome", "outcome", "shape"]
        for key, outcome in fin._kernel_cache.items():
            if key[0] == "outcome":
                assert _lists_in(outcome) == [outcome.fills.resident]

    def test_llc_geometry_shares_the_outcome(self):
        # The LLC never evicts under the kernel and its build reads its
        # own set mask, so a bigger, wider LLC commits the same outcome.
        accesses = _memo_accesses()
        fin = as_finalized(accesses)
        self._replay(fin)
        wide = dict(levels=((1024, 2, 4), (2048, 2, 12), (65536, 16, 38)))
        result, state, simulated = self._replay(fin, **wide)
        assert simulated == 0
        assert (result, state) == _reference(accesses, **wide)

    def test_committed_state_does_not_alias_the_outcome(self):
        # Everything a hit leaves behind is new: mutating its result and
        # the state it committed changes neither the first result nor the
        # next hit.
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        first = db.machine.run(fin)
        expected = copy.deepcopy(first)
        db.reset_timing()
        hit = db.machine.run(fin)
        assert hit == expected
        hit.cycles += 1
        hit.memory["reads"] += 1
        hit.memory["latency_hist"].clear()
        hit.caches["L1"]["hits"] += 1
        hit.synonym["crossing_checks"] += 1
        for ctrl in db.memory.controllers:
            ctrl.stats.reads += 1
            ctrl.stats.buffer_hits += 1
            ctrl.stats.latency_hist.record(7)
            ctrl.stats.read_latency_hist.buckets[1] = 99
            next(ctrl._seq)
            for bank in ctrl.banks:
                bank.ready_at += 1
                bank.accesses += 1
                bank.activations += 1
        for level in db.hierarchy.levels:
            level.stats.hits += 1
        assert first == expected
        db.reset_timing()
        assert db.machine.run(fin) == expected
        assert [next(ctrl._seq) for ctrl in db.memory.controllers] == [
            ctrl.stats.reads for ctrl in db.memory.controllers
        ]
        assert simulator_state(db.machine) == _state_after(fin)


    def test_mutating_a_committed_snapshot_changes_no_stats(self):
        # A commit hands out copies of the outcome's memory snapshot,
        # nested histogram dicts included: mutating one changes neither a
        # controller's statistics nor the next commit's snapshot.
        db = _small_db()
        fin = _read_trace(db).finalize()
        db.reset_timing()
        first = db.machine.run(fin)
        expected = copy.deepcopy(first.memory)
        controllers = copy.deepcopy(
            [vars(ctrl.stats) for ctrl in db.memory.controllers]
        )
        first.memory["reads"] += 1
        first.memory["latency_hist"].clear()
        first.memory["read_latency_hist"][1] = 99
        db.memory.stats.latency_hist.record(7)
        assert [vars(ctrl.stats) for ctrl in db.memory.controllers] == controllers
        db.reset_timing()
        assert db.machine.run(fin).memory == expected


def _lists_in(value):
    """Every Python list inside ``value`` (tuples and dicts walked)."""
    if isinstance(value, list):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, tuple):
        return []
    return [found for item in value for found in _lists_in(item)]


def _state_after(fin):
    """The end state of a batched replay of ``fin`` on a fresh small db."""
    db = _small_db()
    db.reset_timing()
    db.machine._run_batched(fin)
    return simulator_state(db.machine)


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
