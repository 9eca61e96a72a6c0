"""Model-based (stateful) property tests.

Three critical stateful components are checked against trivially-correct
Python models under random operation sequences:

* the set-associative LRU cache against a dict-of-lists model;
* the MESI directory against a single-writer/multi-reader ownership
  model;
* the per-bank-queue channel scheduler against a flat-list oracle that
  implements the same scheduling spec directly over one submission-order
  list (no per-bank bookkeeping, no incremental occupancy counters).
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.coherence import Mesi, MesiDirectory
from repro.cache.line import line_key
from repro.core.addressing import Orientation
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.memsim.bank import Bank
from repro.memsim.controller import ChannelController
from repro.memsim.request import MemRequest
from repro.memsim.stats import MemoryStats
from repro.memsim.timing import LPDDR3_800_RCNVM

KEYS = [line_key(i * 64, Orientation.ROW) for i in range(24)]


class LruCacheModel(RuleBasedStateMachine):
    """A 4-set x 2-way cache vs. an explicit per-set LRU list."""

    def __init__(self):
        super().__init__()
        self.cache = Cache("model", size_bytes=8 * 64, ways=2, hit_latency=1)
        self.model = {s: [] for s in range(self.cache.num_sets)}

    def _set_of(self, key):
        return key & (self.cache.num_sets - 1)

    @rule(key=st.sampled_from(KEYS))
    def lookup(self, key):
        line = self.cache.lookup(key)
        model_set = self.model[self._set_of(key)]
        if key in model_set:
            assert line is not None
            model_set.remove(key)
            model_set.append(key)  # most recently used at the back
        else:
            assert line is None

    @rule(key=st.sampled_from(KEYS))
    def install(self, key):
        _line, victim = self.cache.install(key)
        model_set = self.model[self._set_of(key)]
        if key in model_set:
            assert victim is None
            model_set.remove(key)
            model_set.append(key)
            return
        if len(model_set) >= self.cache.ways:
            expected_victim = model_set.pop(0)  # least recently used
            assert victim is not None and victim.key == expected_victim
        else:
            assert victim is None
        model_set.append(key)

    @rule(key=st.sampled_from(KEYS))
    def invalidate(self, key):
        line = self.cache.invalidate(key)
        model_set = self.model[self._set_of(key)]
        if key in model_set:
            assert line is not None
            model_set.remove(key)
        else:
            assert line is None

    @rule()
    def clear(self):
        self.cache.clear()
        self.model = {s: [] for s in self.model}

    @invariant()
    def contents_match(self):
        for set_index, model_set in self.model.items():
            actual = list(self.cache.sets[set_index])
            assert actual == model_set
        # The filled-set walks: ascending set index, then LRU order.
        expected = [key for s in sorted(self.model) for key in self.model[s]]
        assert [line.key for line in self.cache.resident_lines()] == expected
        assert self.cache.occupancy() == len(expected)


class MesiModel(RuleBasedStateMachine):
    """3 cores over a directory vs. an ownership model.

    Model state per line: either a single writer (one core, dirty rights)
    or a reader set.  Uses a big LLC and big privates so capacity
    evictions never interfere (protocol transitions only)."""

    def __init__(self):
        super().__init__()
        privates = [Cache(f"L1-{c}", 64 * 64, 8, 1) for c in range(3)]
        llc = Cache("LLC", 512 * 64, 8, 1)
        self.directory = MesiDirectory(privates, llc)
        self.readers = {}  # key -> set of cores
        self.writer = {}  # key -> core or None

    @rule(core=st.integers(0, 2), key=st.sampled_from(KEYS))
    def read(self, core, key):
        self.directory.read(core, key)
        holders = self.readers.setdefault(key, set())
        holders.add(core)
        self.writer[key] = None if len(holders) > 1 or self.writer.get(key) != core else core

    @rule(core=st.integers(0, 2), key=st.sampled_from(KEYS))
    def write(self, core, key):
        self.directory.write(core, key)
        self.readers[key] = {core}
        self.writer[key] = core

    @invariant()
    def protocol_invariants_hold(self):
        for key in KEYS:
            self.directory.check_invariants(key)

    @invariant()
    def writers_match_model(self):
        for key, writer in self.writer.items():
            if writer is not None:
                assert self.directory.state_of(writer, key) is Mesi.MODIFIED
                for other in range(3):
                    if other != writer:
                        assert self.directory.state_of(other, key) is None

    @invariant()
    def readers_match_model(self):
        for key, holders in self.readers.items():
            for core in holders:
                assert self.directory.state_of(core, key) is not None


class FlatListOracle:
    """Brute-force scheduler reference: one flat submission-order list.

    Implements the ChannelController scheduling spec as directly as
    possible — every decision scans the whole list — so any divergence in
    the controller's per-bank queues, incremental occupancy counts, or
    drain bookkeeping shows up as a completion-time mismatch."""

    def __init__(self, geometry, timing, supports_column, queue_depth,
                 policy, page_policy, age_cap, drain_high, drain_low,
                 adaptive_threshold):
        self.geometry = geometry
        self.timing = timing
        self.queue_depth = queue_depth
        self.policy = policy
        self.page_policy = page_policy
        self.age_cap = age_cap
        self.drain_high_count = max(1, int(queue_depth * drain_high))
        self.drain_low_count = int(queue_depth * drain_low)
        self.adaptive_threshold = adaptive_threshold
        n_banks = geometry.ranks * geometry.banks
        self.banks = [Bank(timing, supports_column) for _ in range(n_banks)]
        self.pending = []  # [request, bypass_count] in submission order
        self.draining = False
        self.streaks = [0] * n_banks
        self.last_closed = [None] * n_banks
        self.bus_free = 0
        self.stats = MemoryStats()

    def _bank_index(self, req):
        return req.rank * self.geometry.banks + req.bank

    def submit(self, req):
        self.pending.append([req, 0])
        while (len([e for e in self.pending if not e[0].is_write]) > self.queue_depth
               or len([e for e in self.pending if e[0].is_write]) > self.queue_depth):
            self._step()

    def completion_of(self, req):
        while req.completion is None:
            self._step()
        return req.completion

    def drain(self):
        last = self.bus_free
        while self.pending:
            last = self._step()
        return last

    def _candidates(self):
        if self.policy == "fcfs":
            return self.pending
        writes = [e for e in self.pending if e[0].is_write]
        if self.draining:
            if len(writes) <= self.drain_low_count:
                self.draining = False
        elif len(writes) >= self.drain_high_count:
            self.draining = True
        if self.draining:
            return writes
        reads = [e for e in self.pending if not e[0].is_write]
        return reads if reads else writes

    def _step(self):
        candidates = self._candidates()  # submission order preserved
        if self.policy == "fcfs":
            entry = candidates[0]
        else:
            starved = [e for e in candidates if e[1] >= self.age_cap]
            if starved:
                entry = starved[0]
            else:
                ready = [
                    e for e in candidates
                    if self.banks[self._bank_index(e[0])].matches(e[0])
                ]
                entry = ready[0] if ready else candidates[0]
                for other in candidates:
                    if other is entry:
                        break
                    other[1] += 1
        self.pending.remove(entry)
        req = entry[0]
        bank_index = self._bank_index(req)
        bank = self.banks[bank_index]
        stats = self.stats
        hit0, conflict0, switch0 = (stats.buffer_hits, stats.buffer_conflicts,
                                    stats.orientation_switches)
        _start, data_at = bank.prepare(req, stats)
        end = max(data_at, self.bus_free) + self.timing.burst_cpu
        self.bus_free = end
        req.completion = end
        if self.page_policy == "closed":
            bank.flush(stats, 0)
        elif self.page_policy == "adaptive":
            streak = self.streaks[bank_index]
            if stats.buffer_hits > hit0:
                streak = 0
                self.last_closed[bank_index] = None
            elif stats.buffer_conflicts > conflict0:
                weight = 2 if stats.orientation_switches > switch0 else 1
                streak = min(self.adaptive_threshold, streak + weight)
            else:
                wanted = (req.buffer_kind, req.subarray, req.buffer_index)
                if wanted == self.last_closed[bank_index]:
                    streak = 0
            if streak >= self.adaptive_threshold:
                self.last_closed[bank_index] = (
                    bank.open_kind, bank.open_subarray, bank.open_index
                )
                bank.flush(stats, 0)
            self.streaks[bank_index] = streak
        return end


def _mirrored_request(bank, row, col, orientation, is_write, arrival):
    """Two identical requests, one per implementation under test."""
    return [
        MemRequest(channel=0, rank=0, bank=bank, subarray=0, row=row,
                   col=col, orientation=orientation, is_write=is_write,
                   arrival=arrival)
        for _ in range(2)
    ]


class SchedulerVsOracle(RuleBasedStateMachine):
    """The per-bank-queue controller vs. the flat-list oracle, under the
    same operation sequence: all policies x row/column/gather requests."""

    def __init__(self):
        super().__init__()
        self.pairs = []
        self.now = 0

    @initialize(
        policy=st.sampled_from(ChannelController.POLICIES),
        page_policy=st.sampled_from(ChannelController.PAGE_POLICIES),
        age_cap=st.integers(1, 5),
    )
    def setup(self, policy, page_policy, age_cap):
        config = dict(
            queue_depth=5, policy=policy, page_policy=page_policy,
            age_cap=age_cap, drain_high=0.6, drain_low=0.2,
            adaptive_threshold=2,
        )
        self.controller = ChannelController(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            **config,
        )
        self.oracle = FlatListOracle(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            **config,
        )

    @rule(
        bank=st.integers(0, 3),
        row=st.integers(0, 3),
        col=st.integers(0, 3),
        orientation=st.sampled_from([Orientation.ROW, Orientation.COLUMN,
                                     Orientation.GATHER]),
        is_write=st.booleans(),
        gap=st.integers(0, 50),
    )
    def submit(self, bank, row, col, orientation, is_write, gap):
        self.now += gap
        for_ctrl, for_oracle = _mirrored_request(
            bank, row, col, orientation, is_write, self.now
        )
        self.pairs.append((for_ctrl, for_oracle))
        self.controller.submit(for_ctrl)
        self.oracle.submit(for_oracle)

    @precondition(lambda self: self.pairs)
    @rule(data=st.data())
    def resolve_one(self, data):
        index = data.draw(st.integers(0, len(self.pairs) - 1))
        for_ctrl, for_oracle = self.pairs[index]
        assert (self.controller.completion_of(for_ctrl)
                == self.oracle.completion_of(for_oracle))

    @rule()
    def drain(self):
        assert self.controller.drain() == self.oracle.drain()

    @invariant()
    def queues_and_completions_agree(self):
        if not hasattr(self, "controller"):
            return  # before @initialize ran
        assert len(self.controller.pending) == len(self.oracle.pending)
        for for_ctrl, for_oracle in self.pairs:
            assert for_ctrl.completion == for_oracle.completion


TestLruCacheModel = LruCacheModel.TestCase
TestLruCacheModel.settings = settings(max_examples=40, stateful_step_count=40,
                                      deadline=None)
TestMesiModel = MesiModel.TestCase
TestMesiModel.settings = settings(max_examples=30, stateful_step_count=30,
                                  deadline=None)
TestSchedulerVsOracle = SchedulerVsOracle.TestCase
TestSchedulerVsOracle.settings = settings(max_examples=40,
                                          stateful_step_count=40,
                                          deadline=None)
