"""Tests for the multi-tenant serving front end (repro.serving).

Covers the tentpole pieces — arrival processes, tenant sessions, the
round-based simulator over ``MulticoreMachine.run_segmented``, fair-share
arbitration in the memory controllers, SLO reporting — plus the PR's
bugfix satellites:

* template-cache coherence when cached traces replay interleaved with
  another tenant's UPDATE (a cached read after a concurrent write must
  miss and see the new value);
* kernel-replay eligibility rejecting stream-tagged / multi-tenant
  state, with a fallback-equivalence oracle;
* starvation counters staying exact under cross-stream bypasses
  (stateful hypothesis model).
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.addressing import Orientation
from repro.cpu.machine import Machine
from repro.cpu.multicore import MulticoreMachine
from repro.cpu.replaykernel import _outcome_key, kernel_eligible
from repro.cpu.tracebuffer import TraceBuffer
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.harness.serve import build_tenants, run_serving, tenant_mix
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database
from repro.memsim.controller import ChannelController
from repro.memsim.request import MemRequest
from repro.memsim.timing import LPDDR3_800_RCNVM
from repro.serving import (
    ClosedLoop,
    OpenLoop,
    ServingSimulator,
    TenantSpec,
    make_arrivals,
)
from repro.serving.slo import fairness_ratio, slo_table


# -- arrival processes ---------------------------------------------------------
class TestArrivals:
    def test_open_loop_anchors_to_previous_arrival(self):
        process = OpenLoop(mean_gap=100, seed=1)
        first = process.next_arrival(0, 0)
        second = process.next_arrival(first, 999_999)
        assert second > first  # completion time ignored

    def test_closed_loop_anchors_to_previous_completion(self):
        process = ClosedLoop(mean_gap=100, seed=1)
        arrival = process.next_arrival(0, 5_000)
        assert arrival > 5_000

    def test_seeded_determinism(self):
        a = [OpenLoop(50, seed=7).next_arrival(i * 100, 0) for i in range(20)]
        b = [OpenLoop(50, seed=7).next_arrival(i * 100, 0) for i in range(20)]
        assert a == b
        c = [OpenLoop(50, seed=8).next_arrival(i * 100, 0) for i in range(20)]
        assert a != c

    def test_minimum_one_cycle_gap(self):
        process = OpenLoop(mean_gap=1, seed=0)
        prev = 0
        for _ in range(200):
            nxt = process.next_arrival(prev, 0)
            assert nxt >= prev + 1
            prev = nxt

    def test_make_arrivals_validates(self):
        assert make_arrivals("open", 10, 0).kind == "open"
        assert make_arrivals("closed", 10, 0).kind == "closed"
        with pytest.raises(ValueError):
            make_arrivals("batch", 10, 0)
        with pytest.raises(ValueError):
            make_arrivals("open", 0, 0)


class TestTenantSpec:
    def test_rejects_stream_zero(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", stream=0, statements=[("SELECT", {}, None)])

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", stream=1, statements=[("SELECT", {}, None)],
                       arrival="bursty")

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", stream=1, statements=[])


# -- the serving simulator -----------------------------------------------------
def _serving_db(scale=0.05, **sched_kwargs):
    from repro.workloads.suite import build_benchmark_database

    memory = build_system("RC-NVM", small=True, **sched_kwargs)
    db = build_benchmark_database(memory, scale=scale,
                                  cache_config=SMALL_CACHE_CONFIG)
    machine = MulticoreMachine(memory, n_cores=4, l1_kib=4, llc_kib=128)
    return db, machine


def _four_tenants(n_statements=4, mean_gap=20_000):
    return build_tenants(4, arrival="mixed", mean_gap=mean_gap,
                         n_statements=n_statements, seed=1)


class TestServingSimulator:
    def test_four_tenants_open_and_closed_all_complete(self):
        db, machine = _serving_db()
        report = ServingSimulator(db, machine, _four_tenants()).run()
        assert len(report.tenants) == 4
        kinds = {t["arrival"] for t in report.tenants}
        assert kinds == {"open", "closed"}
        for tenant in report.tenants:
            assert tenant["completed"] == 4
            assert tenant["p50_cycles"] > 0
            assert tenant["p99_cycles"] >= tenant["p50_cycles"]
            assert tenant["throughput_per_mcycle"] > 0
        assert report.statements == 16
        assert report.makespan > 0

    def test_deterministic_across_runs(self):
        reports = []
        for _ in range(2):
            db, machine = _serving_db()
            reports.append(
                ServingSimulator(db, machine, _four_tenants()).run().to_dict()
            )
        assert reports[0] == reports[1]

    def test_no_tenant_starved_fairness_bounded(self):
        db, machine = _serving_db()
        report = ServingSimulator(db, machine, _four_tenants()).run()
        assert report.fairness != float("inf")
        assert report.fairness <= 3.0

    def test_admission_control_sheds_under_overload(self):
        db, machine = _serving_db()
        # Open-loop tenants flooding at ~1-cycle gaps against depth 2.
        tenants = build_tenants(4, arrival="open", mean_gap=1,
                                n_statements=12, seed=3)
        sim = ServingSimulator(db, machine, tenants, admission_depth=2)
        report = sim.run()
        assert report.shed > 0
        for tenant in report.tenants:
            assert tenant["completed"] + tenant["shed"] == tenant["issued"]

    def test_per_stream_tallies_cover_all_tenants(self):
        db, machine = _serving_db()
        report = ServingSimulator(db, machine, _four_tenants()).run()
        assert set(report.streams) == {1, 2, 3, 4}
        for stream_stats in report.streams.values():
            assert stream_stats["accesses"] > 0
            assert 0.0 <= stream_stats["hit_rate"] <= 1.0

    def test_rejects_duplicate_streams_and_mismatched_memory(self):
        db, machine = _serving_db()
        tenants = _four_tenants()
        dup = tenants[:3] + [TenantSpec(
            name="dup", stream=1, statements=tenants[0].statements)]
        with pytest.raises(ValueError):
            ServingSimulator(db, machine, dup)
        other_db, _ = _serving_db()
        with pytest.raises(ValueError):
            ServingSimulator(other_db, machine, tenants)

    def test_slo_table_renders_every_tenant(self):
        db, machine = _serving_db()
        report = ServingSimulator(db, machine, _four_tenants()).run()
        text = slo_table(report.tenants)
        for tenant in report.tenants:
            assert tenant["tenant"] in text

    def test_fairness_ratio_flags_starvation(self):
        reports = [{"throughput_per_mcycle": 10.0},
                   {"throughput_per_mcycle": 0.0}]
        assert fairness_ratio(reports) == float("inf")
        assert fairness_ratio([]) == 1.0
        assert fairness_ratio(
            [{"throughput_per_mcycle": 0.0}, {"throughput_per_mcycle": 0.0}]
        ) == 1.0


class TestServeHarness:
    def test_run_serving_beats_global_fifo_hit_rate(self):
        result = run_serving(scale=0.05, n_tenants=4, mean_gap=10_000,
                             n_statements=4, small=True)
        # The fair-share arbiter must not cost row-buffer locality
        # relative to the global-FIFO baseline (the opportunistic-hit
        # path is what keeps this true).
        assert result["hit_rate_delta"] >= -0.005
        assert result["report"]["fairness"] <= 3.0

    def test_tenant_mix_includes_writes_by_default(self):
        mix = tenant_mix(0)
        assert any(sql.startswith("UPDATE") for sql, _p, _h in mix)
        assert not any(
            sql.startswith("UPDATE") for sql, _p, _h in tenant_mix(0, writes=False)
        )

    def test_smoke_passes_and_fails_on_planted_shedding(self, monkeypatch, capsys):
        from repro.harness import cli, serve

        assert cli.main(["serve", "--smoke"]) == 0
        assert "SMOKE OK" in capsys.readouterr().out

        def shedding(*args, **kwargs):
            result = run_serving(*args, **kwargs)
            result["report"]["shed"] = 3
            return result

        monkeypatch.setattr(serve, "run_serving", shedding)
        assert cli.main(["serve", "--smoke"]) == 1
        assert "shed 3 statements" in capsys.readouterr().err


# -- run_segmented -------------------------------------------------------------
class TestRunSegmented:
    def _db(self):
        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i * 3) for i in range(64)])
        return db

    def _trace(self, db):
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > x", params={"x": 5})
        _result, trace = db.executor.execute(plan)
        return trace

    def test_segment_ends_recorded_per_token(self):
        db = self._db()
        trace = self._trace(db)
        db.reset_timing()
        machine = MulticoreMachine(db.memory, n_cores=2, l1_kib=4, llc_kib=128)
        result = machine.run_segmented(
            [[(trace, 1, "a"), (trace, 1, "b")], [(trace, 2, "c")]]
        )
        assert set(result.segment_ends) == {"a", "b", "c"}
        # Segments on one core finish in queue order.
        assert result.segment_ends["b"] > result.segment_ends["a"]

    def test_base_clocks_offsets_the_time_domain(self):
        db = self._db()
        trace = self._trace(db)
        db.reset_timing()
        machine = MulticoreMachine(db.memory, n_cores=1, l1_kib=4, llc_kib=128)
        base = machine.run_segmented([[(trace, 1, "x")]]).segment_ends["x"]
        db.reset_timing()
        machine = MulticoreMachine(db.memory, n_cores=1, l1_kib=4, llc_kib=128)
        offset = machine.run_segmented(
            [[(trace, 1, "x")]], base_clocks=10_000
        ).segment_ends["x"]
        assert offset == base + 10_000

    def test_callback_fires_in_completion_order(self):
        db = self._db()
        trace = self._trace(db)
        db.reset_timing()
        machine = MulticoreMachine(db.memory, n_cores=2, l1_kib=4, llc_kib=128)
        seen = []
        machine.run_segmented(
            [[(trace, 1, "a")], [(trace, 2, "b")]],
            on_segment=lambda core, token, clock: seen.append((token, clock)),
        )
        assert {token for token, _clock in seen} == {"a", "b"}


# -- satellite 1: template cache vs. interleaved tenants -----------------------
class TestTemplateCacheMultiTenant:
    def _db(self):
        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG,
                      template_cache=True)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i * 3) for i in range(32)])
        return db

    SQL = "SELECT SUM(f2) FROM t WHERE f1 > x"

    def test_cached_read_misses_after_concurrent_tenant_update(self):
        db = self._db()
        cache = db.template_cache
        first = db.execute(self.SQL, params={"x": 0}, simulate=False, stream=1)
        assert cache.stats.misses == 1
        again = db.execute(self.SQL, params={"x": 0}, simulate=False, stream=1)
        assert cache.stats.hits == 1  # warm: same tenant, no writers
        assert again.result.value == first.result.value
        # A different tenant's UPDATE lands between tenant 1's statements.
        db.execute("UPDATE t SET f2 = 1000 WHERE f1 = 3",
                   simulate=False, stream=2)
        hits_before = cache.stats.hits
        after = db.execute(self.SQL, params={"x": 0}, simulate=False, stream=1)
        # The content-version check must reject the cached binding: a hit
        # here would serve the stale pre-UPDATE sum.
        assert cache.stats.hits == hits_before
        assert cache.stats.invalidations >= 1
        expected = sum(i * 3 for i in range(32) if i > 0) - 9 + 1000
        assert after.result.value == expected

    def test_cached_trace_replay_on_multicore_keeps_stream_tag(self):
        db = self._db()
        warm = db.execute(self.SQL, params={"x": 0}, simulate=False, stream=1)
        cached = db.execute(self.SQL, params={"x": 0}, simulate=False, stream=7)
        assert db.template_cache.stats.hits == 1
        db.reset_timing()
        db.memory.enable_stream_tracking()
        machine = MulticoreMachine(db.memory, n_cores=1, l1_kib=4, llc_kib=128)
        # The shared cached trace replays under tenant 7's tag: the tag
        # must ride the replay, not the stored trace.
        machine.run_segmented([[(cached.trace, 7, "q")]])
        streams = db.memory.stream_snapshot()
        assert set(streams) <= {0, 7}  # 0 = untagged writebacks only
        assert streams[7]["accesses"] > 0
        assert warm.result.rows == cached.result.rows


# -- satellite 2: kernel-replay gate under multi-tenancy -----------------------
class TestKernelGateMultiTenant:
    def _db(self):
        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i * 3) for i in range(32)])
        return db

    def _fin(self, db):
        plan = db.plan("SELECT SUM(f2) FROM t WHERE f1 > x", params={"x": 10})
        _result, trace = db.executor.execute(plan)
        fin = trace.finalize()
        db.reset_timing()
        return fin

    def test_stream_tagged_trace_is_ineligible(self):
        db = self._db()
        fin = self._fin(db)
        assert kernel_eligible(db.machine, fin)  # untagged: eligible
        fin.stream = 3
        assert not kernel_eligible(db.machine, fin)
        fin.stream = 0
        # Replay-time override rejects too, even on an untagged trace.
        assert not kernel_eligible(db.machine, fin, stream=5)

    def test_stream_tracking_controller_is_ineligible(self):
        db = self._db()
        fin = self._fin(db)
        db.memory.enable_stream_tracking()
        assert not kernel_eligible(db.machine, fin)
        db.memory.enable_stream_tracking(False)
        assert kernel_eligible(db.machine, fin)

    def test_queued_foreign_stream_state_is_ineligible(self):
        db = self._db()
        fin = self._fin(db)
        ctrl = db.memory.controllers[0]
        req = MemRequest(channel=0, rank=0, bank=0, subarray=0, row=0, col=0,
                         orientation=Orientation.ROW, is_write=False,
                         arrival=0, stream=2)
        ctrl.submit(req)
        assert not kernel_eligible(db.machine, fin)
        ctrl.drain()
        ctrl.reset()
        db.reset_timing()
        assert kernel_eligible(db.machine, fin)

    def test_kernel_mode_falls_back_to_batched_equivalence(self):
        """Equivalence oracle: a tagged trace must replay identically to
        the batched path (the gate forces the fallback), and never
        through the kernel."""
        db = self._db()
        fin = self._fin(db)
        fin.stream = 4
        replayed = db.machine.run(fin)
        assert _outcome_key(db.machine) not in fin._kernel_cache
        db.reset_timing()
        assert replayed == db.machine._run_batched(fin, stream=4)

    def test_untagged_kernel_still_used(self):
        db = self._db()
        fin = self._fin(db)
        assert kernel_eligible(db.machine, fin)
        db.machine.run(fin)
        assert _outcome_key(db.machine) in fin._kernel_cache


# -- satellite 3: starvation counters under cross-stream bypass ----------------
def _recount_starved(queues, age_cap):
    return sum(
        1 for queue in queues for entry in queue if entry.bypassed >= age_cap
    )


class StarvationCounterModel(RuleBasedStateMachine):
    """Multi-stream traffic through one controller, checking after every
    step that the class starvation counters exactly equal a recount over
    the queues — no leak (counter > reality, which would force needless
    cap picks) and no loss (counter < reality, which would starve the
    age-cap bypass)."""

    def __init__(self):
        super().__init__()
        self.pending = []
        self.now = 0

    @initialize(
        age_cap=st.integers(1, 5),
        quantum=st.integers(1, 4),
        page_policy=st.sampled_from(ChannelController.PAGE_POLICIES),
    )
    def setup(self, age_cap, quantum, page_policy):
        self.controller = ChannelController(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            queue_depth=6, policy="frfcfs", page_policy=page_policy,
            age_cap=age_cap, stream_quantum=quantum, track_streams=True,
            adaptive_threshold=2,
        )

    @rule(
        bank=st.integers(0, 3),
        row=st.integers(0, 3),
        col=st.integers(0, 3),
        stream=st.integers(0, 3),
        is_write=st.booleans(),
        gap=st.integers(0, 40),
    )
    def submit(self, bank, row, col, stream, is_write, gap):
        self.now += gap
        req = MemRequest(
            channel=0, rank=0, bank=bank, subarray=0, row=row, col=col,
            orientation=Orientation.ROW, is_write=is_write,
            arrival=self.now, stream=stream,
        )
        self.controller.submit(req)
        self.pending.append(req)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def resolve_one(self, data):
        index = data.draw(st.integers(0, len(self.pending) - 1))
        req = self.pending.pop(index)
        completion = self.controller.completion_of(req)
        assert completion is not None

    @rule()
    def drain(self):
        self.controller.drain()
        self.pending.clear()
        assert not self.controller.pending
        assert self.controller._starved_reads == 0
        assert self.controller._starved_writes == 0

    @invariant()
    def counters_match_recount(self):
        if not hasattr(self, "controller"):
            return  # before @initialize
        ctrl = self.controller
        assert ctrl._starved_reads == _recount_starved(
            ctrl.read_queues, ctrl.age_cap
        )
        assert ctrl._starved_writes == _recount_starved(
            ctrl.write_queues, ctrl.age_cap
        )
        assert ctrl._starved_reads >= 0
        assert ctrl._starved_writes >= 0
        # The age-cap bound survives fair-share bypassing.
        assert ctrl.stats.max_bypass <= ctrl.age_cap
        # Per-class per-stream pending counts mirror the queues.
        for streams, queues in (
            (ctrl._read_streams, ctrl.read_queues),
            (ctrl._write_streams, ctrl.write_queues),
        ):
            recount = {}
            for queue in queues:
                for entry in queue:
                    key = entry.req.stream
                    recount[key] = recount.get(key, 0) + 1
            assert streams == recount


TestStarvationCounters = StarvationCounterModel.TestCase
TestStarvationCounters.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


# -- fair-share arbiter unit behavior ------------------------------------------
class TestFairShareArbiter:
    def _controller(self, **kwargs):
        config = dict(
            queue_depth=16, policy="frfcfs", page_policy="open",
            age_cap=8, stream_quantum=2, track_streams=True,
        )
        config.update(kwargs)
        return ChannelController(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            **config,
        )

    def _req(self, bank, row, col, stream, arrival=0):
        return MemRequest(channel=0, rank=0, bank=bank, subarray=0, row=row,
                          col=col, orientation=Orientation.ROW, is_write=False,
                          arrival=arrival, stream=stream)

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            self._controller(stream_quantum=0)

    def test_two_streams_rotate(self):
        ctrl = self._controller()
        for i in range(6):
            ctrl.submit(self._req(0, 0, i, stream=1))
            ctrl.submit(self._req(0, 1, i, stream=2))
        ctrl.drain()
        assert ctrl.stats.stream_rotations > 0
        snapshot = ctrl.stream_snapshot()
        assert snapshot[1]["reads"] == 6
        assert snapshot[2]["reads"] == 6

    def test_single_stream_path_spends_no_credit(self):
        ctrl = self._controller()
        for i in range(8):
            ctrl.submit(self._req(0, 0, i, stream=1))
        ctrl.drain()
        assert ctrl.stats.stream_rotations == 0
        assert ctrl.stats.cross_stream_bypasses == 0
        assert ctrl._stream_credit[1] == ctrl.stream_quantum

    def test_opportunistic_hit_skips_conflicting_turn(self):
        ctrl = self._controller(stream_quantum=1)
        # Stream 1 keeps hitting row 0; stream 2 queues conflicts on row 1.
        for i in range(8):
            ctrl.submit(self._req(0, 0, i, stream=1))
            ctrl.submit(self._req(0, 1, i, stream=2))
        ctrl.drain()
        assert ctrl.stats.opportunistic_stream_hits > 0
        # Both streams fully served regardless.
        snapshot = ctrl.stream_snapshot()
        assert snapshot[1]["reads"] == snapshot[2]["reads"] == 8

    def test_stream_snapshot_totals_match_global_stats(self):
        ctrl = self._controller()
        for i in range(5):
            ctrl.submit(self._req(i % 4, i % 2, i, stream=1 + i % 3))
        ctrl.drain()
        snapshot = ctrl.stream_snapshot()
        assert sum(s["reads"] for s in snapshot.values()) == ctrl.stats.reads
        assert sum(s["buffer_hits"] for s in snapshot.values()) \
            == ctrl.stats.buffer_hits

    def test_reset_clears_fair_share_state(self):
        ctrl = self._controller()
        ctrl.submit(self._req(0, 0, 0, stream=1))
        ctrl.submit(self._req(0, 0, 1, stream=2))
        ctrl.drain()
        ctrl.reset()
        assert ctrl._stream_order == []
        assert ctrl._stream_credit == {}
        assert ctrl._read_streams == {}
        assert ctrl.stream_stats == {}


# -- system-level stream plumbing ----------------------------------------------
class TestStreamPlumbing:
    def test_database_threads_stream_to_tallies(self):
        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(32)])
        memory.enable_stream_tracking()
        db.execute("SELECT SUM(f2) FROM t WHERE f1 > x", params={"x": 0},
                   stream=9)
        streams = memory.stream_snapshot()
        assert 9 in streams
        assert streams[9]["accesses"] > 0

    def test_stream_zero_untracked_streams_single_path(self):
        memory = build_system("RC-NVM", small=True)
        db = Database(memory, cache_config=SMALL_CACHE_CONFIG)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="row")
        db.insert_many("t", [(i, i) for i in range(32)])
        tagged = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                            params={"x": 0}, stream=3)
        untagged = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                              params={"x": 0})
        # One stream at a time: the fair-share arbiter must not perturb
        # single-stream timing regardless of the tag value.
        assert tagged.timing.cycles == untagged.timing.cycles
