"""Observability layer: span tracer, metrics registry, query profiling.

Covers the three contracts the layer makes:

* **zero cost when disabled** — with no tracer installed the span hook
  returns a shared stateless no-op, the instrumented code never computes
  metric values, and span count is O(1) per query, never O(accesses);
* **faithful when enabled** — the exported span tree's simulated totals
  equal the run result's (the acceptance check: root span cycles ==
  the MemoryStats-backed run cycles), and the Chrome-trace export is
  structurally valid Trace Event Format;
* **stats migration is invisible** — every ``INSTRUMENTS`` declaration
  mirrors its dataclass's fields exactly, so ``snapshot()`` keys are
  unchanged and registry reads track the live stats objects across
  ``reset_timing()``.
"""

import json

import pytest

from conftest import make_database, simple_rows
from repro.cache.stats import CacheStats, SynonymStats
from repro.memsim.stats import LatencyHistogram, MemoryStats
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry, bind_stats, registry_for_database


# -- tracer -------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        assert obs.active() is None
        sp = obs.span("anything", attr=1)
        assert sp is obs.NULL_SPAN
        assert not sp.enabled
        with sp as inner:
            inner.set(cycles=123)  # must be a silent no-op

    def test_tracing_builds_a_nested_tree(self):
        with obs.tracing() as tracer:
            with obs.span("query", sql="SELECT 1") as root:
                assert root.enabled
                assert tracer.current is root
                with obs.span("plan"):
                    pass
                with obs.span("operator") as op:
                    op.set(accesses=7)
        assert obs.active() is None
        assert [r.name for r in tracer.roots] == ["query"]
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["plan", "operator"]
        assert root.children[1].metrics == {"accesses": 7}
        assert root.wall_seconds >= root.children[0].wall_seconds

    def test_tracing_restores_previous_tracer(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_install_uninstall(self):
        tracer = obs.install()
        try:
            assert obs.active() is tracer
            with obs.span("s"):
                pass
            assert tracer.roots[0].name == "s"
        finally:
            obs.uninstall()
        assert obs.active() is None

    def test_to_dict_schema(self):
        with obs.tracing() as tracer:
            with obs.span("query", system="RC-NVM") as sp:
                sp.set(cycles=10)
                with obs.span("plan"):
                    pass
        exported = tracer.roots[0].to_dict()
        assert set(exported) == {"name", "wall_ms", "attrs", "metrics", "children"}
        assert exported["name"] == "query"
        assert exported["attrs"] == {"system": "RC-NVM"}
        assert exported["metrics"] == {"cycles": 10}
        assert exported["wall_ms"] >= 0
        assert [c["name"] for c in exported["children"]] == ["plan"]
        json.dumps(exported)  # JSON-ready, no further conversion needed

    def test_walk_and_find(self):
        with obs.tracing() as tracer:
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c"]
        assert root.find("c").name == "c"
        assert root.find("missing") is None

    def test_chrome_trace_format(self):
        """Every event is a complete ("X") event with the Trace Event
        Format's required fields, child intervals nest inside parents."""
        with obs.tracing() as tracer:
            with obs.span("query"):
                with obs.span("machine.run"):
                    pass
            with obs.span("query"):
                pass
        trace = tracer.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        by_name = {e["name"]: e for e in events}
        parent = min((e for e in events if e["name"] == "query"),
                     key=lambda e: e["ts"])
        child = by_name["machine.run"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        json.dumps(trace)


# -- metrics registry ----------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_increments_and_rejects_decrease(self):
        registry = MetricsRegistry()
        c = registry.counter("requests", {"system": "DRAM"})
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
        h = registry.histogram("latency")
        for v in (1, 2, 200):
            h.record(v)
        assert h.value == 3
        assert h.percentile(100) >= 200
        assert h.to_dict() == LatencyHistogram.to_dict(h.hist)

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        a = registry.counter("m", {"x": 1, "y": 2})
        b = registry.get("m", {"y": 2, "x": 1})
        assert a is b
        assert registry.get("m", {"x": 1}) is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_source_backed_is_read_only(self):
        registry = MetricsRegistry()
        stats = MemoryStats(reads=9)
        c = registry.counter("memory.reads", source=lambda: stats.reads)
        assert c.value == 9
        with pytest.raises(TypeError):
            c.inc()

    def test_collect_and_top(self):
        registry = MetricsRegistry()
        registry.counter("big").inc(100)
        registry.counter("small").inc(2)
        registry.gauge("mid").set(50)
        registry.counter("zero")  # zero-valued: excluded from top()
        samples = registry.collect()
        assert [s.name for s in samples] == ["big", "mid", "small", "zero"]
        top = registry.top(2)
        assert [(s.name, s.value) for s in top] == [("big", 100), ("mid", 50)]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("m", {"ch": 0}).inc(3)
        registry.histogram("h").record(5)
        snap = registry.snapshot()
        assert snap["m"] == {"ch=0": 3}
        assert snap["h"] == {"": {7: 1}}


# -- stats migration -----------------------------------------------------------
class TestInstrumentDeclarations:
    @pytest.mark.parametrize("cls", [MemoryStats, CacheStats, SynonymStats])
    def test_instruments_mirror_dataclass_fields(self, cls):
        """The registry migration must cover every field and invent none,
        so the public snapshot() keys cannot drift."""
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(cls)}
        assert set(cls.INSTRUMENTS) == field_names
        assert set(cls.INSTRUMENTS.values()) <= set(obs_metrics.KINDS)

    def test_memory_stats_snapshot_keys_unchanged(self):
        snap = MemoryStats().snapshot()
        for name in MemoryStats.INSTRUMENTS:
            assert name in snap
        # Derived values stay in the snapshot alongside the raw fields.
        for derived in ("accesses", "buffer_miss_rate", "average_latency",
                        "latency_p50"):
            assert derived in snap

    def test_bind_stats_reads_live_object_across_replacement(self):
        holder = {"stats": MemoryStats(reads=5)}
        registry = MetricsRegistry()
        bind_stats(registry, lambda: holder["stats"], "memory")
        counter = registry.get("memory.reads")
        assert counter.value == 5
        holder["stats"] = MemoryStats(reads=11)  # what reset() does
        assert counter.value == 11

    def test_registry_for_database_tracks_simulation(self):
        db = make_database("RC-NVM", verify=False)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="column")
        db.insert_many("t", simple_rows(64, fields=2))
        registry = registry_for_database(db)
        outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                             params={"x": 10})
        stats = db.memory.stats
        reads = registry.get("memory.reads",
                             {"system": "RC-NVM", "channel": 0})
        assert reads.value == stats.reads > 0
        oriented = registry.get(
            "memory.oriented",
            {"system": "RC-NVM", "channel": 0, "orientation": "column"},
        )
        assert oriented.value == stats.col_oriented
        l1 = registry.get("cache.misses", {"system": "RC-NVM", "level": "L1"})
        assert l1.value == db.hierarchy.levels[0].stats.misses > 0
        hist = registry.get("memory.latency_hist",
                            {"system": "RC-NVM", "channel": 0})
        assert hist.value == stats.latency_hist.count
        assert hist.percentile(50) == stats.latency_p50
        # reset_timing() replaces the stats objects wholesale; the
        # registry must keep reading the live ones.
        db.reset_timing()
        assert reads.value == 0
        assert l1.value == 0
        assert outcome.timing.cycles > 0  # outcome itself is unaffected


# -- threading through the stack ----------------------------------------------
class TestQuerySpans:
    @pytest.fixture()
    def db(self):
        db = make_database("RC-NVM", verify=False)
        db.create_table("t", [("f1", 8), ("f2", 8)], layout="column")
        db.insert_many("t", simple_rows(128, fields=2))
        return db

    def test_untraced_execute_leaves_spans_none(self, db):
        outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                             params={"x": 10})
        assert outcome.timing.spans is None

    def test_root_span_cycles_equal_run_cycles(self, db):
        """The acceptance check: the span tree's root cycle total equals
        the MemoryStats-backed run result's cycles."""
        with obs.tracing():
            outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                                 params={"x": 10})
        timing = outcome.timing
        spans = timing.spans
        assert spans["name"] == "query"
        assert spans["metrics"]["cycles"] == timing.cycles
        assert spans["metrics"]["accesses"] == timing.accesses
        assert spans["metrics"]["memory_accesses"] == timing.memory["accesses"]
        assert spans["metrics"]["orientation_mix"] == {
            "row": timing.memory["row_oriented"],
            "column": timing.memory["col_oriented"],
            "gather": timing.memory["gathers"],
        }

    def test_span_tree_shape(self, db):
        with obs.tracing():
            outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                                 params={"x": 10})
        spans = outcome.timing.spans
        names = [c["name"] for c in spans["children"]]
        assert names[0] == "plan"
        assert names[1].startswith("operator:")
        assert names[2:4] == ["timing.reset", "machine.run"]
        machine = spans["children"][3]
        assert machine["metrics"]["cycles"] == outcome.timing.cycles
        assert [c["name"] for c in machine["children"]] == ["controller.drain"]

    def test_span_count_is_constant_per_query_not_per_access(self, db):
        """Zero per-access cost: a query touching hundreds of memory
        accesses still opens exactly query/plan/operator/timing.reset/
        machine.run/controller.drain — six spans."""
        with obs.tracing() as tracer:
            outcome = db.execute("SELECT * FROM t WHERE f1 > x",
                                 params={"x": 2})
        assert outcome.timing.memory["accesses"] > 20
        assert sum(1 for _ in tracer.roots[0].walk()) == 6

    def test_enabled_tracing_span_count_is_per_run_constant(self, db):
        """A traced replay opens exactly machine.run + controller.drain
        per Machine.run, independent of trace length and of which engine
        (kernel or batched) replays it."""
        from repro.cpu.replaykernel import kernel_eligible

        buffers = []
        for sql in ("SELECT SUM(f2) FROM t WHERE f1 > x",
                    "SELECT * FROM t WHERE f1 > x",
                    "UPDATE t SET f2 = 1 WHERE f1 > x"):
            _result, buffer = db.executor.execute(db.plan(sql, params={"x": 10}))
            buffers.append(buffer)
        eligible = []
        with obs.tracing() as tracer:
            for buffer in buffers:
                db.reset_timing()
                eligible.append(kernel_eligible(db.machine, buffer.finalize()))
                db.machine.run(buffer)
        assert True in eligible and False in eligible  # both engines ran
        assert len(tracer.roots) == len(buffers)
        for root in tracer.roots:
            assert [s.name for s in root.walk()] == ["machine.run",
                                                     "controller.drain"]

    def test_fuzz_span_invariants_pass_and_catch_tampering(self, db):
        from repro.fuzz.invariants import _check_spans

        with obs.tracing():
            outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x",
                                 params={"x": 10})
        timing = outcome.timing
        assert _check_spans(timing) == []
        timing.spans["metrics"]["cycles"] += 1
        problems = _check_spans(timing)
        assert problems and "cycles" in problems[0]
        timing.spans = None  # untraced runs are exempt
        assert _check_spans(timing) == []


# -- profiling harness ---------------------------------------------------------
class TestProfiling:
    @pytest.fixture(scope="class")
    def profile(self):
        from repro.harness.profiling import profile_query

        return profile_query(qid="q7", system="rcnvm", scale=0.05, small=True)

    def test_aliases_resolve(self, profile):
        assert profile.qid == "Q7"
        assert profile.system == "RC-NVM"

    def test_unknown_names_raise(self):
        from repro.harness.profiling import resolve_query, resolve_system

        with pytest.raises(ValueError):
            resolve_system("HBM")
        with pytest.raises(ValueError):
            resolve_query("q99")

    def test_profile_is_self_consistent(self, profile):
        from repro.harness.profiling import check_profile

        assert check_profile(profile.to_dict()) == []
        assert profile.spans["metrics"]["cycles"] == profile.outcome.timing.cycles

    def test_render_contains_tree_and_metrics(self, profile):
        from repro.harness.profiling import render_profile

        text = render_profile(profile)
        assert "Q7 on RC-NVM" in text
        assert "machine.run" in text and "controller.drain" in text
        assert "memory.total_latency_cycles" in text

    def test_to_dict_is_json_ready(self, profile):
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["query"] == "Q7"
        assert payload["spans"]["name"] == "query"
        assert "memory.reads" in payload["metrics"]

    def test_cli_smoke(self, capsys):
        from repro.harness.cli import main

        assert main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "machine.run" in out
        assert "SMOKE OK: profile" in out

    def test_cli_smoke_template_cache_fails_on_planted_misses(
        self, monkeypatch, capsys
    ):
        from repro.cpu.tracetemplate import TraceTemplateCache
        from repro.harness.cli import main

        argv = ["profile", "--smoke", "--template-cache", "--repeats", "3"]
        assert main(argv) == 0

        def always_miss(self, key, plan):
            self.stats.misses += 1
            return None

        # A repeat hits through the plan memo before it fetches, so the
        # planted cache recalls nothing either.
        monkeypatch.setattr(TraceTemplateCache, "fetch", always_miss)
        monkeypatch.setattr(
            TraceTemplateCache, "recall", lambda self, key, statement: None
        )
        capsys.readouterr()
        assert main(argv) == 1
        assert "template cache hits 0 != 2" in capsys.readouterr().err

    def test_cli_chrome_out(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "trace.json"
        assert main(["profile", "--query", "q1", "--small",
                     "--scale", "0.05", "--chrome-out", str(path)]) == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_cli_rejects_unknown_system(self, capsys):
        from repro.harness.cli import main

        assert main(["profile", "--system", "HBM"]) == 2
        assert "unknown system" in capsys.readouterr().err
