"""Query profiler: run one benchmark query under the observability layer.

Builds a benchmark database on one of the paper's systems, installs a
tracer (:mod:`repro.obs.tracer`), binds the whole simulated stack onto a
metrics registry (:func:`repro.obs.metrics.registry_for_database`), runs
the query, and reports:

* the **span tree** — ``query -> plan -> operator -> machine.run ->
  controller.drain`` with wall time and simulated cycles/access counts
  per span;
* a **top-N metric table** — the largest counters/gauges across memory
  controllers, cache levels and the synonym directory.

Run as ``rcnvm-experiments profile`` (:mod:`repro.harness.cli`), whose
``--smoke`` gate is :func:`check_profile`; ``--chrome-out`` also writes
the Chrome-trace ("Trace Event Format") file for ``about:tracing``.
"""

import json
from dataclasses import dataclass

from repro.harness.report import format_metric_samples, format_span_tree
from repro.harness.systems import SMALL_CACHE_CONFIG, SYSTEM_NAMES, build_system
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database


def resolve_system(name):
    """Map a CLI spelling (``rcnvm``, ``RC-NVM``, ``gs-dram``, ...) to a
    system name: case and dashes do not matter."""
    key = name.lower().replace("-", "")
    for system in SYSTEM_NAMES:
        if system.lower().replace("-", "") == key:
            return system
    raise ValueError(
        f"unknown system {name!r}; expected one of {', '.join(SYSTEM_NAMES)}"
    )


def resolve_query(qid):
    """Map a CLI query id (``q7``, ``Q7``) to a QUERIES key."""
    key = qid.upper()
    if key not in QUERIES:
        raise ValueError(
            f"unknown query {qid!r}; expected one of {', '.join(QUERIES)}"
        )
    return key


@dataclass
class ProfileResult:
    """Everything one profiled query produced."""

    qid: str
    system: str
    outcome: object  #: ExecutionOutcome (timing.spans holds the tree)
    tracer: obs.Tracer
    registry: obs_metrics.MetricsRegistry
    database: object
    #: Every repeat's ``RunResult``, in order (the last is ``outcome``'s).
    timings: list

    @property
    def spans(self):
        return self.outcome.timing.spans

    def to_dict(self):
        """JSON-ready profile: span tree, the run's memory stats, the full
        metric snapshot and the Chrome-trace export."""
        return {
            "query": self.qid,
            "system": self.system,
            "cycles": self.outcome.timing.cycles,
            "memory": self.outcome.timing.memory,
            "spans": self.spans,
            "metrics": self.registry.snapshot(),
            "chrome_trace": self.tracer.to_chrome_trace(),
        }


def profile_query(qid="Q7", system="RC-NVM", scale=0.1, small=False,
                  sched_kwargs=None, template_cache=False,
                  repeats=1) -> ProfileResult:
    """Build a database, run one benchmark query traced, collect metrics.

    With ``template_cache``, the query is served through the plan/trace
    template cache and ``repeats`` controls how many times it runs (the
    first execution misses and stores; the rest hit), so the
    ``template_cache.*`` instruments show up in the top-N table.  Each
    repeat's ``RunResult`` is kept in ``timings``.
    """
    qid = resolve_query(qid)
    system = resolve_system(system)
    memory = build_system(system, small=small, **(sched_kwargs or {}))
    cache_config = SMALL_CACHE_CONFIG if small else None
    db = build_benchmark_database(memory, scale=scale, cache_config=cache_config)
    if template_cache:
        db.enable_template_cache()
    registry = obs_metrics.registry_for_database(db)
    spec = QUERIES[qid]
    timings = []
    with obs.tracing() as tracer:
        for _ in range(max(1, repeats)):
            outcome = db.execute(
                spec.sql, params=spec.params,
                selectivity_hint=spec.selectivity_hint,
            )
            timings.append(outcome.timing)
    return ProfileResult(
        qid=qid, system=system, outcome=outcome, tracer=tracer,
        registry=registry, database=db, timings=timings,
    )


def render_profile(profile: ProfileResult, top=12):
    """The human-readable profile: header, span tree, top-N metric table."""
    timing = profile.outcome.timing
    lines = [
        f"profile: {profile.qid} on {profile.system} "
        f"({timing.cycles} cycles, {timing.accesses} accesses)",
        "",
        format_span_tree(profile.spans),
    ]
    samples = profile.registry.top(top)
    if samples:
        lines += ["", f"top {len(samples)} metrics:", format_metric_samples(samples)]
    return "\n".join(lines)


def check_profile(result):
    """Span/stats consistency violations of one profile, as strings.

    ``result`` is :meth:`ProfileResult.to_dict`, plus ``template_hits``,
    ``repeats`` and ``repeat_timings`` (each repeat's
    :meth:`~repro.cpu.machine.RunResult.simulated` fields) when the query
    was served through the template cache.  The root span's simulated
    totals must equal the run's ``MemoryStats`` numbers, the Chrome-trace
    export must be structurally valid, and every repeat after the first
    must hit the template cache and time exactly as the first did.
    """
    problems = []
    memory = result["memory"]
    spans = result["spans"]
    if not spans or spans.get("name") != "query":
        problems.append(f"root span is {spans and spans.get('name')!r}, not 'query'")
        return problems
    metrics = spans.get("metrics", {})
    if metrics.get("cycles") != result["cycles"]:
        problems.append(
            f"root span cycles {metrics.get('cycles')} != "
            f"MemoryStats-derived run cycles {result['cycles']}"
        )
    if metrics.get("memory_accesses") != memory["accesses"]:
        problems.append(
            f"root span memory_accesses {metrics.get('memory_accesses')} != "
            f"MemoryStats accesses {memory['accesses']}"
        )
    mix = metrics.get("orientation_mix", {})
    for key, field_name in (("row", "row_oriented"), ("column", "col_oriented"),
                            ("gather", "gathers")):
        if mix.get(key) != memory[field_name]:
            problems.append(
                f"orientation_mix[{key!r}] {mix.get(key)} != "
                f"MemoryStats {field_name} {memory[field_name]}"
            )
    events = result["chrome_trace"].get("traceEvents")
    if not events:
        problems.append("chrome trace has no events")
    for event in events or ():
        for field_name in ("name", "ph", "ts", "dur", "pid", "tid"):
            if field_name not in event:
                problems.append(f"chrome trace event lacks {field_name!r}: {event}")
                break
        else:
            if event["ph"] != "X" or not isinstance(event["ts"], (int, float)):
                problems.append(f"malformed chrome trace event: {event}")
    if f"channel=0,system={result['system']}" not in result["metrics"].get(
        "memory.reads", {}
    ):
        problems.append("registry lacks memory.reads for channel 0")
    if "repeats" in result and result["template_hits"] != result["repeats"] - 1:
        problems.append(
            f"template cache hits {result['template_hits']} != "
            f"{result['repeats'] - 1} over {result['repeats']} repeats"
        )
    timings = result.get("repeat_timings", [])
    for index, timing in enumerate(timings[1:], 2):
        changed = [
            name for name, value in timings[0].items() if timing.get(name) != value
        ]
        if changed:
            problems.append(
                f"repeat {index} timed differently from repeat 1 in "
                f"{', '.join(changed)}"
            )
    return problems


def run_experiment(p):
    """The ``profile`` experiment's ``(result, table)``; the result is
    :meth:`ProfileResult.to_dict`, plus the template-cache hits, repeat
    count and each repeat's timing under ``p.template_cache``."""
    repeats = max(1, p.repeats) if p.template_cache else 1
    profile = profile_query(
        qid=p.query, system=p.system, scale=p.scale, small=p.small,
        template_cache=p.template_cache, repeats=repeats,
    )
    result = profile.to_dict()
    text = render_profile(profile)
    if p.template_cache:
        result["template_hits"] = profile.database.template_cache.stats.hits
        result["repeats"] = repeats
        result["repeat_timings"] = [timing.simulated() for timing in profile.timings]
    if p.chrome_out:
        with open(p.chrome_out, "w") as handle:
            json.dump(result["chrome_trace"], handle, indent=2)
            handle.write("\n")
        text += (f"\n\nchrome trace written to {p.chrome_out} "
                 "(load in about:tracing or ui.perfetto.dev)")
    return result, text
