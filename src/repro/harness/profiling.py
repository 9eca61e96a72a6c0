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

Exposed as the ``profile`` subcommand of ``rcnvm-experiments``::

    python -m repro.harness.cli profile --query q7 --system rcnvm
    python -m repro.harness.cli profile --query q3 --json
    python -m repro.harness.cli profile --chrome-out q7_trace.json

``--chrome-out`` writes a Chrome-trace ("Trace Event Format") file that
loads in ``about:tracing`` / Perfetto.  ``--smoke`` runs a tiny profile
and self-checks the span/stats accounting (used by CI).
"""

import argparse
import json
import sys
from dataclasses import dataclass

from repro.harness.report import format_metric_samples, format_span_tree
from repro.harness.systems import SMALL_CACHE_CONFIG, SYSTEM_NAMES, build_system
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

#: Forgiving CLI spellings of the paper's four system names.
SYSTEM_ALIASES = {
    "rcnvm": "RC-NVM",
    "rc-nvm": "RC-NVM",
    "rram": "RRAM",
    "gsdram": "GS-DRAM",
    "gs-dram": "GS-DRAM",
    "dram": "DRAM",
}


def resolve_system(name):
    """Map a CLI spelling (``rcnvm``, ``RC-NVM``, ...) to a system name."""
    resolved = SYSTEM_ALIASES.get(name.lower())
    if resolved is None:
        raise ValueError(
            f"unknown system {name!r}; expected one of {', '.join(SYSTEM_NAMES)}"
        )
    return resolved


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

    @property
    def spans(self):
        return self.outcome.timing.spans

    def to_dict(self):
        """JSON-ready profile: span tree + full metric snapshot."""
        return {
            "query": self.qid,
            "system": self.system,
            "cycles": self.outcome.timing.cycles,
            "spans": self.spans,
            "metrics": self.registry.snapshot(),
        }


def profile_query(qid="Q7", system="RC-NVM", scale=0.1, small=False,
                  sched_kwargs=None, template_cache=False,
                  repeats=1) -> ProfileResult:
    """Build a database, run one benchmark query traced, collect metrics.

    With ``template_cache``, the query is served through the plan/trace
    template cache and ``repeats`` controls how many times it runs (the
    first execution misses and stores; the rest hit), so the
    ``template_cache.*`` instruments show up in the top-N table.
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
    with obs.tracing() as tracer:
        for _ in range(max(1, repeats)):
            outcome = db.execute(
                spec.sql, params=spec.params,
                selectivity_hint=spec.selectivity_hint,
            )
    return ProfileResult(
        qid=qid, system=system, outcome=outcome, tracer=tracer,
        registry=registry, database=db,
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


def check_profile(profile: ProfileResult):
    """Span/stats consistency violations of one profile, as strings.

    The same accounting the acceptance test and ``--smoke`` pin down: the
    root span's simulated totals must equal the run's ``MemoryStats``
    numbers, and the Chrome-trace export must be structurally valid.
    """
    problems = []
    timing = profile.outcome.timing
    spans = profile.spans
    if not spans or spans.get("name") != "query":
        problems.append(f"root span is {spans and spans.get('name')!r}, not 'query'")
        return problems
    metrics = spans.get("metrics", {})
    if metrics.get("cycles") != timing.cycles:
        problems.append(
            f"root span cycles {metrics.get('cycles')} != "
            f"MemoryStats-derived run cycles {timing.cycles}"
        )
    if metrics.get("memory_accesses") != timing.memory["accesses"]:
        problems.append(
            f"root span memory_accesses {metrics.get('memory_accesses')} != "
            f"MemoryStats accesses {timing.memory['accesses']}"
        )
    mix = metrics.get("orientation_mix", {})
    for key, field_name in (("row", "row_oriented"), ("column", "col_oriented"),
                            ("gather", "gathers")):
        if mix.get(key) != timing.memory[field_name]:
            problems.append(
                f"orientation_mix[{key!r}] {mix.get(key)} != "
                f"MemoryStats {field_name} {timing.memory[field_name]}"
            )
    trace = profile.tracer.to_chrome_trace()
    events = trace.get("traceEvents")
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
    reads = profile.registry.get("memory.reads", {"system": profile.system,
                                                 "channel": 0})
    if reads is None:
        problems.append("registry lacks memory.reads for channel 0")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rcnvm-experiments profile",
        description="Profile one benchmark query: span tree + top metrics.",
    )
    parser.add_argument("--query", default="Q7",
                        help="benchmark query id (default Q7)")
    parser.add_argument("--system", default="RC-NVM",
                        help="memory system: rcnvm, rram, gsdram, dram "
                             "(default RC-NVM)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="table-size scale factor (default 0.1)")
    parser.add_argument("--small", action="store_true",
                        help="use the small test geometry and caches")
    parser.add_argument("--top", type=int, default=12,
                        help="metric table row count (default 12)")
    parser.add_argument("--template-cache", action="store_true",
                        help="serve the query through the plan/trace "
                             "template cache (see --repeats)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="executions of the query when --template-cache "
                             "is on: first misses, the rest hit (default 3)")
    parser.add_argument("--json", action="store_true",
                        help="emit the profile as JSON instead of text")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="also write a Chrome-trace (about:tracing) file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-checking run for CI (implies --small)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.small = True
        args.scale = min(args.scale, 0.05)
    try:
        profile = profile_query(
            qid=args.query, system=args.system, scale=args.scale,
            small=args.small, template_cache=args.template_cache,
            repeats=args.repeats if args.template_cache else 1,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.chrome_out:
        with open(args.chrome_out, "w") as handle:
            json.dump(profile.tracer.to_chrome_trace(), handle, indent=2)
            handle.write("\n")

    if args.json:
        print(json.dumps(profile.to_dict(), indent=2))
    else:
        print(render_profile(profile, top=args.top))
        if args.chrome_out:
            print(f"\nchrome trace written to {args.chrome_out} "
                  "(load in about:tracing or ui.perfetto.dev)")

    if args.smoke:
        problems = check_profile(profile)
        if args.template_cache:
            # The first execution misses and stores; every repeat must hit.
            hits = profile.database.template_cache.stats.hits
            expected = max(1, args.repeats) - 1
            if hits != expected:
                problems.append(
                    f"template cache hits {hits} != {expected} "
                    f"over {args.repeats} repeats"
                )
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("smoke: span/stats accounting consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
