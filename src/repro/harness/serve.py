"""The ``serve`` experiment: multi-tenant serving front end.

Builds one benchmark database on a chosen system, spins up N tenant
sessions (:mod:`repro.serving`) with seeded open/closed-loop arrivals,
interleaves their statements across a
:class:`~repro.cpu.multicore.MulticoreMachine`, and reports per-tenant
SLOs (p50/p99 latency, throughput, queue depth, shed counts) plus a
fairness check and a per-stream row-buffer hit-rate comparison against a
global-FIFO (``policy="fcfs"``) baseline.

CLI::

    rcnvm-experiments serve --smoke
    rcnvm-experiments serve --tenants 8 --gap 20000 --arrival mixed
    rcnvm-experiments serve --sweep --json serve_sweep.json
"""

import argparse
import json
import sys

from repro.cpu.multicore import MulticoreMachine
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.serving import ServingSimulator, TenantSpec
from repro.serving.slo import slo_table
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: Statements per tenant mix (rotating window over the SQL suite).
MIX_WIDTH = 3

#: Tenant-private range UPDATE making the default mix OLXP rather than
#: read-only.  Write traffic is where the scheduling policies separate:
#: FR-FCFS buffers writebacks and drains them in row-batched episodes,
#: while the global-FIFO baseline interleaves them with reads in arrival
#: order, thrashing the row buffers.
_UPDATE_SQL = "UPDATE table-b SET f3 = x, f4 = y WHERE f10 > z AND f10 < w"


def tenant_mix(index, writes=True):
    """A rotating 3-query window over the SQL suite for tenant ``index``,
    plus (by default) one tenant-specific range UPDATE."""
    n = len(SQL_BENCHMARK_IDS)
    qids = [SQL_BENCHMARK_IDS[(index * MIX_WIDTH + k) % n] for k in range(MIX_WIDTH)]
    mix = [
        (QUERIES[qid].sql, QUERIES[qid].params, QUERIES[qid].selectivity_hint)
        for qid in qids
    ]
    if writes:
        low = 100 + (index * 37) % 800
        mix.append((
            _UPDATE_SQL,
            {"x": index + 1, "y": index + 2, "z": low, "w": low + 60},
            None,
        ))
    return mix


def build_tenants(n_tenants, arrival="mixed", mean_gap=30_000,
                  n_statements=8, seed=0, writes=True):
    """N tenant specs with distinct streams, mixes, and arrival seeds.

    ``arrival="mixed"`` alternates open/closed so both load models are
    exercised in one run.
    """
    tenants = []
    for index in range(n_tenants):
        if arrival == "mixed":
            kind = "open" if index % 2 == 0 else "closed"
        else:
            kind = arrival
        tenants.append(TenantSpec(
            name=f"tenant{index}",
            stream=index + 1,
            statements=tenant_mix(index, writes=writes),
            n_statements=n_statements,
            arrival=kind,
            mean_gap=mean_gap,
            seed=seed * 1000 + index,
        ))
    return tenants


def _aggregate_hit_rate(streams):
    """Accesses-weighted mean per-stream row-buffer hit rate."""
    accesses = sum(s["accesses"] for s in streams.values())
    hits = sum(s["buffer_hits"] for s in streams.values())
    return hits / accesses if accesses else 0.0


def _run_once(system_name, scale, tenants, admission_depth, small,
              n_cores, sched_kwargs):
    memory = build_system(system_name, small=small, **(sched_kwargs or {}))
    cache_config = SMALL_CACHE_CONFIG if small else None
    db = build_benchmark_database(memory, scale=scale, cache_config=cache_config)
    machine = MulticoreMachine(
        memory,
        n_cores=n_cores,
        l1_kib=4 if small else 32,
        llc_kib=128 if small else 1024,
    )
    simulator = ServingSimulator(
        db, machine, tenants, admission_depth=admission_depth
    )
    return simulator.run()


def run_serving(system_name="RC-NVM", scale=0.1, n_tenants=4, arrival="mixed",
                mean_gap=30_000, n_statements=8, admission_depth=8, seed=0,
                small=False, n_cores=4, sched_kwargs=None, baseline=True):
    """One serving run; optionally also the global-FIFO baseline.

    Returns a dict with the fair-share report, and (when ``baseline``)
    the same tenants re-run on ``policy="fcfs"`` with per-stream hit
    rates compared — the serving claim is that fair-share FR-FCFS keeps
    per-stream row-buffer locality above a global FIFO.
    """
    tenants = build_tenants(n_tenants, arrival, mean_gap, n_statements, seed)
    report = _run_once(system_name, scale, tenants, admission_depth, small,
                       n_cores, sched_kwargs)
    out = {
        "config": {
            "system": system_name,
            "scale": scale,
            "tenants": n_tenants,
            "arrival": arrival,
            "mean_gap": mean_gap,
            "n_statements": n_statements,
            "admission_depth": admission_depth,
            "n_cores": n_cores,
            "seed": seed,
        },
        "report": report.to_dict(),
        "stream_hit_rate": _aggregate_hit_rate(report.streams),
    }
    if baseline:
        fcfs_kwargs = dict(sched_kwargs or {})
        fcfs_kwargs["policy"] = "fcfs"
        base = _run_once(system_name, scale, tenants, admission_depth, small,
                         n_cores, fcfs_kwargs)
        base_rate = _aggregate_hit_rate(base.streams)
        out["baseline"] = {
            "policy": "fcfs",
            "stream_hit_rate": base_rate,
            "makespan": base.makespan,
            "fairness": base.fairness,
        }
        out["hit_rate_delta"] = out["stream_hit_rate"] - base_rate
    return out


def sweep_serving(system_name="RC-NVM", scale=0.1,
                  tenant_counts=(2, 4, 8), mean_gaps=(10_000, 30_000, 100_000),
                  arrival="mixed", n_statements=6, admission_depth=8, seed=0,
                  small=False, n_cores=4, sched_kwargs=None):
    """Tenant-count x arrival-rate grid; returns one summary row per cell."""
    rows = []
    for n_tenants in tenant_counts:
        for mean_gap in mean_gaps:
            result = run_serving(
                system_name, scale, n_tenants, arrival, mean_gap,
                n_statements, admission_depth, seed, small, n_cores,
                sched_kwargs, baseline=False,
            )
            report = result["report"]
            p99s = [t["p99_cycles"] for t in report["tenants"]]
            rows.append({
                "tenants": n_tenants,
                "mean_gap": mean_gap,
                "makespan": report["makespan"],
                "statements": report["statements"],
                "shed": report["shed"],
                "fairness": report["fairness"],
                "worst_p99_cycles": max(p99s) if p99s else 0,
                "stream_hit_rate": result["stream_hit_rate"],
            })
    return rows


def _render_sweep(rows):
    header = (
        f"{'tenants':>7}  {'gap':>8}  {'makespan':>10}  {'done':>5}  "
        f"{'shed':>5}  {'fairness':>8}  {'p99 max':>10}  {'hit rate':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['tenants']:>7}  {row['mean_gap']:>8}  {row['makespan']:>10}  "
            f"{row['statements']:>5}  {row['shed']:>5}  {row['fairness']:>8.2f}  "
            f"{row['worst_p99_cycles']:>10.0f}  {row['stream_hit_rate']:>8.3f}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rcnvm-experiments serve",
        description="Multi-tenant serving front end (SLOs, fairness, "
                    "fair-share vs global-FIFO hit rate).",
    )
    parser.add_argument("--system", default="RC-NVM",
                        help="memory system (default RC-NVM)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="table-size scale factor (default 0.1)")
    parser.add_argument("--tenants", type=int, default=4,
                        help="number of tenant sessions (default 4)")
    parser.add_argument("--arrival", choices=("open", "closed", "mixed"),
                        default="mixed",
                        help="arrival model; mixed alternates (default)")
    parser.add_argument("--gap", type=int, default=30_000,
                        help="mean interarrival/think gap in cycles (default 30000)")
    parser.add_argument("--statements", type=int, default=8,
                        help="statements per tenant (default 8)")
    parser.add_argument("--depth", type=int, default=8,
                        help="per-tenant admission queue depth (default 8)")
    parser.add_argument("--cores", type=int, default=4,
                        help="multicore machine cores (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival RNG seed base (default 0)")
    parser.add_argument("--small", action="store_true",
                        help="small geometry and caches")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the global-FIFO comparison run")
    parser.add_argument("--sweep", action="store_true",
                        help="run the tenant-count x arrival-rate grid")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI configuration (small, scale 0.05)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full result as JSON")
    args = parser.parse_args(argv)

    if args.smoke:
        args.small = True
        args.scale = min(args.scale, 0.05)
        args.statements = min(args.statements, 4)

    if args.sweep:
        rows = sweep_serving(
            args.system, args.scale,
            tenant_counts=(2, args.tenants),
            mean_gaps=(args.gap // 3, args.gap, args.gap * 3),
            arrival=args.arrival, n_statements=args.statements,
            admission_depth=args.depth, seed=args.seed, small=args.small,
            n_cores=args.cores,
        )
        print(_render_sweep(rows))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(rows, fh, indent=2, sort_keys=True)
            print(f"[sweep written to {args.json}]")
        return 0

    result = run_serving(
        args.system, args.scale, args.tenants, args.arrival, args.gap,
        args.statements, args.depth, args.seed, args.small, args.cores,
        baseline=not args.no_baseline,
    )
    report = result["report"]
    print(f"system {report['system']}  tenants {args.tenants}  "
          f"arrival {args.arrival}  gap {args.gap}")
    print(slo_table(report["tenants"]))
    print(f"\nmakespan {report['makespan']} cycles  rounds {report['rounds']}  "
          f"completed {report['statements']}  shed {report['shed']}")
    print(f"fairness (max/min throughput) {report['fairness']:.2f}")
    print(f"per-stream row-buffer hit rate {result['stream_hit_rate']:.3f}")
    if "baseline" in result:
        base = result["baseline"]
        print(f"global-FIFO baseline hit rate {base['stream_hit_rate']:.3f}  "
              f"(delta {result['hit_rate_delta']:+.3f})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        print(f"[result written to {args.json}]")
    # Smoke gate: every tenant finishes, nothing is shed (admission
    # control should be idle at the smoke load), fairness is bounded, and
    # the fair-share arbiter keeps per-stream locality at or above the
    # global-FIFO baseline.
    if args.smoke:
        failures = []
        starved = [t["tenant"] for t in report["tenants"] if t["completed"] == 0]
        if starved:
            failures.append(f"starved tenants {starved}")
        if report["shed"]:
            failures.append(f"shed {report['shed']} statements")
        if report["fairness"] > 3.0:
            failures.append(f"fairness ratio {report['fairness']:.2f} > 3.0")
        if "baseline" in result and result["hit_rate_delta"] < -0.005:
            failures.append(
                f"hit rate {result['hit_rate_delta']:+.4f} below global FIFO"
            )
        if failures:
            print(f"SMOKE FAIL: {'; '.join(failures)}", file=sys.stderr)
            return 1
        print("SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
