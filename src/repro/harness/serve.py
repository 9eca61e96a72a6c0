"""The ``serve`` experiment: multi-tenant serving front end.

Builds one benchmark database on a chosen system, spins up N tenant
sessions (:mod:`repro.serving`) with seeded open/closed-loop arrivals,
interleaves their statements across a
:class:`~repro.cpu.multicore.MulticoreMachine`, and reports per-tenant
SLOs (p50/p99 latency, throughput, queue depth, shed counts) plus a
fairness check and a per-stream row-buffer hit-rate comparison against a
global-FIFO (``policy="fcfs"``) baseline.

Run as ``rcnvm-experiments serve`` (:mod:`repro.harness.cli`).
"""

from repro.cpu.multicore import MulticoreMachine
from repro.harness.figures import FigureResult
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.serving import ServingSimulator, TenantSpec
from repro.serving.slo import slo_table
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: Statements per tenant mix (rotating window over the SQL suite).
MIX_WIDTH = 3

#: Tenant-private range UPDATE making the default mix OLXP rather than
#: read-only (the wear workload reuses it).  Write traffic is
#: where the scheduling policies separate: FR-FCFS buffers writebacks and
#: drains them in row-batched episodes, while the global-FIFO baseline
#: interleaves them with reads in arrival order, thrashing the row buffers.
UPDATE_SQL = "UPDATE table-b SET f3 = x, f4 = y WHERE f10 > z AND f10 < w"


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
            UPDATE_SQL,
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


def render(result):
    """The report of one :func:`run_serving` result."""
    config, report = result["config"], result["report"]
    return "\n".join((
        f"system {report['system']}  tenants {config['tenants']}  "
        f"arrival {config['arrival']}  gap {config['mean_gap']}",
        slo_table(report["tenants"]),
        f"\nmakespan {report['makespan']} cycles  rounds {report['rounds']}  "
        f"completed {report['statements']}  shed {report['shed']}",
        f"fairness (max/min throughput) {report['fairness']:.2f}",
        f"per-stream row-buffer hit rate {result['stream_hit_rate']:.3f}",
        f"global-FIFO baseline hit rate "
        f"{result['baseline']['stream_hit_rate']:.3f}  "
        f"(delta {result['hit_rate_delta']:+.3f})",
    ))


def run_experiment(p):
    """The ``serve`` experiment's ``(result, table)``: one run against the
    global-FIFO baseline, or with ``p.sweep`` the tenant x gap grid."""
    if p.sweep:
        rows = sweep_serving(
            p.system, p.scale, tenant_counts=(2, p.tenants),
            mean_gaps=(p.gap // 3, p.gap, p.gap * 3), arrival=p.arrival,
            n_statements=p.statements, seed=p.seed, small=p.small,
        )
        title = "tenant count x mean arrival gap (cycles)"
        return rows, FigureResult.from_records("Serve sweep", title, rows).render()
    result = run_serving(
        p.system, p.scale, p.tenants, p.arrival, p.gap,
        n_statements=p.statements, seed=p.seed, small=p.small,
    )
    return result, render(result)


def check(result):
    """The ``serve --smoke`` gate: every tenant finishes, nothing is shed
    (admission control should be idle at the smoke load), fairness is
    bounded, and the fair-share arbiter keeps per-stream locality at or
    above the global-FIFO baseline."""
    report = result["report"]
    problems = []
    starved = [t["tenant"] for t in report["tenants"] if t["completed"] == 0]
    if starved:
        problems.append(f"starved tenants {starved}")
    if report["shed"]:
        problems.append(f"shed {report['shed']} statements")
    if report["fairness"] > 3.0:
        problems.append(f"fairness ratio {report['fairness']:.2f} > 3.0")
    if result["hit_rate_delta"] < -0.005:
        problems.append(
            f"hit rate {result['hit_rate_delta']:+.4f} below global FIFO"
        )
    return problems
