"""The ``tier`` experiment: hybrid DRAM + RC-NVM capacity sweep.

Builds the benchmark database on the :class:`TieredMemorySystem`
(:mod:`repro.memsim.tiering`), runs a mixed OLXP workload while the
migration engine promotes hot chunk rectangles into the DRAM tier, and
reports the aggregate hit rate — DRAM-tier accesses plus NVM row/column
buffer hits over all accesses — against the untiered RC-NVM baseline,
swept over DRAM capacity fractions and workload mixes.

The aggregate metric treats *every* DRAM-tier access as a hit (the tier
runs DDR3 timing; even its buffer misses are far cheaper than NVM
activations), so it measures how much traffic the hot tier absorbs on
top of the locality the buffers already capture.

Run as ``rcnvm-experiments tier`` (:mod:`repro.harness.cli`).
"""

from repro.harness.experiment import run_workload
from repro.harness.figures import FigureResult
from repro.harness.serve import UPDATE_SQL
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: Statement counters summed across the workload (see ``run_workload``).
_SUM_KEYS = (
    "accesses", "buffer_hits",
    "tier_dram_accesses", "tier_nvm_accesses",
    "tier_dram_hits", "tier_nvm_hits",
)


def build_workload(kind="mixed", rounds=6):
    """``rounds`` passes over a skewed statement mix.

    The first three suite queries repeat every round (the hot set the
    migration engine should learn), the rest of the suite rotates one
    query per round (the cold tail), and ``mixed`` appends a range
    UPDATE per round, whose dirty lines must flush back through whichever
    tier owns the chunk.  Returns ``[(sql, params, hint), ...]``.
    """
    if kind not in ("read", "mixed"):
        raise ValueError(f"unknown workload {kind!r}; choose read or mixed")
    hot = SQL_BENCHMARK_IDS[:3]
    cold = SQL_BENCHMARK_IDS[3:]
    statements = []
    for round_index in range(rounds):
        for qid in (*hot, cold[round_index % len(cold)]):
            q = QUERIES[qid]
            statements.append((q.sql, q.params, q.selectivity_hint))
        if kind == "mixed":
            low = 100 + (round_index * 53) % 800
            statements.append((
                UPDATE_SQL,
                {"x": round_index + 1, "y": round_index + 2,
                 "z": low, "w": low + 60},
                None,
            ))
    return statements


def _aggregate_hit_rate(totals):
    """DRAM-tier accesses + NVM buffer hits over all accesses.

    On an untiered system every access counts as NVM-tier, so this
    reduces to the plain row/column-buffer hit rate — the same formula
    prices both sides of the comparison."""
    if not totals["accesses"]:
        return 0.0
    return (
        totals["tier_dram_accesses"] + totals["tier_nvm_hits"]
    ) / totals["accesses"]


def _total_cells(db):
    return sum(
        chunk.width * chunk.height
        for table in db.tables.values()
        for chunk in table.chunks
    )


def run_tier(dram_fraction=0.25, workload="mixed", scale=0.1, rounds=6,
             small=False, epoch_statements=2, sched_kwargs=None):
    """One tiered run plus the untiered RC-NVM baseline.

    ``dram_fraction`` sets the migration engine's capacity budget as a
    fraction of the database's allocated cells — the knob of the
    experiment: how small can the hot tier be and still absorb the hot
    set?
    """
    cache_config = SMALL_CACHE_CONFIG if small else None
    statements = build_workload(workload, rounds=rounds)

    memory = build_system("TIERED", small=small, **(sched_kwargs or {}))
    db = build_benchmark_database(memory, scale=scale,
                                  cache_config=cache_config)
    engine = db.tiering
    engine.capacity_cells = max(1, int(dram_fraction * _total_cells(db)))
    engine.epoch_statements = epoch_statements
    engine.max_moves_per_epoch = 8
    totals, cycles, _memories = run_workload(db, statements, _SUM_KEYS)

    base_memory = build_system("RC-NVM", small=small, **(sched_kwargs or {}))
    base_db = build_benchmark_database(base_memory, scale=scale,
                                       cache_config=cache_config)
    base_totals, base_cycles, _memories = run_workload(
        base_db, statements, _SUM_KEYS
    )

    problems = engine.check_consistency()
    tiered_rate = _aggregate_hit_rate(totals)
    baseline_rate = _aggregate_hit_rate(base_totals)
    return {
        "config": {
            "dram_fraction": dram_fraction,
            "capacity_cells": engine.capacity_cells,
            "workload": workload,
            "scale": scale,
            "rounds": rounds,
            "statements": len(statements),
            "epoch_statements": epoch_statements,
        },
        "tiered": {
            "aggregate_hit_rate": tiered_rate,
            "dram_access_share": (
                totals["tier_dram_accesses"] / totals["accesses"]
                if totals["accesses"] else 0.0
            ),
            "cycles": cycles,
            "totals": totals,
            "migration": engine.snapshot(),
        },
        "baseline": {
            "system": "RC-NVM",
            "aggregate_hit_rate": baseline_rate,
            "cycles": base_cycles,
            "totals": base_totals,
        },
        "hit_rate_delta": tiered_rate - baseline_rate,
        "consistency_problems": problems,
    }


def sweep_tier(fractions=(0.125, 0.25, 0.5), workloads=("read", "mixed"),
               scale=0.1, rounds=6, small=False, sched_kwargs=None):
    """DRAM-fraction x workload grid; one summary row per cell."""
    rows = []
    for workload in workloads:
        for fraction in fractions:
            result = run_tier(fraction, workload, scale=scale, rounds=rounds,
                              small=small, sched_kwargs=sched_kwargs)
            migration = result["tiered"]["migration"]
            rows.append({
                "workload": workload,
                "dram_fraction": fraction,
                "aggregate_hit_rate": result["tiered"]["aggregate_hit_rate"],
                "baseline_hit_rate": result["baseline"]["aggregate_hit_rate"],
                "hit_rate_delta": result["hit_rate_delta"],
                "promotions": migration["promotions"],
                "demotions": migration["demotions"],
                "dram_resident_cells": migration["dram_resident_cells"],
                "cycles": result["tiered"]["cycles"],
                "baseline_cycles": result["baseline"]["cycles"],
            })
    return rows


def figure(result):
    """One :func:`run_tier` result against the untiered baseline."""
    config, tiered, base = result["config"], result["tiered"], result["baseline"]
    migration = tiered["migration"]
    return FigureResult(
        name="Tier",
        title=(f"{config['workload']} workload, DRAM fraction "
               f"{config['dram_fraction']} ({config['capacity_cells']} cells), "
               f"{config['statements']} statements"),
        headers=("system", "aggregate hit rate", "DRAM share", "cycles"),
        rows=[("TIERED", tiered["aggregate_hit_rate"],
               tiered["dram_access_share"], tiered["cycles"]),
              ("RC-NVM", base["aggregate_hit_rate"], 0.0, base["cycles"])],
        notes=(f"delta {result['hit_rate_delta']:+.3f}; "
               f"{migration['promotions']} promoted, {migration['demotions']} "
               f"demoted, {migration['migrated_cells']} cells moved, "
               f"{migration['dram_resident_cells']} resident"),
    )


def run_experiment(p):
    """The ``tier`` experiment's ``(result, table)``: one run against
    untiered RC-NVM, or with ``p.sweep`` the fraction x workload grid."""
    if p.sweep:
        rows = sweep_tier(scale=p.scale, rounds=p.rounds, small=p.small)
        title = "DRAM fraction x workload vs untiered RC-NVM"
        return rows, FigureResult.from_records("Tier sweep", title, rows).render()
    result = run_tier(p.fraction, p.workload, scale=p.scale, rounds=p.rounds,
                      small=p.small)
    return result, figure(result).render()


def check(result):
    """The ``tier --smoke`` gate: the hot tier must absorb traffic (strictly
    higher aggregate hit rate than no-DRAM RC-NVM), migrations must
    actually happen, and the engine must audit clean."""
    problems = []
    if result["hit_rate_delta"] <= 0:
        problems.append(
            f"aggregate hit rate {result['hit_rate_delta']:+.4f} not "
            "above the untiered baseline"
        )
    if result["tiered"]["migration"]["promotions"] < 1:
        problems.append("no chunk was ever promoted")
    problems.extend(result["consistency_problems"])
    return problems
