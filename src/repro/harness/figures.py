"""Regeneration of every table and figure in the paper's evaluation.

Each function returns a :class:`FigureResult` whose rows mirror the
series the paper plots; ``render()`` gives the printable table.  The SQL
figures (18-21) share one suite run — use :func:`run_figures_18_21`.
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.core import circuit
from repro.harness.experiment import (
    FIGURE_SYSTEMS,
    run_group_caching_sweep,
    run_sensitivity,
    run_sql_suite,
)
from repro.harness.report import format_table, geometric_mean
from repro.harness.systems import table1_rows
from repro.workloads.microbench import KERNELS, MICRO_SYSTEMS, run_microbench
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS


@dataclass
class FigureResult:
    """One regenerated table or figure."""

    name: str
    title: str
    headers: Tuple[str, ...]
    rows: List[tuple]
    notes: str = ""

    def render(self):
        text = f"{self.name}: {self.title}\n"
        text += format_table(self.headers, self.rows)
        if self.notes:
            text += f"\n({self.notes})"
        return text

    def column(self, header):
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    @classmethod
    def from_records(cls, name, title, records):
        """A table of one row per dict of ``records``, keyed by header."""
        headers = tuple(records[0]) if records else ()
        return cls(name, title, headers, [tuple(r.values()) for r in records])


# -- static tables -------------------------------------------------------------

def table1():
    return FigureResult(
        name="Table 1",
        title="Configuration of simulated systems",
        headers=("Component", "Configuration"),
        rows=table1_rows(),
    )


def table2():
    rows = [
        (spec.qid, spec.category, spec.sql, spec.note)
        for spec in QUERIES.values()
    ]
    return FigureResult(
        name="Table 2",
        title="Benchmark queries",
        headers=("Query", "Category", "SQL", "Note"),
        rows=rows,
    )


# -- circuit-level figures ------------------------------------------------------

def figure4(sizes=circuit.FIGURE4_ARRAY_SIZES):
    rows = [
        (n, round(rc_dram, 4), round(rc_nvm, 4))
        for n, rc_dram, rc_nvm in circuit.area_overhead_sweep(sizes)
    ]
    return FigureResult(
        name="Figure 4",
        title="Area overhead of RC-DRAM and RC-NVM",
        headers=("WL&BL", "RC-DRAM over DRAM", "RC-NVM over RRAM"),
        rows=rows,
        notes="fractions (0.15 = 15%)",
    )


def figure5(sizes=circuit.FIGURE5_ARRAY_SIZES):
    rows = [(n, round(v, 4)) for n, v in circuit.latency_overhead_sweep(sizes)]
    return FigureResult(
        name="Figure 5",
        title="Latency overhead of RC-NVM",
        headers=("WL&BL", "Latency overhead"),
        rows=rows,
    )


# -- micro-benchmarks ------------------------------------------------------------

#: The micro-benchmark table must dwarf the cache stack (the paper scans
#: multi-GB tables against an 8 MB LLC); at our scaled table sizes that
#: means proportionally scaled caches.
FIGURE17_CACHE_CONFIG = dict(l1_kib=4, l2_kib=16, l3_kib=128, ways=8)


def figure17(n_tuples=2048, n_fields=16, cache_config=None, systems=MICRO_SYSTEMS):
    results = run_microbench(
        systems=systems,
        n_tuples=n_tuples,
        n_fields=n_fields,
        cache_config=cache_config or FIGURE17_CACHE_CONFIG,
    )
    rows = []
    for kernel in KERNELS:
        row = [kernel]
        for system in systems:
            row.append(results[kernel][system].cycles)
        rows.append(tuple(row))
    return FigureResult(
        name="Figure 17",
        title="RC-NVM micro-benchmark results (execution cycles)",
        headers=("kernel",) + tuple(systems),
        rows=rows,
    )


# -- SQL query figures -------------------------------------------------------------

def figure18(measurements, systems=FIGURE_SYSTEMS):
    rows = []
    for qid, per_system in measurements.items():
        rows.append((qid,) + tuple(per_system[s].cycles for s in systems))
    speedups = [
        row[1 + systems.index("DRAM")] / row[1 + systems.index("RC-NVM")]
        for row in rows
    ]
    return FigureResult(
        name="Figure 18",
        title="SQL benchmark results (execution cycles)",
        headers=("query",) + tuple(systems),
        rows=rows,
        notes=f"geomean RC-NVM speedup over DRAM: {geometric_mean(speedups):.2f}x",
    )


def figure19(measurements, systems=FIGURE_SYSTEMS):
    rows = []
    for qid, per_system in measurements.items():
        rows.append((qid,) + tuple(per_system[s].llc_misses for s in systems))
    return FigureResult(
        name="Figure 19",
        title="Number of memory accesses (LLC misses)",
        headers=("query",) + tuple(systems),
        rows=rows,
    )


def figure20(measurements, systems=FIGURE_SYSTEMS):
    rows = []
    for qid, per_system in measurements.items():
        rows.append(
            (qid,)
            + tuple(round(per_system[s].buffer_miss_rate, 4) for s in systems)
        )
    return FigureResult(
        name="Figure 20",
        title="Row-/column-buffer miss rate",
        headers=("query",) + tuple(systems),
        rows=rows,
    )


def figure21(measurements):
    rows = [
        (qid, round(per_system["RC-NVM"].coherence_ratio, 5))
        for qid, per_system in measurements.items()
    ]
    average = sum(r[1] for r in rows) / max(1, len(rows))
    return FigureResult(
        name="Figure 21",
        title="Cache synonym and coherence overhead (fraction of cycles)",
        headers=("query", "overhead ratio"),
        rows=rows,
        notes=f"average {average:.4%}",
    )


def run_figures_18_21(
    scale=1.0,
    small=False,
    cache_config=None,
    qids=SQL_BENCHMARK_IDS,
    systems=FIGURE_SYSTEMS,
    verify=False,
    sched_kwargs=None,
):
    """Run the SQL suite once and derive Figures 18-21 from it."""
    measurements = run_sql_suite(
        systems=systems,
        qids=qids,
        scale=scale,
        small=small,
        cache_config=cache_config,
        verify=verify,
        sched_kwargs=sched_kwargs,
    )
    return {
        "Figure 18": figure18(measurements, systems),
        "Figure 19": figure19(measurements, systems),
        "Figure 20": figure20(measurements, systems),
        "Figure 21": figure21(measurements),
    }, measurements


# -- sensitivity and group caching ----------------------------------------------------

def figure22(scale=1.0, small=False, cache_config=None, qids=("Q1", "Q2", "Q4", "Q6"),
             sched_kwargs=None):
    rows = [
        (read, write, round(rcnvm, 1), round(rram, 1), round(dram, 1))
        for read, write, rcnvm, rram, dram in run_sensitivity(
            qids=qids, scale=scale, small=small, cache_config=cache_config,
            sched_kwargs=sched_kwargs,
        )
    ]
    return FigureResult(
        name="Figure 22",
        title="RC-NVM read/write latency sensitivity (average cycles)",
        headers=("read ns", "write ns", "RC-NVM", "RRAM", "DRAM"),
        rows=rows,
    )


def figure23(scale=1.0, small=False, cache_config=None,
             group_sizes=(0, 32, 64, 96, 128), sched_kwargs=None):
    results = run_group_caching_sweep(
        group_sizes=group_sizes, scale=scale, small=small, cache_config=cache_config,
        sched_kwargs=sched_kwargs,
    )
    rows = []
    for qid, per_size in results.items():
        rows.append((qid,) + tuple(per_size[size].cycles for size in group_sizes))
    headers = ("query",) + tuple(
        "w/o pref." if size == 0 else str(size) for size in group_sizes
    )
    return FigureResult(
        name="Figure 23",
        title="Impact of group caching (execution cycles, group size in cache lines)",
        headers=headers,
        rows=rows,
    )
