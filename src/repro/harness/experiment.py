"""Experiment runners for the paper's evaluation (Section 7)."""

from dataclasses import dataclass
from typing import Optional

from repro.harness.systems import TABLE1_CACHE_CONFIG, build_system
from repro.memsim.system import make_rcnvm, make_rram
from repro.memsim import timing as timings
from repro.workloads.queries import GROUP_CACHING_IDS, QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: Default system order of the paper's figures.
FIGURE_SYSTEMS = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")


@dataclass
class QueryMeasurement:
    """One (query, system) cell of Figures 18-21."""

    qid: str
    system: str
    cycles: int
    llc_misses: int
    memory_accesses: int
    buffer_miss_rate: float
    coherence_ratio: float
    trace_length: int
    #: Full memory-stats snapshot (activations, flushes, ... ) for
    #: derived analyses such as the energy extension.
    memory_stats: Optional[dict] = None

    def row(self):
        return (
            self.qid,
            self.system,
            self.cycles,
            self.llc_misses,
            self.memory_accesses,
            round(self.buffer_miss_rate, 4),
            round(self.coherence_ratio, 5),
        )


def measure_query(db, spec, group_lines=None) -> QueryMeasurement:
    """Execute one benchmark query from cold micro-architectural state."""
    outcome = db.execute(
        spec.sql,
        params=spec.params,
        selectivity_hint=spec.selectivity_hint,
        group_lines=group_lines,
        fresh_timing=True,
    )
    timing = outcome.timing
    memory = timing.memory
    accesses = memory["accesses"]
    return QueryMeasurement(
        qid=spec.qid,
        system=db.memory.name,
        cycles=timing.cycles,
        llc_misses=timing.llc_misses,
        memory_accesses=accesses,
        buffer_miss_rate=memory["buffer_miss_rate"],
        coherence_ratio=timing.coherence_overhead_ratio,
        trace_length=outcome.trace_length,
        memory_stats=memory,
    )


def run_workload(db, statements, sum_keys):
    """Execute ``[(sql, params, hint), ...]`` in order, each from fresh
    timing; returns the ``sum_keys`` memory counters summed over the
    statements, their total cycles, and each statement's memory snapshot."""
    totals = dict.fromkeys(sum_keys, 0)
    cycles = 0
    memories = []
    for sql, params, hint in statements:
        outcome = db.execute(sql, params=params, selectivity_hint=hint)
        memories.append(outcome.timing.memory)
        for key in sum_keys:
            totals[key] += outcome.timing.memory[key]
        cycles += outcome.timing.cycles
    return totals, cycles, memories


def run_sql_suite(
    systems=FIGURE_SYSTEMS,
    qids=SQL_BENCHMARK_IDS,
    scale=1.0,
    small=False,
    cache_config=None,
    verify=False,
    group_lines=0,
    sched_kwargs=None,
):
    """Run the Table 2 query set on each system (Figures 18-21's data).

    Returns ``{qid: {system: QueryMeasurement}}``.  Each system gets its
    own freshly loaded database (identical data), and each query starts
    from cold caches and idle banks.  ``sched_kwargs`` configures the
    memory controllers (scheduling/page policy, queue depths, age cap).
    """
    cache_config = cache_config if cache_config is not None else TABLE1_CACHE_CONFIG
    results = {qid: {} for qid in qids}
    for system_name in systems:
        memory = build_system(system_name, small=small, **(sched_kwargs or {}))
        db = build_benchmark_database(
            memory,
            scale=scale,
            cache_config=cache_config,
            verify=verify,
            default_group_lines=group_lines,
        )
        for qid in qids:
            results[qid][system_name] = measure_query(db, QUERIES[qid])
    return results


def run_group_caching_sweep(
    qids=GROUP_CACHING_IDS,
    group_sizes=(0, 32, 64, 96, 128),
    scale=1.0,
    small=False,
    cache_config=None,
    system="RC-NVM",
    sched_kwargs=None,
):
    """Figure 23: execution time of Q14/Q15 under group-caching sizes.

    Size 0 is the paper's "w/o pref." bar (naive interleaved column
    accesses)."""
    cache_config = cache_config if cache_config is not None else TABLE1_CACHE_CONFIG
    memory = build_system(system, small=small, **(sched_kwargs or {}))
    db = build_benchmark_database(memory, scale=scale, cache_config=cache_config)
    results = {qid: {} for qid in qids}
    for qid in qids:
        for size in group_sizes:
            results[qid][size] = measure_query(db, QUERIES[qid], group_lines=size)
    return results


#: Figure 22's (read access time, write pulse width) sweep, in ns.
SENSITIVITY_POINTS = ((12.5, 5.0), (25.0, 10.0), (50.0, 20.0), (100.0, 40.0), (200.0, 80.0))
#: RC-NVM's array path is ~16% (read) / 50% (write) longer than plain
#: RRAM's (Table 1: 29 vs 25 ns and 15 vs 10 ns).
RC_READ_FACTOR = 29.0 / 25.0
RC_WRITE_FACTOR = 1.5


def run_sensitivity(
    qids=("Q1", "Q2", "Q4", "Q6"),
    points=SENSITIVITY_POINTS,
    scale=1.0,
    small=False,
    cache_config=None,
    sched_kwargs=None,
):
    """Figure 22: average execution time vs NVM cell read/write latency.

    Returns rows of ``(read_ns, write_ns, rcnvm_avg, rram_avg, dram_avg)``
    in cycles; the DRAM column is constant by construction.
    """
    from repro.geometry import SMALL_RCNVM_GEOMETRY

    cache_config = cache_config if cache_config is not None else TABLE1_CACHE_CONFIG
    sched_kwargs = sched_kwargs or {}

    def average(memory):
        db = build_benchmark_database(memory, scale=scale, cache_config=cache_config)
        total = 0
        for qid in qids:
            total += measure_query(db, QUERIES[qid]).cycles
        return total / len(qids)

    dram = build_system("DRAM", small=small, **sched_kwargs)
    dram_avg = average(dram)
    rows = []
    nvm_geometry = SMALL_RCNVM_GEOMETRY if small else None
    for read_ns, write_ns in points:
        rram_timing = timings.LPDDR3_800_RRAM.scaled(read_ns, write_ns)
        rcnvm_timing = timings.LPDDR3_800_RCNVM.scaled(
            read_ns * RC_READ_FACTOR, write_ns * RC_WRITE_FACTOR
        )
        rram_avg = average(make_rram(nvm_geometry, timing=rram_timing, **sched_kwargs))
        rcnvm_avg = average(make_rcnvm(nvm_geometry, timing=rcnvm_timing, **sched_kwargs))
        rows.append((read_ns, write_ns, rcnvm_avg, rram_avg, dram_avg))
    return rows
