"""Multi-core OLXP experiment (Table 1's 4-core configuration).

The paper's simulated machine has 4 x86 cores over a shared L3 with
directory MESI.  This experiment assigns benchmark queries to cores —
the OLXP scenario where transactional and analytical work hit the same
tables concurrently — generates each query's trace with the
capability-aware executor, and replays all traces together on the
:class:`~repro.cpu.multicore.MulticoreMachine`, so coherence, synonym
resolution, and memory contention interact the way Section 4.3.3
describes.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cpu.multicore import MulticoreMachine
from repro.cpu.tracebuffer import TraceBuffer
from repro.harness.systems import build_system
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

#: Default 4-core OLXP mix: two OLTP-ish cores, two OLAP-ish cores.
DEFAULT_CORE_MIX = (
    ("Q1", "Q12"),   # core 0: selective project + update
    ("Q2", "Q13"),   # core 1: selective star + update
    ("Q4", "Q6"),    # core 2: aggregates over table-a
    ("Q5", "Q7"),    # core 3: aggregates over table-b
)


@dataclass
class MulticoreMeasurement:
    system: str
    makespan: int
    per_core_cycles: Tuple[int, ...]
    coherence: Dict[str, int]
    synonym: Dict[str, int]
    memory: Dict[str, object]


def build_core_traces(db, core_mix=DEFAULT_CORE_MIX):
    """One trace per core: the concatenation of its queries' accesses."""
    traces = []
    for qids in core_mix:
        trace = TraceBuffer()
        for qid in qids:
            spec = QUERIES[qid]
            plan = db.plan(
                spec.sql, params=spec.params, selectivity_hint=spec.selectivity_hint
            )
            _result, query_trace = db.executor.execute(plan)
            trace.extend(query_trace)
        traces.append(trace)
    return traces


def run_multicore_olxp(
    system_name="RC-NVM",
    scale=0.25,
    core_mix=DEFAULT_CORE_MIX,
    small=False,
    l1_kib=32,
    llc_kib=2048,
    sched_kwargs=None,
) -> MulticoreMeasurement:
    """Run the OLXP core mix on one system; returns the measurement."""
    memory = build_system(system_name, small=small, **(sched_kwargs or {}))
    db = build_benchmark_database(memory, scale=scale)
    traces = build_core_traces(db, core_mix)
    memory.reset()
    machine = MulticoreMachine(
        memory, n_cores=len(core_mix), l1_kib=l1_kib, llc_kib=llc_kib
    )
    result = machine.run(traces)
    return MulticoreMeasurement(
        system=system_name,
        makespan=result.cycles,
        per_core_cycles=tuple(core.cycles for core in result.cores),
        coherence=result.coherence,
        synonym=result.synonym,
        memory=result.memory,
    )


def compare_systems(systems=("RC-NVM", "DRAM"), scale=0.25, **kwargs):
    """Run the same core mix on several systems; returns {name: result}.

    Note: the executor plans per system, so RC-NVM cores issue cloads
    while DRAM cores issue the equivalent row-oriented strided loads —
    the same queries, each system's best plan.
    """
    return {
        name: run_multicore_olxp(name, scale=scale, **kwargs) for name in systems
    }
