"""The ``faults`` experiment: end-to-end reliability pipeline (extension).

For each NVM system the experiment loads the benchmark database with
SECDED ECC enabled, warms it up with queries (including an UPDATE, so the
wear tracker sees real write traffic), plants a seeded fault campaign
into occupied cells, scrubs, recovers every uncorrectable cell by chunk
remapping, and finally re-runs queries with reference verification to
prove the data survived.  The scrub overhead is charged to the memory
system's own statistics (``scrub_reads`` / ``scrub_cycles``), so
reliability shows up in the same accounting as the paper's figures.

Run as ``rcnvm-experiments faults`` (:mod:`repro.harness.cli`); its
``--smoke`` gate is :meth:`FaultsOutcome.check`.
"""

from dataclasses import dataclass

from repro.harness.systems import (
    SMALL_CACHE_CONFIG,
    TABLE1_CACHE_CONFIG,
    build_system,
)
from repro.memsim.endurance import attach_wear_tracker
from repro.reliability.faults import (
    CampaignSpec,
    FaultInjector,
    occupied_rectangles,
)
from repro.workloads.queries import QUERIES
from repro.workloads.suite import build_benchmark_database

#: Systems worth studying: NVM wears out; the DRAM baselines do not.
RELIABILITY_SYSTEMS = ("RC-NVM", "RRAM")

#: Warm-up mix: scans plus an UPDATE so dirty flushes generate wear.
WARMUP_QIDS = ("Q1", "Q5", "Q12")

#: Wear-phase statement: a range UPDATE touching ~10% of table-b, run
#: repeatedly so the same physical lines take several write-backs.
WEAR_SQL = "UPDATE table-b SET f3 = x WHERE f10 > z"
WEAR_ROUNDS = 3

#: Queries re-run (reference-verified) after recovery.
VERIFY_QIDS = ("Q1", "Q2", "Q5", "Q6")


@dataclass
class FaultsOutcome:
    """One system's trip through the reliability pipeline."""

    system: str
    injected: int
    singles: int
    doubles: int
    corrected: int
    detected: int
    recovered: int
    scrub_reads: int
    scrub_cycles: int
    #: Second sweep after recovery; both must be zero.
    resweep_corrected: int
    resweep_detected: int
    retired_cells: int
    wear_imbalance: float
    queries_verified: int

    def check(self):
        """Broken pipeline invariants, as problem strings (empty: sound)."""
        problems = []
        if self.injected != self.corrected + self.detected:
            problems.append(
                f"{self.system}: injected {self.injected} != corrected "
                f"{self.corrected} + detected {self.detected}"
            )
        if self.recovered != self.detected:
            problems.append(
                f"{self.system}: recovered {self.recovered} of "
                f"{self.detected} detected cells"
            )
        if self.resweep_corrected or self.resweep_detected:
            problems.append(
                f"{self.system}: second sweep not clean "
                f"({self.resweep_corrected} corrected, "
                f"{self.resweep_detected} detected)"
            )
        if self.scrub_cycles <= 0 or self.scrub_reads <= 0:
            problems.append(f"{self.system}: scrub cost not charged")
        return problems


def _run_query(db, qid, verify):
    spec = QUERIES[qid]
    db.execute(
        spec.sql,
        params=spec.params,
        selectivity_hint=spec.selectivity_hint,
        verify=verify,
    )


def _cell_clean(ecc, subarray, row, col):
    """True when one cell decodes without a detected error."""
    from repro.memsim.ecc import classify

    grid = ecc.physmem.subarray(subarray)
    checks = ecc._checks(subarray)
    clean, _syndrome, _even = classify(
        grid[row : row + 1, col : col + 1],
        checks[row : row + 1, col : col + 1],
    )
    return bool(clean.all())


def run_faults(
    systems=RELIABILITY_SYSTEMS,
    scale=1.0,
    small=False,
    cache_config=None,
    fault_rate=0.0005,
    mode="uniform",
    double_fraction=0.25,
    seed=7,
    sched_kwargs=None,
    scrub_cycle_budget=None,
):
    """Run the fault campaign on each system; returns FaultsOutcome rows.

    Deterministic for a fixed ``seed``: the injector draws from its own
    ``random.Random(seed)`` stream and the database load is seeded."""
    if cache_config is None:
        cache_config = SMALL_CACHE_CONFIG if small else TABLE1_CACHE_CONFIG
    outcomes = []
    for system_name in systems:
        memory = build_system(system_name, small=small, **(sched_kwargs or {}))
        db = build_benchmark_database(
            memory, scale=scale, cache_config=cache_config, verify=True
        )
        scrubber = db.enable_reliability(scrub_cycle_budget)
        tracker = attach_wear_tracker(memory)
        for qid in WARMUP_QIDS:
            _run_query(db, qid, verify=True)
        # Wear phase: repeat a range UPDATE and push its dirty cache
        # lines out to the cell arrays each round, so the same physical
        # lines take several write-backs and the wear tracker has hot
        # lines for the campaign to sample.
        for round_index in range(WEAR_ROUNDS):
            db.execute(
                WEAR_SQL,
                params={"x": 41 + round_index, "z": 899},
                verify=True,
                fresh_timing=False,
            )
            db.machine.flush_caches()

        rects = occupied_rectangles(db)
        cells = sum(w * h for _s, _x, _y, w, h in rects)
        n_faults = max(4, int(fault_rate * cells))
        injector = FaultInjector(
            db.ecc, rects, geometry=memory.geometry, wear_tracker=tracker
        )
        records = injector.run(
            CampaignSpec(
                n_faults=n_faults,
                mode=mode,
                double_fraction=double_fraction,
                seed=seed,
            )
        )
        doubles = sum(1 for r in records if r.double)

        sweep = scrubber.sweep()
        recovered = 0
        for subarray, row, col in sweep.detected_cells:
            event = db.recover_cell(subarray, row, col)
            if event is not None or _cell_clean(db.ecc, subarray, row, col):
                # A remap also heals its chunk's other detected cells;
                # they count as recovered once they re-verify clean.
                recovered += 1
        resweep = scrubber.sweep()

        # Snapshot scrub charges from the controllers *before* the verify
        # queries below: fresh_timing resets MemoryStats per statement.
        stats = memory.stats
        scrub_reads, scrub_cycles = stats.scrub_reads, stats.scrub_cycles

        verified = 0
        for qid in VERIFY_QIDS:
            _run_query(db, qid, verify=True)
            verified += 1

        outcomes.append(
            FaultsOutcome(
                system=system_name,
                injected=len(records),
                singles=len(records) - doubles,
                doubles=doubles,
                corrected=sweep.corrected,
                detected=sweep.detected,
                recovered=recovered,
                scrub_reads=scrub_reads,
                scrub_cycles=scrub_cycles,
                resweep_corrected=resweep.corrected,
                resweep_detected=resweep.detected,
                retired_cells=db.allocator.retired_cells,
                wear_imbalance=round(tracker.imbalance(), 2),
                queries_verified=verified,
            )
        )
    return outcomes


def check(result):
    """The ``faults --smoke`` gate: :meth:`FaultsOutcome.check` of every
    outcome in the experiment's result (one dict per system)."""
    return [problem for o in result for problem in FaultsOutcome(**o).check()]
