"""The ``wear`` experiment: write-asymmetry ablation on RC-NVM.

NVM cells age with write pulses (dirty-buffer flushes that write the
cell array), so the controller's two write-path knobs — **write
coalescing** (merge queued writes to the same row/column buffer entry
before issue) and **read-around-write** (let buffer-hitting reads
preempt a drain, bounded by the starvation age cap) — trade wear and
write bandwidth against read latency.  This harness runs a write-heavy
OLXP workload over the four knob combinations and reports the
tradeoff: NVM ``write_pulses`` (with the :class:`WearTracker`'s
distribution) against read p99 latency.

Run as ``rcnvm-experiments wear`` (:mod:`repro.harness.cli`).
"""

from repro.harness.experiment import run_workload
from repro.harness.figures import FigureResult
from repro.harness.serve import UPDATE_SQL
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.memsim.endurance import attach_wear_tracker
from repro.memsim.stats import LatencyHistogram
from repro.workloads.queries import QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import build_benchmark_database

#: Statement counters summed across the workload (see ``run_workload``).
_SUM_KEYS = (
    "accesses", "reads", "writes", "buffer_hits",
    "dirty_flushes", "write_pulses", "writes_coalesced",
    "read_around_writes", "write_drain_episodes",
)

#: The four ablation cells: both knobs off (PR 1 draining), each knob
#: alone, and the full write path.
ABLATION_GRID = (
    ("baseline", False, False),
    ("coalesce", True, False),
    ("bypass", False, True),
    ("coalesce+bypass", True, True),
)


def build_workload(rounds=6, updates_per_round=3):
    """``rounds`` passes over an UPDATE-skewed statement mix.

    Each round interleaves the three hot suite queries (the reads whose
    p99 the gate watches) with ``updates_per_round`` range UPDATEs whose
    windows slide but overlap round to round, so the same physical rows
    are re-dirtied while earlier writebacks may still sit in the write
    queue.  Returns ``[(sql, params, hint), ...]``.
    """
    hot = SQL_BENCHMARK_IDS[:3]
    statements = []
    for round_index in range(rounds):
        for step in range(updates_per_round):
            low = 100 + ((round_index * updates_per_round + step) * 37) % 700
            statements.append((
                UPDATE_SQL,
                {"x": round_index + step + 1, "y": round_index + step + 2,
                 "z": low, "w": low + 120},
                None,
            ))
            q = QUERIES[hot[step % len(hot)]]
            statements.append((q.sql, q.params, q.selectivity_hint))
    return statements


def run_wear_cell(write_coalescing=False, read_around_write=False,
                  scale=0.1, rounds=6, small=False, sched_kwargs=None):
    """One ablation cell: RC-NVM with the given knob setting.

    The write queue defaults to 8 entries here (vs the controller's 32):
    the ablation needs the write path under pressure — with a deep queue
    the benchmark's write bursts never cross the drain watermark, and
    all four cells degenerate to the same drain-free schedule.
    """
    kwargs = dict(sched_kwargs or {})
    kwargs.setdefault("write_queue_depth", 8)
    kwargs["write_coalescing"] = write_coalescing
    kwargs["read_around_write"] = read_around_write
    memory = build_system("RC-NVM", small=small, **kwargs)
    tracker = attach_wear_tracker(memory)
    cache_config = SMALL_CACHE_CONFIG if small else None
    db = build_benchmark_database(memory, scale=scale,
                                  cache_config=cache_config)
    statements = build_workload(rounds=rounds)
    totals, cycles, memories = run_workload(db, statements, _SUM_KEYS)
    read_hist = LatencyHistogram.combined([
        LatencyHistogram.from_dict(memory["read_latency_hist"])
        for memory in memories
    ])
    return {
        "write_coalescing": write_coalescing,
        "read_around_write": read_around_write,
        "statements": len(statements),
        "cycles": cycles,
        "read_p50": read_hist.percentile(50),
        "read_p99": read_hist.percentile(99),
        "totals": totals,
        "wear": tracker.snapshot(),
    }


def run_wear(scale=0.1, rounds=6, small=False, sched_kwargs=None):
    """The full ablation: all four knob combinations on one workload."""
    cells = {}
    for label, coalescing, bypass in ABLATION_GRID:
        cells[label] = run_wear_cell(
            write_coalescing=coalescing, read_around_write=bypass,
            scale=scale, rounds=rounds, small=small,
            sched_kwargs=sched_kwargs,
        )
    base = cells["baseline"]
    full = cells["coalesce+bypass"]
    base_p99 = base["read_p99"]
    return {
        "config": {
            "system": "RC-NVM",
            "scale": scale,
            "rounds": rounds,
            "statements": base["statements"],
        },
        "cells": cells,
        "write_pulse_reduction": (
            base["totals"]["write_pulses"] - full["totals"]["write_pulses"]
        ),
        "read_p99_ratio": (
            full["read_p99"] / base_p99 if base_p99 else None
        ),
    }


def figure(result):
    """One :func:`run_wear` ablation as a table, one row per knob cell."""
    rows = []
    for label, _coalescing, _bypass in ABLATION_GRID:
        cell = result["cells"][label]
        totals = cell["totals"]
        rows.append((
            label, totals["write_pulses"], totals["writes_coalesced"],
            totals["read_around_writes"], totals["dirty_flushes"],
            cell["wear"]["max_wear"], cell["read_p99"], cell["cycles"],
        ))
    config = result["config"]
    notes = f"write pulses saved {result['write_pulse_reduction']}"
    if result["read_p99_ratio"] is not None:
        notes += f", read p99 ratio {result['read_p99_ratio']:.3f}"
    return FigureResult(
        name="Wear",
        title=(f"write-heavy workload, {config['statements']} statements, "
               f"{config['rounds']} rounds, scale {config['scale']}"),
        headers=("cell", "pulses", "coalesced", "bypasses", "flushes",
                 "max wear", "read p99", "cycles"),
        rows=rows,
        notes=notes,
    )


def run_experiment(p):
    """The ``wear`` experiment; returns ``(result, table)``."""
    result = run_wear(scale=p.scale, rounds=p.rounds, small=p.small)
    return result, figure(result).render()


def check(result):
    """The ``wear --smoke`` gate: the full write path must strictly reduce
    NVM write pulses on the write-heavy workload, coalescing must actually
    fire, and read p99 must stay within +5% of the knobs-off baseline."""
    base = result["cells"]["baseline"]["totals"]
    full = result["cells"]["coalesce+bypass"]["totals"]
    ratio = result["read_p99_ratio"]
    problems = []
    if full["write_pulses"] >= base["write_pulses"]:
        problems.append(
            f"write pulses not reduced: {full['write_pulses']} with "
            f"coalescing+bypass vs {base['write_pulses']} baseline"
        )
    if full["writes_coalesced"] < 1:
        problems.append("no write was ever coalesced")
    if ratio is not None and ratio > 1.05:
        problems.append(f"read p99 regressed {ratio:.3f}x (> 1.05x baseline)")
    return problems
