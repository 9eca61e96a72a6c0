"""Command-line entry point: regenerate the paper's tables and figures.

Installed as ``rcnvm-experiments``::

    rcnvm-experiments --list
    rcnvm-experiments fig4 fig5
    rcnvm-experiments fig18 --scale 0.5
    rcnvm-experiments all --small --scale 0.25
    rcnvm-experiments fuzz --seed 0 --iterations 200
    rcnvm-experiments profile --query q7 --system rcnvm
    rcnvm-experiments recover --smoke
    rcnvm-experiments serve --tenants 8 --arrival mixed
    rcnvm-experiments tier --smoke

The ``fuzz``, ``profile``, ``recover``, ``serve``, and ``tier``
subcommands have their own flags and dispatch to :mod:`repro.fuzz.cli`
(differential SQL fuzzing), :mod:`repro.harness.profiling` (query-scoped
tracing spans + metric tables), :mod:`repro.harness.recover` (durability
crash-site sweep), :mod:`repro.harness.serve` (multi-tenant serving
front end), and :mod:`repro.harness.tiering` (hybrid DRAM + RC-NVM
capacity sweep; see EXPERIMENTS.md).
"""

import argparse
import sys
import time

from repro.harness import figures

#: Experiments that need no simulation run.
_STATIC = {
    "table1": lambda args: figures.table1(),
    "table2": lambda args: figures.table2(),
    "fig4": lambda args: figures.figure4(),
    "fig5": lambda args: figures.figure5(),
}

_SQL_GROUP = ("fig18", "fig19", "fig20", "fig21")

#: Measurement cache shared between the SQL figures and the energy view.
_SQL_MEASUREMENTS = [None]


def _multicore_result(args):
    """4-core OLXP comparison (extension experiment)."""
    from repro.harness.figures import FigureResult
    from repro.harness.multicore import compare_systems

    results = compare_systems(("RC-NVM", "DRAM"), scale=args.scale,
                              small=args.small, sched_kwargs=args.sched_kwargs)
    rows = [
        (name, r.makespan) + r.per_core_cycles
        for name, r in results.items()
    ]
    return FigureResult(
        name="Multicore",
        title="4-core OLXP makespan (extension; cycles)",
        headers=("system", "makespan", "core0", "core1", "core2", "core3"),
        rows=rows,
    )


def _energy_result(measurements):
    """Per-query energy table derived from the SQL suite (extension)."""
    from repro.harness.figures import FigureResult
    from repro.memsim.energy import MODELS, energy_of

    systems = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
    rows = []
    for qid, per_system in measurements.items():
        row = [qid]
        for system in systems:
            m = per_system[system]
            row.append(round(energy_of(MODELS[system], m.memory_stats, m.cycles).total_uj, 2))
        rows.append(tuple(row))
    return FigureResult(
        name="Energy",
        title="Memory energy per query (extension; uJ)",
        headers=("query",) + systems,
        rows=rows,
    )


def _faults_result(args, cache_config):
    """Reliability pipeline experiment (extension): inject, scrub, recover."""
    from repro.harness.figures import faults_figure
    from repro.harness.reliability import run_faults

    outcomes = run_faults(
        scale=args.scale,
        small=args.small,
        cache_config=cache_config,
        fault_rate=args.fault_rate,
        mode=args.fault_mode,
        double_fraction=args.double_fraction,
        seed=args.seed,
        sched_kwargs=args.sched_kwargs,
    )
    return faults_figure(outcomes)


EXPERIMENTS = ("table1", "table2", "fig4", "fig5", "fig17") + _SQL_GROUP + (
    "fig22",
    "fig23",
    "multicore",
    "energy",
    "faults",
)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.harness.profiling import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "recover":
        from repro.harness.recover import main as recover_main

        return recover_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.harness.serve import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "tier":
        from repro.harness.tiering import main as tier_main

        return tier_main(argv[1:])
    if argv and argv[0] == "wear":
        from repro.harness.wear import main as wear_main

        return wear_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="rcnvm-experiments",
        description="Regenerate the RC-NVM paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"which to run: {', '.join(EXPERIMENTS)}, or 'all' "
             "(or the 'fuzz'/'profile' subcommands, which take their own flags)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size scale factor (default 1.0)")
    parser.add_argument("--small", action="store_true",
                        help="use the small test geometry and caches")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check every query result against the reference engine")
    faults = parser.add_argument_group(
        "fault injection", "knobs for the 'faults' reliability experiment"
    )
    faults.add_argument("--seed", type=int, default=7,
                        help="fault campaign RNG seed (default 7)")
    faults.add_argument("--fault-rate", type=float, default=0.0005,
                        help="faults per occupied cell (default 5e-4)")
    faults.add_argument("--fault-mode", choices=("uniform", "hotline", "burst"),
                        default="uniform",
                        help="fault targeting mode (default uniform)")
    faults.add_argument("--double-fraction", type=float, default=0.25,
                        help="fraction of faults that are double-bit "
                             "(uncorrectable; default 0.25)")
    sched = parser.add_argument_group(
        "memory scheduler", "controller knobs for the simulation experiments "
        "(fig17-23, multicore, energy)"
    )
    sched.add_argument("--policy", choices=("frfcfs", "fcfs"), default=None,
                       help="scheduling policy (default frfcfs)")
    sched.add_argument("--page-policy", choices=("open", "closed", "adaptive"),
                       default=None, help="page-management policy (default open)")
    sched.add_argument("--queue-depth", type=int, default=None,
                       help="per-channel read-queue depth (default 32)")
    sched.add_argument("--write-queue-depth", type=int, default=None,
                       help="per-channel write-queue depth (default: read depth)")
    sched.add_argument("--age-cap", type=int, default=None,
                       help="FR-FCFS starvation age cap (default 16)")
    sched.add_argument("--drain-high", type=float, default=None,
                       help="write-drain high watermark fraction (default 0.75)")
    sched.add_argument("--drain-low", type=float, default=None,
                       help="write-drain low watermark fraction (default 0.25)")
    sched.add_argument("--adaptive-threshold", type=int, default=None,
                       help="adaptive page policy conflict streak threshold (default 4)")
    sched.add_argument("--write-coalescing", action="store_true", default=None,
                       help="merge queued writes to the same row/col buffer "
                            "entry before issue (default off)")
    sched.add_argument("--read-around-write", action="store_true", default=None,
                       help="let buffer-hitting reads preempt write drains, "
                            "bounded by the starvation age cap (default off)")
    args = parser.parse_args(argv)
    args.sched_kwargs = {
        key: value
        for key, value in (
            ("policy", args.policy),
            ("page_policy", args.page_policy),
            ("queue_depth", args.queue_depth),
            ("write_queue_depth", args.write_queue_depth),
            ("age_cap", args.age_cap),
            ("drain_high", args.drain_high),
            ("drain_low", args.drain_low),
            ("adaptive_threshold", args.adaptive_threshold),
            ("write_coalescing", args.write_coalescing),
            ("read_around_write", args.read_around_write),
        )
        if value is not None
    }

    if args.list or not args.experiments:
        print("available experiments:", ", ".join(EXPERIMENTS), "or 'all'")
        return 0

    wanted = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2

    cache_config = None
    if args.small:
        from repro.harness.systems import SMALL_CACHE_CONFIG

        cache_config = SMALL_CACHE_CONFIG

    sql_results = None
    for name in wanted:
        start = time.time()
        if name in _STATIC:
            result = _STATIC[name](args)
        elif name == "fig17":
            result = figures.figure17(
                n_tuples=max(64, int(4096 * args.scale)), cache_config=cache_config
            )
        elif name in _SQL_GROUP:
            if sql_results is None and _SQL_MEASUREMENTS[0] is not None:
                # A prior 'energy' run (this invocation or an earlier one
                # in-process) already simulated the suite; reuse it.
                sql_results = figures.sql_figures_from_measurements(
                    _SQL_MEASUREMENTS[0]
                )
            if sql_results is None:
                sql_results, _sql_meas = figures.run_figures_18_21(
                    scale=args.scale,
                    small=args.small,
                    cache_config=cache_config,
                    verify=args.verify,
                    sched_kwargs=args.sched_kwargs,
                )
                _SQL_MEASUREMENTS[0] = _sql_meas
            result = sql_results[
                {"fig18": "Figure 18", "fig19": "Figure 19",
                 "fig20": "Figure 20", "fig21": "Figure 21"}[name]
            ]
        elif name == "fig22":
            result = figures.figure22(
                scale=args.scale, small=args.small, cache_config=cache_config,
                sched_kwargs=args.sched_kwargs,
            )
        elif name == "fig23":
            result = figures.figure23(
                scale=args.scale, small=args.small, cache_config=cache_config,
                sched_kwargs=args.sched_kwargs,
            )
        elif name == "multicore":
            result = _multicore_result(args)
        elif name == "energy":
            if _SQL_MEASUREMENTS[0] is None:
                sql_results, _sql_meas = figures.run_figures_18_21(
                    scale=args.scale,
                    small=args.small,
                    cache_config=cache_config,
                    verify=args.verify,
                    sched_kwargs=args.sched_kwargs,
                )
                # The bug this fixes: the energy branch used to leave the
                # shared cache empty, forcing a second full suite
                # simulation when the SQL figures ran after it.
                _SQL_MEASUREMENTS[0] = _sql_meas
            result = _energy_result(_SQL_MEASUREMENTS[0])
        elif name == "faults":
            result = _faults_result(args, cache_config)
        else:  # pragma: no cover - guarded above
            continue
        elapsed = time.time() - start
        print(result.render())
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
