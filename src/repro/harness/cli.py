"""Command-line entry point: the paper's tables and figures, and the
extension experiments.

Installed as ``rcnvm-experiments``::

    rcnvm-experiments --list
    rcnvm-experiments fig18 --scale 0.5
    rcnvm-experiments all --small --scale 0.25
    rcnvm-experiments serve --tenants 8 --arrival mixed
    rcnvm-experiments wear --smoke
    rcnvm-experiments profile --query q7 --json q7.json
    rcnvm-experiments fuzz --seed 0 --iterations 200

Each experiment is one :class:`Experiment` of :data:`EXPERIMENTS`, and
:func:`main` is the one dispatcher for all of them (see EXPERIMENTS.md).
``fuzz`` is forwarded to :mod:`repro.fuzz.cli`, which has its own flags.
"""

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, Mapping, Optional

from repro.harness import figures, profiling, recover, serve, wear
from repro.harness.systems import SMALL_CACHE_CONFIG


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One entry of the experiment table.

    ``run(p)`` gets a namespace holding every key of ``params`` and
    returns ``(result, table)``: a JSON-ready result and its rendered
    text.  ``params`` maps each parameter to its default; one named like
    a flag (``queue_depth`` for ``--queue-depth``) is set by that flag, any
    other is fixed.  Under ``--smoke``, ``smoke`` overrides ``params``
    and ``check(result)`` returns the gate's problems, one string each;
    none means pass.
    """

    run: Callable
    params: Mapping
    smoke: Mapping = dataclasses.field(default_factory=dict)
    check: Optional[Callable] = None


#: Memory-controller flags, passed on as ``sched_kwargs``.
SCHED_FLAGS = (
    "policy", "page_policy", "queue_depth", "write_queue_depth", "age_cap",
    "drain_high", "drain_low", "adaptive_threshold", "write_coalescing",
    "read_around_write",
)


def _sched(p):
    """The controller flags given on the command line, as ``sched_kwargs``."""
    return {name: getattr(p, name) for name in SCHED_FLAGS
            if getattr(p, name) is not None}


def _cache_config(p):
    return SMALL_CACHE_CONFIG if p.small else None


def _sim(p):
    """The keywords every simulated figure takes from the flags."""
    return dict(scale=p.scale, small=p.small, cache_config=_cache_config(p),
                sched_kwargs=_sched(p))


#: The last SQL-suite run, ``(arguments, measurements)``: Figures 18-21
#: and the energy view share it while the arguments match.
_SQL_MEASUREMENTS = [None]


def _sql_measurements(p):
    """The SQL suite's measurements under ``p``; simulated again only when
    the arguments differ from the last run's."""
    key = (p.scale, p.small, p.verify, sorted(_sched(p).items()))
    if _SQL_MEASUREMENTS[0] is None or _SQL_MEASUREMENTS[0][0] != key:
        _figures, measurements = figures.run_figures_18_21(verify=p.verify, **_sim(p))
        _SQL_MEASUREMENTS[0] = (key, measurements)
    return _SQL_MEASUREMENTS[0][1]


def _multicore_figure(p):
    """4-core OLXP comparison (extension experiment)."""
    from repro.harness.multicore import compare_systems

    results = compare_systems(("RC-NVM", "DRAM"), scale=p.scale,
                              small=p.small, sched_kwargs=_sched(p))
    rows = [
        (name, r.makespan) + r.per_core_cycles
        for name, r in results.items()
    ]
    return figures.FigureResult(
        name="Multicore",
        title="4-core OLXP makespan (extension; cycles)",
        headers=("system", "makespan", "core0", "core1", "core2", "core3"),
        rows=rows,
    )


def _energy_figure(p):
    """Per-query energy table derived from the SQL suite (extension)."""
    from repro.memsim.energy import MODELS, energy_of

    systems = ("RC-NVM", "RRAM", "GS-DRAM", "DRAM")
    rows = []
    for qid, per_system in _sql_measurements(p).items():
        row = [qid]
        for system in systems:
            m = per_system[system]
            row.append(round(energy_of(MODELS[system], m.memory_stats, m.cycles).total_uj, 2))
        rows.append(tuple(row))
    return figures.FigureResult(
        name="Energy",
        title="Memory energy per query (extension; uJ)",
        headers=("query",) + systems,
        rows=rows,
    )


#: What the paper's figures and the multicore and energy extensions read.
_FIGURE_PARAMS = dict(
    scale=1.0, small=False, verify=False, **dict.fromkeys(SCHED_FLAGS),
)


def _figure(make):
    """An experiment rendering the :class:`FigureResult` ``make(p)``."""
    def run(p):
        figure = make(p)
        return vars(figure), figure.render()

    return Experiment(run, _FIGURE_PARAMS)


#: What ``all`` runs, in order.
_ALL = {
    "table1": _figure(lambda p: figures.table1()),
    "table2": _figure(lambda p: figures.table2()),
    "fig4": _figure(lambda p: figures.figure4()),
    "fig5": _figure(lambda p: figures.figure5()),
    "fig17": _figure(lambda p: figures.figure17(
        n_tuples=max(64, int(4096 * p.scale)), cache_config=_cache_config(p),
    )),
    "fig18": _figure(lambda p: figures.figure18(_sql_measurements(p))),
    "fig19": _figure(lambda p: figures.figure19(_sql_measurements(p))),
    "fig20": _figure(lambda p: figures.figure20(_sql_measurements(p))),
    "fig21": _figure(lambda p: figures.figure21(_sql_measurements(p))),
    "fig22": _figure(lambda p: figures.figure22(**_sim(p))),
    "fig23": _figure(lambda p: figures.figure23(**_sim(p))),
    "multicore": _figure(_multicore_figure),
    "energy": _figure(_energy_figure),
}

EXPERIMENTS = {
    **_ALL,
    "profile": Experiment(
        profiling.run_experiment,
        dict(query="Q7", system="RC-NVM", scale=0.1, small=False,
             template_cache=False, repeats=3, chrome_out=None),
        smoke=dict(small=True, scale=0.05),
        check=profiling.check_profile,
    ),
    "recover": Experiment(recover.run_experiment, {}, check=recover.check),
    "serve": Experiment(
        serve.run_experiment,
        dict(system="RC-NVM", scale=0.1, tenants=4, arrival="mixed",
             gap=30_000, statements=8, seed=0, small=False, sweep=False),
        smoke=dict(small=True, scale=0.05, statements=4, sweep=False),
        check=serve.check,
    ),
    "wear": Experiment(
        wear.run_experiment,
        dict(scale=0.1, rounds=6, small=False),
        smoke=dict(small=True, scale=0.05, rounds=5),
        check=wear.check,
    ),
}


def _usage(resolve):
    """An argparse ``type`` reporting ``resolve``'s ValueError as usage."""
    def convert(text):
        try:
            return resolve(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _parser():
    # Only the flags given reach the namespace: defaults are per
    # experiment, in its params.
    parser = argparse.ArgumentParser(
        prog="rcnvm-experiments", argument_default=argparse.SUPPRESS,
        description="Regenerate the RC-NVM paper's tables and figures and "
                    "run the extension experiments.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"which to run: {', '.join(EXPERIMENTS)}; 'all' "
                             f"runs {', '.join(_ALL)}; 'fuzz' runs the SQL "
                             "fuzzer, which takes its own flags")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--smoke", action="store_true",
                        help="fixed fast run of a gated experiment (profile, "
                             "recover, serve, wear); exit 1 unless its gate "
                             "passes")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the results as JSON, keyed by experiment")
    parser.add_argument("--scale", type=float,
                        help="table-size scale factor (default 1.0; 0.1 for "
                             "profile, serve, wear)")
    parser.add_argument("--small", action="store_true",
                        help="use the small test geometry and caches")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check every query result against the "
                             "reference engine")
    sched = parser.add_argument_group(
        "memory scheduler", "controller knobs for the paper's figures and "
        "the multicore and energy experiments"
    )
    sched.add_argument("--policy", choices=("frfcfs", "fcfs"),
                       help="scheduling policy (default frfcfs)")
    sched.add_argument("--page-policy", choices=("open", "closed", "adaptive"),
                       help="page-management policy (default open)")
    sched.add_argument("--queue-depth", type=int,
                       help="per-channel read-queue depth (default 32)")
    sched.add_argument("--write-queue-depth", type=int,
                       help="per-channel write-queue depth (default: read depth)")
    sched.add_argument("--age-cap", type=int,
                       help="FR-FCFS starvation age cap (default 16)")
    sched.add_argument("--drain-high", type=float,
                       help="write-drain high watermark fraction (default 0.75)")
    sched.add_argument("--drain-low", type=float,
                       help="write-drain low watermark fraction (default 0.25)")
    sched.add_argument("--adaptive-threshold", type=int,
                       help="adaptive page policy conflict streak threshold (default 4)")
    sched.add_argument("--write-coalescing", action="store_true",
                       help="merge queued writes to the same row/col buffer "
                            "entry before issue (default off)")
    sched.add_argument("--read-around-write", action="store_true",
                       help="let buffer-hitting reads preempt write drains, "
                            "bounded by the starvation age cap (default off)")
    profile = parser.add_argument_group("profile")
    profile.add_argument("--system", type=_usage(profiling.resolve_system),
                         help="memory system, e.g. rcnvm (also serve; "
                              "default RC-NVM)")
    profile.add_argument("--query", type=_usage(profiling.resolve_query),
                         help="benchmark query id (default Q7)")
    profile.add_argument("--template-cache", action="store_true",
                         help="serve the query through the plan/trace "
                              "template cache: the first execution misses")
    profile.add_argument("--repeats", type=int,
                         help="executions under --template-cache (default 3)")
    profile.add_argument("--chrome-out", metavar="PATH",
                         help="also write a Chrome trace (about:tracing)")
    scenario = parser.add_argument_group("serve, wear")
    scenario.add_argument("--seed", type=int,
                          help="serve: arrival seed (default 0)")
    scenario.add_argument("--tenants", type=int,
                          help="serve: tenant sessions (default 4)")
    scenario.add_argument("--arrival", choices=("open", "closed", "mixed"),
                          help="serve: arrival model; mixed alternates (default)")
    scenario.add_argument("--gap", type=int,
                          help="serve: mean arrival/think gap in cycles "
                               "(default 30000)")
    scenario.add_argument("--sweep", action="store_true",
                          help="serve: tenant-count x arrival-rate grid")
    scenario.add_argument("--rounds", type=int,
                          help="wear: passes over the statement mix "
                               "(default 6)")
    return parser


def _configure(parser, name, given, smoke):
    """``(experiment, params)`` for experiment ``name`` under the flags
    ``given``; usage errors exit through ``parser.error``."""
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        parser.error(f"unknown experiment {name!r}")
    if smoke and experiment.check is None:
        parser.error(f"{name} has no --smoke gate")
    fixed = experiment.smoke if smoke else {}
    for dest in given:
        if dest not in experiment.params or dest in fixed:
            parser.error(f"{name} does not take --{dest.replace('_', '-')}"
                         + (" with --smoke" if dest in fixed else ""))
    return experiment, argparse.Namespace(**{**experiment.params, **given, **fixed})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["fuzz"]:
        from repro.fuzz.cli import main as fuzz_main

        return fuzz_main(argv[1:])
    parser = _parser()
    try:
        given = vars(parser.parse_args(argv))
        names = given.pop("experiments", [])
        if given.pop("list", False) or not names:
            print("available experiments:", ", ".join(EXPERIMENTS), "or 'all'")
            return 0
        smoke, json_path = given.pop("smoke", False), given.pop("json", None)
        plan = [(name, *_configure(parser, name, given, smoke))
                for name in (list(_ALL) if "all" in names else names)]
    except SystemExit as exc:  # a usage error returns its status
        return exc.code

    status, results = 0, {}
    for name, experiment, params in plan:
        start = time.time()
        result, table = experiment.run(params)
        results[name] = result
        print(table)
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
        problems = experiment.check(result) if smoke else []
        if problems:
            print(f"SMOKE FAIL: {name}: {'; '.join(problems)}", file=sys.stderr)
            status = 1
        elif smoke:
            print(f"SMOKE OK: {name}")
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"[results written to {json_path}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
