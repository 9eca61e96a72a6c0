"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload figure-suite --seed 0 --seconds 15 --trace 0

Set-up, the untimed warm-up pass and each timed pass run back to back
in one single-threaded process.  Host time is process CPU time
(``time.process_time``), which leaves out time other processes take on
a shared machine; wall time goes into the run record only.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json,
or its per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import OrderedDict, deque
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"

#: Every workload is sized so one pass takes about this many CPU seconds
#: here; a run makes ``--seconds / PASS_SECONDS`` timed passes.  The
#: count depends on ``--seconds`` alone, so two commits compared at the
#: same setting take their minimums over the same number of samples.
PASS_SECONDS = 3.0
MIN_PASSES = 5
#: Template-serving builds its database this many times per run (the
#: other workloads build once per pass), so ``setup_s`` is a median.
SETUPS_PER_RUN = 3
#: No pass starts after this much wall time: a run must end within 180 s.
WALL_CAP_S = 140.0
#: CPU seconds :func:`calibrate` takes on the reference host (2 vCPUs,
#: Intel Xeon at 2.0 GHz, Python 3.11, NumPy 2.4) with nothing else
#: running; host times from a slower run are scaled to that speed.
CALIBRATION_REFERENCE_S = 0.073


def calibrate():
    """Time a fixed piece of work and return its CPU seconds.

    The work resembles the program's own: OrderedDict sets with LRU
    moves, deque traffic and slot attributes like the cache and
    controller models, then NumPy sorts and masks like the executor.
    Load that other processes put on a shared host slows it as it slows
    the workload; a run measures it before every timed pass (see
    :attr:`Run.speed`)."""
    sets = [OrderedDict() for _ in range(64)]
    queue = deque()
    slots = [_Slot(i) for i in range(256)]
    total = 0
    start = time.process_time()
    for i in range(100_000):
        key = (i * 2654435761) & 0x3FFF
        lines = sets[key & 63]
        if lines.get(key) is not None:
            lines.move_to_end(key)
        else:
            lines[key] = i
            if len(lines) > 8:
                lines.popitem(last=False)
        slot = slots[i & 255]
        slot.b += slot.a & 7
        queue.append(slot)
        if len(queue) > 8:
            total += queue.popleft().b
    rng = np.random.default_rng(0)
    for _ in range(6):
        values = rng.integers(0, 1 << 20, 40_000)
        total += int(np.unique(np.sort(values) & 0xFFF).size)
        total += int((values[values > 1000] * 3).sum() & 1)
    return time.process_time() - start


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a
        self.b = 0


def import_program():
    """Put this checkout's ``src`` first on ``sys.path``; False when the
    checkout holds no program source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


class PassResult:
    """What one pass produced."""

    def __init__(self, tally):
        #: ``(cpu_seconds, statements)`` per bench-level call
        self.samples = []
        self.digests = []
        self.failures = 0
        self.tally = tally
        self.counters = {}
        self.wall = 0.0
        #: Recorded spans and hook counts (traced passes only)
        self.spans = None
        self.counts = None

    @property
    def cpu(self):
        return sum(cpu for cpu, _n in self.samples)

    @property
    def statements(self):
        return sum(n for _cpu, n in self.samples)


def run_pass(workload, state, recorder=None, profiler=None):
    """Run every call of one pass; only the calls themselves are timed."""
    from workloads import SimTally

    result = PassResult(SimTally())
    before = workload.counters(state)
    wall = time.perf_counter()
    clock = time.process_time
    try:
        for index, call in enumerate(workload.calls(state)):
            if recorder is not None:
                recorder.stmt = index
                output, cpu = recorder.call(workload.call_span, call)
            else:
                if profiler is not None:
                    profiler.enable()
                start = clock()
                output = call()
                cpu = clock() - start
                if profiler is not None:
                    profiler.disable()
            digests, statements = workload.observe(state, index, output,
                                                   result.tally)
            result.samples.append((cpu, statements))
            if digests is not None:
                result.digests.append(digests)
        digests, failures = workload.finish(state, result.tally)
        result.digests.extend(digests)
        result.failures += failures
    except Exception:  # counted as a failure; the run goes on
        traceback.print_exc(file=sys.stderr)
        result.failures += 1
    result.wall = time.perf_counter() - wall
    after = workload.counters(state)
    result.counters = {name: after[name] - before[name] for name in after}
    return result


def mismatches(digests, expected):
    if expected is None:
        return 0
    return (sum(1 for got, want in zip(digests, expected) if got != want)
            + abs(len(digests) - len(expected)))


def golden_path(workload, golden_dir):
    suffix = f"-seed{workload.seed}" if workload.uses_seed else ""
    return Path(golden_dir) / f"{workload.name}{suffix}.json"


def check_golden(workload, expected, golden_dir, write):
    """Compare the warm-up digests with the committed golden file (or
    write it); returns ``(status, mismatching statements)``."""
    path = golden_path(workload, golden_dir)
    record = {"workload": workload.name, "config": workload.config(),
              "digests": expected}
    if workload.uses_seed:
        record["seed"] = workload.seed
    if write:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
        return "written", 0
    if not path.is_file():
        return "none", 0
    golden = json.loads(path.read_text())
    if golden["config"] != workload.config():
        return "none", 0
    bad = mismatches(expected, golden["digests"])
    return ("match" if bad == 0 else "mismatch"), bad


class Run:
    """One benchmark run: set-up, warm-up and the timed passes."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.started = time.perf_counter()
        self.setup_samples = []
        self.attempted = 0
        self.failed = 0
        self.expected = None
        self.shared = None
        self.calibrations = []

    @property
    def speed(self):
        """Factor that scales this run's host times to the reference
        host's speed.  Only a slower run is scaled: outside load only
        ever adds time, and the calibration's own run-to-run jitter
        would otherwise add noise to every run."""
        return min(1.0, CALIBRATION_REFERENCE_S / min(self.calibrations))

    def setup(self):
        start = time.process_time()
        state = self.workload.setup()
        self.setup_samples.append(time.process_time() - start)
        return state

    def account(self, result, compare=True):
        n = self.workload.statements_per_pass()
        bad = result.failures
        if compare:
            bad += mismatches(result.digests, self.expected)
        self.attempted += n
        self.failed += min(n, bad)

    def warm_up(self):
        """Establish the expected digests with reference checks on.

        Workloads that build per pass run one untimed pass on a database
        with ``verify=True``: the reference engine checks every result.
        Template-serving builds and fills its cache (timed as set-up),
        then re-executes each distinct binding with ``verify=True``."""
        workload = self.workload
        if workload.fresh_per_pass:
            result = run_pass(workload, workload.setup(verify=True))
            self.account(result, compare=False)
            if not result.failures:
                self.expected = result.digests
            return
        for _ in range(SETUPS_PER_RUN):
            self.shared = self.setup()
        self.attempted += workload.statements_per_pass()
        try:
            self.expected = workload.expected(self.shared)
        except Exception:  # a reference mismatch raises AssertionError
            traceback.print_exc(file=sys.stderr)
            self.failed += workload.statements_per_pass()

    def timed_pass(self, recorder=None, profiler=None):
        # Free the previous pass's databases first, so neither the
        # collector's work nor their memory lands in this pass.
        gc.collect()
        self.calibrations.append(calibrate())
        state = self.setup() if self.workload.fresh_per_pass else self.shared
        result = run_pass(self.workload, state, recorder, profiler)
        if recorder is not None:
            result.spans, result.counts = recorder.take()
        self.account(result)
        return result

    def passes(self, count, **kwargs):
        results = []
        while len(results) < count:
            if results and time.perf_counter() - self.started > WALL_CAP_S:
                break
            results.append(self.timed_pass(**kwargs))
        return results


def planned_passes(seconds):
    return max(MIN_PASSES, int(seconds // PASS_SECONDS))


def statement_costs(passes):
    """Each call's CPU seconds, taken as its minimum over the passes
    (other load on a shared host only ever adds time), and the number of
    statements each call covered."""
    length = max(len(p.samples) for p in passes)
    complete = [p for p in passes if len(p.samples) == length]
    cpu = np.array([[c for c, _n in p.samples] for p in complete]).min(axis=0)
    return cpu, np.array([n for _c, n in complete[0].samples])


def end_to_end(run, passes):
    """``(metrics, raw)``: the end-to-end metrics with host times scaled
    by :attr:`Run.speed`, and the same unscaled."""
    cpu, statements = statement_costs(passes)
    # A call covering several statements (a serving round) counts as
    # that many statements of its mean cost.
    per_statement = np.repeat(cpu / np.maximum(statements, 1), statements)
    p50, p90 = np.percentile(per_statement, [50, 90]) * 1e3
    raw = {
        "setup_s": statistics.median(run.setup_samples),
        "pass_cpu_s": float(cpu.sum()),
        "stmt_per_s": float(statements.sum() / cpu.sum()),
        "stmt_p50_ms": float(p50),
        "stmt_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = dict(raw)
    for name in ("setup_s", "pass_cpu_s", "stmt_p50_ms", "stmt_p90_ms"):
        metrics[name] = raw[name] * run.speed
    metrics["stmt_per_s"] = raw["stmt_per_s"] / run.speed
    return metrics, raw


def traced_run(run, out_dir):
    """Untraced passes, a kernel-eligibility pass, span-traced passes and
    one profiled pass; returns ``(passes, per-layer metrics)``."""
    import layers

    each = max(2, planned_passes(run.seconds) // 3)
    untraced = run.passes(each)
    recorder = layers.SpanRecorder()
    layers.install_eligibility_probe(recorder)
    try:
        eligibility = run.timed_pass(recorder=recorder).counts
    finally:
        recorder.restore()
    layers.install_hooks(recorder)
    try:
        traced = run.passes(each, recorder=recorder)
    finally:
        recorder.restore()
    profiler = cProfile.Profile()
    last = run.timed_pass(profiler=profiler)
    summaries = []
    for result in traced:
        summaries.append(layers.summarize(result.spans))
        summaries[-1]["counts"] = result.counts
    metrics = layers.layer_metrics(
        summaries, [p.cpu for p in untraced], eligibility,
        layers.fold_profile(profiler), last,
    )
    write_trace(run.workload, [result.spans for result in traced], out_dir)
    return untraced + traced + [last], metrics


def write_trace(workload, spans_by_pass, out_dir):
    import layers

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{workload.seed}"
    fields = ("name", "cpu_start", "cpu_end", "parent", "stmt")
    spans = [{"pass": index, **dict(zip(fields, span))}
             for index, pass_spans in enumerate(spans_by_pass)
             for span in pass_spans]
    Path(f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    Path(f"{stem}.chrome.json").write_text(
        json.dumps(layers.chrome_trace(spans_by_pass)) + "\n"
    )


def run_workload(name, seed, seconds, trace=False, tiny=False,
                 golden_dir=GOLDEN_DIR, write_golden=False, out_dir=OUT_DIR):
    """Run one workload; returns the run record (a JSON-ready dict)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny)
    run = Run(workload, seconds)
    run.warm_up()
    golden = "none"
    if run.expected is not None:
        golden, bad = check_golden(workload, run.expected, golden_dir,
                                   write_golden)
        run.failed += bad
    raw = None
    if trace:
        passes, metrics = traced_run(run, out_dir)
    else:
        passes = run.passes(planned_passes(seconds))
        metrics, raw = end_to_end(run, passes)
    last = passes[-1]
    return {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "config": workload.config(),
        "golden": golden,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "raw_metrics": raw,
        "calibration_s": run.calibrations,
        "sim": last.tally.summary(),
        "samples": {
            "passes": len(passes),
            "statements_per_pass": last.statements,
            "setups": len(run.setup_samples),
        },
        "passes": {
            "cpu_s": [p.cpu for p in passes],
            "wall_s": [p.wall for p in passes],
        },
        "run_wall_s": time.perf_counter() - run.started,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }


def result_line(record, spec):
    """The final stdout line: every metric BENCHMARK.json lists for the
    mode, with its unit."""
    section = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = record["metrics"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    })


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help=f"measured seconds: one timed pass per "
                             f"{PASS_SECONDS:g} s, at least {MIN_PASSES}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full run record as JSON")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate this workload's golden file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes (smoke tests; no goldens apply)")
    args = parser.parse_args(argv)
    if args.tiny and args.write_golden:
        parser.error("goldens are recorded at the benchmark's sizes only")
    return args


def main(argv=None):
    if not import_program() or not SPEC_PATH.is_file():
        print(f"bench: no program source under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    spec = load_spec()
    args = parse_args(argv, sorted(WORKLOADS))
    record = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), tiny=args.tiny,
                          write_golden=args.write_golden)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    samples = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {samples['passes']} x {samples['statements_per_pass']} "
          f"statements  golden: {record['golden']}")
    for name, value in record["metrics"].items():
        print(f"  {name:32} {value}")
    print(result_line(record, spec))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
