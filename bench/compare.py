"""Compare benchmark run records of two commits, or two sets of one commit.

Run records are the JSON files ``bench/run.py --out PATH`` writes::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --same RUNS_A RUNS_B

The first form judges a change against its parent, per workload and
end-to-end metric, with the bounds and directions in BENCHMARK.json:

* **gain**: the change wins at least 9/10 of the pairs (ties count for
  neither side; at least 10 pairs), and the medians differ by more than
  the parent's interquartile range;
* **regression**: the change's median is worse than the parent's by more
  than the metric's bound;
* **unresolved**: either side's spread (IQR / median) exceeds the bound,
  unless every change run beats every parent run;
* otherwise **same**.

Runs are paired by seed (run both commits on the same seeds, alternating
which commit runs first).  Simulated metrics (``sim`` in the record) of
a pair must be identical, and the failed statement count must not rise.
``--same`` checks that two sets of runs of one commit agree: medians
within each bound, identical simulated metrics for equal seeds.  The exit
status is 1 when anything but gain or same is found.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(directory):
    """Untraced run records under ``directory``, by workload, in seed
    order."""
    by_workload = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda record: record["seed"])
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def better(a, b, direction):
    """Is ``a`` strictly better than ``b``?"""
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric):
    """Verdict for one metric given parent and change values in pair
    order; returns ``(verdict, detail)``."""
    direction, bound = metric["better"], metric["bound"]
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    worse = (median_c - median_p) / median_p
    if direction == "higher":
        worse = -worse
    detail = (f"parent {median_p:.6g} change {median_c:.6g} "
              f"({-worse:+.1%} better), wins {wins}/{len(pairs)}, "
              f"spread {spread(parent):.1%}/{spread(change):.1%}")
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", detail
    if worse > bound:
        return "regression", detail
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(median_c - median_p) > q3 - q1 and worse < 0):
        return "gain", detail
    return "same", detail


def sim_differences(a_records, b_records):
    """Seeds whose simulated metrics differ between the two sets."""
    a_by_seed = {r["seed"]: r["sim"] for r in a_records}
    return sorted(r["seed"] for r in b_records
                  if r["seed"] in a_by_seed and a_by_seed[r["seed"]] != r["sim"])


def compare(parent_dir, change_dir, spec, out=sys.stdout):
    parent, change = load_records(parent_dir), load_records(change_dir)
    clean = True
    for workload in sorted(set(parent) | set(change)):
        p_records, c_records = parent.get(workload, []), change.get(workload, [])
        print(f"{workload}: {len(p_records)} parent / {len(c_records)} "
              "change runs", file=out)
        if not p_records or not c_records:
            print("  missing runs on one side", file=out)
            clean = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, detail = judge(
                [r["metrics"][name] for r in p_records],
                [r["metrics"][name] for r in c_records], metric,
            )
            clean &= verdict in ("gain", "same")
            print(f"  {name:14} {verdict:11} {detail}", file=out)
        differing = sim_differences(p_records, c_records)
        failed_p = sum(r["failed"] for r in p_records)
        failed_c = sum(r["failed"] for r in c_records)
        print(f"  simulated metrics differ on seeds {differing or 'none'}; "
              f"failed statements {failed_p} -> {failed_c}", file=out)
        clean &= not differing and failed_c <= failed_p
    return clean


def same(a_dir, b_dir, spec, out=sys.stdout):
    a, b = load_records(a_dir), load_records(b_dir)
    clean = True
    for workload in sorted(set(a) | set(b)):
        a_records, b_records = a.get(workload, []), b.get(workload, [])
        print(f"{workload}: {len(a_records)} / {len(b_records)} runs", file=out)
        if not a_records or not b_records:
            clean = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name] for r in a_records]
            b_values = [r["metrics"][name] for r in b_records]
            median_a = statistics.median(a_values)
            median_b = statistics.median(b_values)
            shift = abs(median_b - median_a) / median_a
            agree = shift <= metric["bound"]
            clean &= agree
            print(f"  {name:14} {'agree' if agree else 'DISAGREE':9} "
                  f"{median_a:.6g} vs {median_b:.6g} ({shift:.1%}, bound "
                  f"{metric['bound']:.0%}), spread {spread(a_values):.1%}/"
                  f"{spread(b_values):.1%}", file=out)
        differing = sim_differences(a_records, b_records)
        print(f"  simulated metrics differ on seeds {differing or 'none'}",
              file=out)
        clean &= not differing
        clean &= all(r["failed"] == 0 for r in a_records + b_records)
    return clean


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare benchmark run records (see module docstring)."
    )
    parser.add_argument("--same", action="store_true",
                        help="both directories hold runs of one commit")
    parser.add_argument("first", help="parent runs (or first set)")
    parser.add_argument("second", help="change runs (or second set)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    check = same if args.same else compare
    return 0 if check(args.first, args.second, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
