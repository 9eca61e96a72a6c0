"""Tests of the benchmark itself (not part of tier-1):

    python -m pytest bench -q
"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import compare
import run

assert run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path)

SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = _cli("--workload", name, "--seed", "0", "--seconds", "0.1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = _last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0


def test_traced_run_prints_every_per_layer_metric_and_accounts(tmp_path):
    record = run.run_workload("durable-writes", 0, 0.1, trace=True, tiny=True,
                              out_dir=tmp_path)
    line = json.loads(run.result_line(record, SPEC))
    for metric in SPEC["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = record["metrics"]
    # Self times of every layer add up to the traced pass time.
    self_total = sum(metrics[f"{name}.self_s"] for name in
                     ("stmt", "parse", "plan", "exec", "template", "reset",
                      "replay", "mc_replay", "serving", "durability"))
    assert self_total == pytest.approx(metrics["trace.traced_pass_cpu_s"],
                                       rel=0.05)
    assert metrics["durability.self_s"] > 0 and metrics["exec.self_s"] > 0
    chrome = json.loads((tmp_path / "durable-writes-seed0.chrome.json").read_text())
    assert chrome["traceEvents"]


def test_planted_wrong_result_is_counted(monkeypatch):
    from repro.imdb.executor import Executor

    original = Executor.execute

    def wrong(self, plan, stream=0):
        result, trace = original(self, plan, stream)
        if result.kind == "scalar":
            result.value += 1
        return result, trace

    monkeypatch.setattr(Executor, "execute", wrong)
    record = run.run_workload("template-serving", 0, 0.1, tiny=True)
    assert not record["correct"]
    assert record["failed"] > 0


def test_golden_mismatch_is_counted(tmp_path):
    run.run_workload("durable-writes", 0, 0.1, tiny=True,
                     golden_dir=tmp_path, write_golden=True)
    path = tmp_path / "durable-writes-seed0.json"
    golden = json.loads(path.read_text())
    golden["digests"][3][0] = "0" * 64
    path.write_text(json.dumps(golden))
    record = run.run_workload("durable-writes", 0, 0.1, tiny=True,
                              golden_dir=tmp_path)
    assert record["golden"] == "mismatch"
    assert record["failed"] == 1


def test_digests_do_not_depend_on_hash_seed(tmp_path):
    texts = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        code = (f"import run; run.import_program(); "
                f"run.run_workload('tenant-serving', 0, 0.1, tiny=True, "
                f"golden_dir={str(out)!r}, write_golden=True)")
        subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR,
                       check=True, timeout=170,
                       env={"PYTHONHASHSEED": hash_seed, "PATH": ""})
        texts.append((out / "tenant-serving-seed0.json").read_text())
    assert texts[0] == texts[1]


def test_seeded_streams_are_deterministic():
    assert workloads.template_stream(0, 400) == workloads.template_stream(0, 400)
    assert workloads.template_stream(0, 400) != workloads.template_stream(1, 400)
    assert (workloads.durable_statements(0, 180)
            == workloads.durable_statements(0, 180))
    assert (workloads.durable_statements(0, 180)
            != workloads.durable_statements(1, 180))
    tenants = [workloads.TenantServing(seed).tenants() for seed in (0, 0, 1)]
    assert tenants[0] == tenants[1] != tenants[2]


def test_template_stream_follows_zipf_ranks():
    stream = workloads.template_stream(0, 400)
    counts = [sum(1 for qid, _ in stream if qid == t)
              for t in workloads.TEMPLATE_IDS]
    assert len(stream) == 400
    assert counts == sorted(counts, reverse=True)
    assert all(len({tuple(p.items()) for q, p in stream if q == t})
               <= workloads.POOL_SIZE for t in workloads.TEMPLATE_IDS)


def test_missing_program_source_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = _cli("--workload", "figure-suite", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- compare.py rules on synthetic records --------------------------------------
def _write_runs(directory, values, sim=None, failed=0, metric="pass_cpu_s"):
    directory.mkdir()
    for seed, value in enumerate(values):
        metrics = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        metrics[metric] = value
        record = {"workload": "w", "seed": seed, "trace": False,
                  "metrics": metrics, "failed": failed,
                  "sim": sim if sim is not None else {"sim_cycles": seed}}
        (directory / f"w-{seed}.json").write_text(json.dumps(record))


def _verdict(tmp_path, parent, change, metric="pass_cpu_s"):
    _write_runs(tmp_path / "p", parent, metric=metric)
    _write_runs(tmp_path / "c", change, metric=metric)
    spec_metric = next(m for m in SPEC["end_to_end"] if m["name"] == metric)
    records = (compare.load_records(tmp_path / "p")["w"],
               compare.load_records(tmp_path / "c")["w"])
    return compare.judge([r["metrics"][metric] for r in records[0]],
                         [r["metrics"][metric] for r in records[1]],
                         spec_metric)[0]


STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


def _bound(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


def test_compare_gain_needs_nine_of_ten_wins(tmp_path):
    assert _verdict(tmp_path, STEADY, [v * 0.9 for v in STEADY]) == "gain"


def test_compare_eight_of_ten_wins_is_no_gain(tmp_path):
    change = [v * 0.9 for v in STEADY[:8]] + [1.2, 1.2]
    assert _verdict(tmp_path, STEADY, change) == "same"


def test_compare_gain_smaller_than_parent_iqr_is_same(tmp_path):
    assert _verdict(tmp_path, STEADY, [v - 0.005 for v in STEADY]) == "same"


def test_compare_regression_beyond_bound(tmp_path):
    worse = 1 + 1.5 * _bound("pass_cpu_s")
    assert _verdict(tmp_path, STEADY, [v * worse for v in STEADY]) == "regression"


def test_compare_slowdown_within_bound_is_same(tmp_path):
    worse = 1 + 0.5 * _bound("pass_cpu_s")
    assert _verdict(tmp_path, STEADY, [v * worse for v in STEADY]) == "same"


def test_compare_higher_is_better_direction(tmp_path):
    worse = 1 - 1.5 * _bound("stmt_per_s")
    assert _verdict(tmp_path, STEADY, [v * worse for v in STEADY],
                    metric="stmt_per_s") == "regression"


def test_compare_wide_spread_is_unresolved(tmp_path):
    noisy = [1.0, 1.5, 0.6, 1.0, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0]
    assert _verdict(tmp_path, STEADY, noisy) == "unresolved"


def test_compare_flags_simulated_difference_and_more_failures(tmp_path):
    _write_runs(tmp_path / "p", STEADY)
    _write_runs(tmp_path / "c", STEADY, sim={"sim_cycles": -1}, failed=1)
    assert not compare.compare(tmp_path / "p", tmp_path / "c", SPEC,
                               out=io.StringIO())
    assert compare.compare(tmp_path / "p", tmp_path / "p", SPEC,
                           out=io.StringIO())


def test_compare_same_mode(tmp_path):
    _write_runs(tmp_path / "a", STEADY)
    _write_runs(tmp_path / "b", [v * 1.03 for v in STEADY])
    _write_runs(tmp_path / "c", [v * 1.5 for v in STEADY])
    sink = io.StringIO()
    assert compare.same(tmp_path / "a", tmp_path / "b", SPEC, out=sink)
    assert not compare.same(tmp_path / "a", tmp_path / "c", SPEC, out=sink)
