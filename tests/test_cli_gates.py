"""The experiment table's smoke gates and the one CLI dispatcher.

Every gate condition of every gated experiment fails on a planted
regression: each case takes a passing result, breaks exactly one
condition, and expects one problem naming it (no simulation).  The real
``--smoke`` of every gated experiment passes through the dispatcher, and
the dispatcher turns a failing gate into exit 1 plus ``SMOKE FAIL``.
"""

import copy
import dataclasses
import json

import pytest

from repro.harness import cli

_EVENT = {"name": "query", "ph": "X", "ts": 0.0, "dur": 2.5, "pid": 1, "tid": 1}

#: One passing result per gated experiment, with every bounded value
#: sitting exactly on its bound.
PASSING = {
    "serve": {
        "report": {
            "tenants": [{"tenant": "tenant0", "completed": 4},
                        {"tenant": "tenant1", "completed": 4}],
            "shed": 0,
            "fairness": 3.0,
        },
        "hit_rate_delta": -0.005,
    },
    "wear": {
        "cells": {
            "baseline": {"totals": {"write_pulses": 60, "writes_coalesced": 0}},
            "coalesce+bypass": {"totals": {"write_pulses": 59,
                                           "writes_coalesced": 1}},
        },
        "read_p99_ratio": 1.05,
    },
    "recover": {
        "sites": [
            {"site": "pre-flush", "crashed_in": "UPDATE", "fired": True,
             "state_ok": True, "resumed_ok": True},
            {"site": "mid-flush", "crashed_in": "UPDATE", "fired": True,
             "state_ok": True, "resumed_ok": True},
        ],
    },
    "profile": {
        "system": "RC-NVM",
        "cycles": 900,
        "memory": {"accesses": 6, "row_oriented": 4, "col_oriented": 2,
                   "gathers": 0},
        "spans": {"name": "query", "metrics": {
            "cycles": 900, "memory_accesses": 6,
            "orientation_mix": {"row": 4, "column": 2, "gather": 0},
        }},
        "chrome_trace": {"traceEvents": [_EVENT]},
        "metrics": {"memory.reads": {"channel=0,system=RC-NVM": 4}},
        "template_hits": 2,
        "repeats": 3,
        "repeat_timings": [
            {"cycles": 900, "memory": {"accesses": 6, "row_oriented": 4}}
            for _ in range(3)
        ],
    },
}

#: ``(experiment, path to the broken value, planted value, problem)``.
PLANTED = [
    ("serve", ("report", "tenants", 1, "completed"), 0, "starved tenants ['tenant1']"),
    ("serve", ("report", "shed"), 3, "shed 3 statements"),
    ("serve", ("report", "fairness"), 3.01, "fairness ratio 3.01 > 3.0"),
    ("serve", ("hit_rate_delta",), -0.0051, "below global FIFO"),
    ("wear", ("cells", "coalesce+bypass", "totals", "write_pulses"), 60,
     "write pulses not reduced: 60"),
    ("wear", ("cells", "coalesce+bypass", "totals", "writes_coalesced"), 0,
     "no write was ever coalesced"),
    ("wear", ("read_p99_ratio",), 1.06, "read p99 regressed 1.060x"),
    ("recover", ("sites", 1, "fired"), False, "mid-flush: crash never fired"),
    ("recover", ("sites", 1, "state_ok"), False, "mid-flush: state mismatch"),
    ("recover", ("sites", 0, "resumed_ok"), False, "pre-flush: resume mismatch"),
    ("profile", ("spans", "name"), "plan", "root span is 'plan'"),
    ("profile", ("spans", "metrics", "cycles"), 899, "root span cycles 899"),
    ("profile", ("spans", "metrics", "memory_accesses"), 5,
     "root span memory_accesses 5"),
    ("profile", ("spans", "metrics", "orientation_mix", "column"), 1,
     "orientation_mix['column'] 1"),
    ("profile", ("chrome_trace", "traceEvents"), [], "chrome trace has no events"),
    ("profile", ("chrome_trace", "traceEvents", 0),
     {k: v for k, v in _EVENT.items() if k != "dur"}, "lacks 'dur'"),
    ("profile", ("chrome_trace", "traceEvents", 0, "ph"), "B",
     "malformed chrome trace event"),
    ("profile", ("metrics", "memory.reads"), {"channel=1,system=RC-NVM": 4},
     "registry lacks memory.reads for channel 0"),
    ("profile", ("template_hits",), 1, "template cache hits 1 != 2"),
    ("profile", ("repeat_timings", 2, "cycles"), 901,
     "repeat 3 timed differently from repeat 1 in cycles"),
    ("profile", ("repeat_timings", 1, "memory", "row_oriented"), 3,
     "repeat 2 timed differently from repeat 1 in memory"),
]


def _plant(result, path, value):
    """A deep copy of ``result`` with the value at ``path`` replaced."""
    result = copy.deepcopy(result)
    *parents, last = path
    target = result
    for key in parents:
        target = target[key]
    target[last] = value
    return result


@pytest.mark.parametrize("name", sorted(PASSING))
def test_passing_result_passes(name):
    assert cli.EXPERIMENTS[name].check(PASSING[name]) == []


@pytest.mark.parametrize(
    "name, path, value, problem", PLANTED,
    ids=[f"{case[0]}-{case[3]}" for case in PLANTED],
)
def test_gate_fails_on_planted_regression(name, path, value, problem):
    problems = cli.EXPERIMENTS[name].check(_plant(PASSING[name], path, value))
    assert len(problems) == 1
    assert problem in problems[0]


def test_every_gated_experiment_has_planted_cases():
    gated = {name for name, e in cli.EXPERIMENTS.items() if e.check is not None}
    assert gated == set(PASSING) == {case[0] for case in PLANTED}


@pytest.mark.parametrize("argv", [
    ["serve", "--smoke"],
    ["wear", "--smoke"],
    ["recover", "--smoke"],
    ["profile", "--smoke"],
    ["profile", "--smoke", "--template-cache", "--repeats", "3"],
])
def test_real_smoke_passes_through_the_dispatcher(argv, capsys):
    assert cli.main(argv) == 0
    assert f"SMOKE OK: {argv[0]}" in capsys.readouterr().out


def test_dispatcher_fails_on_a_failing_gate(monkeypatch, capsys):
    planted = dataclasses.replace(
        cli.EXPERIMENTS["profile"], check=lambda result: ["planted problem"]
    )
    monkeypatch.setitem(cli.EXPERIMENTS, "profile", planted)
    assert cli.main(["profile", "--smoke"]) == 1
    captured = capsys.readouterr()
    assert "SMOKE FAIL: profile: planted problem" in captured.err
    assert "SMOKE OK" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (["fig4", "--tenants", "3"], "fig4 does not take --tenants"),
    (["recover", "--scale", "0.5"], "recover does not take --scale"),
    (["serve", "--smoke", "--sweep"], "serve does not take --sweep with --smoke"),
    (["fig4", "--smoke"], "fig4 has no --smoke gate"),
    (["fig4", "--bogus"], "unrecognized arguments: --bogus"),
    (["profile", "--query", "q99"], "unknown query 'q99'"),
    (["tier", "--smoke"], "unknown experiment 'tier'"),
    (["wear", "--fraction", "0.5"], "unrecognized arguments: --fraction"),
    (["faults", "--smoke"], "unknown experiment 'faults'"),
    (["table1", "--seed", "3"], "table1 does not take --seed"),
    (["fig18", "--fault-rate", "0.1"], "unrecognized arguments: --fault-rate"),
])
def test_usage_errors_exit_two(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config", ["tiered-col", "rcnvm-row-ecc"])
def test_fuzz_refuses_an_unknown_config(config, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fuzz", "--configs", config, "--smoke"])
    assert exc.value.code == 2
    assert f"invalid choice: '{config}'" in capsys.readouterr().err


def test_json_writes_every_result_keyed_by_experiment(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(["fig4", "profile", "--small", "--scale", "0.05",
                     "--json", str(path)]) == 0
    written = json.loads(path.read_text())
    assert written["fig4"]["name"] == "Figure 4"
    assert written["fig4"]["rows"]
    assert written["profile"]["query"] == "Q7"
    assert cli.EXPERIMENTS["profile"].check(written["profile"]) == []
