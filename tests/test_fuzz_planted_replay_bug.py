"""Sensitivity check: the fuzzer's replay check must catch a planted bug.

A one-cycle error is planted into every memoized replay-kernel outcome
(each ``run_kernel`` call whose outcome was already memoized on the trace
reports one cycle more).  A statement's own replay is the trace's first,
so only ``invariants.check_replay`` — which replays the trace again
through ``Machine.run`` — can see it.
"""

import pytest

from repro.cpu import machine as machine_module
from repro.cpu.replaykernel import _outcome_key, run_kernel
from repro.fuzz import CONFIGS, run_case, run_fuzz
from repro.fuzz.runner import load_case
from test_fuzz_planted_bug import FIXTURE


@pytest.fixture
def planted_memo_bug(monkeypatch):
    def off_by_one(machine, fin):
        memoized = _outcome_key(machine) in fin._kernel_cache
        result = run_kernel(machine, fin)
        if memoized:
            result.cycles += 1
        return result

    monkeypatch.setattr(machine_module, "run_kernel", off_by_one)


def test_replay_check_catches_a_wrong_memo_hit(planted_memo_bug):
    problems = run_case(load_case(FIXTURE), configs=[CONFIGS["rcnvm-col"]])
    assert problems
    assert all("Machine.run replay differs in cycles" in p for p in problems)


def test_fuzzer_reports_the_planted_memo_bug(planted_memo_bug):
    report = run_fuzz(
        seed=0, iterations=5, config_keys=["rcnvm-col"], shrink=False,
        max_failures=1,
    )
    assert not report.ok, "a memo hit one cycle off went undetected"
    assert any(
        "Machine.run replay differs in cycles" in p
        for p in report.failures[0].problems
    )


def test_fixture_replays_identically_on_clean_code():
    assert run_case(load_case(FIXTURE), configs=[CONFIGS["rcnvm-col"]]) == []
