"""Property tests for the locality-aware channel scheduler.

Random request traces (seeded through hypothesis) are pushed through a
single channel controller under every scheduling/page-policy combination,
checking the invariants the rest of the stack relies on:

* every submitted request completes exactly once;
* completions are monotone on the shared bus (no two bursts overlap);
* plain FCFS never reorders (completions follow submission order);
* FR-FCFS never starves a request past the age cap.

``TestEveryKnobCombination`` widens the grid by the two write knobs
(``write_coalescing`` x ``read_around_write``) and draws the rest of the
controller's configuration: write-queue depth, drain watermarks, stream
quantum, age cap, per-request stream tags (a drawn cycle of up to eight)
and open- or closed-loop submission.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.addressing import Orientation
from repro.geometry import SMALL_RCNVM_GEOMETRY
from repro.memsim.controller import ChannelController
from repro.memsim.request import MemRequest
from repro.memsim.timing import LPDDR3_800_RCNVM

POLICY_GRID = [
    (policy, page)
    for policy in ChannelController.POLICIES
    for page in ChannelController.PAGE_POLICIES
]

#: Every combination of the controller's switchable knobs.
KNOB_GRID = [
    (policy, page, coalescing, around)
    for policy, page in POLICY_GRID
    for coalescing in (False, True)
    for around in (False, True)
]


@st.composite
def request_traces(draw):
    """A list of (bank, row, col, orientation, is_write, arrival) tuples."""
    n = draw(st.integers(1, 60))
    trace = []
    arrival = 0
    for _ in range(n):
        arrival += draw(st.integers(0, 60))
        trace.append((
            draw(st.integers(0, 3)),
            draw(st.integers(0, 4)),
            draw(st.integers(0, 4)),
            draw(st.sampled_from([Orientation.ROW, Orientation.COLUMN,
                                  Orientation.GATHER])),
            draw(st.booleans()),
            arrival,
        ))
    return trace


def build_requests(trace):
    return [
        MemRequest(channel=0, rank=0, bank=bank, subarray=0, row=row, col=col,
                   orientation=orientation, is_write=is_write, arrival=arrival)
        for bank, row, col, orientation, is_write, arrival in trace
    ]


def run_trace(trace, policy, page_policy, age_cap=4, queue_depth=6):
    controller = ChannelController(
        SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
        queue_depth=queue_depth, policy=policy, page_policy=page_policy,
        age_cap=age_cap, adaptive_threshold=2,
    )
    requests = build_requests(trace)
    for req in requests:
        controller.submit(req)
    controller.drain()
    return controller, requests


class TestSchedulerProperties:
    @pytest.mark.parametrize("policy,page_policy", POLICY_GRID)
    @given(trace=request_traces())
    @settings(max_examples=30, deadline=None)
    def test_every_request_completes_exactly_once(self, policy, page_policy,
                                                  trace):
        controller, requests = run_trace(trace, policy, page_policy)
        assert all(req.completion is not None for req in requests)
        assert not controller.pending
        # Exactly once: the controller serviced as many requests as were
        # submitted, and each burst got its own bus slot.
        assert controller.stats.accesses == len(requests)
        assert len({req.completion for req in requests}) == len(requests)

    @pytest.mark.parametrize("policy,page_policy", POLICY_GRID)
    @given(trace=request_traces())
    @settings(max_examples=30, deadline=None)
    def test_completions_monotone_on_shared_bus(self, policy, page_policy,
                                                trace):
        _, requests = run_trace(trace, policy, page_policy)
        completions = sorted(req.completion for req in requests)
        burst = LPDDR3_800_RCNVM.burst_cpu
        for a, b in zip(completions, completions[1:]):
            assert b - a >= burst

    @pytest.mark.parametrize("page_policy", ChannelController.PAGE_POLICIES)
    @given(trace=request_traces())
    @settings(max_examples=30, deadline=None)
    def test_fcfs_never_reorders(self, page_policy, trace):
        _, requests = run_trace(trace, "fcfs", page_policy)
        completions = [req.completion for req in requests]
        assert completions == sorted(completions)

    @pytest.mark.parametrize("page_policy", ChannelController.PAGE_POLICIES)
    @given(trace=request_traces(), age_cap=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_frfcfs_never_starves_past_age_cap(self, page_policy, trace,
                                               age_cap):
        controller, _ = run_trace(trace, "frfcfs", page_policy,
                                  age_cap=age_cap)
        assert controller.stats.max_bypass <= age_cap

    @pytest.mark.parametrize("policy,page_policy", POLICY_GRID)
    @given(trace=request_traces())
    @settings(max_examples=15, deadline=None)
    def test_scheduling_is_deterministic(self, policy, page_policy, trace):
        _, first = run_trace(trace, policy, page_policy)
        _, second = run_trace(trace, policy, page_policy)
        assert ([r.completion for r in first]
                == [r.completion for r in second])

    @pytest.mark.parametrize("policy,page_policy", POLICY_GRID)
    @given(trace=request_traces())
    @settings(max_examples=15, deadline=None)
    def test_closed_loop_agrees_on_request_count(self, policy, page_policy,
                                                 trace):
        """Resolving every completion eagerly must also service everything
        exactly once (the cpu.machine access pattern)."""
        controller = ChannelController(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            queue_depth=6, policy=policy, page_policy=page_policy,
            age_cap=4, adaptive_threshold=2,
        )
        requests = build_requests(trace)
        for req in requests:
            controller.submit(req)
            controller.completion_of(req)
        assert controller.stats.accesses == len(requests)
        assert not controller.pending


@st.composite
def knob_settings(draw):
    """The drawn half of a controller configuration, plus whether the
    trace is submitted open-loop (all, then drain) or closed-loop (each
    request resolved before the next is submitted)."""
    high = draw(st.integers(0, 4)) / 4
    return dict(
        write_queue_depth=draw(st.integers(1, 8)),
        drain_high=high,
        drain_low=draw(st.integers(0, int(high * 4))) / 4,
        stream_quantum=draw(st.integers(1, 4)),
        age_cap=draw(st.integers(1, 6)),
        track_streams=draw(st.booleans()),
    ), draw(st.booleans())


class TestEveryKnobCombination:
    @pytest.mark.parametrize(
        "policy,page_policy,write_coalescing,read_around_write", KNOB_GRID
    )
    @given(trace=request_traces(), knobs=knob_settings(),
           streams=st.lists(st.integers(0, 3), min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_requests_complete_once_and_counters_conserve(
            self, policy, page_policy, write_coalescing, read_around_write,
            trace, knobs, streams):
        config, closed_loop = knobs
        controller = ChannelController(
            SMALL_RCNVM_GEOMETRY, LPDDR3_800_RCNVM, supports_column=True,
            queue_depth=6, policy=policy, page_policy=page_policy,
            adaptive_threshold=2, write_coalescing=write_coalescing,
            read_around_write=read_around_write, **config,
        )
        requests = build_requests(trace)
        for index, req in enumerate(requests):
            req.stream = streams[index % len(streams)]
            controller.submit(req)
            if closed_loop:
                controller.completion_of(req)
        controller.drain()
        stats = controller.stats
        assert not controller.pending
        assert all(req.completion is not None for req in requests)
        assert all(req.completion >= req.arrival for req in requests)
        assert stats.accesses == len(requests)
        assert stats.check_conservation() == []
        if policy == "frfcfs":
            assert stats.max_bypass <= config["age_cap"]
        if config["track_streams"]:
            tallies = controller.stream_stats.values()
            assert sum(t[0] + t[1] for t in tallies) == len(requests)
            assert sum(t[2] for t in tallies) == stats.buffer_hits
            assert sum(t[3] for t in tallies) == stats.total_latency_cycles
