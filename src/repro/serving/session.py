"""Tenant specs and per-tenant session state.

A :class:`TenantSpec` describes one simulated client: its statement mix,
arrival model and offered load.  A :class:`TenantSession` is the live
state the simulator advances — the arrival process, the admission queue,
and the tenant's SLO instruments (latency histogram, completion/shed
counters, queue-depth gauge) registered in a shared
:class:`repro.obs.metrics.MetricsRegistry` under ``tenant=<name>`` labels.
"""

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.serving.arrivals import ARRIVAL_KINDS, make_arrivals


@dataclass(frozen=True)
class TenantSpec:
    """One simulated client session's workload description."""

    name: str
    #: Positive stream id tagged onto every memory request the tenant's
    #: statements issue (0 is reserved for untagged traffic).
    stream: int
    #: Statement mix, cycled in order: ``(sql, params, selectivity_hint)``.
    statements: Sequence[Tuple[str, dict, float]]
    #: How many statements the session issues in total.
    n_statements: int = 16
    #: ``open`` (Poisson, load-independent) or ``closed`` (think time).
    arrival: str = "open"
    #: Mean interarrival / think gap in simulated cycles.
    mean_gap: int = 20_000
    #: Tenant-private RNG seed for the arrival process.
    seed: int = 0

    def __post_init__(self):
        if self.stream < 1:
            raise ValueError("tenant stream ids start at 1 (0 = untagged)")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        if not self.statements:
            raise ValueError(f"tenant {self.name!r} has an empty statement mix")
        if self.n_statements < 1:
            raise ValueError("n_statements must be at least 1")


@dataclass
class _Pending:
    """One admitted statement waiting for dispatch."""

    index: int
    sql: str
    params: dict
    hint: float
    arrival: int


class TenantSession:
    """Live serving state for one tenant."""

    def __init__(self, spec: TenantSpec, registry):
        self.spec = spec
        self.stream = spec.stream
        self.arrivals = make_arrivals(spec.arrival, spec.mean_gap, spec.seed)
        self.queue = deque()
        self.issued = 0
        self.dispatched = 0
        self.completed = 0
        self.shed = 0
        self.sum_latency = 0
        self.last_arrival = 0
        self.last_completion = 0
        self.next_arrival = self.arrivals.next_arrival(0, 0)
        #: Queue depth integrated over admission decisions (mean depth =
        #: ``depth_sum / depth_samples``).
        self.depth_sum = 0
        self.depth_samples = 0
        labels = {"tenant": spec.name}
        self.latency_hist = registry.histogram(
            "serving.latency_cycles", labels,
            description="statement latency, arrival to completion",
        )
        self.completed_counter = registry.counter(
            "serving.completed", labels, description="statements completed",
        )
        self.shed_counter = registry.counter(
            "serving.shed", labels,
            description="statements rejected by admission control",
        )
        self.depth_gauge = registry.gauge(
            "serving.queue_depth", labels, description="admitted, undispatched",
        )

    # -- arrival/admission ---------------------------------------------------
    @property
    def done(self):
        """All statements issued and none still queued or in flight."""
        return (
            self.issued >= self.spec.n_statements
            and not self.queue
            and self.dispatched == self.completed
        )

    def _statement(self, index):
        sql, params, hint = self.spec.statements[index % len(self.spec.statements)]
        return sql, params, hint

    def admit_until(self, now, admission_depth):
        """Generate arrivals up to ``now``; admit or shed each one.

        Closed-loop sessions only generate their next arrival once the
        previous statement completed (``next_arrival`` is advanced in
        :meth:`complete`), so this naturally keeps one in flight.
        """
        spec = self.spec
        while self.issued < spec.n_statements and self.next_arrival <= now:
            arrival = self.next_arrival
            index = self.issued
            self.issued += 1
            self.depth_sum += len(self.queue)
            self.depth_samples += 1
            if len(self.queue) >= admission_depth:
                self.shed += 1
                self.shed_counter.inc()
                # A shed statement completes (as rejected) immediately;
                # closed-loop think time restarts from the rejection.
                self.last_completion = max(self.last_completion, arrival)
            else:
                sql, params, hint = self._statement(index)
                self.queue.append(_Pending(index, sql, params, hint, arrival))
            self.last_arrival = arrival
            if spec.arrival == "closed" and self.in_flight:
                # Next arrival exists only after this one finishes.
                self.next_arrival = None
                break
            self.next_arrival = self.arrivals.next_arrival(
                self.last_arrival, self.last_completion
            )
        self.depth_gauge.set(len(self.queue))

    @property
    def in_flight(self):
        """Admitted-but-unfinished statements (queued or dispatched)."""
        return len(self.queue) + (self.dispatched - self.completed)

    def pop(self):
        """Take the oldest queued statement for dispatch."""
        pending = self.queue.popleft()
        self.dispatched += 1
        self.depth_gauge.set(len(self.queue))
        return pending

    def complete(self, pending, completion):
        """Record one statement's completion at absolute cycle ``completion``."""
        self.completed += 1
        self.completed_counter.inc()
        latency = completion - pending.arrival
        self.sum_latency += latency
        self.latency_hist.record(latency)
        self.last_completion = max(self.last_completion, completion)
        if self.spec.arrival == "closed" and self.next_arrival is None:
            self.next_arrival = self.arrivals.next_arrival(
                self.last_arrival, self.last_completion
            )

    # -- reporting -----------------------------------------------------------
    def report(self, makespan):
        hist = self.latency_hist
        completed = self.completed
        return {
            "tenant": self.spec.name,
            "stream": self.stream,
            "arrival": self.spec.arrival,
            "mean_gap": self.spec.mean_gap,
            "issued": self.issued,
            "completed": completed,
            "shed": self.shed,
            "p50_cycles": hist.percentile(50),
            "p99_cycles": hist.percentile(99),
            "mean_latency_cycles": (
                self.sum_latency / completed if completed else 0.0
            ),
            #: Completions per million simulated cycles.
            "throughput_per_mcycle": (
                completed * 1_000_000 / makespan if makespan else 0.0
            ),
            "mean_queue_depth": (
                self.depth_sum / self.depth_samples if self.depth_samples else 0.0
            ),
        }
