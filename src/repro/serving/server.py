"""Round-based multi-tenant serving simulator.

The simulator advances simulated time in rounds.  Each round it

1. generates every tenant's arrivals up to ``now`` and admits or sheds
   them against the per-tenant admission depth,
2. dispatches queued statements round-robin across tenants — each
   statement executes *functionally* in dispatch order (so UPDATE
   visibility and template-cache version checks follow the serial
   dispatch schedule) and its memory trace becomes one segment,
3. replays the round's segments on the
   :class:`~repro.cpu.multicore.MulticoreMachine` with
   :meth:`~repro.cpu.multicore.MulticoreMachine.run_segmented`, each
   tenant pinned to ``core = tenant_index % n_cores`` (sessions keep
   their private-cache locality) and every request carrying the
   tenant's stream tag into the fair-share memory controllers,
4. records each statement's completion clock (absolute — the round
   starts at ``base_clocks=now``) into the tenant's SLO histogram and
   advances ``now`` to the round's last finish.

Arrivals that land mid-round are admitted at the next round boundary —
the round is the batching granularity of the front end, while the
*memory system* interleaves the round's statements at trace granularity.
"""

from dataclasses import dataclass
from typing import List

from repro.obs.metrics import MetricsRegistry
from repro.serving.session import TenantSession
from repro.serving.slo import fairness_ratio


@dataclass
class ServingReport:
    """Everything one serving run produced."""

    system: str
    makespan: int
    tenants: List[dict]
    #: max/min per-tenant throughput across tenants (inf if one starved).
    fairness: float
    #: Per-stream controller tallies (empty unless stream tracking is on).
    streams: dict
    #: Final merged memory-system snapshot (cumulative over all rounds).
    memory: dict
    rounds: int = 0
    statements: int = 0
    shed: int = 0

    def to_dict(self):
        return {
            "system": self.system,
            "makespan": self.makespan,
            "rounds": self.rounds,
            "statements": self.statements,
            "shed": self.shed,
            "fairness": self.fairness,
            "tenants": self.tenants,
            "streams": self.streams,
            "memory": self.memory,
        }


class ServingSimulator:
    """Drive N tenant sessions against one shared database.

    ``db`` and ``machine`` must share the same memory system; the
    machine's controllers arbitrate tenant streams (set a
    ``stream_quantum`` when building the system to tune fair share).
    """

    def __init__(self, db, machine, tenants, registry=None,
                 admission_depth=8, track_streams=True):
        if not tenants:
            raise ValueError("at least one tenant required")
        if machine.memory is not db.memory:
            raise ValueError("db and machine must share one memory system")
        streams = [spec.stream for spec in tenants]
        if len(set(streams)) != len(streams):
            raise ValueError(f"duplicate tenant stream ids: {streams}")
        if admission_depth < 1:
            raise ValueError("admission_depth must be at least 1")
        self.db = db
        self.machine = machine
        self.registry = registry if registry is not None else MetricsRegistry()
        self.admission_depth = admission_depth
        self.sessions = [TenantSession(spec, self.registry) for spec in tenants]
        if track_streams:
            db.memory.enable_stream_tracking()
        self.now = 0
        self.rounds = 0

    # -- one round -----------------------------------------------------------
    def _dispatch_round(self):
        """Pop queued statements fair round-robin; execute functionally;
        return the round's per-core segment queues plus completion
        bookkeeping keyed by token."""
        machine = self.machine
        n_cores = machine.n_cores
        core_segments = [[] for _ in range(n_cores)]
        inflight = {}
        # Rotate the starting tenant each round so dispatch-order ties
        # don't systematically favour tenant 0.
        order = list(range(len(self.sessions)))
        start = self.rounds % len(order)
        order = order[start:] + order[:start]
        progressed = True
        while progressed:
            progressed = False
            for index in order:
                session = self.sessions[index]
                if not session.queue:
                    continue
                pending = session.pop()
                outcome = self.db.execute(
                    pending.sql,
                    params=pending.params,
                    selectivity_hint=pending.hint,
                    simulate=False,
                    stream=session.stream,
                )
                token = (session.stream, pending.index)
                inflight[token] = (session, pending)
                core_segments[index % n_cores].append(
                    (outcome.trace, session.stream, token)
                )
                progressed = True
        return core_segments, inflight

    def step(self):
        """Run one round; returns False once every session is done."""
        sessions = self.sessions
        if all(session.done for session in sessions):
            return False
        for session in sessions:
            session.admit_until(self.now, self.admission_depth)
        if not any(session.queue for session in sessions):
            # Idle: jump to the earliest pending arrival.  Closed-loop
            # sessions always have one (in_flight is zero between rounds).
            upcoming = [
                session.next_arrival
                for session in sessions
                if session.next_arrival is not None
                and session.issued < session.spec.n_statements
            ]
            if not upcoming:
                return not all(session.done for session in sessions)
            self.now = max(self.now, min(upcoming))
            for session in sessions:
                session.admit_until(self.now, self.admission_depth)
        core_segments, inflight = self._dispatch_round()
        self.rounds += 1
        if inflight:
            result = self.machine.run_segmented(
                core_segments, base_clocks=self.now
            )
            for token, clock in result.segment_ends.items():
                session, pending = inflight[token]
                session.complete(pending, clock)
            self.now = max(result.segment_ends.values())
            self._last_memory = result.memory
        return True

    def run(self) -> ServingReport:
        """Run rounds until all sessions finish; returns the report."""
        self._last_memory = {}
        while self.step():
            pass
        makespan = self.now
        tenants = [session.report(makespan) for session in self.sessions]
        return ServingReport(
            system=self.db.memory.name,
            makespan=makespan,
            tenants=tenants,
            fairness=fairness_ratio(tenants),
            streams=self.db.memory.stream_snapshot(),
            memory=self._last_memory or self.db.memory.stats.snapshot(),
            rounds=self.rounds,
            statements=sum(t["completed"] for t in tenants),
            shed=sum(t["shed"] for t in tenants),
        )
