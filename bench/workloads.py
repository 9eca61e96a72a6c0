"""The benchmark's four workloads, their seeded inputs and output digests.

Every workload is driven only through public functions of ``repro``.
A workload builds its state in :meth:`Workload.setup`, yields one
zero-argument call per timed unit from :meth:`Workload.calls` (a
statement, or a serving round on tenant-serving), and turns each call's
output into digests and simulated counters in :meth:`Workload.observe`
and :meth:`Workload.finish`, which run outside the timed region.

Digests are SHA-256 over JSON with sorted keys, so they do not depend on
``PYTHONHASHSEED``, dict order or NumPy scalar types.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np

from repro.cpu.multicore import MulticoreMachine
from repro.durability.recovery import recover
from repro.harness.experiment import FIGURE_SYSTEMS, measure_query
from repro.harness.serve import build_tenants
from repro.harness.systems import build_system
from repro.imdb.database import Database
from repro.serving import ServingSimulator
from repro.workloads import datagen
from repro.workloads.queries import GROUP_CACHING_IDS, QUERIES, SQL_BENCHMARK_IDS
from repro.workloads.suite import BASE_TUPLES, build_benchmark_database, default_layout
from repro.workloads.tables import ALL_TABLES

#: Memory-statistics fields summed over a pass (see ``SimTally``).
MEMORY_FIELDS = (
    "reads", "writes", "buffer_empty_misses", "buffer_conflicts",
    "orientation_switches", "activations", "write_drain_episodes",
    "queue_occupancy_sum", "queue_occupancy_samples",
    "total_latency_cycles", "write_pulses", "wal_records", "wal_cells",
    "persist_flush_lines",
)


# -- digests -------------------------------------------------------------------
def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()


def _fields(record, skip=()):
    return {f.name: getattr(record, f.name)
            for f in dataclasses.fields(record) if f.name not in skip}


def result_digest(result):
    """Digest of a ``QueryResult``; unordered rows are sorted first, so
    an engine change that only reorders them still matches."""
    view = _fields(result)
    if result.rows is not None and not result.ordered:
        view["rows"] = sorted(result.rows)
    return digest(view)


def timing_digest(timing, receipt=None):
    """Digest of a ``RunResult`` without its ``spans`` (present only
    under a tracer) and ``degradation_events`` (object identities), plus
    the durability receipt when the statement committed."""
    view = _fields(timing, skip=("spans", "degradation_events"))
    if receipt is not None:
        view["durability"] = _fields(receipt)
    return digest(view)


def outcome_digests(outcome):
    return [result_digest(outcome.result),
            timing_digest(outcome.timing, outcome.durability)]


# -- simulated counters --------------------------------------------------------
class SimTally:
    """Simulated (deterministic) counters of one pass."""

    def __init__(self):
        self.cycles = 0
        self.latencies = []
        self.memory = dict.fromkeys(MEMORY_FIELDS, 0)
        self.serving = {}

    def add_statement(self, cycles, memory):
        self.cycles += cycles
        self.latencies.append(cycles)
        self.add_memory(memory)

    def add_memory(self, memory):
        for name in MEMORY_FIELDS:
            self.memory[name] += memory[name]

    @property
    def p99_cycles(self):
        if self.serving:
            return self.serving["p99_cycles"]
        return int(np.percentile(self.latencies, 99, method="higher"))

    def summary(self):
        """The values a run record compares exactly across commits."""
        return {
            "sim_cycles": self.cycles,
            "sim_p99_cycles": self.p99_cycles,
            "write_pulses": self.memory["write_pulses"],
        }


# -- seeded inputs -------------------------------------------------------------
#: Zipf exponent and read templates of the template-serving stream.
ZIPF_S = 1.2
TEMPLATE_IDS = tuple(f"Q{i}" for i in range(1, 12))
POOL_SIZE = 4


def _jitter(rng, value):
    """A parameter within 0.5% of ``value``: every seed keeps each
    query's selectivity (Q1 returns 10% +- 0.5% of table-a), so a pass
    costs about the same whatever the seed."""
    spread = max(1, value // 200)
    return int(value + rng.integers(-spread, spread + 1))


def template_stream(seed, n_statements):
    """``n_statements`` ``(qid, params)`` pairs over Q1-Q11.

    Template ``k`` (by rank, Q1 most popular) gets ``round(n * p_k)``
    statements with ``p_k`` proportional to ``k ** -1.2``: the counts
    are fixed, so seeds change only the order and the parameters, and a
    pass costs about the same on every seed.  Each template draws its
    parameters from a pool of four seeded bindings."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, len(TEMPLATE_IDS) + 1, dtype=float) ** -ZIPF_S
    counts = np.round(weights / weights.sum() * n_statements).astype(int)
    counts[0] += n_statements - counts.sum()
    stream = []
    for qid, count in zip(TEMPLATE_IDS, counts):
        defaults = QUERIES[qid].params
        pool = [
            {name: _jitter(rng, value) for name, value in defaults.items()}
            for _ in range(POOL_SIZE)
        ]
        stream.extend((qid, pool[rng.integers(POOL_SIZE)]) for _ in range(count))
    return [stream[i] for i in rng.permutation(len(stream))]


_RANGE_UPDATE = "UPDATE table-b SET f3 = x, f4 = y WHERE f10 > z AND f10 < w"


def durable_statements(seed, n_statements):
    """The shape of ``repro.harness.wear.build_workload``: range UPDATEs
    over table-b interleaved with Q1-Q3, with the 120-wide windows and the
    SET values drawn from ``seed``.  Returns ``[(sql, params, hint)]``."""
    rng = np.random.default_rng(seed)
    hot = SQL_BENCHMARK_IDS[:3]
    statements = []
    for index in range(n_statements):
        if index % 2 == 0:
            low = int(rng.integers(100, 780))
            statements.append((_RANGE_UPDATE, {
                "x": int(rng.integers(1, 10_000)),
                "y": int(rng.integers(1, 10_000)),
                "z": low, "w": low + 120,
            }, None))
        else:
            spec = QUERIES[hot[(index // 2) % len(hot)]]
            statements.append((spec.sql, spec.params, spec.selectivity_hint))
    return statements


# -- workloads -----------------------------------------------------------------
class Workload:
    """Base class; see the module docstring for the protocol."""

    name = None
    #: False when inputs are fixed (the paper's), so ``--seed`` is unused.
    uses_seed = True
    #: Build a fresh state for every pass (else one state for the run).
    fresh_per_pass = True
    #: Name of the bench-level span around each call.
    call_span = "stmt"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def config(self):
        """Sizes that determine the outputs; goldens record them."""
        raise NotImplementedError

    def statements_per_pass(self):
        return self.config()["statements"]

    def setup(self, verify=False):
        raise NotImplementedError

    def calls(self, state):
        raise NotImplementedError

    def observe(self, state, index, output, tally):
        """Digests of one call's output; returns ``(digests, weight)``
        where ``weight`` is the number of statements the call covered."""
        raise NotImplementedError

    def finish(self, state, tally):
        """End of a pass: returns ``(digests, failures)``."""
        return [], 0

    def counters(self, state):
        """Cumulative layer counters the state keeps itself."""
        return {}


class FigureSuite(Workload):
    """Table 2's Q1-Q13 on the four systems (Fig. 18-21) plus Q14/Q15 at
    five group sizes on RC-NVM (Fig. 23), each statement from cold
    timing via ``measure_query`` on freshly built databases."""

    name = "figure-suite"
    uses_seed = False
    group_sizes = (0, 32, 64, 96, 128)

    def config(self):
        return {"scale": 0.02 if self.tiny else 0.25}

    def statements_per_pass(self):
        return (len(FIGURE_SYSTEMS) * len(SQL_BENCHMARK_IDS)
                + len(GROUP_CACHING_IDS) * len(self.group_sizes))

    def setup(self, verify=False):
        scale = self.config()["scale"]
        # Fig. 23 gets its own RC-NVM database, as
        # run_group_caching_sweep builds one.
        systems = {system: system for system in FIGURE_SYSTEMS}
        systems["fig23"] = "RC-NVM"
        return {
            label: build_benchmark_database(
                build_system(system), scale=scale, verify=verify
            )
            for label, system in systems.items()
        }

    def statements(self):
        for system in FIGURE_SYSTEMS:
            for qid in SQL_BENCHMARK_IDS:
                yield system, QUERIES[qid], None
        for qid in GROUP_CACHING_IDS:
            for size in self.group_sizes:
                yield "fig23", QUERIES[qid], size

    def calls(self, state):
        for label, spec, size in self.statements():
            db = state[label]
            yield lambda db=db, spec=spec, size=size: measure_query(
                db, spec, group_lines=size
            )

    def observe(self, state, index, output, tally):
        tally.add_statement(output.cycles, output.memory_stats)
        return [digest(_fields(output))], 1


class TemplateServing(Workload):
    """A closed-loop client on one RC-NVM database with the template
    cache on: a seeded Zipf stream over read templates Q1-Q11."""

    name = "template-serving"
    fresh_per_pass = False

    def config(self):
        if self.tiny:
            return {"scale": 0.02, "statements": 40}
        return {"scale": 0.1, "statements": 280}

    def stream(self):
        return template_stream(self.seed, self.config()["statements"])

    def bindings(self):
        """Distinct ``(qid, params)`` of the stream, first-seen order."""
        seen = {}
        for qid, params in self.stream():
            seen.setdefault((qid, tuple(sorted(params.items()))), params)
        return seen

    def setup(self, verify=False):
        """Build and load the database, then fill the cache by executing
        every distinct binding once: the timed passes all hit."""
        db = build_benchmark_database(
            build_system("RC-NVM"), scale=self.config()["scale"]
        )
        db.enable_template_cache()
        for (qid, _key), params in self.bindings().items():
            spec = QUERIES[qid]
            db.execute(spec.sql, params=params,
                       selectivity_hint=spec.selectivity_hint)
        return {"db": db, "stream": self.stream()}

    def expected(self, state):
        """Per-position digests from executing every binding again with
        ``verify=True``: the executor runs (the cache stands down), the
        reference engine checks the result, and the fresh trace replays.
        A cached hit must reproduce both digests."""
        db = state["db"]
        by_binding = {}
        for (qid, key), params in self.bindings().items():
            spec = QUERIES[qid]
            outcome = db.execute(spec.sql, params=params,
                                 selectivity_hint=spec.selectivity_hint,
                                 verify=True)
            by_binding[(qid, key)] = outcome_digests(outcome)
        return [by_binding[(qid, tuple(sorted(params.items())))]
                for qid, params in state["stream"]]

    def calls(self, state):
        db = state["db"]
        for qid, params in state["stream"]:
            spec = QUERIES[qid]
            yield lambda spec=spec, params=params: db.execute(
                spec.sql, params=params, selectivity_hint=spec.selectivity_hint
            )

    def observe(self, state, index, output, tally):
        tally.add_statement(output.timing.cycles, output.timing.memory)
        return outcome_digests(output), 1

    def counters(self, state):
        stats = state["db"].template_cache.stats
        return {name: getattr(stats, name)
                for name in ("hits", "misses", "rebinds", "invalidations")}


class TenantServing(Workload):
    """``ServingSimulator`` with four tenants from ``build_tenants``
    (alternating open and closed arrivals, a 3-query window plus one
    range UPDATE each) on a 4-core ``MulticoreMachine``.  One call is
    one serving round; every statement of the round completes with it."""

    name = "tenant-serving"
    call_span = "serving"
    n_tenants = 4
    #: Mean arrival gap in cycles: 30 000 already sheds statements.
    mean_gap = 60_000

    def config(self):
        if self.tiny:
            return {"scale": 0.02, "statements_per_tenant": 8}
        return {"scale": 0.1, "statements_per_tenant": 240}

    def statements_per_pass(self):
        return self.n_tenants * self.config()["statements_per_tenant"]

    def tenants(self):
        return build_tenants(self.n_tenants, "mixed", self.mean_gap,
                             self.config()["statements_per_tenant"], self.seed)

    def setup(self, verify=False):
        memory = build_system("RC-NVM")
        db = build_benchmark_database(
            memory, scale=self.config()["scale"], verify=verify
        )
        machine = MulticoreMachine(memory, n_cores=4)
        return {"simulator": ServingSimulator(db, machine, self.tenants()),
                "completed": 0}

    def calls(self, state):
        simulator = state["simulator"]
        while not all(session.done for session in simulator.sessions):
            yield simulator.step

    def observe(self, state, index, output, tally):
        completed = sum(s.completed for s in state["simulator"].sessions)
        weight = completed - state["completed"]
        state["completed"] = completed
        return None, weight

    def finish(self, state, tally):
        # Every session is done, so run() only assembles the report.
        report = state["simulator"].run()
        expected = self.statements_per_pass()
        tally.cycles = report.makespan
        tally.add_memory(report.memory)
        tally.serving = {
            "rounds": report.rounds,
            "fairness": report.fairness,
            "shed": report.shed,
            "p99_cycles": max(t["p99_cycles"] for t in report.tenants),
        }
        failures = report.shed + max(0, expected - report.statements)
        return [[digest(report.to_dict())]], failures


class DurableWrites(Workload):
    """RC-NVM with ``enable_durability()`` and an 8-entry write queue,
    tables loaded through ``Database.insert_many`` (``datagen.populate``
    bypasses the WAL; see README), running seeded range UPDATEs
    interleaved with Q1-Q3.  After each pass the database is recovered
    from its WAL and every table compared with the live state."""

    name = "durable-writes"

    def config(self):
        if self.tiny:
            return {"scale": 0.02, "statements": 12}
        return {"scale": 0.1, "statements": 140}

    def setup(self, verify=False):
        memory = build_system("RC-NVM", write_queue_depth=8)
        db = Database(memory, verify=verify)
        db.enable_durability()
        layout = default_layout(memory)
        scale = self.config()["scale"]
        for name, fields in ALL_TABLES.items():
            table = db.create_table(name, fields(), layout=layout)
            n_tuples = max(64, int(BASE_TUPLES[name] * scale))
            packed = datagen.generate_packed(name, n_tuples, table.tuple_words)
            db.insert_many(name, [table.schema.unpack(row) for row in packed])
        return {"db": db}

    def calls(self, state):
        db = state["db"]
        for sql, params, hint in durable_statements(
            self.seed, self.config()["statements"]
        ):
            yield lambda sql=sql, params=params, hint=hint: db.execute(
                sql, params=params, selectivity_hint=hint
            )

    def observe(self, state, index, output, tally):
        # Read after the commit barrier, whose flush and WAL charges the
        # RunResult snapshot (taken at the end of replay) does not hold.
        tally.add_statement(output.timing.cycles,
                            state["db"].memory.stats.snapshot())
        return outcome_digests(output), 1

    def finish(self, state, tally):
        live = _tables(state["db"])
        recovered, _report = recover(state["db"])
        after = _tables(recovered)
        failures = sum(1 for name in set(live) | set(after)
                       if not _same_table(live.get(name), after.get(name)))
        return [], failures


def _tables(db):
    """``{name: (n_tuples, packed rows)}``, read chunk by chunk."""
    state = {}
    for name, table in db.tables.items():
        parts = [table.chunk_packed(chunk) for chunk in table.chunks]
        packed = (np.concatenate(parts) if parts
                  else np.empty((0, table.tuple_words), dtype=np.int64))
        state[name] = (table.n_tuples, packed)
    return state


def _same_table(a, b):
    return (a is not None and b is not None
            and a[0] == b[0] and np.array_equal(a[1], b[1]))


WORKLOADS = {cls.name: cls for cls in
             (FigureSuite, TemplateServing, TenantServing, DurableWrites)}
