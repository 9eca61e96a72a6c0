"""Database facade: the library's main entry point.

Bundles a memory system, a cache hierarchy + core model, the allocator,
the SQL front end, planner, executor, and reference engine, and exposes a
small API::

    db = Database(make_rcnvm())
    db.create_table("t", [("f1", 8), ("f2", 8)], layout="column")
    db.insert_many("t", rows)
    outcome = db.execute("SELECT SUM(f2) FROM t WHERE f1 > x", params={"x": 10})
    outcome.result.value   # the real answer
    outcome.timing.cycles  # simulated execution time
"""

from dataclasses import dataclass
from typing import Optional

from repro.cache.hierarchy import CacheHierarchy, make_hierarchy
from repro.cache.synonym import SynonymDirectory
from repro.cpu.machine import Machine, RunResult
from repro.errors import LayoutError, SqlError
from repro.imdb.allocator import SubarrayAllocator
from repro.imdb.chunks import IntraLayout
from repro.imdb.executor import Executor, QueryResult
from repro.imdb.index import HashIndex
from repro.imdb.ordered_index import OrderedIndex
from repro.imdb.physmem import PhysicalMemory
from repro.imdb.planner import Planner
from repro.imdb.reference import ReferenceEngine
from repro.imdb.schema import Schema
from repro.imdb.sql_parser import parse
from repro.imdb.table import Table
from repro.memsim.system import MemorySystem
from repro.obs import tracer as obs


@dataclass
class ExecutionOutcome:
    """Everything one statement produced."""

    sql: str
    result: QueryResult
    timing: Optional[RunResult]
    plan: object
    trace_length: int
    #: The raw :class:`~repro.cpu.tracebuffer.TraceBuffer`, kept so
    #: conformance checks (repro.fuzz.invariants) can audit every access
    #: against chunk geometry after the fact.
    trace: object = None
    #: :class:`~repro.durability.manager.DurabilityReceipt` when the
    #: statement logged writes and committed durably, else None.
    durability: object = None

    @property
    def cycles(self):
        return self.timing.cycles if self.timing else None


class Database:
    """An in-memory database running on one simulated memory system."""

    def __init__(
        self,
        memory: MemorySystem,
        cache_config: Optional[dict] = None,
        window: int = 8,
        default_group_lines: int = 0,
        verify: bool = False,
        physmem: Optional[PhysicalMemory] = None,
        template_cache: bool = False,
    ):
        self.memory = memory
        #: Bumped by every DDL statement (table/index create and drop);
        #: the template cache keys entry validity on it.
        self.layout_epoch = 0
        #: :class:`~repro.cpu.tracetemplate.TraceTemplateCache` (None
        #: until requested); see :meth:`enable_template_cache`.
        self.template_cache = None
        #: ``physmem`` may be shared with a crashed predecessor: crash
        #: recovery builds a fresh Database over the *surviving* cells.
        self.physmem = physmem if physmem is not None else PhysicalMemory(
            memory.geometry
        )
        if getattr(memory, "tiered", False):
            # Hybrid DRAM + NVM memory: split the address space into two
            # independently packed halves (defaults — tables, indexes,
            # the WAL — all land in NVM) and attach the migration engine.
            from repro.imdb.allocator import TieredAllocator
            from repro.memsim.tiering import TieringEngine

            self.allocator = TieredAllocator(
                memory.geometry,
                memory.nvm_channels,
                allow_rotation=memory.supports_column,
            )
            self.tiering = TieringEngine(self)
        else:
            self.allocator = SubarrayAllocator(
                memory.geometry, allow_rotation=memory.supports_column
            )
            #: :class:`~repro.memsim.tiering.TieringEngine` on tiered
            #: memory, else None.
            self.tiering = None
        self.cache_config = dict(cache_config or {})
        self.window = window
        self.default_group_lines = default_group_lines
        self.verify = verify
        self.tables = {}
        self.planner = Planner(self)
        self.executor = Executor(self)
        self.reference = ReferenceEngine(self)
        self.hierarchy: CacheHierarchy = None
        self.machine: Machine = None
        #: Reliability pipeline (None until :meth:`enable_reliability`).
        self.ecc = None
        self.scrubber = None
        #: Durability manager (None until :meth:`enable_durability`).
        self.durability = None
        #: Every chunk remap forced by an uncorrectable error, in order.
        self.degradation_events = []
        if template_cache:
            self.enable_template_cache()
        self.reset_timing()

    # -- timing state ------------------------------------------------------------
    def reset_timing(self):
        """Cold caches, idle banks, zeroed statistics; data is preserved.

        Called between benchmark queries so each starts from the same
        micro-architectural state, like a fresh simulator checkpoint.
        """
        self.memory.reset()
        synonym = (
            SynonymDirectory(self.physmem.mapper) if self.memory.supports_column else None
        )
        self.hierarchy = make_hierarchy(synonym=synonym, **self.cache_config)
        self.machine = Machine(self.memory, self.hierarchy, window=self.window)

    # -- template cache ------------------------------------------------------------
    def enable_template_cache(self):
        """Memoize (plan, result, trace) per statement template so repeat
        executions skip the executor (see
        :mod:`repro.cpu.tracetemplate`).  Returns the cache."""
        from repro.cpu.tracetemplate import TraceTemplateCache

        if self.template_cache is None:
            self.template_cache = TraceTemplateCache(self)
        return self.template_cache

    # -- durability ---------------------------------------------------------------
    def enable_durability(self, wal_rows=None, injector=None):
        """Reserve the write-ahead log and turn on durable commits.

        Must be called *before* any table is created: the WAL rectangle
        is the allocator's first placement, which is what makes
        recovery's replayed placements land exactly where the crashed
        database put them.  Returns the
        :class:`~repro.durability.manager.DurabilityManager`.
        """
        from repro.durability.manager import DurabilityManager

        if self.durability is not None:
            return self.durability
        if self.tables:
            raise LayoutError(
                "enable_durability must run before any table is created "
                "(the WAL placement anchors recovery's allocator replay)"
            )
        self.durability = DurabilityManager(self, wal_rows=wal_rows)
        self.durability.injector = injector
        if self.scrubber is not None:
            self.scrubber.crash_hook = (
                lambda: self.durability.crash_point("mid-scrub")
            )
        return self.durability

    # -- reliability --------------------------------------------------------------
    def enable_reliability(self, scrub_cycle_budget=None):
        """Protect every table with SECDED ECC and attach a scrubber.

        Existing tables get per-chunk backups (functional reference
        copies); tables created later are protected automatically.
        Returns the :class:`~repro.reliability.scrub.ScrubScheduler`.
        """
        from repro.memsim.ecc import EccStore
        from repro.reliability.scrub import ScrubScheduler

        if self.ecc is None:
            self.ecc = EccStore(self.physmem)
            self.scrubber = ScrubScheduler(
                self.ecc, self.memory, cycle_budget=scrub_cycle_budget
            )
            if self.durability is not None:
                self.scrubber.crash_hook = (
                    lambda: self.durability.crash_point("mid-scrub")
                )
        elif scrub_cycle_budget is not None:
            self.scrubber.cycle_budget = scrub_cycle_budget
        for table in self.tables.values():
            if table.ecc is None:
                table.enable_reliability(self.ecc, recovery=self._recover_chunk)
        return self.scrubber

    def _recover_chunk(self, table, chunk, cell):
        """Remap one chunk off a damaged rectangle and record the event.

        This is the single recovery path: tables call it on uncorrectable
        demand reads, and :meth:`recover_cell` / :meth:`checked_run` route
        through it too."""
        from repro.reliability.recovery import DegradationEvent

        crash_point = None
        if self.durability is not None:
            crash_point = lambda: self.durability.crash_point("during-remap")
        old, new = table.remap_chunk(chunk, crash_point=crash_point)
        event = DegradationEvent(
            table=table.name,
            cell=cell,
            old_placement=old,
            new_placement=new,
        )
        self.degradation_events.append(event)
        return event

    def _owner_of(self, subarray, row, col):
        """(table, chunk) whose placement covers one device cell."""
        for table in self.tables.values():
            for chunk in table.chunks:
                p = chunk.placement
                if (
                    p.bin_index == subarray
                    and p.y <= row < p.y + p.height
                    and p.x <= col < p.x + p.width
                ):
                    return table, chunk
        return None, None

    def recover_cell(self, subarray, row, col):
        """Remap the chunk owning an uncorrectable cell to fresh space.

        Returns the :class:`~repro.reliability.recovery.DegradationEvent`,
        or None when no chunk owns the cell (e.g. an index projection or
        already-retired space — nothing to rebuild)."""
        table, chunk = self._owner_of(subarray, row, col)
        if chunk is None:
            return None
        return self._recover_chunk(table, chunk, (subarray, row, col))

    def checked_run(self, run):
        """Verify one device run through ECC before the executor reads it.

        Single-bit faults are corrected in place.  On an uncorrectable
        (double-bit) error the database first scrubs the subarray and
        re-checks (scrub-then-reread), then remaps the victim chunk to a
        fresh rectangle rebuilt from its backup.  Returns the run to
        actually read — translated when recovery moved the chunk."""
        from repro.memsim.ecc import UncorrectableError
        from repro.reliability.recovery import translate_run

        detected = self.ecc.verify_run(
            run.subarray, run.vertical, run.fixed, run.start, run.count
        )
        if not detected:
            return run
        # Scrub-then-reread: a latent single-bit fault elsewhere in the
        # cell may have combined with a transient; sweep and re-verify.
        self.scrubber.sweep_subarray(run.subarray)
        detected = self.ecc.verify_run(
            run.subarray, run.vertical, run.fixed, run.start, run.count
        )
        if not detected:
            return run
        row, col = detected[0]
        table, chunk = self._owner_of(run.subarray, row, col)
        if chunk is None:
            raise UncorrectableError(
                f"uncorrectable error at subarray {run.subarray} "
                f"({row}, {col}) outside any chunk"
            )
        event = self._recover_chunk(table, chunk, (run.subarray, row, col))
        run = translate_run(run, event.old_placement, event.new_placement)
        detected = self.ecc.verify_run(
            run.subarray, run.vertical, run.fixed, run.start, run.count
        )
        if detected:
            raise UncorrectableError(
                f"uncorrectable error persisted after chunk remap at "
                f"subarray {run.subarray} {detected[0]}"
            )
        return run

    # -- schema ------------------------------------------------------------------
    def create_table(self, name, fields, layout="row") -> Table:
        if name in self.tables:
            raise LayoutError(f"table {name!r} already exists")
        self.layout_epoch += 1
        if isinstance(layout, str):
            layout = IntraLayout(layout)
        table = Table(name, Schema(fields), layout, self.physmem, self.allocator)
        self.tables[name] = table
        if self.durability is not None:
            self.durability.log_create_table(table)
        if self.ecc is not None:
            table.enable_reliability(self.ecc, recovery=self._recover_chunk)
        return table

    def drop_table(self, name):
        """Forget a table (its subarray space is not reclaimed — the
        online packer never moves placed chunks)."""
        if self.durability is not None and name in self.tables:
            self.durability.log_drop_table(name)
        self.layout_epoch += 1
        self.tables.pop(name, None)

    def table(self, name) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"no table named {name!r}") from None

    def insert_many(self, name, rows):
        if self.durability is not None and rows:
            schema = self.table(name).schema
            self.insert_packed(name, [schema.pack(row) for row in rows])
            return
        self.table(name).insert_many(rows)

    def insert_packed(self, name, packed):
        """Bulk-load pre-packed ``(n, tuple_words)`` cell data.  Under
        durability the INSERT record is logged before the cells are
        written — every durable load path comes through here."""
        table = self.table(name)
        packed = table.checked_packed(packed)
        if self.durability is not None:
            self.durability.log_insert(name, packed)
        table.insert_packed(packed)

    def create_index(self, table_name, field_name) -> HashIndex:
        """Build a hash index over one field (after loading; the index
        does not follow later inserts)."""
        table = self.table(table_name)
        if field_name in table.indexes:
            raise LayoutError(f"{table_name}.{field_name} is already indexed")
        if self.durability is not None:
            self.durability.log_create_index(table_name, field_name)
        self.layout_epoch += 1
        index = HashIndex(table, field_name)
        table.indexes[field_name] = index
        return index

    def drop_index(self, table_name, field_name):
        """Forget an index (its subarray space is not reclaimed)."""
        table = self.table(table_name)
        if self.durability is not None and field_name in table.indexes:
            self.durability.log_drop_index(table_name, field_name)
        self.layout_epoch += 1
        table.indexes.pop(field_name, None)

    def create_ordered_index(self, table_name, field_name) -> OrderedIndex:
        """Build a sorted-projection index for range predicates."""
        table = self.table(table_name)
        if field_name in table.ordered_indexes:
            raise LayoutError(
                f"{table_name}.{field_name} already has an ordered index"
            )
        if self.durability is not None:
            self.durability.log_create_ordered_index(table_name, field_name)
        self.layout_epoch += 1
        index = OrderedIndex(table, field_name)
        table.ordered_indexes[field_name] = index
        return index

    def drop_ordered_index(self, table_name, field_name):
        table = self.table(table_name)
        if self.durability is not None and field_name in table.ordered_indexes:
            self.durability.log_drop_ordered_index(table_name, field_name)
        self.layout_epoch += 1
        table.ordered_indexes.pop(field_name, None)

    # -- querying -----------------------------------------------------------------
    def plan(self, sql, params=None, selectivity_hint=None, group_lines=None):
        statement = parse(sql)
        return self.planner.plan(
            statement,
            params=params,
            selectivity_hint=selectivity_hint,
            group_lines=group_lines,
        )

    def execute(
        self,
        sql,
        params=None,
        selectivity_hint=None,
        group_lines=None,
        simulate=True,
        fresh_timing=True,
        verify=None,
        stream=0,
    ) -> ExecutionOutcome:
        """Parse, plan, execute, and (optionally) time one statement.

        ``fresh_timing`` resets caches/banks first so results are
        comparable across queries; ``verify`` (default: the database's
        ``verify`` flag) cross-checks the result against the naive
        reference engine.  ``stream`` tags the statement's memory
        requests with a tenant stream id (0 = untagged) — the tag rides
        the replay, not the (possibly shared, template-cached) trace.
        """
        if self.durability is not None:
            # A fresh statement group: records a failed prior statement
            # left behind stay uncommitted in the log.
            self.durability.begin_statement()
        with obs.span("query", sql=sql, system=self.memory.name) as qsp:
            statement = parse(sql)
            plan = self.planner.plan(
                statement,
                params=params,
                selectivity_hint=selectivity_hint,
                group_lines=group_lines,
            )
            verify = self.verify if verify is None else verify
            # The template cache stands down under durability (every
            # statement must log WAL records) and verification (the
            # point of verify is to re-execute).
            cache = self.template_cache
            use_cache = cache is not None and self.durability is None and not verify
            # Snapshot before the reference pass: its functional reads run the
            # same ECC demand checks, so recovery can fire there too.
            events_before = len(self.degradation_events)
            cached = None
            if use_cache:
                template_key = cache.template_key(
                    sql, selectivity_hint, group_lines
                )
                cached = cache.fetch(template_key, plan)
            if cached is not None:
                result, trace = cached
            else:
                expected = (
                    self.reference.execute(statement, params) if verify else None
                )
                versions_before = cache.versions_of(plan) if use_cache else None
                result, trace = self.executor.execute(plan, stream=stream)
                if expected is not None:
                    _check_result(sql, result, expected)
                if use_cache:
                    cache.store(template_key, plan, result, trace, versions_before)
            timing = None
            if simulate:
                if fresh_timing:
                    with obs.span("timing.reset"):
                        self.reset_timing()
                timing = self.machine.run(trace, stream=stream)
                timing.degradation_events = self.degradation_events[events_before:]
            if qsp.enabled:
                qsp.set(trace_length=len(trace))
                if timing is not None:
                    mem = timing.memory
                    qsp.set(
                        cycles=timing.cycles,
                        accesses=timing.accesses,
                        memory_accesses=mem["accesses"],
                        orientation_mix={
                            "row": mem["row_oriented"],
                            "column": mem["col_oriented"],
                            "gather": mem["gathers"],
                        },
                    )
        # Exported after __exit__ so the root span's wall time is final.
        if timing is not None and qsp.enabled:
            timing.spans = qsp.to_dict()
        receipt = None
        if self.durability is not None and self.durability.pending:
            # The persistence barrier: the statement only commits once its
            # dirty lines reach the cell arrays and the marker is durable.
            # May raise SimulatedCrash when an injector is armed.
            receipt = self.durability.commit_statement(self.machine)
        outcome = ExecutionOutcome(
            sql=sql,
            result=result,
            timing=timing,
            plan=plan,
            trace_length=len(trace),
            trace=trace,
            durability=receipt,
        )
        if self.tiering is not None:
            # After the commit barrier: migrations never run between a
            # WAL record and its commit marker.  ``simulate=False``
            # callers (the serving front end) replay traces later, so
            # they only observe heat here and migrate between dispatch
            # rounds (see ServingSimulator).
            self.tiering.note_statement(outcome, allow_migration=simulate)
        return outcome

    def explain(self, sql, params=None, **kwargs):
        """The plan the planner would choose, as a readable string."""
        return repr(self.plan(sql, params=params, **kwargs))

    def explain_costs(self, sql, params=None, **kwargs):
        """Price the chosen plan and its alternatives (see
        :func:`repro.imdb.cost.explain_costs`)."""
        from repro.imdb.cost import explain_costs

        return explain_costs(self, sql, params=params, **kwargs)

    def trace_to_file(self, path, sql, params=None, **kwargs):
        """Execute a statement and save its memory trace to ``path`` (the
        shape of the authors' released RCNVMTrace artifact).  Returns the
        access count.  Note: UPDATE statements mutate the data while the
        trace is generated, like any execution."""
        from repro.cpu.tracefile import save_trace

        plan = self.plan(sql, params=params, **kwargs)
        _result, trace = self.executor.execute(plan)
        return save_trace(path, trace)


def _check_result(sql, result, expected):
    if result.kind != expected.kind:
        raise AssertionError(
            f"{sql}: executor returned {result.kind}, reference {expected.kind}"
        )
    if result.kind == "scalar":
        matches = (
            abs(result.value - expected.value) < 1e-6
            if isinstance(result.value, float) or isinstance(expected.value, float)
            else result.value == expected.value
        )
        if not matches:
            raise AssertionError(
                f"{sql}: executor value {result.value} != reference {expected.value}"
            )
    elif result.kind == "count":
        if result.count != expected.count:
            raise AssertionError(
                f"{sql}: executor count {result.count} != reference {expected.count}"
            )
    else:
        if result.ordered or expected.ordered:
            matches = result.rows == expected.rows
        else:
            matches = sorted(result.rows) == sorted(expected.rows)
        if not matches:
            raise AssertionError(
                f"{sql}: executor rows differ from reference "
                f"({len(result.rows)} vs {len(expected.rows)})"
            )
