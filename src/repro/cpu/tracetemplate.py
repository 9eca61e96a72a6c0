"""Plan/trace template cache: memoized statement serving.

Repeatedly executing the same statement regenerates the same physical
plan and walks the same functional cells to emit the same trace — on the
serving path that regeneration dominates end-to-end cost.  The
:class:`TraceTemplateCache` memoizes ``(plan, result, trace)`` per
*statement template* (the whitespace-normalized SQL text plus the
planner knobs that shape the plan) and per *binding* (the fully resolved
plan, parameters baked in), so a repeat execution skips the executor
entirely and goes straight to replay — where the replay kernel's outcome,
memoized on the finalized trace per machine configuration, makes the run
cheap too: a repeat on a fresh machine only commits it (see
:mod:`repro.cpu.replaykernel`).

Correctness is epoch-based, never time-based:

* ``Database.layout_epoch`` — bumped by every DDL statement (table and
  index create/drop).  A template cached under an older epoch is
  invalidated on its next lookup.
* ``Table.geometry_epoch`` — bumped when chunk geometry changes
  (inserts appending chunks).  Cached traces address the old cells; any
  bump kills every entry touching the table.
* ``Table.content_version`` — bumped by functional writes that *change*
  a cell.  An UPDATE that mutated data invalidates dependents (and is
  itself never stored, because its own execution changed the versions);
  an idempotent UPDATE re-writing the same constants caches fine, which
  is exactly the miss→miss→hit fixed point repeated statements reach.

A repeat of an exact statement — the same SQL text, parameters,
``selectivity_hint`` and effective ``group_lines`` — skips parse and
plan as well: each template keeps a **plan memo** from the statement to
the binding it planned to, filled whenever that binding is stored, hit
or rebound.  :meth:`TraceTemplateCache.recall` serves a memoized
statement as a hit while its binding is valid by the epochs above, which
cover everything the planner reads (schema and indexes, chunk layout and
rotation, predicate-column data for selectivity and the UPDATE cost
model); a stale entry falls through to parse, plan and
:meth:`~TraceTemplateCache.fetch`, so every statement is counted once,
as it would be without the memo.

A **rebind** is the middle path: a known template arrives with new
parameter values.  The statement is re-planned (cheap — no trace is
generated), and when the new plan differs from a cached sibling only in
predicate constants *and* its trace provably does not depend on those
constants (full-column predicate scans feeding an aggregate; the
degenerate full-table scan), the cached trace is reused verbatim and
only the result is recomputed functionally.

The cache is deliberately bypassed by ``Database.execute`` when
durability is enabled (every statement must log WAL records) and when
result verification is on (the point of ``verify`` is to re-execute).
Each such statement is counted once, under the first of those reasons
that applied (``durability_bypasses``, ``verify_bypasses``).
"""

import time

import numpy as np

from repro.imdb.executor import QueryResult, _aggregate
from repro.imdb.planner import (
    AggregatePlan,
    FetchMethod,
    FilterFetchPlan,
    JoinPlan,
    _compare,
)


class TemplateCacheStats:
    """Counters for one :class:`TraceTemplateCache` (metrics-ready)."""

    INSTRUMENTS = {
        "hits": "counter",
        "misses": "counter",
        "rebinds": "counter",
        "invalidations": "counter",
        "stores": "counter",
        "rebind_ns": "counter",
        "durability_bypasses": "counter",
        "verify_bypasses": "counter",
        "entries": "gauge",
    }

    __slots__ = tuple(INSTRUMENTS)

    def __init__(self):
        self.hits = 0  # binding found, versions valid: trace + result reused
        self.misses = 0  # nothing reusable: the statement executed in full
        self.rebinds = 0  # trace reused, result recomputed for new params
        self.invalidations = 0  # entries dropped on stale epoch/version
        self.stores = 0  # bindings written (full executions + rebinds)
        self.rebind_ns = 0  # total wall time spent in rebind recomputes
        # Database.execute calls that stood down, by the first reason that
        # applied: durability is enabled, else verification is on.
        self.durability_bypasses = 0
        self.verify_bypasses = 0
        self.entries = 0  # live bindings across all templates (gauge)

    @property
    def lookups(self):
        return self.hits + self.misses + self.rebinds

    @property
    def hit_rate(self):
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self):
        out = {name: getattr(self, name) for name in self.INSTRUMENTS}
        out["hit_rate"] = round(self.hit_rate, 4)
        return out

    def __repr__(self):
        return (
            f"TemplateCacheStats(hits={self.hits}, misses={self.misses}, "
            f"rebinds={self.rebinds}, invalidations={self.invalidations}, "
            f"entries={self.entries})"
        )


class _Template:
    """All cached bindings of one statement template."""

    __slots__ = ("layout_epoch", "bindings", "structural", "plans")

    def __init__(self, layout_epoch):
        self.layout_epoch = layout_epoch
        #: resolved plan -> (result, trace, versions)
        self.bindings = {}
        #: structural key -> a representative cached plan (rebind donor)
        self.structural = {}
        #: exact statement (:meth:`TraceTemplateCache.statement_key`) ->
        #: ``(plan, bindings[plan])``: the plan memo.  The binding entry
        #: carries the versions it was stored under, so it validates itself.
        self.plans = {}


def _touched_tables(plan):
    if isinstance(plan, JoinPlan):
        return (plan.left, plan.right)
    return (plan.table,)


def _structural_key(plan):
    """The plan with its predicate constants masked out — two plans with
    the same structural key emit traces of the same *shape*, and for the
    rebind-safe plan classes the identical trace."""
    if isinstance(plan, AggregatePlan):
        return (
            "aggregate",
            plan.table,
            tuple((p.field, p.op) for p in plan.predicates),
            plan.scan_method,
            plan.func,
            plan.agg_field,
            plan.use_index,
            plan.use_ordered_index,
        )
    if isinstance(plan, FilterFetchPlan):
        return (
            "filter_fetch",
            plan.table,
            tuple((p.field, p.op) for p in plan.predicates),
            plan.scan_method,
            plan.output_fields,
            plan.fetch_method,
            plan.use_index,
            plan.use_ordered_index,
            plan.order_by,
            plan.limit,
        )
    return None


def _rebind_safe(plan):
    """Is this plan's trace independent of its predicate constants?

    True only when every access the executor emits covers *all* tuples
    regardless of which ones match: full-column predicate scans feeding
    an aggregate over a full-column scan, and the degenerate full-table
    scan whose single pass carries the predicate fields.  Index probes
    and per-match fetches touch only the matching tuples, so their
    traces change with the constants and must re-execute."""
    if isinstance(plan, AggregatePlan):
        return not plan.use_index and not plan.use_ordered_index
    if isinstance(plan, FilterFetchPlan):
        return (
            plan.fetch_method is FetchMethod.FULL_SCAN
            and not plan.use_index
            and not plan.use_ordered_index
        )
    return False


def _recompute_result(database, plan):
    """The plan's result from the functional data alone (no trace).

    Mirrors ``Executor._run_aggregate`` / the FULL_SCAN arm of
    ``Executor._run_filter_fetch`` minus their (binding-independent)
    trace emission."""
    table = database.table(plan.table)
    if isinstance(plan, AggregatePlan):
        mask = None
        for predicate in plan.predicates:
            part = _compare(
                table.field_values(predicate.field), predicate.op, predicate.value
            )
            mask = part if mask is None else (mask & part)
        values = table.field_values(plan.agg_field)
        if mask is not None:
            values = values[mask]
        return QueryResult(kind="scalar", value=_aggregate(plan.func, values))
    executor = database.executor
    if plan.predicates:
        mask = executor._functional_mask(table, plan.predicates)
    else:
        mask = np.ones(table.n_tuples, dtype=bool)
    rows = executor._rows_from_functional(table, mask, plan.output_fields)
    return executor._order_and_limit(table, plan, rows)


def _copy_result(result):
    """A defensive copy so callers mutating ``outcome.result.rows`` never
    corrupt the cached entry."""
    return QueryResult(
        kind=result.kind,
        rows=list(result.rows) if result.rows is not None else None,
        value=result.value,
        count=result.count,
        ordered=result.ordered,
    )


class TraceTemplateCache:
    """Statement template -> bindings -> (plan, result, trace) cache for
    one :class:`~repro.imdb.database.Database`.

    The cache is scoped to a single database instance, so the memory
    system, cache configuration and placement state are part of the
    identity already; template keys add the SQL text and the planner
    knobs, entries carry the epochs that prove them still valid.
    """

    def __init__(self, database):
        self.database = database
        self.stats = TemplateCacheStats()
        self._templates = {}

    def __len__(self):
        return self.stats.entries

    # -- keys and versions ---------------------------------------------------
    @staticmethod
    def template_key(sql, selectivity_hint=None, group_lines=None):
        """Whitespace-normalized statement text plus the planner knobs
        that shape the physical plan."""
        return (" ".join(sql.split()), selectivity_hint, group_lines)

    def versions_of(self, plan):
        """Current ``{table: (geometry_epoch, content_version)}`` for
        every table the plan touches (None if one is gone)."""
        versions = {}
        for name in _touched_tables(plan):
            table = self.database.tables.get(name)
            if table is None:
                return None
            versions[name] = (table.geometry_epoch, table.content_version)
        return versions

    # -- plan memo -----------------------------------------------------------
    def statement_key(self, sql, params, group_lines):
        """The plan memo's key for one exact statement: the SQL text as
        given, the parameters as sorted items and the effective
        ``group_lines``.  None, so the statement is planned as usual,
        when its parameters do not hash."""
        if group_lines is None:
            group_lines = self.database.default_group_lines
        try:
            key = (sql, tuple(sorted(params.items())) if params else (), group_lines)
            hash(key)
        except TypeError:
            return None
        return key

    def recall(self, key, statement):
        """``(plan, (result, trace))`` when ``statement`` is memoized under
        template ``key`` and the binding its plan names is still valid,
        counted as a hit; else None, counting nothing, and the caller
        parses, plans and fetches.

        The binding's epochs cover everything the planner reads (schema
        and indexes, chunk geometry, predicate-column data), so while
        they hold the statement plans to the same plan again."""
        template = self._templates.get(key)
        if template is None or template.layout_epoch != self.database.layout_epoch:
            return None
        memo = template.plans.get(statement)
        if memo is None:
            return None
        plan, (result, trace, versions) = memo
        if versions != self.versions_of(plan):
            return None
        self.stats.hits += 1
        return plan, (_copy_result(result), trace)

    def memoize(self, key, statement, plan):
        """Remember that ``statement`` plans to ``plan``, whose binding
        under template ``key`` was just stored, hit or rebound."""
        template = self._templates[key]
        template.plans[statement] = (plan, template.bindings[plan])

    # -- lookup --------------------------------------------------------------
    def fetch(self, key, plan):
        """Reusable ``(result, trace)`` for this template+binding, else None.

        A full hit returns the stored pair; a rebind (same structure, new
        constants, rebind-safe plan class) reuses the stored trace with a
        functionally recomputed result and stores the new binding.  Both
        validate the entry's epochs first and drop stale state.
        """
        stats = self.stats
        template = self._templates.get(key)
        if template is not None and template.layout_epoch != self.database.layout_epoch:
            self._drop(key, template)
            template = None
        if template is not None:
            entry = template.bindings.get(plan)
            if entry is not None:
                _result, _trace, versions = entry
                if versions == self.versions_of(plan):
                    stats.hits += 1
                    return _copy_result(_result), _trace
                # Data moved or changed under the template; every binding
                # shares the same tables, so the whole template is stale.
                self._drop(key, template)
                template = None
        if template is not None:
            reused = self._try_rebind(key, template, plan)
            if reused is not None:
                return reused
        stats.misses += 1
        return None

    def _try_rebind(self, key, template, plan):
        if not _rebind_safe(plan):
            return None
        donor_plan = template.structural.get(_structural_key(plan))
        if donor_plan is None:
            return None
        entry = template.bindings.get(donor_plan)
        if entry is None:
            return None
        _donor_result, trace, versions = entry
        if versions != self.versions_of(plan):
            self._drop(key, template)
            return None
        start = time.perf_counter_ns()
        result = _recompute_result(self.database, plan)
        self.stats.rebind_ns += time.perf_counter_ns() - start
        self.stats.rebinds += 1
        self._insert(template, plan, result, trace, versions)
        return _copy_result(result), trace

    # -- store / invalidate --------------------------------------------------
    def store(self, key, plan, result, trace, versions_before):
        """Cache one executed statement's outcome.

        ``versions_before`` is the version snapshot taken before the
        executor ran; if execution itself changed any touched table (an
        UPDATE that modified cells), the trace describes a state that no
        longer exists and is not stored.
        """
        if versions_before is None or versions_before != self.versions_of(plan):
            return False
        template = self._templates.get(key)
        if template is not None and template.layout_epoch != self.database.layout_epoch:
            self._drop(key, template)
            template = None
        if template is None:
            template = self._templates[key] = _Template(self.database.layout_epoch)
        self._insert(template, plan, _copy_result(result), trace, versions_before)
        return True

    def _insert(self, template, plan, result, trace, versions):
        if plan not in template.bindings:
            self.stats.entries += 1
        template.bindings[plan] = (result, trace, versions)
        structural = _structural_key(plan)
        if structural is not None:
            template.structural[structural] = plan
        self.stats.stores += 1

    def _drop(self, key, template):
        self.stats.invalidations += len(template.bindings)
        self.stats.entries -= len(template.bindings)
        if self._templates.get(key) is template:
            del self._templates[key]

    def clear(self):
        """Drop everything (counted as invalidations)."""
        for key, template in list(self._templates.items()):
            self._drop(key, template)
