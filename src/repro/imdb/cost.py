"""Analytical plan cost model.

A first-order estimator of what a plan will cost on this database's
memory system, built from the same quantities the simulator charges:
line transfers over the bus, buffer activations, and (for NVM) dirty
flushes.  It exists for two purposes:

* ``explain_costs`` — show *why* the planner picks a plan by pricing the
  alternatives (the classical optimizer EXPLAIN experience);
* regression guarding — tests assert the model ranks alternatives the
  same way the simulator measures them, so planner heuristics and the
  timing model cannot silently drift apart.

Estimates are intentionally simple (no cache modelling beyond "a line is
fetched once", no queueing): they are lower-bound-flavoured costs whose
*ordering* is the contract, not their absolute values.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.geometry import WORDS_PER_LINE
from repro.imdb.planner import (
    AggregatePlan,
    FetchMethod,
    FilterFetchPlan,
    JoinPlan,
    OrderedProjectionPlan,
    ScanMethod,
    UpdatePlan,
    WideAggregatePlan,
    _compare,
)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted first-order cost of one plan."""

    plan: str
    lines: int  # 64-byte transfers
    activations: int  # buffer openings
    cycles: float  # estimated CPU cycles
    #: Estimated NVM cell-array write pulses (dirtied buffer entries that
    #: will flush).  Zero for read-only plans; the planner's write-
    #: direction choice minimizes this times the device's flush cost.
    write_pulses: int = 0

    def __str__(self):
        suffix = f", {self.write_pulses:,} write pulses" if self.write_pulses else ""
        return (
            f"{self.plan}: ~{self.cycles:,.0f} cycles "
            f"({self.lines:,} lines, {self.activations:,} activations{suffix})"
        )


class CostModel:
    """Prices plans against one database's geometry and timing."""

    def __init__(self, database):
        self.database = database
        memory = database.memory
        timing = memory.timing
        self._hit_cost = timing.cas_cpu + timing.burst_cpu
        self._activation_cost = timing.rp_cpu + timing.rcd_cpu
        self._flush_cost = timing.write_pulse_cpu
        self._channels = memory.geometry.channels

    def dirty_chunks(self, table, plan):
        """Chunks holding at least one tuple the plan's predicates match.

        A write plan only dirties the chunks its matches live in, and a
        column-direction write-back pays one flush per assigned word per
        dirtied chunk.  Falls back to the whole table when there are no
        predicates or nothing matches."""
        predicates = getattr(plan, "predicates", ())
        if not predicates:
            return table.chunks
        mask = None
        for predicate in predicates:
            values = table.field_values(predicate.field)
            part = _compare(values, predicate.op, predicate.value)
            mask = part if mask is None else (mask & part)
        if not len(mask) or not mask.any():
            return table.chunks
        dirty = []
        for chunk in table.chunks:
            first = chunk.first_tuple
            if np.any(mask[first:first + chunk.n_tuples]):
                dirty.append(chunk)
        return dirty

    # -- public -----------------------------------------------------------------
    def estimate(self, plan) -> CostEstimate:
        if isinstance(plan, FilterFetchPlan):
            return self._filter_fetch(plan)
        if isinstance(plan, AggregatePlan):
            return self._aggregate(plan)
        if isinstance(plan, WideAggregatePlan):
            return self._wide_aggregate(plan)
        if isinstance(plan, OrderedProjectionPlan):
            return self._ordered_projection(plan)
        if isinstance(plan, JoinPlan):
            return self._join(plan)
        if isinstance(plan, UpdatePlan):
            return self._update(plan)
        raise TypeError(f"cannot price {type(plan).__name__}")

    def _finish(self, plan, lines, activations, extra_cycles=0.0,
                write_pulses=0):
        serial = lines * self._hit_cost + activations * self._activation_cost
        cycles = serial / self._channels + extra_cycles
        return CostEstimate(
            plan=type(plan).__name__,
            lines=int(lines),
            activations=int(activations),
            cycles=cycles,
            write_pulses=int(write_pulses),
        )

    # -- scan building blocks --------------------------------------------------------
    def _table(self, name):
        return self.database.table(name)

    def _scan_cost(self, table, method, words=1):
        """(lines, activations) of scanning one field word over the table."""
        n = max(1, table.n_tuples)
        if method is ScanMethod.COLUMN:
            lines = -(-n // WORDS_PER_LINE)
            activations = sum(len(chunk.field_runs(0)) for chunk in table.chunks) or 1
        elif method is ScanMethod.GATHER:
            lines = -(-n // WORDS_PER_LINE)
            # One activation per DRAM row of tuples.
            slots = max(1, table.chunks[0].slots if table.chunks else 1)
            activations = -(-n // slots)
        else:
            # Row-oriented strided scan: one line per tuple when the tuple
            # spans at least a line; several tuples per line otherwise.
            tuples_per_line = max(1, WORDS_PER_LINE // table.schema.tuple_words)
            lines = -(-n // tuples_per_line)
            buffer_words = self.database.memory.geometry.cols
            lines_per_buffer = max(1, buffer_words // WORDS_PER_LINE)
            activations = -(-lines // lines_per_buffer)
        return lines * words, activations * words

    def _matches(self, plan, table):
        selectivity = getattr(plan, "estimated_selectivity", 0.1)
        return max(0, int(round(selectivity * table.n_tuples)))

    # -- per-plan estimators ------------------------------------------------------------
    def _filter_fetch(self, plan):
        table = self._table(plan.table)
        lines = activations = 0
        if plan.use_index:
            lines += 2  # a couple of slot lines
            activations += 1
        elif plan.fetch_method is not FetchMethod.FULL_SCAN:
            for _predicate in plan.predicates:
                l, a = self._scan_cost(table, plan.scan_method)
                lines += l
                activations += a
        matches = self._matches(plan, table)
        if plan.limit is not None and plan.order_by is None:
            matches = min(matches, plan.limit)
        output_words = (
            table.schema.tuple_words
            if plan.output_fields is None
            else sum(table.schema.field(f).words for f in plan.output_fields)
        )
        if plan.fetch_method is FetchMethod.FULL_SCAN:
            total_lines = -(-table.n_tuples * table.schema.tuple_words // WORDS_PER_LINE)
            lines += total_lines
            activations += max(1, total_lines // 128)
        elif plan.fetch_method is FetchMethod.COLUMN:
            per_word = min(-(-matches // 1), -(-table.n_tuples // WORDS_PER_LINE))
            word_count = output_words
            lines += per_word * word_count
            activations += word_count  # one column buffer per output word
        else:  # ROW fetch
            lines_per_tuple = -(-output_words // WORDS_PER_LINE)
            lines += matches * lines_per_tuple
            activations += matches  # scattered rows: one activation each
        return self._finish(plan, lines, activations)

    def _aggregate(self, plan):
        table = self._table(plan.table)
        lines = activations = 0
        if plan.use_index:
            lines, activations = 2, 1
        else:
            for _predicate in plan.predicates:
                l, a = self._scan_cost(table, plan.scan_method)
                lines += l
                activations += a
        l, a = self._scan_cost(table, plan.scan_method)
        return self._finish(plan, lines + l, activations + a)

    def _wide_aggregate(self, plan):
        table = self._table(plan.table)
        l, a = self._scan_cost(table, plan.scan_method, words=plan.words)
        if plan.scan_method is ScanMethod.COLUMN and not plan.group_lines:
            # Naive interleaved wide-field read: every line switches the
            # column buffer.
            a = l
        return self._finish(plan, l, a)

    def _ordered_projection(self, plan):
        table = self._table(plan.table)
        words = sum(table.schema.field(f).words for f in plan.fields)
        l, a = self._scan_cost(table, plan.scan_method, words=words)
        if plan.scan_method is ScanMethod.COLUMN and not plan.group_lines:
            a = l
        return self._finish(plan, l, a)

    def _join(self, plan):
        left = self._table(plan.left)
        right = self._table(plan.right)
        lines = activations = 0
        scanned = {(plan.left, plan.left_key), (plan.right, plan.right_key)}
        for field_left, _op, field_right in plan.extra:
            scanned.add((plan.left, field_left))
            scanned.add((plan.right, field_right))
        for table_name, _field in scanned:
            table = self._table(table_name)
            method = (
                plan.scan_method_left if table_name == plan.left else plan.scan_method_right
            )
            l, a = self._scan_cost(table, method)
            lines += l
            activations += a
        # Output fetch: assume every smaller-side tuple matches once.
        matches = min(left.n_tuples, right.n_tuples)
        lines += 2 * -(-matches // WORDS_PER_LINE)
        activations += len(plan.output)
        return self._finish(plan, lines, activations)

    def _update(self, plan):
        table = self._table(plan.table)
        lines = activations = 0
        if plan.use_index:
            lines, activations = 2, 1
        else:
            for _predicate in plan.predicates:
                l, a = self._scan_cost(table, plan.scan_method)
                lines += l
                activations += a
        matches = self._matches(plan, table) or 1
        words = sum(
            table.schema.field(name).words for name, _value in plan.assignments
        ) or 1
        write_method = getattr(plan, "write_method", ScanMethod.ROW)
        if write_method is ScanMethod.COLUMN:
            # Column-direction write-back: every assigned field word is one
            # physical column per dirtied chunk, shared by all matches in
            # that chunk — so the dirtied-buffer count (and the write
            # pulses paid on flush) scales with words x chunks, not with
            # matches.  Line traffic is capped by the column lines that
            # exist in those chunks.
            dirty = self.dirty_chunks(table, plan)
            n_chunks = max(1, len(dirty))
            line_cap = sum(
                -(-chunk.height // WORDS_PER_LINE) for chunk in dirty
            ) or 1
            lines += min(matches, line_cap) * words
            activations += words * n_chunks
            write_pulses = words * n_chunks
        else:
            # Scattered row writes: each match dirties its own row buffer
            # entry and pays its own flush.
            lines += matches * max(1, -(-words // WORDS_PER_LINE))
            activations += matches
            write_pulses = matches
        flush_cycles = write_pulses * self._flush_cost
        return self._finish(
            plan, lines, activations, extra_cycles=flush_cycles,
            write_pulses=write_pulses,
        )


def explain_costs(database, sql, params=None, **plan_kwargs):
    """Price the planner's plan *and* its forced alternatives.

    Returns ``{label: CostEstimate}`` with the chosen plan under
    ``"chosen"`` plus, for filter-fetch plans, each alternative fetch
    method — the optimizer's-eye view of the decision.
    """
    plan = database.plan(sql, params=params, **plan_kwargs)
    model = CostModel(database)
    out = {"chosen": model.estimate(plan)}
    if isinstance(plan, FilterFetchPlan):
        for method in FetchMethod:
            if method is plan.fetch_method:
                continue
            alternative = dataclasses.replace(plan, fetch_method=method)
            out[f"fetch={method.value}"] = model.estimate(alternative)
    elif isinstance(plan, UpdatePlan):
        for method in (ScanMethod.ROW, ScanMethod.COLUMN):
            if method is plan.write_method:
                continue
            alternative = dataclasses.replace(plan, write_method=method)
            out[f"write={method.value}"] = model.estimate(alternative)
    return out
