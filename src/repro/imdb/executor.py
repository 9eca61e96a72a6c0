"""Query executor: runs physical plans, producing both the real result and
the memory-access trace.

Execution is vectorized (operator at a time): a scan reads its values in
bulk through the functional memory and appends the corresponding accesses
to the trace, then downstream operators (filters, aggregates, fetches)
work on NumPy arrays.  The trace preserves the order a vectorized IMDB
engine would touch memory in, which is what the timing model consumes.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.addressing import Coordinate, Orientation
from repro.cpu.trace import Op
from repro.cpu.tracebuffer import TraceBuffer
from repro.errors import LayoutError, SqlError
from repro.geometry import CACHE_LINE_BYTES, WORD_BYTES, WORDS_PER_LINE
from repro.imdb.chunks import IntraLayout
from repro.obs import tracer as obs
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

@dataclass
class QueryResult:
    """Outcome of one statement."""

    kind: str  # "rows" | "scalar" | "count"
    rows: Optional[list] = None
    value: Optional[object] = None
    count: Optional[int] = None
    #: True when the row order is semantically meaningful (ORDER BY).
    ordered: bool = False

    def __repr__(self):
        if self.kind == "scalar":
            return f"QueryResult(scalar={self.value})"
        if self.kind == "count":
            return f"QueryResult(count={self.count})"
        return f"QueryResult({len(self.rows)} rows)"


class Executor:
    """Executes plans for one database instance."""

    def __init__(self, database):
        self.database = database
        self.mapper = database.physmem.mapper
        self._sub_coords = {}
        self._gather_spaces = {}

    # -- public entry --------------------------------------------------------
    def execute(self, plan, stream=0):
        """Run ``plan``; returns ``(QueryResult, trace)``.

        The trace is a :class:`~repro.cpu.tracebuffer.TraceBuffer`, the
        columnar trace the machine models replay; every emitter below
        appends to one.  ``stream`` stamps the produced trace with the
        issuing tenant's stream tag."""
        trace = TraceBuffer()
        trace.stream = stream
        with obs.span(f"operator:{type(plan).__name__}") as sp:
            if isinstance(plan, FilterFetchPlan):
                result = self._run_filter_fetch(plan, trace)
            elif isinstance(plan, AggregatePlan):
                result = self._run_aggregate(plan, trace)
            elif isinstance(plan, WideAggregatePlan):
                result = self._run_wide_aggregate(plan, trace)
            elif isinstance(plan, OrderedProjectionPlan):
                result = self._run_ordered_projection(plan, trace)
            elif isinstance(plan, JoinPlan):
                result = self._run_join(plan, trace)
            elif isinstance(plan, UpdatePlan):
                result = self._run_update(plan, trace)
            else:
                raise SqlError(f"executor cannot run {type(plan).__name__}")
            if sp.enabled:
                sp.set(trace_accesses=len(trace), result_kind=result.kind)
        return result, trace

    # -- address helpers ---------------------------------------------------------
    def _sub_coord(self, subarray_index):
        coord = self._sub_coords.get(subarray_index)
        if coord is None:
            coord = self.database.physmem.subarray_coord(subarray_index)
            self._sub_coords[subarray_index] = coord
        return coord

    def _run_address(self, run):
        """(address, orientation) of a device run's first cell."""
        channel, rank, bank, sub = self._sub_coord(run.subarray)
        if run.vertical:
            coord = Coordinate(channel, rank, bank, sub, run.start, run.fixed)
            return self.mapper.encode_col(coord), Orientation.COLUMN
        coord = Coordinate(channel, rank, bank, sub, run.fixed, run.start)
        return self.mapper.encode_row(coord), Orientation.ROW

    def emit_run(self, trace, run, write=False, pin=False, gap=None):
        """Append one access covering a whole device run."""
        address, orientation = self._run_address(run)
        size = run.count * WORD_BYTES
        if gap is None:
            gap = max(1, run.count // WORDS_PER_LINE)
        if orientation is Orientation.COLUMN:
            op = Op.CWRITE if write else Op.CREAD
        else:
            op = Op.WRITE if write else Op.READ
        trace.emit(int(op), address, size, gap, pin=pin and not write)
        return address, size, orientation

    def _read_run_values(self, run):
        physmem = self.database.physmem
        if run.vertical:
            return physmem.read_vertical(run.subarray, run.fixed, run.start, run.count)
        return physmem.read_horizontal(run.subarray, run.fixed, run.start, run.count)

    def _cell_row_address(self, subarray, device_row, device_col):
        channel, rank, bank, sub = self._sub_coord(subarray)
        coord = Coordinate(channel, rank, bank, sub, device_row, device_col)
        return self.mapper.encode_row(coord)

    # -- scans ----------------------------------------------------------------
    def scan_field(self, trace, table, field_name, method, word=0):
        """Read one field word of every tuple; returns values in tuple order.

        Emits the scan's accesses in the order the chosen method walks
        memory.  (Tuple ids are implicit: position ``i`` of the returned
        array is tuple ``i``.)
        """
        if method is ScanMethod.COLUMN:
            self.emit_column_scan(trace, table, field_name, word)
        elif method is ScanMethod.GATHER:
            self._emit_gather_scan(trace, table, field_name, word)
        else:
            self.emit_rowwise_field_scan(trace, table, [(field_name, word)])
        return table.field_values(field_name, word)

    def emit_column_scan(self, trace, table, field_name, word):
        for run in table.field_runs(field_name, word):
            self.emit_run(trace, run)

    def emit_rowwise_field_scan(self, trace, table, field_words):
        """Row-oriented scan touching the lines that hold the given field
        words, walking memory rows sequentially (DRAM-friendly order).

        Each chunk's cells are encoded as one array; a cell is read only
        when its 64-byte line differs from the previous cell's (the last
        line carries across chunk boundaries)."""
        offsets = sorted(table.field_offset(f, w) for f, w in field_words)
        last_line = -1
        for chunk in table.chunks:
            sub, rows, cols, _tuples = chunk.row_scan_cells(offsets)
            addresses = self.mapper.encode_cells(
                *self._sub_coord(sub), rows, cols, Orientation.ROW
            )
            if not addresses.size:
                continue
            lines = addresses // CACHE_LINE_BYTES
            new_line = np.diff(lines, prepend=last_line) != 0
            last_line = int(lines[-1])
            trace.extend_bulk(Op.READ, addresses[new_line], WORD_BYTES, 1)

    def _emit_gather_scan(self, trace, table, field_name, word):
        """GS-DRAM gathered scan: one burst collects the field word of 8
        consecutive tuples sharing a DRAM row (power-of-two stride)."""
        offset = table.field_offset(field_name, word)
        base = self._gather_base(table.name, offset)
        gather_index = 0
        for chunk in table.chunks:
            if chunk.layout is not IntraLayout.ROW or chunk.placement.rotated:
                raise LayoutError(
                    f"gathered scan over table {table.name!r} requires "
                    "row-major, unrotated chunks (planner must not choose "
                    "GATHER here)"
                )
            for chunk_row in range(chunk.used_rows()):
                first_local = chunk_row * chunk.slots
                here = min(chunk.slots, chunk.n_tuples - first_local)
                full_groups, rest = divmod(here, 8)
                for group in range(full_groups):
                    row, col = chunk.local_cell(first_local + group * 8, offset)
                    sub, device_row, device_col = chunk.device_cell(row, col)
                    channel, rank, bank, sa = self._sub_coord(sub)
                    coord = Coordinate(channel, rank, bank, sa, device_row, device_col)
                    gather_address = base + gather_index * CACHE_LINE_BYTES
                    trace.emit(
                        int(Op.GATHER), gather_address, CACHE_LINE_BYTES, 1,
                        coord=coord,
                    )
                    gather_index += 1
                for extra in range(rest):
                    local = first_local + full_groups * 8 + extra
                    row, col = chunk.local_cell(local, offset)
                    sub, device_row, device_col = chunk.device_cell(row, col)
                    address = self._cell_row_address(sub, device_row, device_col)
                    trace.emit(int(Op.READ), address, WORD_BYTES, 1)

    def _gather_base(self, table_name, offset):
        key = (table_name, offset)
        base = self._gather_spaces.get(key)
        if base is None:
            base = (len(self._gather_spaces) + 1) << 40
            self._gather_spaces[key] = base
        return base

    # -- predicate evaluation ------------------------------------------------------
    @staticmethod
    def _functional_mask(table, predicates):
        """Predicate mask computed from the functional data, emitting no
        accesses (used when another operator already covers the cells)."""
        mask = np.ones(table.n_tuples, dtype=bool)
        for predicate in predicates:
            values = table.field_values(predicate.field)
            mask &= _compare(values, predicate.op, predicate.value)
        return mask

    def _evaluate_predicates(self, trace, table, predicates, method,
                             use_index=False, use_ordered_index=False):
        """Evaluate the conjunction; returns the qualifying-tuple mask.

        With ``use_index`` (single equality on a hash-indexed field) or
        ``use_ordered_index`` (single range predicate on an ordered
        index), the index is probed — traced reads — instead of
        scanning."""
        if use_index:
            predicate = predicates[0]
            ids = table.indexes[predicate.field].probe(
                predicate.value, trace=trace, executor=self
            )
            mask = np.zeros(table.n_tuples, dtype=bool)
            mask[ids] = True
            return mask
        if use_ordered_index:
            predicate = predicates[0]
            ids = table.ordered_indexes[predicate.field].range_probe(
                predicate.op, predicate.value, trace=trace, executor=self
            )
            mask = np.zeros(table.n_tuples, dtype=bool)
            mask[ids] = True
            return mask
        mask = None
        for predicate in predicates:
            values = self.scan_field(trace, table, predicate.field, method)
            part = _compare(values, predicate.op, predicate.value)
            mask = part if mask is None else (mask & part)
        if mask is None:
            mask = np.ones(table.n_tuples, dtype=bool)
        return mask

    # -- tuple materialization --------------------------------------------------------
    @staticmethod
    def _word_ranges(table, fields):
        """Coalesced (offset, count) cell ranges covering ``fields``
        (``None`` means the whole tuple)."""
        if fields is None:
            return [(0, table.schema.tuple_words)]
        spans = sorted(
            (table.schema.offset_words(name), table.schema.field(name).words)
            for name in fields
        )
        merged = []
        for offset, count in spans:
            if merged and offset <= merged[-1][0] + merged[-1][1]:
                prev_offset, prev_count = merged[-1]
                merged[-1] = (prev_offset, max(prev_count, offset + count - prev_offset))
            else:
                merged.append((offset, count))
        return merged

    def _fetch_rows(self, trace, table, ids, fields):
        """Row-access fetch of specific tuples (Figure 12's second step)."""
        ranges = self._word_ranges(table, fields)
        rows = []
        for tuple_id in ids:
            chunk, local = table.chunk_of(int(tuple_id))
            words = {}
            for offset, count in ranges:
                run = chunk.tuple_cells(local, offset, count)
                self.emit_run(trace, run, gap=1)
                values = self._read_run_values(run)
                words.update(zip(range(offset, offset + count), values.tolist()))
            rows.append(self._project(table, words, fields))
        return rows

    def _project(self, table, words, fields):
        schema = table.schema
        if fields is None:
            full = [words[w] for w in range(schema.tuple_words)]
            return schema.unpack(full)
        out = []
        for name in fields:
            field_obj = schema.field(name)
            offset = schema.offset_words(name)
            if field_obj.is_wide:
                out.append(tuple(words[offset + w] for w in range(field_obj.words)))
            else:
                out.append(words[offset])
        return tuple(out)

    def _full_scan_rows(self, trace, table, mask, fields):
        """Sequential scan of every cell (the Q3 degenerate case).

        On a column-capable system the executor walks each chunk in the
        direction that opens fewer buffers: a tall, narrow COLUMN-layout
        chunk is scanned column by column (a handful of column-buffer
        activations) instead of row by row (one row activation per chunk
        row)."""
        supports_column = self.database.memory.supports_column
        for chunk in table.chunks:
            used_rows = chunk.used_rows()
            if supports_column and chunk.width < used_rows:
                for chunk_col in range(chunk.width):
                    self.emit_run(trace, chunk.col_run(chunk_col, 0, used_rows))
            else:
                for chunk_row in range(used_rows):
                    self.emit_run(trace, chunk.row_run(chunk_row))
        return self._rows_from_functional(table, mask, fields)

    def _column_fetch_rows(self, trace, table, mask, fields):
        """Fetch the output fields of the qualifying tuples with
        column-oriented accesses.

        Because a column buffer spans the whole physical column, scattered
        matches that share a column still hit the open buffer — this is
        the narrow-projection counterpart of Figure 12's row fetch.  Only
        the 64-byte column lines that actually contain matches are read.
        """
        ids = np.nonzero(mask)[0]
        self._emit_selective_column_fetch(trace, table, ids, fields)
        return self._rows_from_functional(table, mask, fields)

    def _emit_selective_column_fetch(self, trace, table, ids, fields,
                                     write=False):
        """Emit column accesses covering the given fields of the given
        tuples (only the 64-byte column lines that contain matches).

        ``fields=None`` (SELECT *) covers every field.  With ``write``
        the same lines are emitted as column writes — scattered matches
        that share a physical column then dirty one column buffer entry
        between them instead of one row buffer each, which is what makes
        the column direction cheaper in write pulses for selective
        UPDATEs (see ``UpdatePlan.write_method``)."""
        if fields is None:
            fields = table.schema.field_names()
        ids = np.asarray(ids, dtype=np.int64)
        offsets = []
        for name in fields:
            for word in range(table.schema.field(name).words):
                offsets.append(table.field_offset(name, word))
        matches = []
        for chunk in table.chunks:
            first = chunk.first_tuple
            local_ids = ids[(ids >= first) & (ids < first + chunk.n_tuples)] - first
            matches.append((chunk, local_ids))
        for offset in offsets:
            for chunk, local_ids in matches:
                rows, cols = chunk.local_cells(local_ids, offset)
                # Walk column by column so every open column buffer is
                # fully exploited before moving on.
                lines = np.unique(cols * chunk.height + (rows & ~(WORDS_PER_LINE - 1)))
                line_cols, line_rows = np.divmod(lines, chunk.height)
                sub, device_rows, device_cols = chunk.device_cell(line_rows, line_cols)
                if chunk.placement.rotated:
                    orientation, op = Orientation.ROW, Op.WRITE if write else Op.READ
                else:
                    orientation, op = Orientation.COLUMN, Op.CWRITE if write else Op.CREAD
                addresses = self.mapper.encode_cells(
                    *self._sub_coord(sub), device_rows, device_cols, orientation
                )
                counts = np.minimum(WORDS_PER_LINE, chunk.height - line_rows)
                trace.extend_bulk(op, addresses, counts * WORD_BYTES, 1)

    def _rows_from_functional(self, table, mask, fields):
        ids = np.nonzero(mask)[0]
        names = fields if fields is not None else table.schema.field_names()
        columns = []
        for name in names:
            field_obj = table.schema.field(name)
            if field_obj.is_wide:
                words = np.stack(
                    [table.field_values(name, w)[ids] for w in range(field_obj.words)],
                    axis=1,
                )
                columns.append([tuple(row) for row in words.tolist()])
            else:
                columns.append(table.field_values(name)[ids].tolist())
        if not columns:
            return [() for _ in range(len(ids))]
        return list(zip(*columns))

    # -- plan runners ------------------------------------------------------------
    def _run_filter_fetch(self, plan, trace):
        table = self.database.table(plan.table)
        if plan.fetch_method is FetchMethod.FULL_SCAN:
            # Single sequential pass: the full rows carry the predicate
            # fields, so no separate predicate scan is issued (the paper's
            # Q3 "is translated into sequential row-oriented memory
            # access").
            mask = self._functional_mask(table, plan.predicates)
            rows = self._full_scan_rows(trace, table, mask, plan.output_fields)
            return self._order_and_limit(table, plan, rows)
        mask = self._evaluate_predicates(
            trace, table, plan.predicates, plan.scan_method,
            plan.use_index, plan.use_ordered_index,
        )
        if plan.fetch_method is FetchMethod.COLUMN:
            rows = self._column_fetch_rows(trace, table, mask, plan.output_fields)
        else:
            ids = np.nonzero(mask)[0]
            if plan.limit is not None and plan.order_by is None:
                # LIMIT pushdown: without a sort, only the first n
                # qualifying tuples need fetching at all.
                ids = ids[: plan.limit]
            rows = self._fetch_rows(trace, table, ids, plan.output_fields)
        return self._order_and_limit(table, plan, rows)

    def _order_and_limit(self, table, plan, rows):
        """Apply ORDER BY / LIMIT (CPU-side; rows are already fetched)."""
        order_by = getattr(plan, "order_by", None)
        limit = getattr(plan, "limit", None)
        ordered = order_by is not None
        if ordered:
            field_name, descending = order_by
            fields = getattr(plan, "output_fields", None)
            if fields is None:
                fields = getattr(plan, "fields", None)
            names = list(fields) if fields is not None else table.schema.field_names()
            key_index = names.index(field_name)
            rows = sorted(rows, key=lambda row: row[key_index], reverse=descending)
        if limit is not None:
            rows = rows[:limit]
        return QueryResult(kind="rows", rows=rows, ordered=ordered)

    def _run_aggregate(self, plan, trace):
        table = self.database.table(plan.table)
        mask = self._evaluate_predicates(
            trace, table, plan.predicates, plan.scan_method,
            plan.use_index, plan.use_ordered_index,
        )
        values = self.scan_field(trace, table, plan.agg_field, plan.scan_method)
        selected = values[mask]
        return QueryResult(kind="scalar", value=_aggregate(plan.func, selected))

    def _run_wide_aggregate(self, plan, trace):
        table = self.database.table(plan.table)
        field_words = [(plan.agg_field, w) for w in range(plan.words)]
        self._emit_ordered_read(trace, table, field_words, plan.scan_method,
                                plan.group_lines)
        total = np.int64(0)
        for word in range(plan.words):
            total += table.field_values(plan.agg_field, word).sum()
        if plan.func == "SUM":
            value = int(total)
        elif plan.func == "AVG":
            value = float(total) / max(1, table.n_tuples)
        else:
            value = table.n_tuples
        return QueryResult(kind="scalar", value=value)

    def _run_ordered_projection(self, plan, trace):
        table = self.database.table(plan.table)
        field_words = []
        for name in plan.fields:
            for word in range(table.schema.field(name).words):
                field_words.append((name, word))
        self._emit_ordered_read(trace, table, field_words, plan.scan_method,
                                plan.group_lines)
        mask = np.ones(table.n_tuples, dtype=bool)
        rows = self._rows_from_functional(table, mask, list(plan.fields))
        return self._order_and_limit(table, plan, rows)

    def _run_join(self, plan, trace):
        left = self.database.table(plan.left)
        right = self.database.table(plan.right)
        left_key = self.scan_field(trace, left, plan.left_key, plan.scan_method_left)
        right_key = self.scan_field(trace, right, plan.right_key, plan.scan_method_right)
        extra_left = {}
        extra_right = {}
        for left_field, _op, right_field in plan.extra:
            if left_field not in extra_left:
                extra_left[left_field] = self.scan_field(
                    trace, left, left_field, plan.scan_method_left
                )
            if right_field not in extra_right:
                extra_right[right_field] = self.scan_field(
                    trace, right, right_field, plan.scan_method_right
                )
        # Build the hash on the right side, probe with the left (CPU work,
        # charged through the accesses' gap cycles).
        buckets = {}
        for rid, key in enumerate(right_key):
            buckets.setdefault(int(key), []).append(rid)
        pairs = []
        for lid, key in enumerate(left_key):
            for rid in buckets.get(int(key), ()):
                ok = True
                for left_field, op, right_field in plan.extra:
                    lval = extra_left[left_field][lid]
                    rval = extra_right[right_field][rid]
                    if not _compare(np.int64(lval), op, int(rval)):
                        ok = False
                        break
                if ok:
                    pairs.append((lid, rid))
        left_fields = [f for t, f in plan.output if t == plan.left]
        right_fields = [f for t, f in plan.output if t == plan.right]
        self._emit_join_fetch(trace, left, sorted({p[0] for p in pairs}), left_fields)
        self._emit_join_fetch(trace, right, sorted({p[1] for p in pairs}), right_fields)
        # Build output rows pair by pair from the functional columns.
        out_left = {f: left.field_values(f) for f in left_fields}
        out_right = {f: right.field_values(f) for f in right_fields}
        rows = []
        for lid, rid in pairs:
            row = []
            for table_name, field_name in plan.output:
                if table_name == plan.left:
                    row.append(int(out_left[field_name][lid]))
                else:
                    row.append(int(out_right[field_name][rid]))
            rows.append(tuple(row))
        return QueryResult(kind="rows", rows=rows)

    def _emit_join_fetch(self, trace, table, ids, fields):
        """Materialize join output fields for the matched tuples.

        Column-capable systems use the selective column fetch; others use
        a sequential row-wise field scan when most tuples matched, or
        per-tuple row accesses when few did."""
        if not fields or not ids:
            return
        if self.database.memory.supports_column:
            self._emit_selective_column_fetch(trace, table, ids, fields)
            return
        if len(ids) >= 0.25 * table.n_tuples:
            field_words = []
            for name in fields:
                for word in range(table.schema.field(name).words):
                    field_words.append((name, word))
            self.emit_rowwise_field_scan(trace, table, field_words)
            return
        ranges = self._word_ranges(table, fields)
        for tuple_id in ids:
            chunk, local = table.chunk_of(int(tuple_id))
            for offset, count in ranges:
                self.emit_run(trace, chunk.tuple_cells(local, offset, count), gap=1)

    def _run_update(self, plan, trace):
        table = self.database.table(plan.table)
        mask = self._evaluate_predicates(
            trace, table, plan.predicates, plan.scan_method,
            plan.use_index, plan.use_ordered_index,
        )
        ids = np.nonzero(mask)[0]
        fields = [name for name, _value in plan.assignments]
        durability = self.database.durability
        # Write-ahead: every WAL record lands before any data cell changes,
        # and a log that cannot take them all raises before any does.
        wal = (durability.log_tuple_write(table.name, ids, plan.assignments)
               if durability is not None else None)
        write_method = getattr(plan, "write_method", ScanMethod.ROW)
        if write_method is ScanMethod.COLUMN and len(ids):
            # Write-direction choice (cost model's write-amplification
            # term): emit the dirtied cells as column lines, so matches
            # sharing a physical column dirty one column buffer between
            # them instead of one scattered row buffer each.
            self._emit_selective_column_fetch(trace, table, ids, fields,
                                              write=True)
            if wal is not None:
                addresses, sizes, _bounds = wal
                trace.extend_bulk(Op.WRITE, addresses, sizes, 1)
            for tuple_id in ids.tolist():
                for name, value in plan.assignments:
                    table.write_field(tuple_id, name, value)
            return QueryResult(kind="count", count=len(ids))
        ranges = self._word_ranges(table, fields)
        if wal is not None:
            addresses, sizes, bounds = (column.tolist() for column in wal)
        for i, tuple_id in enumerate(ids.tolist()):
            chunk, local = table.chunk_of(tuple_id)
            for offset, count in ranges:
                run = chunk.tuple_cells(local, offset, count)
                self.emit_run(trace, run, write=True, gap=1)
            if wal is not None:
                # The tuple's WAL records follow its data runs.
                for k in range(bounds[i], bounds[i + 1]):
                    trace.emit(int(Op.WRITE), addresses[k], sizes[k], 1)
            for name, value in plan.assignments:
                table.write_field(tuple_id, name, value)
        return QueryResult(kind="count", count=len(ids))

    # -- ordered multi-column reads (group caching, Section 5) --------------------
    def _emit_ordered_read(self, trace, table, field_words, method, group_lines):
        """Read several field words of every tuple in tuple order.

        On a column-capable system this is the Z-order pattern of
        Figures 14-15: without group caching, the per-line interleaving of
        columns thrashes the column buffer; with a group size G, each
        column is prefetched G lines at a time with pinned cloads, then
        consumed from the cache (Figure 16).
        """
        if method is not ScanMethod.COLUMN:
            self.emit_rowwise_field_scan(trace, table, field_words)
            return
        offsets = [table.field_offset(f, w) for f, w in field_words]
        for chunk in table.chunks:
            run_groups = self._aligned_run_groups(chunk, offsets)
            for runs in run_groups:
                count = runs[0].count
                if group_lines:
                    self._emit_grouped_window(trace, runs, count, group_lines)
                else:
                    self._emit_interleaved(trace, runs, count)

    def _aligned_run_groups(self, chunk, offsets):
        """Group the per-field runs that cover the same tuples (same group
        or slot), so ordered consumption walks them side by side."""
        per_field = [chunk.field_runs(offset) for offset in offsets]
        groups = []
        for runs in zip(*per_field):
            groups.append(list(runs))
        return groups

    def _emit_grouped_window(self, trace, runs, count, group_lines):
        window_cells = group_lines * WORDS_PER_LINE
        for start in range(0, count, window_cells):
            here = min(window_cells, count - start)
            pinned = []
            for run in runs:
                address, size, orientation = self.emit_run(
                    trace,
                    _slice_run(run, start, here),
                    pin=True,
                    gap=max(1, here // WORDS_PER_LINE),
                )
                pinned.append((address, size, orientation))
            # Consume in tuple order: first touch of each line per field.
            for line_start in range(0, here, WORDS_PER_LINE):
                for run in runs:
                    piece = _slice_run(run, start + line_start, 1)
                    self.emit_run(trace, piece, gap=1)
            for address, size, orientation in pinned:
                trace.emit(
                    int(Op.UNPIN), address, size, gap=0, orientation=int(orientation)
                )

    def _emit_interleaved(self, trace, runs, count):
        """The naive ordered read: line-by-line across the columns."""
        for line_start in range(0, count, WORDS_PER_LINE):
            here = min(WORDS_PER_LINE, count - line_start)
            for run in runs:
                self.emit_run(trace, _slice_run(run, line_start, here), gap=1)


def _slice_run(run, start, count):
    """A sub-run of ``run`` starting ``start`` cells in."""
    from repro.imdb.chunks import Run

    return Run(
        subarray=run.subarray,
        vertical=run.vertical,
        fixed=run.fixed,
        start=run.start + start,
        count=count,
        first_tuple=run.first_tuple + start * (run.tuple_stride or 1),
        tuple_stride=run.tuple_stride,
    )


def _aggregate(func, values):
    if func == "SUM":
        return int(values.sum()) if len(values) else 0
    if func == "AVG":
        return float(values.mean()) if len(values) else 0.0
    if func == "COUNT":
        return int(len(values))
    if func == "MIN":
        return int(values.min()) if len(values) else None
    if func == "MAX":
        return int(values.max()) if len(values) else None
    raise SqlError(f"unknown aggregate {func!r}")
