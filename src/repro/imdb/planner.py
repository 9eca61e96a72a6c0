"""Query planner: AST -> physical plan (paper Sections 4.4, 4.5, 5).

The planner is where the IMDB exploits RC-NVM:

* predicate and aggregate field scans become **column-oriented accesses**
  on a column-capable system (Figure 11), **gathered accesses** on GS-DRAM
  when the tuple width is a power of two and the chunk is unrotated, and
  ordinary row-oriented accesses otherwise;
* qualifying tuples are fetched with **row-oriented accesses** when the
  predicate is selective (Figure 12), but a high-selectivity ``SELECT *``
  degenerates into a sequential full row scan (the paper's Q3);
* ordered multi-column reads — wide fields (Q14) and Z-order multi-field
  projections (Q15) — are planned as **group-caching** reads (Section 5)
  when a group size is configured.

Selectivity is taken from the optional ``selectivity_hint`` or computed
from table statistics (the planner may peek at the functional data, just
as a production optimizer consults its statistics; this costs no
simulated cycles).
"""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import LayoutError, SqlError
from repro.imdb.chunks import IntraLayout
from repro.obs import tracer as obs
from repro.imdb.sql_ast import (
    Aggregate,
    ColumnRef,
    Comparison,
    Literal,
    Select,
    Star,
    Update,
)


class ScanMethod(enum.Enum):
    """How a field scan touches memory."""

    COLUMN = "column"  # cload runs (RC-NVM)
    ROW = "row"  # row-oriented line loads
    GATHER = "gather"  # GS-DRAM gathered bursts


class FetchMethod(enum.Enum):
    """How qualifying tuples/projections are materialized."""

    ROW = "row"  # one row access per matching tuple
    COLUMN = "column"  # scan the output columns wholesale
    FULL_SCAN = "full_scan"  # sequential scan of entire rows (Q3 pattern)


#: Selectivity above which a SELECT * degenerates to a full row scan.
FULL_SCAN_THRESHOLD = 0.5
#: Selectivity above which narrow projections are read as whole columns.
COLUMN_FETCH_THRESHOLD = 0.5


@dataclass(frozen=True)
class PlannedPredicate:
    field: str
    op: str
    value: int


@dataclass(frozen=True)
class FilterFetchPlan:
    """Scan predicates, then materialize an output (Q1-Q3, Q10, Q11)."""

    table: str
    predicates: Tuple[PlannedPredicate, ...]
    scan_method: ScanMethod
    output_fields: Optional[Tuple[str, ...]]  # None means SELECT *
    fetch_method: FetchMethod
    estimated_selectivity: float
    #: Resolve the (single, equality) predicate through a hash index
    #: instead of a scan.
    use_index: bool = False
    #: Resolve the (single, range) predicate through an ordered index.
    use_ordered_index: bool = False
    #: (field, descending) to sort the result by, or None.
    order_by: Optional[Tuple[str, bool]] = None
    limit: Optional[int] = None


@dataclass(frozen=True)
class AggregatePlan:
    """Scan predicates and an aggregate column (Q4-Q7)."""

    table: str
    predicates: Tuple[PlannedPredicate, ...]
    scan_method: ScanMethod
    func: str
    agg_field: str
    use_index: bool = False
    use_ordered_index: bool = False


@dataclass(frozen=True)
class WideAggregatePlan:
    """Aggregate over a wide field, read in order (Q14)."""

    table: str
    func: str
    agg_field: str
    words: int
    scan_method: ScanMethod
    group_lines: int  # 0 disables group caching


@dataclass(frozen=True)
class OrderedProjectionPlan:
    """Read several fields of every tuple in order (Q15)."""

    table: str
    fields: Tuple[str, ...]
    scan_method: ScanMethod
    group_lines: int
    order_by: Optional[Tuple[str, bool]] = None
    limit: Optional[int] = None


@dataclass(frozen=True)
class JoinPlan:
    """Hash equi-join with optional cross-table inequality (Q8, Q9)."""

    left: str
    right: str
    left_key: str
    right_key: str
    extra: Tuple[Tuple[str, str, str], ...]  # (left_field, op, right_field)
    output: Tuple[Tuple[str, str], ...]  # (table, field)
    scan_method_left: ScanMethod
    scan_method_right: ScanMethod


@dataclass(frozen=True)
class UpdatePlan:
    """Predicate scan plus per-match writes (Q12, Q13).

    ``write_method`` is the *direction* the dirtied cells are written
    back in: ROW writes each matched tuple's assigned words as scattered
    row accesses (one dirtied row buffer per match), COLUMN writes them
    as column lines (matches sharing a physical column dirty one column
    buffer between them).  The planner picks whichever the cost model's
    write-amplification term prices cheaper; the functional result is
    identical either way."""

    table: str
    predicates: Tuple[PlannedPredicate, ...]
    scan_method: ScanMethod
    assignments: Tuple[Tuple[str, int], ...]
    use_index: bool = False
    use_ordered_index: bool = False
    write_method: ScanMethod = ScanMethod.ROW
    estimated_selectivity: float = 0.1


class Planner:
    """Plans statements for one database instance + memory system."""

    def __init__(self, database):
        self.database = database

    # -- public entry ---------------------------------------------------------
    def plan(self, statement, params=None, selectivity_hint=None, group_lines=None):
        params = params or {}
        with obs.span("plan", statement=type(statement).__name__) as sp:
            if isinstance(statement, Select):
                plan = self._plan_select(
                    statement, params, selectivity_hint, group_lines
                )
            elif isinstance(statement, Update):
                plan = self._plan_update(statement, params)
            else:
                raise SqlError(f"cannot plan {type(statement).__name__}")
            if sp.enabled:
                sp.set(plan=type(plan).__name__)
            return plan

    # -- helpers ---------------------------------------------------------------
    @property
    def _supports_column(self):
        return self.database.memory.supports_column

    @property
    def _supports_gather(self):
        return self.database.memory.supports_gather

    def _table(self, name):
        return self.database.table(name)

    def _scan_method(self, table_name, field_name):
        """Best scan method for one field of one table on this system."""
        table = self._table(table_name)
        if self._supports_column:
            return ScanMethod.COLUMN
        if self._supports_gather and self._gather_eligible(table):
            return ScanMethod.GATHER
        return ScanMethod.ROW

    @staticmethod
    def _index_usable(table, predicates):
        """An index resolves the predicate iff it is a single equality on
        an indexed field."""
        return (
            len(predicates) == 1
            and predicates[0].op == "="
            and predicates[0].field in table.indexes
        )

    #: Ordered-index probes beat a full column scan only while the match
    #: range is small relative to the table.
    ORDERED_INDEX_SELECTIVITY = 0.25

    def _ordered_index_usable(self, table, predicates, selectivity):
        return (
            len(predicates) == 1
            and predicates[0].field in table.ordered_indexes
            and predicates[0].op in (">", "<", ">=", "<=", "=")
            and selectivity <= self.ORDERED_INDEX_SELECTIVITY
        )

    @staticmethod
    def _gather_eligible(table):
        """GS-DRAM restrictions (Section 1): power-of-two stride only, and
        only over row-major data resident in normally-addressed rows (no
        column intra-layout, no rotation) — a gathered burst strides
        across consecutive tuples within one DRAM row."""
        tw = table.schema.tuple_words
        if tw & (tw - 1):
            return False
        return all(
            chunk.layout is IntraLayout.ROW and not chunk.placement.rotated
            for chunk in table.chunks
        )

    def _resolve_value(self, operand, params):
        if isinstance(operand, Literal):
            return operand.value
        if isinstance(operand, ColumnRef) and operand.table is None:
            if operand.name in params:
                return int(params[operand.name])
        raise SqlError(f"operand {operand} is not a constant or bound parameter")

    def _is_constant(self, operand, params):
        return isinstance(operand, Literal) or (
            isinstance(operand, ColumnRef)
            and operand.table is None
            and operand.name in params
        )

    def _resolve_predicates(self, comparisons, table_name, params):
        """Single-table conjunctions of the form ``field op constant``."""
        table = self._table(table_name)
        predicates = []
        for comparison in comparisons:
            left, right, op = comparison.left, comparison.right, comparison.op
            if self._is_constant(left, params) and not self._is_constant(right, params):
                left, right = right, left
                op = _flip_op(op)
            if not isinstance(left, ColumnRef) or left.name not in table.schema:
                raise SqlError(f"unknown column in predicate: {comparison}")
            predicates.append(
                PlannedPredicate(left.name, op, self._resolve_value(right, params))
            )
        return tuple(predicates)

    def _selectivity(self, table_name, predicates, hint):
        if hint is not None:
            return float(hint)
        if not predicates:
            return 1.0
        table = self._table(table_name)
        mask = None
        for predicate in predicates:
            values = table.field_values(predicate.field)
            part = _compare(values, predicate.op, predicate.value)
            mask = part if mask is None else (mask & part)
        if not len(mask):
            return 0.0
        return float(np.count_nonzero(mask)) / len(mask)

    # -- SELECT ------------------------------------------------------------------
    def _plan_select(self, statement, params, selectivity_hint, group_lines):
        if len(statement.tables) == 2:
            if statement.order_by is not None or statement.limit is not None:
                raise SqlError("ORDER BY / LIMIT on joins is not supported")
            return self._plan_join(statement, params)
        if len(statement.tables) != 1:
            raise SqlError("only one- and two-table SELECTs are supported")
        table_name = statement.tables[0]
        table = self._table(table_name)
        predicates = self._resolve_predicates(statement.where, table_name, params)
        order_by = self._resolve_order(statement, table)
        scan_method = (
            self._scan_method(table_name, predicates[0].field) if predicates else None
        )

        items = statement.items
        if len(items) == 1 and isinstance(items[0], Aggregate):
            if order_by is not None or statement.limit is not None:
                raise SqlError("ORDER BY / LIMIT on aggregates is meaningless")
            agg = items[0]
            agg_field = _schema_field(table, agg.column.name)
            if agg_field.is_wide:
                if predicates:
                    raise SqlError("wide-field aggregates with WHERE are not supported")
                return WideAggregatePlan(
                    table=table_name,
                    func=agg.func,
                    agg_field=agg_field.name,
                    words=agg_field.words,
                    scan_method=self._scan_method(table_name, agg_field.name),
                    group_lines=self._group_lines(group_lines),
                )
            use_index = self._index_usable(table, predicates)
            use_ordered = not use_index and self._ordered_index_usable(
                table, predicates,
                self._selectivity(table_name, predicates, selectivity_hint),
            )
            return AggregatePlan(
                table=table_name,
                predicates=predicates,
                scan_method=scan_method or self._scan_method(table_name, agg.column.name),
                func=agg.func,
                agg_field=agg.column.name,
                use_index=use_index,
                use_ordered_index=use_ordered,
            )

        if len(items) == 1 and isinstance(items[0], Star):
            use_index = self._index_usable(table, predicates)
            selectivity = self._selectivity(table_name, predicates, selectivity_hint)
            use_ordered = not use_index and self._ordered_index_usable(
                table, predicates, selectivity
            )
            fetch = (
                FetchMethod.FULL_SCAN
                if selectivity >= FULL_SCAN_THRESHOLD
                and not use_index
                and not use_ordered
                else FetchMethod.ROW
            )
            return FilterFetchPlan(
                table=table_name,
                predicates=predicates,
                scan_method=scan_method or ScanMethod.ROW,
                output_fields=None,
                fetch_method=fetch,
                estimated_selectivity=selectivity,
                use_index=use_index,
                use_ordered_index=use_ordered,
                order_by=order_by,
                limit=statement.limit,
            )

        # Plain column projection.
        fields = []
        for item in items:
            if not isinstance(item, ColumnRef):
                raise SqlError("mixed aggregate/column select lists are unsupported")
            _schema_field(table, item.name)  # validates
            fields.append(item.name)
        if not predicates:
            self._check_order_in_fields(order_by, fields)
            return OrderedProjectionPlan(
                table=table_name,
                fields=tuple(fields),
                scan_method=self._scan_method(table_name, fields[0]),
                group_lines=self._group_lines(group_lines),
                order_by=order_by,
                limit=statement.limit,
            )
        selectivity = self._selectivity(table_name, predicates, selectivity_hint)
        projected_words = sum(table.schema.field(name).words for name in fields)
        if self._supports_column and projected_words * 2 <= table.schema.tuple_words:
            # Narrow projection: scattered matches share column buffers, so
            # column accesses beat one row activation per match at any
            # selectivity.
            fetch = FetchMethod.COLUMN
        elif selectivity >= FULL_SCAN_THRESHOLD and not self._supports_column:
            fetch = FetchMethod.FULL_SCAN
        else:
            fetch = FetchMethod.ROW
        self._check_order_in_fields(order_by, fields)
        use_index = self._index_usable(table, predicates)
        return FilterFetchPlan(
            table=table_name,
            predicates=predicates,
            scan_method=scan_method,
            output_fields=tuple(fields),
            fetch_method=fetch,
            estimated_selectivity=selectivity,
            use_index=use_index,
            use_ordered_index=(
                not use_index
                and self._ordered_index_usable(table, predicates, selectivity)
            ),
            order_by=order_by,
            limit=statement.limit,
        )

    def _resolve_order(self, statement, table):
        """Validate ORDER BY into (field, descending) or None."""
        if statement.order_by is None:
            return None
        column = statement.order_by.column
        if column.table is not None and column.table != table.name:
            raise SqlError(f"ORDER BY column {column} names the wrong table")
        field = _schema_field(table, column.name)
        if field.is_wide:
            raise SqlError(f"cannot ORDER BY wide field {column.name!r}")
        return (column.name, statement.order_by.descending)

    @staticmethod
    def _check_order_in_fields(order_by, fields):
        if order_by is not None and order_by[0] not in fields:
            raise SqlError(
                f"ORDER BY column {order_by[0]!r} must appear in the "
                "projected fields"
            )

    def _group_lines(self, group_lines):
        if group_lines is None:
            group_lines = self.database.default_group_lines
        if not self._supports_column:
            return 0  # group caching builds on column accesses
        return int(group_lines)

    # -- JOIN ------------------------------------------------------------------
    def _plan_join(self, statement, params):
        left_name, right_name = statement.tables
        equality = None
        extra = []
        for comparison in statement.where:
            left, right = comparison.left, comparison.right
            if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
                    and left.table and right.table):
                raise SqlError(f"join predicates must be table-qualified: {comparison}")
            if left.table == right_name and right.table == left_name:
                left, right = right, left
                comparison = Comparison(_flip_op(comparison.op), left, right)
            if left.table != left_name or right.table != right_name:
                raise SqlError(f"predicate {comparison} does not match FROM tables")
            if comparison.op == "=":
                if equality is not None:
                    raise SqlError("only one equality join key is supported")
                equality = (left.name, right.name)
            else:
                extra.append((left.name, comparison.op, right.name))
        if equality is None:
            raise SqlError("two-table SELECT requires an equality join predicate")
        left_table, right_table = self._table(left_name), self._table(right_name)
        _schema_field(left_table, equality[0])
        _schema_field(right_table, equality[1])
        for lf, _op, rf in extra:
            _schema_field(left_table, lf)
            _schema_field(right_table, rf)
        output = []
        for item in statement.items:
            if not isinstance(item, ColumnRef) or not item.table:
                raise SqlError("join outputs must be table-qualified columns")
            if item.table == left_name:
                _schema_field(left_table, item.name)
            elif item.table == right_name:
                _schema_field(right_table, item.name)
            else:
                raise SqlError(
                    f"join output {item.table}.{item.name} names a table "
                    "not in FROM"
                )
            output.append((item.table, item.name))
        return JoinPlan(
            left=left_name,
            right=right_name,
            left_key=equality[0],
            right_key=equality[1],
            extra=tuple(extra),
            output=tuple(output),
            scan_method_left=self._scan_method(left_name, equality[0]),
            scan_method_right=self._scan_method(right_name, equality[1]),
        )

    # -- UPDATE ---------------------------------------------------------------
    def _plan_update(self, statement, params):
        table_name = statement.table
        table = self._table(table_name)
        predicates = self._resolve_predicates(statement.where, table_name, params)
        assignments = []
        for assignment in statement.assignments:
            _schema_field(table, assignment.column)  # validates
            if (assignment.column in table.indexes
                    or assignment.column in table.ordered_indexes):
                raise SqlError(
                    f"cannot UPDATE indexed field {assignment.column!r}: "
                    "index maintenance is unsupported (drop the index first)"
                )
            assignments.append(
                (assignment.column, self._resolve_value(assignment.value, params))
            )
        selectivity = self._selectivity(table_name, predicates, None)
        plan = UpdatePlan(
            table=table_name,
            predicates=predicates,
            scan_method=(
                self._scan_method(table_name, predicates[0].field)
                if predicates
                else ScanMethod.ROW
            ),
            assignments=tuple(assignments),
            use_index=self._index_usable(table, predicates),
            use_ordered_index=(
                not self._index_usable(table, predicates)
                and self._ordered_index_usable(table, predicates, selectivity)
            ),
            estimated_selectivity=selectivity,
        )
        return self._write_tuned(plan)

    def _write_tuned(self, plan):
        """Pick the write-back direction minimizing estimated write cost.

        NVM writes are asymmetric: every dirtied buffer entry pays a
        write pulse when it flushes, so the direction that dirties fewer
        buffer entries wins even when it moves the same number of lines
        (Ma et al., PAPERS.md).  Only the write path changes — never the
        functional result — so the choice is invisible to differential
        oracles."""
        if not self._supports_column or not plan.assignments:
            return plan
        from repro.imdb.cost import CostModel  # local import: cost imports us

        model = CostModel(self.database)
        best, best_cycles = plan, model.estimate(plan).cycles
        candidate = dataclasses.replace(plan, write_method=ScanMethod.COLUMN)
        cycles = model.estimate(candidate).cycles
        if cycles < best_cycles:
            best = candidate
        return best


def _schema_field(table, name):
    """Look a field up, surfacing unknown columns as SQL errors (the
    schema's LayoutError is an internal exception; user-facing statement
    validation must stay inside the SqlError hierarchy)."""
    try:
        return table.schema.field(name)
    except LayoutError:
        raise SqlError(
            f"unknown column {name!r} in table {table.name!r}"
        ) from None


def _flip_op(op):
    return {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "=", "!=": "!="}[op]


def _compare(values, op, constant):
    if op == ">":
        return values > constant
    if op == "<":
        return values < constant
    if op == ">=":
        return values >= constant
    if op == "<=":
        return values <= constant
    if op == "=":
        return values == constant
    if op == "!=":
        return values != constant
    raise SqlError(f"unknown operator {op!r}")
