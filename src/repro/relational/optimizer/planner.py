"""QGM → physical plan compilation with cost-based join ordering.

For each :class:`SelectBox` the planner

1. chooses an access path per base-table quantifier (index equality scan,
   index range scan, or sequential scan + filter),
2. orders inner joins with left-deep dynamic programming over quantifier
   subsets (greedy beyond :data:`DP_THRESHOLD` quantifiers), choosing hash,
   index-nested-loop or nested-loop per edge,
3. applies outer joins in declaration order, then residual predicates
   (including subquery predicates, compiled as correlated subplans),
4. projects the head and applies DISTINCT.

GroupBy, SetOp, Top and Values boxes compile structurally.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError
from repro.relational.catalog import Catalog, Table
from repro.relational.executor.exprs import (
    Layout,
    PlanContext,
    VecExprCompiler,
    VecValueFn,
    column_kernel,
)
from repro.relational.executor.operators import (
    AggSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexEqScan,
    IndexNLJoin,
    IndexRangeScan,
    Limit,
    NestedLoopJoin,
    PlanOp,
    Project,
    SeqScan,
    SetOp,
    Sort,
    ValuesOp,
)
from repro.relational.optimizer.stats import (
    join_selectivity,
    predicate_selectivity,
)
from repro.relational.qgm.model import (
    BaseTableBox,
    Box,
    GroupByBox,
    QGMColumnRef,
    Quantifier,
    SelectBox,
    SetOpBox,
    TopBox,
    ValuesBox,
    has_subquery,
    referenced_quantifiers,
)
from repro.relational.sql import ast

#: Max quantifiers for exhaustive left-deep DP; greedy beyond this.
DP_THRESHOLD = 8

#: Per-row CPU cost factors (arbitrary units; only ratios matter).
_SEQ_ROW_COST = 0.01
_NL_ROW_COST = 0.005
_INDEX_PROBE_COST = 1.5
#: Cost of materialising one matched row out of an index nested-loop join
#: (buffer fetch + pin/unpin per match).  Charging matches — not just
#: probes — keeps IndexNLJoin from looking free on low-selectivity joins
#: where each probe fans out into many fetched rows.
_FETCH_ROW_COST = 0.05
#: CPU discount on a hash join's per-row cost when batch loops amortise
#: interpreter dispatch: an input fills batches (see VEC_MIN_ROWS) and the
#: join has no residual predicate to evaluate per candidate.
_VEC_ROW_DISCOUNT = 0.3
#: Estimated input rows from which a hash join earns _VEC_ROW_DISCOUNT;
#: below it, per-batch setup outweighs the per-row savings.  A cost input
#: only: every plan runs the same batch operators.
VEC_MIN_ROWS = 64


@dataclass
class CompiledPlan:
    """A runnable plan plus its output column names.

    ``context`` is set on statement-level plans (the roots handed to the
    engine): it carries the bind-parameter vector and the execution epoch.
    Each ``rows()`` call on such a plan starts a new epoch, so per-execution
    subquery memos never serve stale results when the plan is cached and
    re-run later.
    """

    op: PlanOp
    columns: List[str]
    context: Optional[PlanContext] = None
    #: serializes bind-parameters + execution on cached plans shared by
    #: concurrent session threads (engine holds it across bind + collect)
    bind_lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def rows(self, env: Optional[list] = None):
        if self.context is not None:
            self.context.bump()
        return self.op.rows(env if env is not None else [])

    def batches(self, env: Optional[list] = None):
        """Batch-at-a-time root iterator (``rows`` flattens the same run)."""
        if self.context is not None:
            self.context.bump()
        return self.op.batches(env if env is not None else [])


@dataclass
class _Partial:
    """DP table entry: a partial left-deep join covering *names*."""

    names: frozenset
    op: PlanOp
    layout: Layout
    width: int
    est_rows: float
    cost: float
    applied: Set[int] = field(default_factory=set)  # indexes of applied preds
    #: a single-quantifier access path's own predicates, for an index
    #: nested loop that probes the base table instead of running ``op``
    local_preds: Sequence[ast.Expr] = ()


@dataclass
class _QuantInfo:
    quantifier: Quantifier
    columns: List[str]
    base_table: Optional[Table] = None
    derived: Optional[CompiledPlan] = None

    @property
    def name(self) -> str:
        return self.quantifier.name

    @property
    def width(self) -> int:
        return len(self.columns)


class Planner:
    """Compiles QGM box trees into executable plans."""

    def __init__(
        self,
        catalog: Catalog,
        context: Optional[PlanContext] = None,
    ):
        self.catalog = catalog
        self.context = context if context is not None else PlanContext()
        self._subplan_cache: Dict[int, PlanOp] = {}

    # -- public API -----------------------------------------------------------

    def plan_statement(self, box: Box) -> CompiledPlan:
        """Plan a statement root: the returned plan owns this planner's
        context (parameter vector + execution epoch)."""
        plan = self.plan_box(box)
        plan.context = self.context
        return plan

    def plan_write(
        self,
        table: Table,
        where: Optional[ast.Expr],
        assignments: Sequence[Tuple[str, ast.Expr]] = (),
    ) -> CompiledPlan:
        """Plan the row-finding half of an UPDATE or DELETE statement.

        The plan is ``SELECT rid, <old row>, <new row> FROM table WHERE
        where``: the single-table access path a SELECT would get (index
        probe, index range or scan + filter) with the RID as column 0, then
        the new row image with *assignments* (``(column, expr)`` pairs)
        applied.  DELETE passes no assignments and gets ``(rid, <old
        row>)``.  *where* and the assignment expressions are resolved over
        the quantifier ``table.name``.  Like :meth:`plan_statement`, the
        plan owns this planner's context, so one bind sets the parameters
        of WHERE and SET together.
        """
        columns = table.column_names()
        info = _QuantInfo(
            Quantifier(table.name, BaseTableBox(table.name, columns)),
            columns,
            base_table=table,
        )
        preds = ast.conjuncts(where) if where is not None else []
        partial = self._access_path(
            info, [p for p in preds if not has_subquery(p)], emit_rid=True
        )
        op = partial.op
        compiler = self.compiler(partial.layout)
        residual = [p for p in preds if has_subquery(p)]
        if residual:
            op = Filter(op, compiler.compile_filter(ast.conjoin(residual)), "residual")
        names = ["rid"] + columns
        if assignments:
            new_values = {
                table.position_of(col): compiler.compile_value(expr)
                for col, expr in assignments
            }
            head = [column_kernel(pos) for pos in range(len(names))] + [
                new_values.get(pos) or column_kernel(pos + 1)
                for pos in range(len(columns))
            ]
            op = Project(op, head, "write")
            names += columns
        return CompiledPlan(op, names, self.context)

    def plan_box(self, box: Box) -> CompiledPlan:
        if isinstance(box, SelectBox):
            return self._plan_select(box)
        if isinstance(box, GroupByBox):
            return self._plan_group_by(box)
        if isinstance(box, SetOpBox):
            left = self.plan_box(box.left)
            right = self.plan_box(box.right)
            return CompiledPlan(
                SetOp(box.op, box.all, left.op, right.op), left.columns
            )
        if isinstance(box, TopBox):
            return self._plan_top(box)
        if isinstance(box, BaseTableBox):
            table = self.catalog.get_table(box.table_name)
            return CompiledPlan(SeqScan(table), list(box.columns))
        if isinstance(box, ValuesBox):
            op = ValuesOp(box.rows, box.param, self.context)
            return CompiledPlan(op, box.output_columns())
        raise ExecutionError(f"cannot plan box {box!r}")

    def subplan_factory(self, box: Box) -> PlanOp:
        """Compile-once cache used for subquery boxes inside expressions."""
        cached = self._subplan_cache.get(box.id)
        if cached is None:
            cached = self.plan_box(box).op
            self._subplan_cache[box.id] = cached
        return cached

    def compiler(
        self, layout: Layout, precomputed: Optional[Dict[str, int]] = None
    ) -> VecExprCompiler:
        """The expression compiler over *layout*: kernels
        (``compile_value``) and selection functions (``compile_filter``),
        with this planner's subplans and bind-parameter context."""
        return VecExprCompiler(layout, self.subplan_factory, precomputed, self.context)

    # -- SELECT boxes -------------------------------------------------------------

    def _plan_select(self, box: SelectBox) -> CompiledPlan:
        infos = [self._quant_info(quant) for quant in box.quantifiers]
        by_name = {info.name: info for info in infos}
        outer_names = [name for name, _ in box.outer_joins]
        inner_infos = [info for info in infos if info.name not in outer_names]

        # Classify WHERE predicates.
        single_preds: Dict[str, List[ast.Expr]] = {}
        join_preds: List[Tuple[ast.Expr, frozenset]] = []
        residual_preds: List[ast.Expr] = []
        for pred in box.predicates:
            refs = frozenset(referenced_quantifiers(pred))
            if has_subquery(pred) or any(name in outer_names for name in refs):
                residual_preds.append(pred)
            elif len(refs) <= 1:
                target = next(iter(refs)) if refs else (
                    inner_infos[0].name if inner_infos else None
                )
                if target is None:
                    residual_preds.append(pred)
                else:
                    single_preds.setdefault(target, []).append(pred)
            else:
                join_preds.append((pred, refs))

        if not infos:
            partial = _Partial(frozenset(), ValuesOp([()]), {}, 0, 1.0, 0.0)
        elif inner_infos:
            partial = self._order_joins(inner_infos, single_preds, join_preds)
        else:
            raise ExecutionError("outer joins require at least one inner table")

        # Outer joins, in declaration order.
        for name, on_preds in box.outer_joins:
            partial = self._apply_outer_join(
                partial, by_name[name], on_preds, single_preds.get(name, [])
            )

        # Residual predicates (subqueries, post-outer-join filters).
        compiler = self.compiler(partial.layout)
        op = partial.op
        if residual_preds:
            conj = ast.conjoin(residual_preds)  # type: ignore[arg-type]
            op = Filter(op, compiler.compile_filter(conj), "residual")

        names = ", ".join(col.name for col in box.head)
        op = Project(op, [compiler.compile_value(col.expr) for col in box.head], names)
        if box.distinct:
            op = Distinct(op)
        return CompiledPlan(op, box.output_columns())

    def _quant_info(self, quant: Quantifier) -> _QuantInfo:
        if isinstance(quant.box, BaseTableBox):
            table = self.catalog.get_table(quant.box.table_name)
            return _QuantInfo(quant, table.column_names(), base_table=table)
        derived = self.plan_box(quant.box)
        return _QuantInfo(quant, derived.columns, derived=derived)

    # -- access paths ---------------------------------------------------------------

    def _access_path(
        self, info: _QuantInfo, preds: Sequence[ast.Expr], emit_rid: bool = False
    ) -> _Partial:
        """Best single-quantifier plan with *preds* applied.

        With *emit_rid* (base tables only) the chosen scan emits the RID as
        column 0 and the layout shifts by one.
        """
        shift = 1 if emit_rid else 0
        layout = {
            (info.name, col): pos + shift for pos, col in enumerate(info.columns)
        }
        if info.base_table is None:
            op: PlanOp = info.derived.op  # type: ignore[union-attr]
            est = self._estimate_box(info.quantifier.box)
            cost = est * _SEQ_ROW_COST * 2
            remaining = list(preds)
        else:
            op, est, cost, remaining = self._base_access_path(
                info, list(preds), emit_rid
            )
        for pred in preds:
            est *= predicate_selectivity(pred, info.base_table)
        est = max(est, 0.5)
        if remaining:
            conj = ast.conjoin(remaining)  # type: ignore[arg-type]
            op = Filter(op, self.compiler(layout).compile_filter(conj), info.name)
        # EXPLAIN ANALYZE prints the estimate beside the actual row count.
        op.est_rows = est
        return _Partial(
            frozenset([info.name]), op, layout, info.width, est, cost,
            local_preds=tuple(preds),
        )

    @staticmethod
    def _predicate_key(preds: Sequence[ast.Expr]) -> str:
        """Order-insensitive normalized text of an access path's predicates.

        Cached compiles see parameter markers where literals stood, so the
        text is the same for literal-differing statements.
        """
        return " AND ".join(sorted(pred.to_sql() for pred in preds))

    def _base_access_path(
        self, info: _QuantInfo, preds: List[ast.Expr], emit_rid: bool = False
    ) -> Tuple[PlanOp, float, float, List[ast.Expr]]:
        table = info.base_table
        assert table is not None
        rows = max(table.stats.row_count, 1)
        # Try an equality predicate with a matching index.
        for pred in preds:
            binding = self._const_eq_binding(pred, info.name)
            if binding is None:
                continue
            column, const_expr = binding
            index = table.index_on([column])
            if index is None:
                continue
            key_fn = self.compiler({}).compile_value(const_expr)
            op = IndexEqScan(table, index, [key_fn], emit_rid=emit_rid)
            remaining = [p for p in preds if p is not pred]
            est = rows * predicate_selectivity(pred, table)
            return op, rows, _INDEX_PROBE_COST + est, remaining
        # Try range predicates with a B+-tree index.
        range_plan = self._range_access_path(info, preds, emit_rid)
        if range_plan is not None:
            return range_plan
        cost = table.stats.page_count + rows * _SEQ_ROW_COST
        return SeqScan(table, emit_rid=emit_rid), rows, cost, preds

    def _range_access_path(
        self, info: _QuantInfo, preds: List[ast.Expr], emit_rid: bool = False
    ) -> Optional[Tuple[PlanOp, float, float, List[ast.Expr]]]:
        table = info.base_table
        assert table is not None
        bounds: Dict[str, Dict[str, Tuple[ast.Expr, bool, ast.Expr]]] = {}
        for pred in preds:
            for column, side, const_expr, inclusive in self._const_range_bounds(
                pred, info.name
            ):
                bounds.setdefault(column, {})[side] = (const_expr, inclusive, pred)
        for column, sides in bounds.items():
            index = table.index_on([column], require_range=True)
            if index is None:
                continue
            low = sides.get("low")
            high = sides.get("high")
            low_fn = self.compiler({}).compile_value(low[0]) if low else None
            high_fn = self.compiler({}).compile_value(high[0]) if high else None
            op = IndexRangeScan(
                table,
                index,
                low_fn,
                high_fn,
                low[1] if low else True,
                high[1] if high else True,
                emit_rid=emit_rid,
            )
            # A BETWEEN is consumed only when it supplied both bounds; one
            # that lost a side to another predicate stays as a filter.
            used = {
                id(side[2])
                for side in (low, high)
                if side is not None and not isinstance(side[2], ast.Between)
            }
            if low and high and low[2] is high[2]:
                used.add(id(low[2]))
            remaining = [p for p in preds if id(p) not in used]
            rows = max(table.stats.row_count, 1)
            est = rows * (0.25 if low and high else 1.0 / 3.0)
            return op, rows, _INDEX_PROBE_COST + est, remaining
        return None

    def _const_eq_binding(
        self, pred: ast.Expr, qname: str
    ) -> Optional[Tuple[str, ast.Expr]]:
        """Match ``q.col = <expr without local refs>`` (either side)."""
        if not (isinstance(pred, ast.BinaryOp) and pred.op == "="):
            return None
        for side, other in ((pred.left, pred.right), (pred.right, pred.left)):
            if (
                isinstance(side, QGMColumnRef)
                and side.quantifier == qname
                and not referenced_quantifiers(other)
                and not has_subquery(other)
            ):
                return side.column, other
        return None

    def _const_range_bounds(
        self, pred: ast.Expr, qname: str
    ) -> List[Tuple[str, str, ast.Expr, bool]]:
        """Match ``q.col < const`` etc. (one bound) or ``q.col BETWEEN a AND
        b`` (two); returns (col, 'low'/'high', expr, incl) per bound."""

        def local(expr: ast.Expr) -> bool:
            return isinstance(expr, QGMColumnRef) and expr.quantifier == qname

        def const(expr: ast.Expr) -> bool:
            return not referenced_quantifiers(expr) and not has_subquery(expr)

        if isinstance(pred, ast.Between):
            if pred.negated or not local(pred.operand):
                return []
            if not (const(pred.low) and const(pred.high)):
                return []
            column = pred.operand.column
            return [
                (column, "low", pred.low, True),
                (column, "high", pred.high, True),
            ]
        if not isinstance(pred, ast.BinaryOp):
            return []
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if pred.op not in flip:
            return []
        left, right, op = pred.left, pred.right, pred.op
        if local(right) and not referenced_quantifiers(left):
            left, right, op = right, left, flip[op]
        if not (local(left) and const(right)):
            return []
        if op in ("<", "<="):
            return [(left.column, "high", right, op == "<=")]
        return [(left.column, "low", right, op == ">=")]

    # -- join ordering -----------------------------------------------------------

    def _order_joins(
        self,
        infos: List[_QuantInfo],
        single_preds: Dict[str, List[ast.Expr]],
        join_preds: List[Tuple[ast.Expr, frozenset]],
    ) -> _Partial:
        singles = {
            info.name: self._access_path(info, single_preds.get(info.name, []))
            for info in infos
        }
        by_name = {info.name: info for info in infos}
        if len(infos) == 1:
            only = singles[infos[0].name]
            return self._apply_remaining_preds(only, join_preds)
        if len(infos) <= DP_THRESHOLD:
            best = self._dp_join_order(infos, singles, by_name, join_preds)
        else:
            best = self._greedy_join_order(infos, singles, by_name, join_preds)
        return self._apply_remaining_preds(best, join_preds)

    def _dp_join_order(
        self,
        infos: List[_QuantInfo],
        singles: Dict[str, _Partial],
        by_name: Dict[str, _QuantInfo],
        join_preds: List[Tuple[ast.Expr, frozenset]],
    ) -> _Partial:
        names = [info.name for info in infos]
        table: Dict[frozenset, _Partial] = {
            frozenset([name]): singles[name] for name in names
        }
        for size in range(2, len(names) + 1):
            for combo in itertools.combinations(names, size):
                subset = frozenset(combo)
                best: Optional[_Partial] = None
                for name in combo:
                    left_set = subset - {name}
                    left = table.get(left_set)
                    if left is None:
                        continue
                    candidate = self._join(
                        left, by_name[name], singles[name], join_preds
                    )
                    if best is None or candidate.cost < best.cost:
                        best = candidate
                if best is not None:
                    table[subset] = best
        return table[frozenset(names)]

    def _greedy_join_order(
        self,
        infos: List[_QuantInfo],
        singles: Dict[str, _Partial],
        by_name: Dict[str, _QuantInfo],
        join_preds: List[Tuple[ast.Expr, frozenset]],
    ) -> _Partial:
        remaining = {info.name for info in infos}
        # Seed on cost + emitted cardinality, not cost alone: an access
        # path's cost is what it takes to *read* its rows, while every join
        # above the seed pays per row the seed *emits*.  Charging each
        # emitted row at the sequential rate lets a selective path win the
        # seed over a cheap one that feeds the chain many rows.
        start = min(
            remaining,
            key=lambda name: singles[name].cost
            + singles[name].est_rows * _SEQ_ROW_COST,
        )
        current = singles[start]
        remaining.discard(start)
        while remaining:
            best_name = None
            best_candidate: Optional[_Partial] = None
            for name in remaining:
                candidate = self._join(current, by_name[name], singles[name], join_preds)
                if best_candidate is None or candidate.cost < best_candidate.cost:
                    best_candidate = candidate
                    best_name = name
            assert best_candidate is not None and best_name is not None
            current = best_candidate
            remaining.discard(best_name)
        return current

    def _join(
        self,
        left: _Partial,
        right_info: _QuantInfo,
        right_single: _Partial,
        join_preds: List[Tuple[ast.Expr, frozenset]],
    ) -> _Partial:
        """Join *left* with quantifier *right_info*, applying newly-covered
        join predicates; picks the cheapest physical method."""
        name = right_info.name
        combined_names = left.names | {name}
        applicable: List[Tuple[int, ast.Expr]] = []
        for idx, (pred, refs) in enumerate(join_preds):
            if idx in left.applied:
                continue
            if refs <= combined_names and name in refs and refs & left.names:
                applicable.append((idx, pred))
        # Split equi preds (left-expr = right-expr) from residual preds.
        equi: List[Tuple[ast.Expr, ast.Expr]] = []  # (left_key, right_key)
        residual: List[ast.Expr] = []
        for _, pred in applicable:
            pair = self._equi_split(pred, left.names, name)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(pred)

        new_layout = dict(left.layout)
        for pos, col in enumerate(right_info.columns):
            new_layout[(name, col)] = left.width + pos
        new_width = left.width + right_info.width

        selectivity = 1.0
        right_table = right_info.base_table
        for _, pred in applicable:
            selectivity *= join_selectivity(pred, None, right_table)
        est_rows = max(left.est_rows * right_single.est_rows * selectivity, 0.5)

        combined_compiler = self.compiler(new_layout)
        residual_fn = (
            combined_compiler.compile_filter(ast.conjoin(residual))
            if residual
            else None
        )

        candidates: List[Tuple[float, Callable[[], PlanOp]]] = []
        if equi:
            left_keys, right_keys = self._key_vectors(equi, left, right_info)
            per_row = _SEQ_ROW_COST
            if not residual and max(left.est_rows, right_single.est_rows) >= VEC_MIN_ROWS:
                per_row *= _VEC_ROW_DISCOUNT
            hash_cost = (
                left.cost
                + right_single.cost
                + (left.est_rows + right_single.est_rows) * per_row
            )
            candidates.append(
                (
                    hash_cost,
                    lambda: HashJoin(
                        left.op,
                        right_single.op,
                        left_keys,
                        right_keys,
                        residual_fn,
                        "INNER",
                        right_info.width,
                    ),
                )
            )
            # Index nested loop: single-column equi key with an index.
            if right_table is not None and len(equi) >= 1:
                first_rk = equi[0][1]
                if isinstance(first_rk, QGMColumnRef):
                    index = right_table.index_on([first_rk.column])
                    if index is not None:
                        extra = residual
                        if len(equi) > 1:
                            extra = residual + [
                                ast.BinaryOp("=", lk, rk) for lk, rk in equi[1:]
                            ]
                        inl_residual = (
                            combined_compiler.compile_filter(ast.conjoin(extra))
                            if extra
                            else None
                        )
                        probe_key = left_keys[0]
                        # The probe reads the base table, not right_single.op:
                        # the inner side's own predicates filter each fetched
                        # row, and every row is fetched before that filter.
                        inner_preds = right_single.local_preds
                        inner_filter = (
                            self.compiler(
                                {(name, col): pos for pos, col in enumerate(right_info.columns)}
                            ).compile_filter(ast.conjoin(list(inner_preds)))
                            if inner_preds
                            else None
                        )
                        fetched = max(
                            left.est_rows * max(right_table.stats.row_count, 1) * selectivity,
                            0.5,
                        )
                        inl_cost = (
                            left.cost
                            + left.est_rows * _INDEX_PROBE_COST
                            + fetched * _FETCH_ROW_COST
                        )
                        candidates.append(
                            (
                                inl_cost,
                                lambda: IndexNLJoin(
                                    left.op,
                                    right_table,
                                    index,
                                    probe_key,
                                    inl_residual,
                                    "INNER",
                                    right_info.width,
                                    inner_filter,
                                    self._predicate_key(inner_preds),
                                ),
                            )
                        )
        nl_pred = (
            combined_compiler.compile_filter(
                ast.conjoin([p for _, p in applicable])
            )
            if applicable
            else None
        )
        nl_cost = (
            left.cost
            + right_single.cost
            + left.est_rows * right_single.est_rows * _NL_ROW_COST
        )
        candidates.append(
            (
                nl_cost,
                lambda: NestedLoopJoin(
                    left.op, right_single.op, nl_pred, "INNER", right_info.width
                ),
            )
        )
        cost, build = min(candidates, key=lambda pair: pair[0])
        applied = set(left.applied)
        applied.update(idx for idx, _ in applicable)
        join_op = build()
        join_op.est_rows = est_rows
        return _Partial(
            combined_names, join_op, new_layout, new_width, est_rows, cost, applied
        )

    def _key_vectors(
        self,
        equi: List[Tuple[ast.Expr, ast.Expr]],
        left: _Partial,
        right_info: _QuantInfo,
    ) -> Tuple[List[VecValueFn], List[VecValueFn]]:
        """Key vectors of an equi-join: left keys over the partial's layout,
        right keys over the right quantifier's own columns."""
        right_layout = {
            (right_info.name, col): pos for pos, col in enumerate(right_info.columns)
        }
        left_compiler = self.compiler(left.layout)
        right_compiler = self.compiler(right_layout)
        return (
            [left_compiler.compile_value(lk) for lk, _ in equi],
            [right_compiler.compile_value(rk) for _, rk in equi],
        )

    def _equi_split(
        self, pred: ast.Expr, left_names: frozenset, right_name: str
    ) -> Optional[Tuple[ast.Expr, ast.Expr]]:
        if not (isinstance(pred, ast.BinaryOp) and pred.op == "="):
            return None
        left_refs = referenced_quantifiers(pred.left)
        right_refs = referenced_quantifiers(pred.right)
        if left_refs and left_refs <= left_names and right_refs == {right_name}:
            return pred.left, pred.right
        if right_refs and right_refs <= left_names and left_refs == {right_name}:
            return pred.right, pred.left
        return None

    def _apply_remaining_preds(
        self, partial: _Partial, join_preds: List[Tuple[ast.Expr, frozenset]]
    ) -> _Partial:
        """Safety net: any join predicate not yet applied becomes a filter."""
        leftover = [
            pred
            for idx, (pred, refs) in enumerate(join_preds)
            if idx not in partial.applied and refs <= partial.names
        ]
        if not leftover:
            return partial
        sel_fn = self.compiler(partial.layout).compile_filter(
            ast.conjoin(leftover)  # type: ignore[arg-type]
        )
        return _Partial(
            partial.names,
            Filter(partial.op, sel_fn, "leftover"),
            partial.layout,
            partial.width,
            partial.est_rows * 0.5,
            partial.cost,
            partial.applied,
        )

    def _apply_outer_join(
        self,
        left: _Partial,
        right_info: _QuantInfo,
        on_preds: List[ast.Expr],
        where_preds: List[ast.Expr],
    ) -> _Partial:
        """LEFT OUTER JOIN *right_info* onto *left* with the ON predicates.

        ON predicates referencing only the right side are pushed into its
        access path; WHERE predicates on the right side must run *after*
        null-extension, so they come back as residual filters above the join.
        """
        name = right_info.name
        pushed = [
            pred
            for pred in on_preds
            if referenced_quantifiers(pred) <= {name} and not has_subquery(pred)
        ]
        join_conds = [pred for pred in on_preds if pred not in pushed]
        right_single = self._access_path(right_info, pushed)

        new_layout = dict(left.layout)
        for pos, col in enumerate(right_info.columns):
            new_layout[(name, col)] = left.width + pos
        new_width = left.width + right_info.width
        combined_compiler = self.compiler(new_layout)

        equi: List[Tuple[ast.Expr, ast.Expr]] = []
        residual: List[ast.Expr] = []
        for pred in join_conds:
            pair = self._equi_split(pred, left.names, name)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(pred)
        op: PlanOp
        if equi:
            left_keys, right_keys = self._key_vectors(equi, left, right_info)
            residual_fn = (
                combined_compiler.compile_filter(ast.conjoin(residual))
                if residual
                else None
            )
            op = HashJoin(
                left.op,
                right_single.op,
                left_keys,
                right_keys,
                residual_fn,
                "LEFT",
                right_info.width,
            )
        else:
            pred_fn = (
                combined_compiler.compile_filter(ast.conjoin(join_conds))
                if join_conds
                else None
            )
            op = NestedLoopJoin(
                left.op, right_single.op, pred_fn, "LEFT", right_info.width
            )
        est = max(left.est_rows, left.est_rows * right_single.est_rows * 0.1)
        cost = left.cost + right_single.cost + est * _SEQ_ROW_COST
        partial = _Partial(
            left.names | {name}, op, new_layout, new_width, est, cost, left.applied
        )
        if where_preds:
            sel_fn = combined_compiler.compile_filter(
                ast.conjoin(where_preds)  # type: ignore[arg-type]
            )
            partial = _Partial(
                partial.names,
                Filter(partial.op, sel_fn, f"post-outer({name})"),
                partial.layout,
                partial.width,
                partial.est_rows * 0.5,
                partial.cost,
                partial.applied,
            )
        return partial

    # -- GROUP BY ----------------------------------------------------------------

    def _plan_group_by(self, box: GroupByBox) -> CompiledPlan:
        assert box.input is not None
        child = self.plan_box(box.input.box)
        qname = box.input.name
        child_layout = {
            (qname, col): pos for pos, col in enumerate(child.columns)
        }
        child_compiler = self.compiler(child_layout)
        key_fns = [child_compiler.compile_value(key) for key in box.group_keys]

        # Collect unique aggregate calls across head and having.
        agg_exprs: List[ast.FuncCall] = []
        seen_sql: Set[str] = set()
        for expr in [col.expr for col in box.head] + list(box.having):
            for node in ast.walk(expr):
                if isinstance(node, ast.FuncCall) and node.is_aggregate:
                    sql = node.to_sql()
                    if sql not in seen_sql:
                        seen_sql.add(sql)
                        agg_exprs.append(node)
        agg_specs = [
            AggSpec("COUNT", None)
            if agg.star
            else AggSpec(agg.name, child_compiler.compile_value(agg.args[0]), agg.distinct)
            for agg in agg_exprs
        ]

        precomputed: Dict[str, int] = {}
        for pos, key in enumerate(box.group_keys):
            precomputed.setdefault(key.to_sql(), pos)
        for offset, agg in enumerate(agg_exprs):
            precomputed[agg.to_sql()] = len(box.group_keys) + offset

        final_compiler = self.compiler({}, precomputed)
        head_fns = [final_compiler.compile_value(col.expr) for col in box.head]
        having_fns = [final_compiler.compile_filter(p) for p in box.having]
        op = HashAggregate(
            child.op,
            key_fns,
            agg_specs,
            head_fns,
            having_fns,
            global_group=not box.group_keys,
        )
        return CompiledPlan(op, box.output_columns())

    # -- TOP (ORDER BY / LIMIT) -----------------------------------------------------

    def _plan_top(self, box: TopBox) -> CompiledPlan:
        child = self.plan_box(box.child)
        op = child.op
        if box.order_by:
            layout = {
                ("__out__", col): pos for pos, col in enumerate(child.columns)
            }
            compiler = self.compiler(layout)
            key_fns = [compiler.compile_value(expr) for expr, _ in box.order_by]
            op = Sort(op, key_fns, [asc for _, asc in box.order_by])
        if box.limit is not None or box.offset is not None:
            op = Limit(op, box.limit, box.offset)
        columns = child.columns
        if box.visible is not None and box.visible < len(columns):
            op = Project(op, [column_kernel(p) for p in range(box.visible)], "trim")
            columns = columns[: box.visible]
        return CompiledPlan(op, columns)

    # -- cardinality estimation -------------------------------------------------------

    def _estimate_box(self, box: Box) -> float:
        if isinstance(box, BaseTableBox):
            table = self.catalog.get_table(box.table_name)
            return max(table.stats.row_count, 1)
        if isinstance(box, SelectBox):
            est = 1.0
            for quant in box.quantifiers:
                est *= self._estimate_box(quant.box)
            for pred in box.predicates:
                est *= predicate_selectivity(pred, None)
            return max(est, 0.5)
        if isinstance(box, GroupByBox):
            child = self._estimate_box(box.input.box) if box.input else 1.0
            return max(child / 2.0, 1.0) if box.group_keys else 1.0
        if isinstance(box, SetOpBox):
            return self._estimate_box(box.left) + self._estimate_box(box.right)
        if isinstance(box, TopBox):
            est = self._estimate_box(box.child)
            if box.limit is not None:
                est = min(est, box.limit)
            return est
        if isinstance(box, ValuesBox):
            return max(len(box.rows), 1)
        return 100.0
