"""Expression compilation: QGM expressions → batch kernels.

Every expression compiles to one form, a *kernel*
``fn(cols, idx, env) -> list`` that computes its value for each live row
``idx`` of a column batch ``cols``.  A predicate used as a filter compiles
to a *selection function* ``sel(cols, idx, env) -> List[int]`` that keeps
the live rows on which it is True (False and NULL both drop).  *env* is
the environment stack — a list of ``{(quantifier, column): value}`` dicts
pushed by enclosing queries (for correlated subqueries) and by the XNF
path-expression evaluator.

A constant — a literal, a ``?`` or an outer reference — is a kernel over
a one-row batch with no columns (:func:`constant_value`); index probes and
``INSERT … VALUES`` evaluate their keys and values that way.  Compiling
once and evaluating many times mirrors Starburst's "query refinement"
stage, which emits an executable plan rather than re-interpreting QGM.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, TypeCheckError
from repro.relational.executor import batch as B
from repro.relational.qgm.model import (
    OuterRef,
    QGMColumnRef,
    SubqueryExpr,
    collect_outer_refs,
)
from repro.relational.sql import ast
from repro.relational.types import (
    sql_arith,
    sql_compare,
    sql_in,
    sql_like,
    tv_and,
    tv_not,
    tv_or,
)

#: Maps (quantifier, column) to a tuple position.
Layout = Dict[Tuple[str, str], int]

#: Computes one value per live row: ``vfn(columns, idx, env) -> list``.
VecValueFn = Callable[[Sequence[Sequence[Any]], Sequence[int], List[Dict]], list]

#: Filters a selection vector: ``sel(columns, idx, env) -> List[int]``.
SelFn = Callable[[Sequence[Sequence[Any]], Sequence[int], List[Dict]], List[int]]

_VEC_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class PlanContext:
    """Shared mutable state of one compiled plan.

    ``params`` is the bind-parameter vector: compiled ``Parameter`` kernels
    read slots of this list at evaluation time, so a cached plan is re-run
    with new constants by assigning ``params[:]`` — no recompilation.

    ``epoch`` is bumped once per top-level execution; the uncorrelated
    subquery memos below key on it, so they are computed once per execution
    but never leak results across executions of a cached plan (the
    underlying data may have changed in between).
    """

    __slots__ = ("params", "epoch")

    def __init__(self, params: Optional[List[Any]] = None):
        self.params: List[Any] = params if params is not None else []
        self.epoch = 0

    def bump(self) -> None:
        self.epoch += 1


def constant_value(kernel: VecValueFn, env: List[Dict]) -> Any:
    """The value of a kernel that reads no column: run over one row."""
    return kernel((), (0,), env)[0]


def column_kernel(pos: int) -> VecValueFn:
    """The kernel reading input column *pos*."""
    gather = B.gather
    return lambda cols, idx, env: gather(cols[pos], idx)


def _outer_lookup(key: Tuple[str, str]) -> Callable[[List[Dict]], Any]:
    def lookup(env):
        for frame in reversed(env):
            if key in frame:
                return frame[key]
        raise ExecutionError(f"unbound outer reference {key[0]}.{key[1]}")

    return lookup


class VecExprCompiler:
    """Compiles resolved expressions against a batch layout.

    ``compile_value`` returns a kernel, ``compile_filter`` a selection
    function; both dispatch on the node class through one table
    (``_KERNELS``).  Comparisons of a column with a column or a constant,
    ``[NOT] IN`` lists of constants, ``IS [NOT] NULL``, ``BETWEEN`` and
    ``LIKE`` with a constant pattern filter through the selection kernels
    of :mod:`~repro.relational.executor.batch`; any other predicate keeps
    the rows whose truth vector is True.

    ``subplan_factory(box)`` must return an object with
    ``rows(env) -> iterator of tuples`` — the planner provides this to
    execute subquery boxes.  ``precomputed`` maps an expression's SQL text
    to a column position; the aggregate operator uses it to route
    aggregate results and group keys into HAVING and head expressions.
    """

    def __init__(
        self,
        layout: Layout,
        subplan_factory: Optional[Callable[[Any], Any]] = None,
        precomputed: Optional[Dict[str, int]] = None,
        context: Optional[PlanContext] = None,
    ):
        self.layout = layout
        self.subplan_factory = subplan_factory
        self.precomputed = precomputed or {}
        self.context = context

    # -- entry points ----------------------------------------------------------

    def compile_value(self, expr: ast.Expr) -> VecValueFn:
        pos = self._precomputed(expr)
        if pos is not None:
            return column_kernel(pos)
        builders = _KERNELS.get(type(expr))
        if builders is None:
            raise TypeCheckError(f"cannot compile expression {expr!r}")
        return builders[0](self, expr)

    def compile_filter(self, expr: ast.Expr) -> SelFn:
        builders = _KERNELS.get(type(expr))
        if self._precomputed(expr) is None and builders is not None and builders[1]:
            sel = builders[1](self, expr)
            if sel is not None:
                return sel
        vfn = self.compile_value(expr)
        return lambda cols, idx, env: B.sel_from_truth(idx, vfn(cols, idx, env))

    # -- leaves ----------------------------------------------------------------

    def _literal(self, expr: ast.Literal) -> VecValueFn:
        value = expr.value
        return lambda cols, idx, env: [value] * len(idx)

    def _parameter(self, expr: ast.Parameter) -> VecValueFn:
        ctx = self.context
        if ctx is None:
            raise ExecutionError(
                f"bind parameter {expr.to_sql()} outside a prepared statement"
            )
        slot = expr.index
        return lambda cols, idx, env: [ctx.params[slot]] * len(idx)

    def _column_ref(self, expr: QGMColumnRef) -> VecValueFn:
        pos = self.layout.get((expr.quantifier, expr.column))
        if pos is None:
            raise ExecutionError(
                f"column {expr.to_sql()} not in row layout {sorted(self.layout)}"
            )
        return column_kernel(pos)

    def _outer_ref(self, expr: OuterRef) -> VecValueFn:
        lookup = _outer_lookup((expr.quantifier, expr.column))
        return lambda cols, idx, env: [lookup(env)] * len(idx)

    # -- operators -------------------------------------------------------------

    def _binary(self, expr: ast.BinaryOp) -> VecValueFn:
        op = expr.op
        if op in _VEC_COMPARISONS:
            element: Callable[[Any, Any], Any] = partial(sql_compare, op)
        elif op in ("+", "-", "*", "/", "%", "||"):
            element = partial(sql_arith, op)
        elif op in ("AND", "OR", "LIKE"):
            element = {"AND": tv_and, "OR": tv_or, "LIKE": sql_like}[op]
        else:
            raise TypeCheckError(f"unknown binary operator {op!r}")
        left = self.compile_value(expr.left)
        right = self.compile_value(expr.right)
        if op not in ("+", "-", "*"):
            return lambda cols, idx, env: [
                element(a, b) for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]

        # Numeric fast path inline; strings and errors via sql_arith.
        def arith(cols, idx, env):
            out = []
            append = out.append
            for a, b in zip(left(cols, idx, env), right(cols, idx, env)):
                if a is None or b is None:
                    append(None)
                elif type(a) in (int, float) and type(b) in (int, float):
                    if op == "+":
                        append(a + b)
                    elif op == "-":
                        append(a - b)
                    else:
                        append(a * b)
                else:
                    append(element(a, b))
            return out

        return arith

    def _unary(self, expr: ast.UnaryOp) -> VecValueFn:
        if expr.op not in ("NOT", "-"):
            raise TypeCheckError(f"unknown unary operator {expr.op!r}")
        operand = self.compile_value(expr.operand)
        if expr.op == "NOT":
            return lambda cols, idx, env: [tv_not(v) for v in operand(cols, idx, env)]
        return lambda cols, idx, env: [
            None if v is None else -v for v in operand(cols, idx, env)
        ]

    def _is_null(self, expr: ast.IsNull) -> VecValueFn:
        operand = self.compile_value(expr.operand)
        if expr.negated:
            return lambda cols, idx, env: [v is not None for v in operand(cols, idx, env)]
        return lambda cols, idx, env: [v is None for v in operand(cols, idx, env)]

    def _between(self, expr: ast.Between) -> VecValueFn:
        operand = self.compile_value(expr.operand)
        low = self.compile_value(expr.low)
        high = self.compile_value(expr.high)
        negated = expr.negated

        def run(cols, idx, env):
            out = []
            for v, lo, hi in zip(
                operand(cols, idx, env), low(cols, idx, env), high(cols, idx, env)
            ):
                result = tv_and(sql_compare(">=", v, lo), sql_compare("<=", v, hi))
                out.append(tv_not(result) if negated else result)
            return out

        return run

    def _in_list(self, expr: ast.InList) -> VecValueFn:
        operand = self.compile_value(expr.operand)
        items = [self.compile_value(item) for item in expr.items]
        negated = expr.negated

        def run(cols, idx, env):
            item_vecs = [item(cols, idx, env) for item in items]
            out = []
            for value, row_items in zip(operand(cols, idx, env), zip(*item_vecs)):
                result = sql_in(value, row_items)
                out.append(tv_not(result) if negated else result)
            return out

        return run

    def _func(self, expr: ast.FuncCall) -> VecValueFn:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name} outside GROUP BY context: {expr.to_sql()}"
            )
        args = [self.compile_value(arg) for arg in expr.args]
        name = expr.name
        if name.startswith("CAST_"):
            type_name = name[5:]
            arg0 = args[0]
            return lambda cols, idx, env: [
                cast_value(type_name, v) for v in arg0(cols, idx, env)
            ]
        impl = _SCALAR_IMPLS.get(name)
        if impl is None:
            raise TypeCheckError(f"unknown function {name!r}")

        def run(cols, idx, env):
            arg_vecs = [arg(cols, idx, env) for arg in args]
            if not arg_vecs:
                return [impl([]) for _ in idx]
            return [impl(list(row_args)) for row_args in zip(*arg_vecs)]

        return run

    def _case(self, expr: ast.Case) -> VecValueFn:
        """A masked kernel: each WHEN filters the rows no earlier WHEN took,
        and its THEN runs only on the rows it selected."""
        whens = [
            (self.compile_filter(cond), self.compile_value(result))
            for cond, result in expr.whens
        ]
        otherwise = (
            self.compile_value(expr.else_result) if expr.else_result is not None else None
        )

        def run(cols, idx, env):
            out = dict.fromkeys(idx)  # NULL where no branch applies
            rest = idx
            for when, then in whens:
                if not rest:
                    break
                hit = when(cols, rest, env)
                if hit:
                    out.update(zip(hit, then(cols, hit, env)))
                    taken = set(hit)
                    rest = [i for i in rest if i not in taken]
            if otherwise is not None and rest:
                out.update(zip(rest, otherwise(cols, rest, env)))
            return list(out.values())

        return run

    def _subquery(self, expr: SubqueryExpr) -> VecValueFn:
        """One loop over the live rows: each row pushes its correlation
        frame and runs the subplan; an uncorrelated subquery runs once per
        execution epoch (the memo is recomputed when a cached plan re-runs,
        since its data may have changed in between)."""
        if self.subplan_factory is None:
            raise ExecutionError("subquery found but no subplan factory given")
        subplan = self.subplan_factory(expr.box)
        kind = expr.kind
        if kind not in ("EXISTS", "IN", "SCALAR"):
            raise TypeCheckError(f"unknown subquery kind {kind!r}")
        # Bindings of the current row the subquery needs: pushed as an
        # environment frame so OuterRef lookups resolve per outer row.
        keys = [key for key in sorted(collect_outer_refs(expr.box)) if key in self.layout]
        positions = [self.layout[key] for key in keys]
        correlated = expr.correlated
        negated = expr.negated
        ctx = self.context
        memo: List[Any] = [None, None]  # [epoch, value] when uncorrelated

        def frames(cols, idx, env):
            if not keys:
                return [env] * len(idx)
            vecs = [B.gather(cols[pos], idx) for pos in positions]
            return [env + [dict(zip(keys, values))] for values in zip(*vecs)]

        def result(env):
            epoch = ctx.epoch if ctx is not None else 0
            if not correlated and memo[0] == epoch:
                return memo[1]
            rows = subplan.rows(env)
            if kind == "EXISTS":
                value: Any = any(True for _ in rows)
            elif kind == "IN":
                values = set()
                has_null = False
                for sub_row in rows:
                    if sub_row[0] is None:
                        has_null = True
                    else:
                        values.add(sub_row[0])
                value = (values, has_null)
            else:
                value = None
                seen = False
                for sub_row in rows:
                    if seen:
                        raise ExecutionError("scalar subquery returned > 1 row")
                    value = sub_row[0]
                    seen = True
            if not correlated:
                memo[:] = [epoch, value]
            return value

        if kind == "EXISTS":
            return lambda cols, idx, env: [
                result(frame) != negated for frame in frames(cols, idx, env)
            ]
        if kind == "SCALAR":
            return lambda cols, idx, env: [result(frame) for frame in frames(cols, idx, env)]
        operand = self.compile_value(expr.operand)

        def run_in(cols, idx, env):
            out: List[Optional[bool]] = []
            for value, frame in zip(operand(cols, idx, env), frames(cols, idx, env)):
                if value is None:
                    out.append(None)
                    continue
                values, has_null = result(frame)
                found: Optional[bool] = True if value in values else None if has_null else False
                out.append(tv_not(found) if negated else found)
            return out

        return run_in

    # -- selection functions ---------------------------------------------------

    def _filter_binary(self, expr: ast.BinaryOp) -> Optional[SelFn]:
        if expr.op == "AND":
            left = self.compile_filter(expr.left)
            right = self.compile_filter(expr.right)
            # Sequential selection is exact 3VL filtering:
            # (a AND b) is True  ⇔  a is True and b is True.
            return lambda cols, idx, env: right(cols, left(cols, idx, env), env)
        if expr.op in _VEC_COMPARISONS:
            return self._filter_comparison(expr)
        if expr.op == "LIKE":
            pos = self._column_position(expr.left)
            pattern = expr.right
            if pos is not None and isinstance(pattern, ast.Literal) and isinstance(
                pattern.value, str
            ):
                pat = pattern.value
                return lambda cols, idx, env: B.sel_like_const(cols[pos], idx, pat, False)
        return None

    def _filter_comparison(self, expr: ast.BinaryOp) -> Optional[SelFn]:
        flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        op = expr.op
        left_pos = self._column_position(expr.left)
        right_pos = self._column_position(expr.right)
        if left_pos is not None and right_pos is not None:
            return lambda cols, idx, env: B.sel_cmp_columns(
                cols[left_pos], cols[right_pos], idx, op
            )
        if left_pos is not None:
            pos, other, cmp = left_pos, expr.right, op
        elif right_pos is not None:
            pos, other, cmp = right_pos, expr.left, flip[op]
        else:
            return None
        const = self._const_fetch(other)
        if const is None:
            return None
        return lambda cols, idx, env: B.sel_cmp_const(cols[pos], idx, cmp, const(env))

    def _filter_is_null(self, expr: ast.IsNull) -> Optional[SelFn]:
        pos = self._column_position(expr.operand)
        if pos is None:
            return None
        negated = expr.negated
        return lambda cols, idx, env: B.sel_is_null(cols[pos], idx, negated)

    def _filter_in_list(self, expr: ast.InList) -> Optional[SelFn]:
        """``column [NOT] IN (constants)``: the hashed kernel, whose answers
        and errors are those of ``sql_in``'s left-to-right fold."""
        pos = self._column_position(expr.operand)
        fetchers = [self._const_fetch(item) for item in expr.items]
        if pos is None or any(fetch is None for fetch in fetchers):
            return None
        negated = expr.negated
        return lambda cols, idx, env: B.sel_in_set(
            cols[pos], idx, [fetch(env) for fetch in fetchers], negated  # type: ignore[misc]
        )

    def _filter_between(self, expr: ast.Between) -> Optional[SelFn]:
        pos = self._column_position(expr.operand)
        low = self._const_fetch(expr.low)
        high = self._const_fetch(expr.high)
        if expr.negated or pos is None or low is None or high is None:
            return None

        def sel_between(cols, idx, env):
            col = cols[pos]
            idx = B.sel_cmp_const(col, idx, ">=", low(env))
            return B.sel_cmp_const(col, idx, "<=", high(env))

        return sel_between

    # -- helpers ---------------------------------------------------------------

    def _precomputed(self, expr: ast.Expr) -> Optional[int]:
        return self.precomputed.get(expr.to_sql()) if self.precomputed else None

    def _column_position(self, expr: ast.Expr) -> Optional[int]:
        pos = self._precomputed(expr)
        if pos is None and isinstance(expr, QGMColumnRef):
            return self.layout.get((expr.quantifier, expr.column))
        return pos

    def _const_fetch(self, expr: ast.Expr) -> Optional[Callable[[List[Dict]], Any]]:
        """A per-batch fetcher for a constant operand (literal, parameter,
        outer reference): its kernel over a one-row batch."""
        if type(expr) not in (ast.Literal, ast.Parameter, OuterRef):
            return None
        if self._precomputed(expr) is not None:
            return None
        kernel = self.compile_value(expr)
        return lambda env: constant_value(kernel, env)


#: Node class -> (kernel builder, selection builder or None).  A selection
#: builder may return None: the predicate then keeps its True rows.
_KERNELS: Dict[type, Tuple[Callable, Optional[Callable]]] = {
    ast.Literal: (VecExprCompiler._literal, None),
    ast.Parameter: (VecExprCompiler._parameter, None),
    QGMColumnRef: (VecExprCompiler._column_ref, None),
    OuterRef: (VecExprCompiler._outer_ref, None),
    ast.BinaryOp: (VecExprCompiler._binary, VecExprCompiler._filter_binary),
    ast.UnaryOp: (VecExprCompiler._unary, None),
    ast.IsNull: (VecExprCompiler._is_null, VecExprCompiler._filter_is_null),
    ast.Between: (VecExprCompiler._between, VecExprCompiler._filter_between),
    ast.InList: (VecExprCompiler._in_list, VecExprCompiler._filter_in_list),
    ast.FuncCall: (VecExprCompiler._func, None),
    ast.Case: (VecExprCompiler._case, None),
    SubqueryExpr: (VecExprCompiler._subquery, None),
}


def cast_value(type_name: str, value: Any) -> Any:
    """CAST one value."""
    if value is None:
        return None
    try:
        if type_name in ("INTEGER", "INT", "BIGINT", "SMALLINT"):
            return int(float(value)) if isinstance(value, str) else int(value)
        if type_name in ("FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC"):
            return float(value)
        if type_name in ("VARCHAR", "CHAR", "TEXT", "STRING"):
            if isinstance(value, bool):
                return "TRUE" if value else "FALSE"
            return str(value)
        if type_name in ("BOOLEAN", "BOOL"):
            return bool(value)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"CAST to {type_name} failed: {exc}") from exc
    raise TypeCheckError(f"unknown CAST target {type_name}")


def _scalar_abs(args):
    return None if args[0] is None else abs(args[0])


def _scalar_lower(args):
    return None if args[0] is None else str(args[0]).lower()


def _scalar_upper(args):
    return None if args[0] is None else str(args[0]).upper()


def _scalar_length(args):
    return None if args[0] is None else len(str(args[0]))


def _scalar_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_nullif(args):
    if len(args) != 2:
        raise TypeCheckError("NULLIF takes two arguments")
    return None if args[0] == args[1] else args[0]


def _scalar_round(args):
    if args[0] is None:
        return None
    digits = args[1] if len(args) > 1 and args[1] is not None else 0
    return round(args[0], int(digits))


def _scalar_mod(args):
    if args[0] is None or args[1] is None:
        return None
    return sql_arith("%", args[0], args[1])


def _scalar_substr(args):
    if args[0] is None or args[1] is None:
        return None
    text = str(args[0])
    start = int(args[1]) - 1  # SQL is 1-based
    if len(args) > 2 and args[2] is not None:
        return text[start : start + int(args[2])]
    return text[start:]


_SCALAR_IMPLS = {
    "ABS": _scalar_abs,
    "LOWER": _scalar_lower,
    "UPPER": _scalar_upper,
    "LENGTH": _scalar_length,
    "COALESCE": _scalar_coalesce,
    "NULLIF": _scalar_nullif,
    "ROUND": _scalar_round,
    "MOD": _scalar_mod,
    "SUBSTR": _scalar_substr,
}
