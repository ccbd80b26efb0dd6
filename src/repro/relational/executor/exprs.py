"""Expression compilation: QGM expressions → Python closures.

A compiled expression is a function ``fn(row, env)`` where *row* is the
current operator's tuple and *env* is the environment stack — a list of
``{(quantifier, column): value}`` dicts pushed by enclosing queries (for
correlated subqueries) and by the XNF path-expression evaluator.

:class:`VecExprCompiler` compiles the same expressions to closures over a
whole column batch, falling back to the row closure per live row where no
batch kernel exists.  Compiling once and evaluating many times mirrors
Starburst's "query refinement" stage, which emits an executable plan
rather than re-interpreting QGM.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, TypeCheckError
from repro.relational.qgm.model import OuterRef, QGMColumnRef, SubqueryExpr
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

CompiledExpr = Callable[[Tuple[Any, ...], List[Dict]], Any]


class PlanContext:
    """Shared mutable state of one compiled plan.

    ``params`` is the bind-parameter vector: compiled ``Parameter`` closures
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


class ExprCompiler:
    """Compiles resolved expressions against a row layout.

    ``subplan_factory(box)`` must return an object with
    ``rows(env) -> iterator of tuples`` — the planner provides this to
    execute subquery boxes.  ``precomputed`` maps an expression's SQL text to
    a tuple position; the aggregate operator uses it to route aggregate
    results and group keys into final head expressions.
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

    def compile(self, expr: ast.Expr) -> CompiledExpr:
        pre = self.precomputed.get(expr.to_sql())
        if pre is not None:
            pos = pre
            return lambda row, env: row[pos]
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda row, env: value
        if isinstance(expr, ast.Parameter):
            ctx = self.context
            if ctx is None:
                raise ExecutionError(
                    f"bind parameter {expr.to_sql()} outside a prepared statement"
                )
            idx = expr.index
            return lambda row, env: ctx.params[idx]
        if isinstance(expr, QGMColumnRef):
            key = (expr.quantifier, expr.column)
            if key not in self.layout:
                raise ExecutionError(
                    f"column {expr.to_sql()} not in row layout {sorted(self.layout)}"
                )
            pos = self.layout[key]
            return lambda row, env: row[pos]
        if isinstance(expr, OuterRef):
            key = (expr.quantifier, expr.column)
            return _compile_outer_ref(key)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            operand = self.compile(expr.operand)
            if expr.op == "NOT":
                return lambda row, env: tv_not(operand(row, env))
            if expr.op == "-":
                def negate(row, env):
                    value = operand(row, env)
                    return None if value is None else -value

                return negate
            raise TypeCheckError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.IsNull):
            operand = self.compile(expr.operand)
            if expr.negated:
                return lambda row, env: operand(row, env) is not None
            return lambda row, env: operand(row, env) is None
        if isinstance(expr, ast.Between):
            return self._compile_between(expr)
        if isinstance(expr, ast.InList):
            return self._compile_in_list(expr)
        if isinstance(expr, SubqueryExpr):
            return self._compile_subquery(expr)
        if isinstance(expr, ast.FuncCall):
            return self._compile_func(expr)
        if isinstance(expr, ast.Case):
            return self._compile_case(expr)
        raise TypeCheckError(f"cannot compile expression {expr!r}")

    def compile_predicate(self, expr: ast.Expr) -> CompiledExpr:
        """Compile to a filter: returns truthiness (None counts as False)."""
        inner = self.compile(expr)
        return lambda row, env: inner(row, env) is True

    # -- node-specific compilers -------------------------------------------------

    def _compile_binary(self, expr: ast.BinaryOp) -> CompiledExpr:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "AND":
            return lambda row, env: tv_and(left(row, env), right(row, env))
        if op == "OR":
            return lambda row, env: tv_or(left(row, env), right(row, env))
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda row, env: sql_compare(op, left(row, env), right(row, env))
        if op in ("+", "-", "*", "/", "%", "||"):
            return lambda row, env: sql_arith(op, left(row, env), right(row, env))
        if op == "LIKE":
            return lambda row, env: sql_like(left(row, env), right(row, env))
        raise TypeCheckError(f"unknown binary operator {op!r}")

    def _compile_between(self, expr: ast.Between) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def run(row, env):
            value = operand(row, env)
            result = tv_and(
                sql_compare(">=", value, low(row, env)),
                sql_compare("<=", value, high(row, env)),
            )
            return tv_not(result) if negated else result

        return run

    def _compile_in_list(self, expr: ast.InList) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def run(row, env):
            value = operand(row, env)
            result: Optional[bool] = False
            for item in items:
                result = tv_or(result, sql_compare("=", value, item(row, env)))
                if result is True:
                    break
            return tv_not(result) if negated else result

        return run

    def _compile_subquery(self, expr: SubqueryExpr) -> CompiledExpr:
        if self.subplan_factory is None:
            raise ExecutionError("subquery found but no subplan factory given")
        from repro.relational.qgm.model import collect_outer_refs

        subplan = self.subplan_factory(expr.box)
        correlated = expr.correlated
        negated = expr.negated
        # Bindings of the *current* row the subquery needs: push them as an
        # environment frame so OuterRef lookups resolve per outer row.
        corr_keys = [
            key for key in sorted(collect_outer_refs(expr.box)) if key in self.layout
        ]
        positions = [self.layout[key] for key in corr_keys]

        if corr_keys:

            def sub_env(row, env):
                frame = {
                    key: row[pos] for key, pos in zip(corr_keys, positions)
                }
                return env + [frame]

        else:

            def sub_env(row, env):
                return env

        # Uncorrelated subqueries are memoized once per execution epoch: the
        # memo survives the rows of one execution but is recomputed when a
        # cached plan is re-run (its data may have changed in between).
        ctx = self.context

        def memo_valid(memo: Dict[str, Any]) -> bool:
            epoch = ctx.epoch if ctx is not None else 0
            return memo.get("epoch") == epoch and "value" in memo

        def memo_store(memo: Dict[str, Any], value: Any) -> None:
            memo["epoch"] = ctx.epoch if ctx is not None else 0
            memo["value"] = value

        if expr.kind == "EXISTS":
            cache: Dict[str, Any] = {}

            def run_exists(row, env):
                if not correlated and memo_valid(cache):
                    found = cache["value"]
                else:
                    found = any(True for _ in subplan.rows(sub_env(row, env)))
                    if not correlated:
                        memo_store(cache, found)
                return (not found) if negated else found

            return run_exists
        if expr.kind == "IN":
            operand = self.compile(expr.operand)
            cache: Dict[str, Any] = {}

            def run_in(row, env):
                value = operand(row, env)
                if value is None:
                    return None
                if not correlated and memo_valid(cache):
                    values, has_null = cache["value"]
                else:
                    values = set()
                    has_null = False
                    for sub_row in subplan.rows(sub_env(row, env)):
                        if sub_row[0] is None:
                            has_null = True
                        else:
                            values.add(sub_row[0])
                    if not correlated:
                        memo_store(cache, (values, has_null))
                if value in values:
                    result: Optional[bool] = True
                elif has_null:
                    result = None
                else:
                    result = False
                return tv_not(result) if negated else result

            return run_in
        if expr.kind == "SCALAR":
            cache: Dict[str, Any] = {}

            def run_scalar(row, env):
                if not correlated and memo_valid(cache):
                    return cache["value"]
                result = None
                seen = False
                for sub_row in subplan.rows(sub_env(row, env)):
                    if seen:
                        raise ExecutionError("scalar subquery returned > 1 row")
                    result = sub_row[0]
                    seen = True
                if not correlated:
                    memo_store(cache, result)
                return result

            return run_scalar
        raise TypeCheckError(f"unknown subquery kind {expr.kind!r}")

    def _compile_func(self, expr: ast.FuncCall) -> CompiledExpr:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name} outside GROUP BY context: {expr.to_sql()}"
            )
        args = [self.compile(arg) for arg in expr.args]
        name = expr.name
        if name.startswith("CAST_"):
            return _compile_cast(name[5:], args[0])
        impl = _SCALAR_IMPLS.get(name)
        if impl is None:
            raise TypeCheckError(f"unknown function {name!r}")
        return lambda row, env: impl([arg(row, env) for arg in args])

    def _compile_case(self, expr: ast.Case) -> CompiledExpr:
        whens = [
            (self.compile(cond), self.compile(result)) for cond, result in expr.whens
        ]
        else_fn = (
            self.compile(expr.else_result) if expr.else_result is not None else None
        )

        def run(row, env):
            for cond, result in whens:
                if cond(row, env) is True:
                    return result(row, env)
            if else_fn is not None:
                return else_fn(row, env)
            return None

        return run


def _compile_outer_ref(key: Tuple[str, str]) -> CompiledExpr:
    def run(row, env):
        for frame in reversed(env):
            if key in frame:
                return frame[key]
        raise ExecutionError(f"unbound outer reference {key[0]}.{key[1]}")

    return run


def cast_value(type_name: str, value: Any) -> Any:
    """CAST one value (shared by the row and vector compilers)."""
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


def _compile_cast(type_name: str, arg: CompiledExpr) -> CompiledExpr:
    return lambda row, env: cast_value(type_name, arg(row, env))


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


# ---------------------------------------------------------------------------
# Batch expression compilation (the executor's inner loops)
# ---------------------------------------------------------------------------

#: Computes one value per live row: ``vfn(columns, idx, env) -> list``.
VecValueFn = Callable[[Sequence[Sequence[Any]], Sequence[int], List[Dict]], list]

#: Filters a selection vector: ``sel(columns, idx, env) -> List[int]``.
SelFn = Callable[[Sequence[Sequence[Any]], Sequence[int], List[Dict]], List[int]]

_VEC_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class VecExprCompiler(ExprCompiler):
    """Compiles resolved expressions into *vector* closures over a batch.

    ``compile_value`` returns a closure producing one value per live row;
    ``compile_filter`` returns a closure shrinking a selection vector to the
    rows on which the predicate is True.  Column references, constants,
    comparisons, arithmetic, IN lists, LIKE and scalar functions have batch
    kernels (see :mod:`repro.relational.executor.batch`) that run one loop
    per batch; an expression with none (a subquery, CASE, …) compiles to
    the row closure of :meth:`ExprCompiler.compile`, applied to each live
    row.  The inherited row closures serve join residuals, sort keys and
    aggregate finalisers.
    """

    # -- filters ---------------------------------------------------------------

    def compile_filter(self, expr: ast.Expr) -> SelFn:
        from repro.relational.executor import batch as B

        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                left = self.compile_filter(expr.left)
                right = self.compile_filter(expr.right)
                # Sequential selection is exact 3VL filtering:
                # (a AND b) is True  ⇔  a is True and b is True.
                return lambda cols, idx, env: right(cols, left(cols, idx, env), env)
            if expr.op in _VEC_COMPARISONS:
                return self._filter_comparison(expr) or self._truth_filter(expr)
            if expr.op == "LIKE":
                pos = self._column_position(expr.left)
                pattern = expr.right
                if pos is not None and isinstance(pattern, ast.Literal) and isinstance(
                    pattern.value, str
                ):
                    pat = pattern.value
                    return lambda cols, idx, env: B.sel_like_const(
                        cols[pos], idx, pat, False
                    )
            return self._truth_filter(expr)
        if isinstance(expr, ast.IsNull):
            pos = self._column_position(expr.operand)
            if pos is not None:
                negated = expr.negated
                return lambda cols, idx, env: B.sel_is_null(
                    cols[pos], idx, negated
                )
            return self._truth_filter(expr)
        if isinstance(expr, ast.InList):
            return self._filter_in_list(expr) or self._truth_filter(expr)
        if isinstance(expr, ast.Between) and not expr.negated:
            pos = self._column_position(expr.operand)
            low = self._const_fetch(expr.low)
            high = self._const_fetch(expr.high)
            if pos is not None and low is not None and high is not None:
                def sel_between(cols, idx, env):
                    col = cols[pos]
                    idx = B.sel_cmp_const(col, idx, ">=", low(env))
                    return B.sel_cmp_const(col, idx, "<=", high(env))

                return sel_between
        return self._truth_filter(expr)

    def _truth_filter(self, expr: ast.Expr) -> SelFn:
        """Compute the 3VL truth vector, keep the True rows."""
        from repro.relational.executor.batch import sel_from_truth

        vfn = self.compile_value(expr)
        return lambda cols, idx, env: sel_from_truth(idx, vfn(cols, idx, env))

    def _filter_comparison(self, expr: ast.BinaryOp) -> Optional[SelFn]:
        from repro.relational.executor import batch as B

        flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left_pos = self._column_position(expr.left)
        right_pos = self._column_position(expr.right)
        if left_pos is not None and right_pos is not None:
            op = expr.op
            return lambda cols, idx, env: B.sel_cmp_columns(
                cols[left_pos], cols[right_pos], idx, op
            )
        if left_pos is not None:
            const = self._const_fetch(expr.right)
            if const is not None:
                op = expr.op
                pos = left_pos
                return lambda cols, idx, env: B.sel_cmp_const(
                    cols[pos], idx, op, const(env)
                )
        if right_pos is not None:
            const = self._const_fetch(expr.left)
            if const is not None:
                op = flip[expr.op]
                pos = right_pos
                return lambda cols, idx, env: B.sel_cmp_const(
                    cols[pos], idx, op, const(env)
                )
        return None

    def _filter_in_list(self, expr: ast.InList) -> Optional[SelFn]:
        """``column [NOT] IN (constants)``: the hashed kernel, whose answers
        and errors are those of the row fold in ``_compile_in_list``."""
        from repro.relational.executor import batch as B

        pos = self._column_position(expr.operand)
        fetchers = [self._const_fetch(item) for item in expr.items]
        if pos is None or any(fetch is None for fetch in fetchers):
            return None
        negated = expr.negated
        return lambda cols, idx, env: B.sel_in_set(
            cols[pos], idx, [fetch(env) for fetch in fetchers], negated  # type: ignore[misc]
        )

    # -- values ----------------------------------------------------------------

    def compile_value(self, expr: ast.Expr) -> VecValueFn:
        from repro.relational.executor.batch import gather

        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda cols, idx, env: [value] * len(idx)
        if isinstance(expr, ast.Parameter) and self.context is not None:
            ctx = self.context
            slot = expr.index
            return lambda cols, idx, env: [ctx.params[slot]] * len(idx)
        if isinstance(expr, QGMColumnRef):
            pos = self.layout.get((expr.quantifier, expr.column))
            if pos is not None:
                return lambda cols, idx, env: gather(cols[pos], idx)
        if isinstance(expr, OuterRef):
            lookup = _compile_outer_ref((expr.quantifier, expr.column))
            return lambda cols, idx, env: [lookup((), env)] * len(idx)
        if isinstance(expr, ast.BinaryOp):
            return self._value_binary(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op in ("NOT", "-"):
            operand = self.compile_value(expr.operand)
            if expr.op == "NOT":
                return lambda cols, idx, env: [
                    tv_not(v) for v in operand(cols, idx, env)
                ]
            return lambda cols, idx, env: [
                None if v is None else -v for v in operand(cols, idx, env)
            ]
        if isinstance(expr, ast.IsNull):
            operand = self.compile_value(expr.operand)
            if expr.negated:
                return lambda cols, idx, env: [
                    v is not None for v in operand(cols, idx, env)
                ]
            return lambda cols, idx, env: [
                v is None for v in operand(cols, idx, env)
            ]
        if isinstance(expr, ast.Between):
            return self._value_between(expr)
        if isinstance(expr, ast.InList):
            return self._value_in_list(expr)
        if isinstance(expr, ast.FuncCall) and not expr.is_aggregate:
            return self._value_func(expr)
        return self._per_row(expr)

    def _per_row(self, expr: ast.Expr) -> VecValueFn:
        """No batch kernel: the row closure, applied to each live row.

        Compiling through :meth:`ExprCompiler.compile` also raises the row
        compiler's errors (unknown column, unbound parameter, aggregate
        outside GROUP BY) at plan time.
        """
        from repro.relational.executor.batch import gather

        fn = self.compile(expr)

        def run(cols, idx, env):
            if not cols:
                return [fn((), env) for _ in idx]
            return [fn(row, env) for row in zip(*[gather(col, idx) for col in cols])]

        return run

    def _value_binary(self, expr: ast.BinaryOp) -> VecValueFn:
        op = expr.op
        left = self.compile_value(expr.left)
        right = self.compile_value(expr.right)
        if op == "AND":
            return lambda cols, idx, env: [
                tv_and(a, b)
                for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]
        if op == "OR":
            return lambda cols, idx, env: [
                tv_or(a, b)
                for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]
        if op in _VEC_COMPARISONS:
            return lambda cols, idx, env: [
                sql_compare(op, a, b)
                for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]
        if op in ("+", "-", "*"):
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
                        append(sql_arith(op, a, b))
                return out

            return arith
        if op in ("/", "%", "||"):
            return lambda cols, idx, env: [
                sql_arith(op, a, b)
                for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]
        if op == "LIKE":
            return lambda cols, idx, env: [
                sql_like(a, b)
                for a, b in zip(left(cols, idx, env), right(cols, idx, env))
            ]
        return self._per_row(expr)

    def _value_between(self, expr: ast.Between) -> VecValueFn:
        operand = self.compile_value(expr.operand)
        low = self.compile_value(expr.low)
        high = self.compile_value(expr.high)
        negated = expr.negated

        def run(cols, idx, env):
            out = []
            for v, lo, hi in zip(
                operand(cols, idx, env), low(cols, idx, env), high(cols, idx, env)
            ):
                result = tv_and(
                    sql_compare(">=", v, lo), sql_compare("<=", v, hi)
                )
                out.append(tv_not(result) if negated else result)
            return out

        return run

    def _value_in_list(self, expr: ast.InList) -> VecValueFn:
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

    def _value_func(self, expr: ast.FuncCall) -> VecValueFn:
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
            return self._per_row(expr)

        def run(cols, idx, env):
            arg_vecs = [arg(cols, idx, env) for arg in args]
            return [impl(list(row_args)) for row_args in zip(*arg_vecs)] if arg_vecs else [
                impl([]) for _ in idx
            ]

        return run

    # -- helpers ---------------------------------------------------------------

    def _column_position(self, expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, QGMColumnRef):
            return self.layout.get((expr.quantifier, expr.column))
        return None

    def _const_fetch(self, expr: ast.Expr) -> Optional[Callable[[List[Dict]], Any]]:
        """A per-batch fetcher for row-independent operands (literal/param)."""
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda env: value
        if isinstance(expr, ast.Parameter):
            ctx = self.context
            if ctx is None:
                return None
            slot = expr.index
            return lambda env: ctx.params[slot]
        if isinstance(expr, OuterRef):
            lookup = _compile_outer_ref((expr.quantifier, expr.column))
            return lambda env: lookup((), env)
        return None
