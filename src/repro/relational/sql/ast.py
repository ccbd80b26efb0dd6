"""Abstract syntax trees for the SQL dialect.

Plain dataclasses; every node knows how to render itself back to SQL text
(``to_sql``), which the XNF semantic rewrite uses to synthesise the per-node
and per-edge queries it hands to the relational engine — the same "translate
to a form very close to the standard SQL" step the paper describes in
section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union


# ===========================================================================
# Expressions
# ===========================================================================


class Expr:
    """Base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass
class Literal(Expr):
    value: Any  # int, float, str, bool, or None

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass
class Parameter(Expr):
    """A bind parameter: ``?`` in SQL text, or a literal lifted out of a
    statement by the plan-cache normalizer.

    At execution time the compiled plan reads slot ``index`` of its
    parameter vector, so structurally identical statements that differ only
    in constants share one compiled plan.
    """

    index: int

    def to_sql(self) -> str:
        return f"?{self.index}"


@dataclass
class ColumnRef(Expr):
    table: Optional[str]
    column: str

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list."""

    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass
class BinaryOp(Expr):
    op: str  # AND OR = <> < <= > >= + - * / % || LIKE
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass
class UnaryOp(Expr):
    op: str  # NOT, -
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return (
            f"({self.operand.to_sql()} {not_kw}BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass
class InList(Expr):
    operand: Expr
    items: List[Expr]
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {not_kw}IN ({inner}))"


@dataclass
class InSubquery(Expr):
    operand: Expr
    subquery: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return f"({self.operand.to_sql()} {not_kw}IN ({self.subquery.to_sql()}))"


@dataclass
class Exists(Expr):
    subquery: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return f"({not_kw}EXISTS ({self.subquery.to_sql()}))"


@dataclass
class ScalarSubquery(Expr):
    subquery: "Query"

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()})"


@dataclass
class FuncCall(Expr):
    """Function application; covers aggregates and scalar functions."""

    name: str  # upper-cased
    args: List[Expr]
    distinct: bool = False
    star: bool = False  # COUNT(*)

    AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES

    def to_sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(arg.to_sql() for arg in self.args)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name}({distinct}{inner})"


@dataclass
class Case(Expr):
    whens: List[Tuple[Expr, Expr]]
    else_result: Optional[Expr] = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.to_sql()} THEN {result.to_sql()}")
        if self.else_result is not None:
            parts.append(f"ELSE {self.else_result.to_sql()}")
        parts.append("END")
        return " ".join(parts)


# ===========================================================================
# Table references
# ===========================================================================


class TableRef:
    """Base class for FROM-clause items."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass
class NamedTable(TableRef):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass
class DerivedTable(TableRef):
    subquery: "Query"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()}) AS {self.alias}"


@dataclass
class RowsTable(TableRef):
    """A relation-valued parameter: caller-supplied rows as a FROM item.

    The XNF semantic rewrite hands its delta, candidate and reachable sets
    to generated queries this way; they name no catalog object.  The
    plan-cache normalizer lifts ``rows`` into parameter slot ``param`` like
    a WHERE literal, so the fingerprint ``(VALUES ?n) AS alias(c1, ...)``
    does not depend on the rows.
    """

    columns: List[str]
    rows: Sequence[Tuple[Any, ...]]
    alias: str
    param: Optional[int] = None

    def to_sql(self) -> str:
        if self.param is not None:
            body = f"?{self.param}"
        else:
            body = ", ".join(
                "(" + ", ".join(Literal(v).to_sql() for v in row) + ")"
                for row in self.rows
            )
        return f"(VALUES {body}) AS {self.alias}({', '.join(self.columns)})"


@dataclass
class Join(TableRef):
    kind: str  # INNER or LEFT
    left: TableRef
    right: TableRef
    condition: Optional[Expr]

    def to_sql(self) -> str:
        cond = f" ON {self.condition.to_sql()}" if self.condition else ""
        return f"({self.left.to_sql()} {self.kind} JOIN {self.right.to_sql()}{cond})"


# ===========================================================================
# Queries
# ===========================================================================


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass
class SelectStmt:
    """A single SELECT block."""

    select_items: List[SelectItem]
    from_tables: List[TableRef] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.select_items))
        if self.from_tables:
            parts.append("FROM " + ", ".join(t.to_sql() for t in self.from_tables))
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class SetOpStmt:
    """UNION / INTERSECT / EXCEPT combination of two queries."""

    op: str  # UNION, INTERSECT, EXCEPT
    all: bool
    left: "Query"
    right: "Query"
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None

    def to_sql(self) -> str:
        all_kw = " ALL" if self.all else ""
        text = f"({self.left.to_sql()}) {self.op}{all_kw} ({self.right.to_sql()})"
        if self.order_by:
            text += " ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        if self.offset is not None:
            text += f" OFFSET {self.offset}"
        return text


Query = Union[SelectStmt, SetOpStmt]


# ===========================================================================
# DML
# ===========================================================================


@dataclass
class InsertStmt:
    table: str
    columns: Optional[List[str]]
    rows: Optional[List[List[Expr]]] = None  # VALUES form
    select: Optional[Query] = None  # INSERT ... SELECT form

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.select is not None:
            return f"INSERT INTO {self.table}{cols} {self.select.to_sql()}"
        rows_sql = ", ".join(
            "(" + ", ".join(e.to_sql() for e in row) + ")" for row in self.rows or []
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows_sql}"


@dataclass
class UpdateStmt:
    table: str
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr] = None

    def to_sql(self) -> str:
        sets = ", ".join(f"{col} = {expr.to_sql()}" for col, expr in self.assignments)
        text = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


@dataclass
class DeleteStmt:
    table: str
    where: Optional[Expr] = None

    def to_sql(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where.to_sql()}"
        return text


# ===========================================================================
# DDL and session statements
# ===========================================================================


@dataclass
class ColumnDef:
    name: str
    type_name: str
    size: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False
    references: Optional[Tuple[str, str]] = None


@dataclass
class CreateTableStmt:
    name: str
    columns: List[ColumnDef]
    if_not_exists: bool = False


@dataclass
class CreateIndexStmt:
    name: str
    table: str
    columns: List[str]
    unique: bool = False
    kind: str = "btree"  # or "hash"


@dataclass
class CreateViewStmt:
    name: str
    query: Query
    sql_text: str = ""


@dataclass
class DropStmt:
    kind: str  # TABLE, INDEX, VIEW
    name: str
    if_exists: bool = False
    table: Optional[str] = None  # for DROP INDEX ... ON table


@dataclass
class ExplainStmt:
    """EXPLAIN [ANALYZE] <query>: the physical plan as one text column.

    With ``analyze`` the query is also *executed* under operator-level
    instrumentation and the plan is annotated with actual row counts and
    cumulative times (plus the pipeline's per-stage timings).
    """

    query: "Query"
    analyze: bool = False


@dataclass
class AnalyzeStmt:
    table: Optional[str] = None  # None = all tables


@dataclass
class BeginStmt:
    pass


@dataclass
class CommitStmt:
    pass


@dataclass
class RollbackStmt:
    pass


Statement = Union[
    SelectStmt,
    SetOpStmt,
    InsertStmt,
    UpdateStmt,
    DeleteStmt,
    CreateTableStmt,
    CreateIndexStmt,
    CreateViewStmt,
    DropStmt,
    ExplainStmt,
    AnalyzeStmt,
    BeginStmt,
    CommitStmt,
    RollbackStmt,
]


# ===========================================================================
# Tree utilities (used by rewrite, optimizer, and the XNF compiler)
# ===========================================================================


def walk_expr(expr: Expr):
    """Yield *expr* and all sub-expressions, depth-first (not subqueries)."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, IsNull):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Between):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, InList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, InSubquery):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, Case):
        for cond, result in expr.whens:
            yield from walk_expr(cond)
            yield from walk_expr(result)
        if expr.else_result is not None:
            yield from walk_expr(expr.else_result)


def column_refs(expr: Expr) -> List[ColumnRef]:
    """All column references in *expr* (excluding inside subqueries)."""
    return [node for node in walk_expr(expr) if isinstance(node, ColumnRef)]


def contains_aggregate(expr: Expr) -> bool:
    """True if *expr* contains an aggregate call outside subqueries."""
    return any(
        isinstance(node, FuncCall) and node.is_aggregate for node in walk_expr(expr)
    )


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Split a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(predicates: Sequence[Expr]) -> Optional[Expr]:
    """AND a list of predicates back together (None for the empty list)."""
    result: Optional[Expr] = None
    for pred in predicates:
        result = pred if result is None else BinaryOp("AND", result, pred)
    return result
