"""Abstract syntax trees for the SQL dialect.

Plain dataclasses; every node knows how to render itself back to SQL text
(``to_sql``), which the XNF semantic rewrite uses to synthesise the per-node
and per-edge queries it hands to the relational engine — the same "translate
to a form very close to the standard SQL" step the paper describes in
section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, List, Optional, Sequence, Tuple, Union


# ===========================================================================
# Expressions
# ===========================================================================


class Expr:
    """Base class for expression nodes.

    Every concrete node class declares ``CHILDREN``: the names of its fields
    that hold sub-expressions, in evaluation order.  A child field holds an
    expression, ``None``, or a list of expressions or of expression tuples
    (``Case.whens``).  Subquery bodies are queries, not children.  Nodes are
    never mutated after construction, so rewrites may share subtrees.
    """

    CHILDREN: ClassVar[Tuple[str, ...]]

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass
class Literal(Expr):
    CHILDREN = ()
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

    CHILDREN = ()
    index: int

    def to_sql(self) -> str:
        return f"?{self.index}"


@dataclass
class ColumnRef(Expr):
    CHILDREN = ()
    table: Optional[str]
    column: str

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.column}"
        return self.column


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list."""

    CHILDREN = ()
    table: Optional[str] = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass
class BinaryOp(Expr):
    CHILDREN = ("left", "right")
    op: str  # AND OR = <> < <= > >= + - * / % || LIKE
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass
class UnaryOp(Expr):
    CHILDREN = ("operand",)
    op: str  # NOT, -
    operand: Expr

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass
class IsNull(Expr):
    CHILDREN = ("operand",)
    operand: Expr
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass
class Between(Expr):
    CHILDREN = ("operand", "low", "high")
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
    CHILDREN = ("operand", "items")
    operand: Expr
    items: List[Expr]
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.operand.to_sql()} {not_kw}IN ({inner}))"


@dataclass
class InSubquery(Expr):
    CHILDREN = ("operand",)
    operand: Expr
    subquery: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return f"({self.operand.to_sql()} {not_kw}IN ({self.subquery.to_sql()}))"


@dataclass
class Exists(Expr):
    CHILDREN = ()
    subquery: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return f"({not_kw}EXISTS ({self.subquery.to_sql()}))"


@dataclass
class ScalarSubquery(Expr):
    CHILDREN = ()
    subquery: "Query"

    def to_sql(self) -> str:
        return f"({self.subquery.to_sql()})"


@dataclass
class FuncCall(Expr):
    """Function application; covers aggregates and scalar functions."""

    CHILDREN = ("args",)
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
    CHILDREN = ("whens", "else_result")
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

    def to_sql(self) -> str:
        return ("EXPLAIN ANALYZE " if self.analyze else "EXPLAIN ") + self.query.to_sql()


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


def walk(expr: Expr) -> List[Expr]:
    """*expr* and all its sub-expressions, depth-first, parents first.

    Subquery bodies are not entered.
    """
    out: List[Expr] = []
    _walk_into(expr, out)
    return out


def _walk_into(node: Expr, out: List[Expr]) -> None:
    out.append(node)
    for name in node.CHILDREN:
        value = getattr(node, name)
        if isinstance(value, Expr):
            _walk_into(value, out)
        elif value is not None:  # a list of expressions or expression tuples
            for item in value:
                if isinstance(item, Expr):
                    _walk_into(item, out)
                else:
                    for sub in item:
                        _walk_into(sub, out)


def map(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Rebuild *expr* with nodes replaced by *fn*.

    *fn* sees each node parents first.  It returns the node's replacement,
    which is not descended into, or ``None`` to keep the node and map its
    children.  A node none of whose children changed is returned as is, so
    ``map(e, lambda node: None) is e``.
    """
    out = fn(expr)
    if out is not None:
        return out
    changes = None
    for name in expr.CHILDREN:
        old = getattr(expr, name)
        if old is None:
            continue
        new = map(old, fn) if isinstance(old, Expr) else _map_items(old, fn)
        if new is not old:
            if changes is None:
                changes = {name: new}
            else:
                changes[name] = new
    if changes is None:
        return expr
    cls = type(expr)
    return cls(
        *[changes[f] if f in changes else getattr(expr, f) for f in cls.__match_args__]
    )


def _map_items(items: Any, fn: Callable[[Expr], Optional[Expr]]) -> Any:
    """:func:`map` over a list child: expressions or expression tuples."""
    out = [
        map(item, fn) if isinstance(item, Expr) else _map_items(item, fn)
        for item in items
    ]
    if all(new is old for new, old in zip(out, items)):
        return items
    return out if isinstance(items, list) else tuple(out)


def table_refs(query: "SelectStmt") -> List[TableRef]:
    """Every FROM item of a SELECT block, joins flattened, parents first."""
    out: List[TableRef] = []
    stack = list(reversed(query.from_tables))
    while stack:
        ref = stack.pop()
        out.append(ref)
        if isinstance(ref, Join):
            stack += (ref.right, ref.left)
    return out


def clause_exprs(stmt: Any) -> List[Expr]:
    """The expressions held directly by a statement or query block, in
    clause order; those of nested queries are not included."""
    if isinstance(stmt, SelectStmt):
        out = [item.expr for item in stmt.select_items]
        for ref in stmt.from_tables:
            if isinstance(ref, Join):
                out += [
                    item.condition
                    for item in table_refs(stmt)
                    if isinstance(item, Join) and item.condition is not None
                ]
                break
        if stmt.where is not None:
            out.append(stmt.where)
        if stmt.group_by:
            out += stmt.group_by
        if stmt.having is not None:
            out.append(stmt.having)
        if stmt.order_by:
            out += [item.expr for item in stmt.order_by]
        return out
    if isinstance(stmt, SetOpStmt):
        return [item.expr for item in stmt.order_by]
    if isinstance(stmt, InsertStmt):
        return [expr for row in stmt.rows or [] for expr in row]
    out = []
    if isinstance(stmt, UpdateStmt):
        out = [expr for _, expr in stmt.assignments]
    if isinstance(stmt, (UpdateStmt, DeleteStmt)) and stmt.where is not None:
        out.append(stmt.where)
    return out


def queries(stmt: Any) -> List[Any]:
    """*stmt* and every query nested in it, parents first.

    Nested queries are set-operation arms, derived tables, the body of an
    INSERT ... SELECT, and subqueries in any clause.
    """
    out: List[Any] = []
    stack = [stmt]
    while stack:
        query = stack.pop()
        out.append(query)
        nested: List[Any] = []
        if isinstance(query, SelectStmt):
            for ref in query.from_tables:
                if isinstance(ref, (Join, DerivedTable)):
                    nested += [
                        item.subquery
                        for item in table_refs(query)
                        if isinstance(item, DerivedTable)
                    ]
                    break
        elif isinstance(query, SetOpStmt):
            nested += (query.left, query.right)
        elif isinstance(query, InsertStmt) and query.select is not None:
            nested.append(query.select)
        for expr in clause_exprs(query):
            for node in walk(expr):
                if isinstance(node, (InSubquery, Exists, ScalarSubquery)):
                    nested.append(node.subquery)
        if nested:
            stack += reversed(nested)
    return out


def contains_aggregate(expr: Expr) -> bool:
    """True if *expr* contains an aggregate call outside subqueries."""
    return any(
        isinstance(node, FuncCall) and node.is_aggregate for node in walk(expr)
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
