"""QGM box/quantifier data structures.

Resolved expressions reuse the SQL AST node classes, with two additions:

* :class:`QGMColumnRef` — a column reference bound to a quantifier of the
  enclosing box,
* :class:`OuterRef` — a correlated reference to a quantifier of an outer
  box (evaluated against the runtime environment stack), and
* :class:`SubqueryExpr` — an EXISTS / IN / scalar subquery whose body is
  itself a QGM box, executed as a (memoised when uncorrelated) subplan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.relational.sql import ast

_box_ids = itertools.count(1)


@dataclass
class HeadColumn:
    """One output column of a box: a name and its defining expression."""

    name: str
    expr: ast.Expr


class Box:
    """Base class of all QGM boxes."""

    def __init__(self, name: str = ""):
        self.id = next(_box_ids)
        self.name = name or f"box{self.id}"

    #: Output column names, in order.
    def output_columns(self) -> List[str]:
        raise NotImplementedError

    def children(self) -> List["Box"]:
        return []

    def describe(self, indent: int = 0) -> str:
        """Human-readable tree dump (used by EXPLAIN and the pipeline demo)."""
        pad = "  " * indent
        lines = [f"{pad}{self!r}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class BaseTableBox(Box):
    """Leaf box over a catalog base table."""

    def __init__(self, table_name: str, columns: List[str]):
        super().__init__(f"base({table_name})")
        self.table_name = table_name
        self.columns = columns

    def output_columns(self) -> List[str]:
        return self.columns

    def __repr__(self) -> str:
        return f"BaseTable[{self.table_name}]"


@dataclass
class Quantifier:
    """A tuple variable ranging over another box.

    ``kind`` is ``'F'`` (ForEach — ordinary FROM item), matching the paper's
    QGM; existential quantification is represented by
    :class:`SubqueryExpr` predicates instead, mirroring how correlated
    subplans are executed.  ``preserved`` marks the row-preserving side of a
    left outer join.
    """

    name: str
    box: Box
    kind: str = "F"
    preserved: bool = False

    def columns(self) -> List[str]:
        return self.box.output_columns()


class SelectBox(Box):
    """Select-project-join box: quantifiers + conjunctive predicates + head."""

    def __init__(self, name: str = ""):
        super().__init__(name or "select")
        self.head: List[HeadColumn] = []
        self.quantifiers: List[Quantifier] = []
        self.predicates: List[ast.Expr] = []
        self.distinct: bool = False
        # Left-outer-join groups: list of (null_supplying_qname, join_preds).
        self.outer_joins: List[Tuple[str, List[ast.Expr]]] = []

    def output_columns(self) -> List[str]:
        return [col.name for col in self.head]

    def quantifier(self, name: str) -> Quantifier:
        for quant in self.quantifiers:
            if quant.name == name:
                return quant
        raise KeyError(name)

    def children(self) -> List[Box]:
        return [q.box for q in self.quantifiers]

    def __repr__(self) -> str:
        quants = ", ".join(q.name for q in self.quantifiers)
        preds = " AND ".join(p.to_sql() for p in self.predicates) or "TRUE"
        head = ", ".join(f"{c.name}={c.expr.to_sql()}" for c in self.head)
        distinct = " DISTINCT" if self.distinct else ""
        return f"Select{distinct}[{head}] over ({quants}) where {preds}"


class GroupByBox(Box):
    """Grouping box: one input quantifier, group keys, aggregate head."""

    def __init__(self, name: str = ""):
        super().__init__(name or "groupby")
        self.input: Optional[Quantifier] = None
        self.group_keys: List[ast.Expr] = []
        self.head: List[HeadColumn] = []
        self.having: List[ast.Expr] = []

    def output_columns(self) -> List[str]:
        return [col.name for col in self.head]

    def children(self) -> List[Box]:
        return [self.input.box] if self.input else []

    def __repr__(self) -> str:
        keys = ", ".join(k.to_sql() for k in self.group_keys)
        head = ", ".join(f"{c.name}={c.expr.to_sql()}" for c in self.head)
        return f"GroupBy[{head}] keys ({keys})"


class SetOpBox(Box):
    """UNION / INTERSECT / EXCEPT box."""

    def __init__(self, op: str, all: bool, left: Box, right: Box):
        super().__init__(op.lower())
        self.op = op
        self.all = all
        self.left = left
        self.right = right

    def output_columns(self) -> List[str]:
        return self.left.output_columns()

    def children(self) -> List[Box]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return f"{self.op}{' ALL' if self.all else ''}"


class ValuesBox(Box):
    """Literal row source.

    Built from a relation-valued FROM item (``ast.RowsTable``).  When
    ``param`` is set the plan reads its rows from that parameter slot at
    execution time; ``rows`` then only sizes the estimates.
    """

    def __init__(
        self,
        columns: List[str],
        rows: Sequence[Tuple[Any, ...]],
        param: Optional[int] = None,
    ):
        super().__init__("values")
        self._columns = columns
        self.rows = rows
        self.param = param

    def output_columns(self) -> List[str]:
        return self._columns

    def __repr__(self) -> str:
        return f"Values[{len(self.rows)} rows]"


class TopBox(Box):
    """ORDER BY / LIMIT / OFFSET applied to a child box."""

    def __init__(
        self,
        child: Box,
        order_by: List[Tuple[ast.Expr, bool]],
        limit: Optional[int],
        offset: Optional[int],
    ):
        super().__init__("top")
        self.child = child
        self.order_by = order_by
        self.limit = limit
        self.offset = offset
        #: number of leading child columns that are externally visible;
        #: columns beyond this are hidden sort keys trimmed after ordering.
        self.visible: Optional[int] = None

    def output_columns(self) -> List[str]:
        columns = self.child.output_columns()
        if self.visible is not None:
            return columns[: self.visible]
        return columns

    def children(self) -> List[Box]:
        return [self.child]

    def __repr__(self) -> str:
        order = ", ".join(
            f"{e.to_sql()} {'ASC' if asc else 'DESC'}" for e, asc in self.order_by
        )
        return f"Top[order=({order}) limit={self.limit} offset={self.offset}]"


# ---------------------------------------------------------------------------
# Resolved expression nodes
# ---------------------------------------------------------------------------


@dataclass
class QGMColumnRef(ast.Expr):
    """Column of a quantifier in the current box."""

    CHILDREN = ()
    quantifier: str
    column: str

    def to_sql(self) -> str:
        return f"{self.quantifier}.{self.column}"


@dataclass
class OuterRef(ast.Expr):
    """Correlated reference to a quantifier of an enclosing box."""

    CHILDREN = ()
    quantifier: str
    column: str

    def to_sql(self) -> str:
        return f"outer({self.quantifier}.{self.column})"


@dataclass
class SubqueryExpr(ast.Expr):
    """A subquery embedded in a predicate or scalar expression.

    ``kind`` is ``EXISTS``, ``IN`` or ``SCALAR``.  For IN, ``operand`` is the
    tested expression.  ``correlated`` is computed at build time and controls
    executor memoisation.  ``box`` is a query body, not a child.
    """

    CHILDREN = ("operand",)
    kind: str
    box: Box
    operand: Optional[ast.Expr] = None
    negated: bool = False
    correlated: bool = False

    def to_sql(self) -> str:
        not_kw = "NOT " if self.negated else ""
        if self.kind == "EXISTS":
            return f"{not_kw}EXISTS(<{self.box.name}>)"
        if self.kind == "IN":
            return f"{self.operand.to_sql()} {not_kw}IN (<{self.box.name}>)"
        return f"(<{self.box.name}>)"


def box_expressions(box: Box):
    """Yield every resolved expression stored directly in *box*."""
    if isinstance(box, SelectBox):
        for col in box.head:
            yield col.expr
        yield from box.predicates
        for _, preds in box.outer_joins:
            yield from preds
    elif isinstance(box, GroupByBox):
        for col in box.head:
            yield col.expr
        yield from box.group_keys
        yield from box.having
    elif isinstance(box, TopBox):
        for expr, _ in box.order_by:
            yield expr


def collect_outer_refs(box: Box) -> set:
    """All (quantifier, column) pairs referenced from *box* via OuterRef.

    Used at plan-compile time to decide which bindings of the enclosing row
    must be pushed onto the environment stack before running a subplan.
    """
    found = set()

    def visit(b: Box) -> None:
        for expr in box_expressions(b):
            for node in ast.walk(expr):
                if isinstance(node, OuterRef):
                    found.add((node.quantifier, node.column))
                elif isinstance(node, SubqueryExpr):
                    visit(node.box)
        for child in b.children():
            visit(child)

    visit(box)
    return found


def referenced_quantifiers(expr: ast.Expr) -> set:
    """Names of the current box's quantifiers used by *expr*."""
    return {
        node.quantifier
        for node in ast.walk(expr)
        if isinstance(node, QGMColumnRef)
    }


def has_subquery(expr: ast.Expr) -> bool:
    return any(isinstance(node, SubqueryExpr) for node in ast.walk(expr))
