"""AST for the XNF language (section 3 of the paper).

An XNF statement is one of:

* :class:`XNFQuery` — ``OUT OF … [WHERE …] TAKE …`` (or ``DELETE``/
  ``UPDATE`` instead of TAKE for CO-level manipulation, section 3.7),
* :class:`CreateXNFView` — ``CREATE VIEW name AS <XNFQuery>``,
* :class:`DropXNFView`.

The OUT OF clause lists *components*: node definitions, relationship
definitions, and references to previously defined XNF views whose components
are inherited (views over views, section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.relational.sql import ast as sql_ast


# ---------------------------------------------------------------------------
# Path expressions (section 3.5)
# ---------------------------------------------------------------------------


@dataclass
class PathStep:
    """One ``->`` step: a relationship or node name, optionally qualified.

    ``(Xemp e WHERE e.sal < 2000)`` parses to name="Xemp", alias="e",
    predicate=<expr>.  ``role`` disambiguates cyclic relationships
    (section 2: "role names have to be used to avoid ambiguities") and is
    written ``rel[role]``.
    """

    name: str
    alias: Optional[str] = None
    predicate: Optional[sql_ast.Expr] = None
    role: Optional[str] = None

    def to_sql(self) -> str:
        text = self.name
        if self.role:
            text += f"[{self.role}]"
        if self.predicate is not None:
            alias = f" {self.alias}" if self.alias else ""
            return f"({text}{alias} WHERE {self.predicate.to_sql()})"
        return text


@dataclass
class PathExpr(sql_ast.Expr):
    """``start->step->step…`` — denotes a subset of the target node's tuples.

    ``start`` is either a tuple variable bound by an enclosing SUCH THAT
    (``d->employment->…``) or a node name (``Xdept->employment->…``), in
    which case the path ranges over every tuple of that node.  Step
    predicates are scoped to their step, so they are not children.
    """

    CHILDREN = ()
    start: str
    steps: List[PathStep] = field(default_factory=list)

    def to_sql(self) -> str:
        return "->".join([self.start] + [step.to_sql() for step in self.steps])


# ---------------------------------------------------------------------------
# OUT OF components
# ---------------------------------------------------------------------------


@dataclass
class NodeDef:
    """``name AS (SELECT …)`` or the shorthand ``name AS TABLE``."""

    name: str
    query: Optional[sql_ast.Query] = None  # None => table shorthand
    table: Optional[str] = None

    def to_sql(self) -> str:
        if self.table is not None:
            return f"{self.name} AS {self.table}"
        return f"{self.name} AS ({self.query.to_sql()})"


@dataclass
class UsingTable:
    """One base table of a USING clause, with its alias."""

    table: str
    alias: str


@dataclass
class RelationshipDef:
    """``name AS (RELATE parent, child [WITH ATTRIBUTES …] [USING …] WHERE p)``.

    ``parent_role``/``child_role`` name the partner roles for cyclic
    relationships (``RELATE Xemp manager, Xemp report WHERE …``).
    """

    name: str
    parent: str
    child: str
    predicate: Optional[sql_ast.Expr] = None
    attributes: List[Tuple[str, sql_ast.Expr]] = field(default_factory=list)
    using: List[UsingTable] = field(default_factory=list)
    parent_role: Optional[str] = None
    child_role: Optional[str] = None
    #: additional child partners beyond the first: (name, role) pairs.
    #: Section 2: "in a general setting we allow for n-ary relationships".
    extra_partners: List[Tuple[str, Optional[str]]] = field(default_factory=list)

    def to_sql(self) -> str:
        parts = [f"{self.name} AS (RELATE {self.parent}"]
        if self.parent_role:
            parts[-1] += f" {self.parent_role}"
        parts.append(f", {self.child}")
        if self.child_role:
            parts[-1] += f" {self.child_role}"
        for partner, role in self.extra_partners:
            parts.append(f", {partner}")
            if role:
                parts[-1] += f" {role}"
        if self.attributes:
            attrs = ", ".join(
                f"{expr.to_sql()}" + (f" AS {name}" if name else "")
                for name, expr in self.attributes
            )
            parts.append(f" WITH ATTRIBUTES {attrs}")
        if self.using:
            tables = ", ".join(f"{u.table} {u.alias}" for u in self.using)
            parts.append(f" USING {tables}")
        if self.predicate is not None:
            parts.append(f" WHERE {self.predicate.to_sql()}")
        parts.append(")")
        return "".join(parts)


@dataclass
class ViewRef:
    """Reference to a previously created XNF view in an OUT OF clause."""

    name: str

    def to_sql(self) -> str:
        return self.name


Component = Union[NodeDef, RelationshipDef, ViewRef]


# ---------------------------------------------------------------------------
# Restrictions (section 3.3)
# ---------------------------------------------------------------------------


@dataclass
class NodeRestriction:
    """``WHERE Xemp e SUCH THAT e.sal < 2000`` (alias optional)."""

    node: str
    alias: Optional[str]
    predicate: sql_ast.Expr

    def to_sql(self) -> str:
        alias = f" {self.alias}" if self.alias else ""
        return f"{self.node}{alias} SUCH THAT {self.predicate.to_sql()}"


@dataclass
class EdgeRestriction:
    """``WHERE employment (d, e) SUCH THAT e.sal < d.budget / 100``."""

    edge: str
    parent_alias: str
    child_alias: str
    predicate: sql_ast.Expr

    def to_sql(self) -> str:
        return (
            f"{self.edge} ({self.parent_alias}, {self.child_alias}) "
            f"SUCH THAT {self.predicate.to_sql()}"
        )


Restriction = Union[NodeRestriction, EdgeRestriction]


# ---------------------------------------------------------------------------
# TAKE clause (structural projection, section 3.3)
# ---------------------------------------------------------------------------


@dataclass
class TakeItem:
    """One projection item.

    ``name`` with columns None ⇒ the whole component (node or edge);
    columns ``["*"]`` ⇒ all columns of a node; otherwise the listed columns.
    """

    name: str
    columns: Optional[List[str]] = None

    def to_sql(self) -> str:
        if self.columns is None:
            return self.name
        return f"{self.name}({', '.join(self.columns)})"


@dataclass
class TakeAll:
    """``TAKE *`` — every component of the OUT OF result."""

    def to_sql(self) -> str:
        return "*"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class XNFQuery:
    """The CO constructor, used for queries and CO-level manipulation.

    ``action`` is ``TAKE`` (produce a CO), ``DELETE`` (remove the target
    CO's tuples from their base tables) or ``UPDATE`` (apply SET lists to a
    node's base rows — our extension of the paper's "update ... available at
    the CO level").
    """

    components: List[Component]
    restrictions: List[Restriction] = field(default_factory=list)
    take: Union[TakeAll, List[TakeItem], None] = None
    action: str = "TAKE"
    update_node: Optional[str] = None
    update_assignments: List[Tuple[str, sql_ast.Expr]] = field(default_factory=list)

    def to_sql(self) -> str:
        parts = ["OUT OF " + ", ".join(c.to_sql() for c in self.components)]
        if self.restrictions:
            parts.append(
                "WHERE " + " AND ".join(r.to_sql() for r in self.restrictions)
            )
        if self.action == "TAKE":
            if isinstance(self.take, TakeAll) or self.take is None:
                parts.append("TAKE *")
            else:
                parts.append("TAKE " + ", ".join(t.to_sql() for t in self.take))
        elif self.action == "DELETE":
            parts.append("DELETE *")
        elif self.action == "UPDATE":
            sets = ", ".join(
                f"{col} = {expr.to_sql()}" for col, expr in self.update_assignments
            )
            parts.append(f"UPDATE {self.update_node} SET {sets}")
        return "\n".join(parts)


@dataclass
class CreateXNFView:
    name: str
    query: XNFQuery

    def to_sql(self) -> str:
        return f"CREATE VIEW {self.name} AS\n{self.query.to_sql()}"


@dataclass
class DropXNFView:
    name: str
    if_exists: bool = False

    def to_sql(self) -> str:
        exists = "IF EXISTS " if self.if_exists else ""
        return f"DROP VIEW {exists}{self.name}"


XNFStatement = Union[XNFQuery, CreateXNFView, DropXNFView]
