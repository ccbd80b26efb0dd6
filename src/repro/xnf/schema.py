"""Composite-object schemas: nodes, directed edges, well-formedness.

Section 2 of the paper: a CO is a collection of named component tables and
relationships; tables and relationships form the nodes and edges of a
directed graph.  This module holds the *resolved definition* of a CO — what
remains after OUT OF components and view references are flattened
(:mod:`repro.xnf.views`) — plus the structural classification used
throughout the paper: root tables, recursion, schema sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SchemaGraphError
from repro.relational.sql import ast as sql_ast
from repro.xnf.lang import xast


@dataclass
class NodeSchema:
    """One component table of a CO.

    ``query``/``table`` describe how candidates are derived from the
    relational database (the view paradigm of section 2).  ``restrictions``
    are schema-pushable SUCH THAT predicates — each a (alias, predicate)
    pair, AND-composed by wrapping the candidate query.  ``projection`` is
    presentation-level: internally the full column set is kept so edge
    predicates and update propagation keep working.
    """

    name: str
    query: Optional[sql_ast.Query] = None
    table: Optional[str] = None
    restrictions: List[Tuple[str, sql_ast.Expr]] = field(default_factory=list)
    projection: Optional[List[str]] = None

    def copy(self) -> "NodeSchema":
        return NodeSchema(
            self.name,
            self.query,
            self.table,
            list(self.restrictions),
            list(self.projection) if self.projection is not None else None,
        )


@dataclass
class EdgeSchema:
    """One relationship of a CO, directed parent → child table(s).

    Binary in the common case; n-ary relationships (section 2: "in a
    general setting we allow for n-ary relationships") carry their second
    and further child partners in ``extra_partners``.
    """

    name: str
    parent: str
    child: str
    predicate: Optional[sql_ast.Expr] = None
    attributes: List[Tuple[str, sql_ast.Expr]] = field(default_factory=list)
    using: List[xast.UsingTable] = field(default_factory=list)
    parent_role: Optional[str] = None
    child_role: Optional[str] = None
    extra_partners: List[Tuple[str, Optional[str]]] = field(default_factory=list)

    @property
    def parent_binding(self) -> str:
        """Alias under which the parent appears in generated SQL."""
        return self.parent_role or self.parent

    @property
    def child_binding(self) -> str:
        return self.child_role or self.child

    @property
    def is_binary(self) -> bool:
        return not self.extra_partners

    def child_names(self) -> List[str]:
        """All child partner tables, in declaration order."""
        return [self.child] + [name for name, _ in self.extra_partners]

    def child_bindings(self) -> List[str]:
        return [self.child_binding] + [
            role or name for name, role in self.extra_partners
        ]

    def attribute_names(self) -> List[str]:
        return [name for name, _ in self.attributes]

    def copy(self) -> "EdgeSchema":
        return EdgeSchema(
            self.name,
            self.parent,
            self.child,
            self.predicate,
            list(self.attributes),
            list(self.using),
            self.parent_role,
            self.child_role,
            list(self.extra_partners),
        )


class COSchema:
    """A resolved composite-object definition."""

    def __init__(self, name: str = ""):
        self.name = name
        self.nodes: Dict[str, NodeSchema] = {}
        self.edges: Dict[str, EdgeSchema] = {}
        #: restrictions whose predicates contain path expressions; they are
        #: evaluated against the instantiated CO (see repro.xnf.restrict).
        self.instance_restrictions: List[xast.Restriction] = []

    # -- construction -----------------------------------------------------------

    def add_node(self, node: NodeSchema) -> None:
        if node.name in self.nodes or node.name in self.edges:
            raise SchemaGraphError(f"duplicate component name {node.name!r}")
        self.nodes[node.name] = node

    def add_edge(self, edge: EdgeSchema) -> None:
        if edge.name in self.nodes or edge.name in self.edges:
            raise SchemaGraphError(f"duplicate component name {edge.name!r}")
        self.edges[edge.name] = edge

    def copy(self, name: str = "") -> "COSchema":
        clone = COSchema(name or self.name)
        for node in self.nodes.values():
            clone.nodes[node.name] = node.copy()
        for edge in self.edges.values():
            clone.edges[edge.name] = edge.copy()
        clone.instance_restrictions = list(self.instance_restrictions)
        return clone

    # -- well-formedness (section 2) ------------------------------------------------

    def validate(self) -> None:
        """Enforce CO well-formedness.

        Every relationship's partner tables must be component tables of this
        very CO, and the CO must have at least one root table — otherwise
        the reachability constraint makes every instance empty.
        """
        for edge in self.edges.values():
            for endpoint in [edge.parent] + edge.child_names():
                if endpoint not in self.nodes:
                    raise SchemaGraphError(
                        f"relationship {edge.name!r} references {endpoint!r}, "
                        "which is not a component table of this CO"
                    )
            bindings = [edge.parent_binding] + edge.child_bindings()
            if len(set(b.upper() for b in bindings)) != len(bindings):
                raise SchemaGraphError(
                    f"relationship {edge.name!r} relates the same table "
                    "more than once: give each partner a distinct role name"
                )
        if self.nodes and not self.roots():
            raise SchemaGraphError(
                "composite object has no root table: every component has an "
                "incoming relationship, so no tuple satisfies reachability"
            )

    # -- structural classification ------------------------------------------------------

    def roots(self) -> List[str]:
        """Component tables with no incoming relationship (root tables)."""
        children = {
            child
            for edge in self.edges.values()
            for child in edge.child_names()
        }
        return [name for name in self.nodes if name not in children]

    def is_recursive(self) -> bool:
        """True iff the schema graph contains a cycle (section 2).

        Three-colour depth-first search: reaching a node that is still on
        the current path (grey) closes a cycle.
        """
        white, grey, black = 0, 1, 2
        colour = {name: white for name in self.nodes}

        def visit(name: str) -> bool:
            colour[name] = grey
            for edge in self.edges_from(name):
                for child in edge.child_names():
                    state = colour.get(child, black)
                    if state == grey or (state == white and visit(child)):
                        return True
            colour[name] = black
            return False

        return any(colour[name] == white and visit(name) for name in self.nodes)

    def shared_nodes(self) -> List[str]:
        """Nodes with ≥2 incoming edges (schema sharing, section 2)."""
        incoming: Dict[str, int] = {name: 0 for name in self.nodes}
        for edge in self.edges.values():
            for child in edge.child_names():
                incoming[child] += 1
        return [name for name, count in incoming.items() if count >= 2]

    def edges_from(self, parent: str) -> List[EdgeSchema]:
        return [e for e in self.edges.values() if e.parent == parent]

    def edges_to(self, child: str) -> List[EdgeSchema]:
        return [e for e in self.edges.values() if child in e.child_names()]

    def describe(self) -> str:
        """Readable schema-graph dump, in the style of the paper's Fig. 1."""
        lines = [f"Composite Object {self.name or '<anonymous>'}"]
        roots = set(self.roots())
        for name in self.nodes:
            marker = " (root)" if name in roots else ""
            lines.append(f"  node {name}{marker}")
        for edge in self.edges.values():
            attrs = (
                f" with attributes ({', '.join(edge.attribute_names())})"
                if edge.attributes
                else ""
            )
            targets = ", ".join(edge.child_names())
            lines.append(
                f"  edge {edge.name}: {edge.parent} -> {targets}{attrs}"
            )
        flags = []
        if self.is_recursive():
            flags.append("recursive")
        if self.shared_nodes():
            flags.append(f"schema-shared ({', '.join(self.shared_nodes())})")
        if flags:
            lines.append("  [" + ", ".join(flags) + "]")
        return "\n".join(lines)
