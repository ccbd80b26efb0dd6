"""Resolution of OUT OF clauses into composite-object schemas.

Implements sections 3.1–3.4: assembling a CO from node / relationship
definitions and references to existing XNF views (views over views),
classifying SUCH THAT restrictions into schema-pushable ones (folded into
the component derivations, like the paper's translation does) and
instance-level ones (predicates with path expressions, evaluated against
the instantiated CO), and applying the TAKE structural projection.

Projection semantics follow Fig. 5 exactly: components are removed *before*
reachability is evaluated ("project p1 is not in the result since it is not
reachable anymore"), and edges whose partner tables are projected away are
discarded implicitly (well-formedness).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import SchemaGraphError, XNFError
from repro.relational.sql import ast as sql_ast
from repro.xnf.lang import xast
from repro.xnf.schema import COSchema, EdgeSchema, NodeSchema


class XNFViewCatalog:
    """Registry of named XNF views (CO views, section 3.2)."""

    def __init__(self):
        self._views: Dict[str, xast.XNFQuery] = {}
        #: a new token at every CREATE and DROP; compiled CO programs that
        #: read a view are keyed by it, so none outlives the views it was
        #: resolved against (and tokens of different catalogs never compare equal)
        self.version = object()

    def create(self, name: str, query: xast.XNFQuery) -> None:
        key = name.upper()
        if key in self._views:
            raise SchemaGraphError(f"XNF view {name} already exists")
        self._views[key] = query
        self.version = object()

    def drop(self, name: str, if_exists: bool = False) -> None:
        key = name.upper()
        if key not in self._views:
            if if_exists:
                return
            raise SchemaGraphError(f"no XNF view named {name}")
        del self._views[key]
        self.version = object()

    def get(self, name: str) -> Optional[xast.XNFQuery]:
        return self._views.get(name.upper())

    def names(self) -> List[str]:
        return sorted(self._views)


def contains_path(expr: sql_ast.Expr) -> bool:
    """True if *expr* contains a path expression anywhere."""
    return any(
        isinstance(node, xast.PathExpr) for node in sql_ast.walk(expr)
    )


def resolve(
    query: xast.XNFQuery,
    views: XNFViewCatalog,
    name: str = "",
    _depth: int = 0,
) -> COSchema:
    """Flatten *query* into a self-contained :class:`COSchema`.

    View references pull in the full (restricted, projected) definition of
    the referenced view; restrictions and TAKE of *query* then apply on top,
    which is exactly the layered-abstraction story of section 3.2.
    """
    if _depth > 32:
        raise SchemaGraphError("XNF view nesting too deep (cycle?)")
    schema = COSchema(name)
    for component in query.components:
        if isinstance(component, xast.ViewRef):
            stored = views.get(component.name)
            if stored is None:
                raise SchemaGraphError(f"unknown XNF view {component.name!r}")
            inner = resolve(stored, views, component.name, _depth + 1)
            _merge(schema, inner)
        elif isinstance(component, xast.NodeDef):
            schema.add_node(
                NodeSchema(component.name, component.query, component.table)
            )
        elif isinstance(component, xast.RelationshipDef):
            schema.add_edge(
                EdgeSchema(
                    component.name,
                    component.parent,
                    component.child,
                    component.predicate,
                    list(component.attributes),
                    list(component.using),
                    component.parent_role,
                    component.child_role,
                    list(component.extra_partners),
                )
            )
        else:  # pragma: no cover
            raise XNFError(f"unknown component {component!r}")

    for restriction in query.restrictions:
        _apply_restriction(schema, restriction)

    take = query.take
    if take is None or isinstance(take, xast.TakeAll):
        schema.validate()
        return schema
    if schema.instance_restrictions:
        # Projection must wait until the instance-level restrictions have
        # been evaluated against the full CO; record it for the API layer.
        schema.pending_take = take  # type: ignore[attr-defined]
        schema.validate()
        return schema
    projected = apply_take(schema, take)
    projected.validate()
    return projected


def _merge(schema: COSchema, inner: COSchema) -> None:
    for node in inner.nodes.values():
        schema.add_node(node.copy())
    for edge in inner.edges.values():
        schema.add_edge(edge.copy())
    schema.instance_restrictions.extend(inner.instance_restrictions)


def _apply_restriction(schema: COSchema, restriction: xast.Restriction) -> None:
    if contains_path(restriction.predicate):
        _check_restriction_target(schema, restriction)
        schema.instance_restrictions.append(restriction)
        return
    if isinstance(restriction, xast.NodeRestriction):
        node = schema.nodes.get(restriction.node)
        if node is None:
            raise SchemaGraphError(
                f"restriction on unknown node {restriction.node!r}"
            )
        alias = restriction.alias or restriction.node
        node.restrictions.append((alias, restriction.predicate))
        return
    edge = schema.edges.get(restriction.edge)
    if edge is None:
        raise SchemaGraphError(
            f"restriction on unknown relationship {restriction.edge!r}"
        )
    if not edge.is_binary:
        raise SchemaGraphError(
            f"edge restriction on n-ary relationship {edge.name!r} is not "
            "supported: restrict the partner nodes instead"
        )
    rewritten = _rewrite_edge_restriction(edge, restriction)
    edge.predicate = (
        rewritten
        if edge.predicate is None
        else sql_ast.BinaryOp("AND", edge.predicate, rewritten)
    )


def _check_restriction_target(
    schema: COSchema, restriction: xast.Restriction
) -> None:
    if isinstance(restriction, xast.NodeRestriction):
        if restriction.node not in schema.nodes:
            raise SchemaGraphError(
                f"restriction on unknown node {restriction.node!r}"
            )
    else:
        if restriction.edge not in schema.edges:
            raise SchemaGraphError(
                f"restriction on unknown relationship {restriction.edge!r}"
            )


def _rewrite_edge_restriction(
    edge: EdgeSchema, restriction: xast.EdgeRestriction
) -> sql_ast.Expr:
    """Map the restriction's (parent, child) aliases onto the edge bindings
    and substitute relationship-attribute references by their defining
    expressions."""
    attr_map = dict(edge.attributes)
    alias_map = {
        restriction.parent_alias.upper(): edge.parent_binding,
        restriction.child_alias.upper(): edge.child_binding,
    }

    def rewrite(node: sql_ast.Expr) -> Optional[sql_ast.Expr]:
        if not isinstance(node, sql_ast.ColumnRef):
            return None
        if node.table is None and node.column in attr_map:
            return attr_map[node.column]
        if node.table is not None:
            upper = node.table.upper()
            if upper in alias_map:
                return sql_ast.ColumnRef(alias_map[upper], node.column)
            if upper == edge.name.upper() and node.column in attr_map:
                return attr_map[node.column]
        return node

    return sql_ast.map(restriction.predicate, rewrite)


def apply_take(
    schema: COSchema, take: Union[xast.TakeAll, List[xast.TakeItem]]
) -> COSchema:
    """Structural projection: keep the listed components.

    Relationships survive only when both partner tables survive
    (well-formedness — the paper's implicit discard of 'ownership' once
    Xproj is gone).  Node column lists become presentation projections.
    """
    if isinstance(take, xast.TakeAll):
        return schema
    result = COSchema(schema.name)
    taken_nodes: Dict[str, Optional[List[str]]] = {}
    taken_edges: List[str] = []
    for item in take:
        if item.name in schema.nodes:
            columns = item.columns
            if columns == ["*"]:
                columns = None
            taken_nodes[item.name] = columns
        elif item.name in schema.edges:
            taken_edges.append(item.name)
        else:
            raise SchemaGraphError(f"TAKE of unknown component {item.name!r}")
    for name, columns in taken_nodes.items():
        node = schema.nodes[name].copy()
        if columns is not None:
            node.projection = columns
        result.nodes[name] = node
    for name in taken_edges:
        edge = schema.edges[name]
        partners_present = edge.parent in taken_nodes and all(
            child in taken_nodes for child in edge.child_names()
        )
        if partners_present:
            result.edges[name] = edge.copy()
        # else: implicit discard (partner table projected away)
    result.instance_restrictions = []
    return result
