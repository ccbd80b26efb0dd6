"""The heterogeneous answer stream.

Section 4.3: "Regular output processing of SQL is modified to allow
generation of a heterogeneous set of tuples in the answer set (generation
of tuples belonging to different nodes and relationships)" — and parent
tuples are sent to the output as soon as they are computed.

:func:`heterogeneous_stream` linearises a :class:`COInstance` into exactly
that: tagged items, node tuples in parent-before-child (BFS from the roots)
order, each node's connections following its tuples, so a single pass is
enough to build the cache's pointer structures.  :func:`encode_stream` /
:func:`decode_stream` carry the same stream across the wire protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.xnf.schema import COSchema, EdgeSchema, NodeSchema
from repro.xnf.semantic_rewrite import COInstance

#: stream item kinds
TUPLE = "tuple"
CONNECTION = "connection"
SCHEMA = "schema"


@dataclass(frozen=True)
class SchemaItem:
    """Header item: component layout, sent before any data."""

    kind: str
    component: str
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class TupleItem:
    component: str
    row: Tuple[Any, ...]


@dataclass(frozen=True)
class ConnectionItem:
    component: str
    parent_row: Tuple[Any, ...]
    #: one row per child partner (a 1-tuple for binary relationships)
    child_rows: Tuple[Tuple[Any, ...], ...]
    attributes: Tuple[Any, ...]

    @property
    def child_row(self) -> Tuple[Any, ...]:
        """Convenience accessor for binary relationships."""
        return self.child_rows[0]


StreamItem = Union[SchemaItem, TupleItem, ConnectionItem]


def load_order(schema: COSchema) -> List[Tuple[str, List[EdgeSchema]]]:
    """Each node in BFS order from the roots (parents before children),
    paired with the edges whose partners are all placed once it is: the
    order in which a single pass can wire every connection to tuples
    already built."""
    order: List[Tuple[str, List[EdgeSchema]]] = []
    remaining = set(schema.nodes)
    frontier = [name for name in schema.roots() if name in remaining]
    placed_edges = set()
    while frontier or remaining:
        if not frontier:  # disconnected or cyclic leftovers
            frontier = [next(iter(remaining))]
        next_frontier: List[str] = []
        for name in frontier:
            if name not in remaining:
                continue
            remaining.discard(name)
            completed = []
            for edge in schema.edges.values():
                if edge.name in placed_edges:
                    continue
                partners_pending = edge.parent in remaining or any(
                    child in remaining for child in edge.child_names()
                )
                if not partners_pending:
                    placed_edges.add(edge.name)
                    completed.append(edge)
            order.append((name, completed))
            for edge in schema.edges.values():
                if edge.parent == name:
                    for child in edge.child_names():
                        if child in remaining:
                            next_frontier.append(child)
        frontier = next_frontier
    return order


def heterogeneous_stream(instance: COInstance) -> Iterator[StreamItem]:
    """Linearise *instance* into a tagged stream.

    Order: schema headers, then nodes in :func:`load_order`, each followed
    by the connections of the edges arriving *into* the nodes already
    emitted.
    """
    schema = instance.schema
    for name in schema.nodes:
        yield SchemaItem("node", name, tuple(instance.columns[name]))
    for edge in schema.edges.values():
        yield SchemaItem("edge", edge.name, tuple(edge.attribute_names()))
    for name, edges in load_order(schema):
        for row in instance.rows[name]:
            yield TupleItem(name, row)
        for edge in edges:
            for parent_row, child_rows, attrs in instance.connections[edge.name]:
                yield ConnectionItem(edge.name, parent_row, child_rows, attrs)


def encode_stream(instance: COInstance) -> Tuple[Dict[str, Any], List[list]]:
    """The stream's wire form: a schema header (node columns and projections;
    edge partners, roles and attributes) and JSON-ready data items, ``[node,
    row]`` or ``[edge, parent_row, child_rows, attributes]`` — component
    names are unique.  Rows travel in full; the receiver applies projections.
    """
    schema = instance.schema
    header: Dict[str, Any] = {"name": schema.name, "nodes": [], "edges": []}
    items: List[list] = []
    for item in heterogeneous_stream(instance):
        if isinstance(item, TupleItem):
            items.append([item.component, item.row])
        elif isinstance(item, ConnectionItem):
            items.append(
                [item.component, item.parent_row, item.child_rows, item.attributes]
            )
        elif item.kind == "node":
            projection = schema.nodes[item.component].projection
            header["nodes"].append([item.component, item.columns, projection])
        else:
            edge = schema.edges[item.component]
            header["edges"].append([
                edge.name, edge.parent, edge.parent_role, edge.child,
                edge.child_role, edge.extra_partners, item.columns,
            ])
    return header, items


def decode_stream(header: Dict[str, Any], items: Iterable[Sequence[Any]]) -> COInstance:
    """Invert :func:`encode_stream` into the :class:`COInstance` it was
    encoded from, ready for :meth:`COCache.load`.  The schema carries
    names, roles, projections and attribute names: enough to navigate,
    nothing to derive tuples from (an attribute's expression stays on the
    server)."""
    schema = COSchema(header["name"])
    instance = COInstance(schema)
    for name, columns, projection in header["nodes"]:
        schema.add_node(NodeSchema(name, projection=projection))
        instance.columns[name] = list(columns)
        instance.rows[name] = []
    for name, parent, parent_role, child, child_role, extra, attrs in header["edges"]:
        schema.add_edge(EdgeSchema(
            name, parent, child, attributes=[(attr, None) for attr in attrs],
            parent_role=parent_role, child_role=child_role,
            extra_partners=[(partner, role) for partner, role in extra],
        ))
        instance.connections[name] = []
    rows, connections = instance.rows, instance.connections
    for item in items:
        if item[0] in rows:
            rows[item[0]].append(tuple(item[1]))
        else:
            connections[item[0]].append(
                (tuple(item[1]), tuple(map(tuple, item[2])), tuple(item[3]))
            )
    return instance
