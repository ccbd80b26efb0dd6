"""The XNF application cache: pointer-linked composite-object tuples.

Section 4.2: "The XNF cache uses virtual memory pointers to link the tuples
of an XNF structure.  As a result, the browsing is very fast. ... the access
to the cache does not require any inter-process communication."

Here the "virtual memory pointers" are Python object references:
:class:`CachedTuple` objects hold per-relationship lists of
:class:`Connection` objects, so crossing a relationship is a list traversal
— no SQL, no engine, no parsing.  ``navigations`` counts pointer hops for
the OO1-style benchmark (experiment E1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import XNFError
from repro.xnf.lang import xast
from repro.xnf.schema import COSchema
from repro.xnf.semantic_rewrite import COInstance, COProgram
from repro.xnf.stream import load_order

Row = Tuple[Any, ...]


class CachedTuple:
    """One component tuple in the cache."""

    __slots__ = ("node", "_values", "_cache", "children", "parents", "alive")

    def __init__(self, node: str, values: Row, cache: "COCache"):
        self.node = node
        self._values = list(values)
        self._cache = cache
        #: edge name -> connections where this tuple is the parent
        self.children: Dict[str, List["Connection"]] = {}
        #: edge name -> connections where this tuple is the child
        self.parents: Dict[str, List["Connection"]] = {}
        self.alive = True

    # -- column access -----------------------------------------------------------

    def __getitem__(self, column: str) -> Any:
        position = self._cache.position(self.node, column)
        return self._values[position]

    def get(self, column: str, default: Any = None) -> Any:
        try:
            return self[column]
        except XNFError:
            return default

    def raw(self, column: str) -> Any:
        """Column access ignoring presentation projection.

        The manipulation layer needs full rows to match base tuples even
        when a TAKE projection hides columns from the application."""
        return self._values[self._cache.raw_position(self.node, column)]

    def values(self) -> Row:
        """Visible column values (after presentation projection)."""
        visible = self._cache.visible_columns(self.node)
        full = self._cache.columns[self.node]
        if visible == full:
            return tuple(self._values)
        return tuple(self[column] for column in visible)

    def full_values(self) -> Row:
        return tuple(self._values)

    def as_dict(self) -> Dict[str, Any]:
        if self._cache.projections.get(self.node) is None:
            return dict(zip(self._cache.columns[self.node], self._values))
        return {column: self[column] for column in self._cache.visible_columns(self.node)}

    # -- navigation (pointer dereferencing) ----------------------------------------

    def related(
        self,
        edge_name: str,
        direction: str = "auto",
        slot: Optional[int] = None,
    ) -> List["CachedTuple"]:
        """Cross a relationship; direction inferred from this tuple's role.

        ``direction`` may be ``"children"``, ``"parents"``, or ``"auto"``
        (resolve by which side of the edge this node is on; ambiguous for
        cyclic relationships, which require an explicit direction).
        For n-ary relationships, ``slot`` selects one child partner
        position (0 = the first child); None yields all child partners.
        """
        edge = self._cache.schema.edges.get(edge_name)
        if edge is None:
            raise XNFError(f"unknown relationship {edge_name!r}")
        if direction == "auto":
            is_parent = edge.parent == self.node
            is_child = self.node in edge.child_names()
            if is_parent and is_child:
                raise XNFError(
                    f"relationship {edge_name!r} is cyclic on {self.node}; "
                    "specify direction='children' or 'parents'"
                )
            if is_parent:
                direction = "children"
            elif is_child:
                direction = "parents"
            else:
                raise XNFError(
                    f"{self.node} is not a partner of relationship {edge_name!r}"
                )
        self._cache.navigations += 1
        if direction == "children":
            result = []
            for conn in self.children.get(edge_name, ()):
                if not conn.alive:
                    continue
                partners = conn.child_partners()
                if slot is not None:
                    partners = partners[slot : slot + 1]
                result.extend(p for p in partners if p.alive)
            return result
        return [
            conn.parent
            for conn in self.parents.get(edge_name, ())
            if conn.alive and conn.parent.alive
        ]

    def connections(self, edge_name: str) -> List["Connection"]:
        """All live connections of this tuple for one relationship."""
        result = [
            conn for conn in self.children.get(edge_name, ()) if conn.alive
        ]
        result.extend(
            conn for conn in self.parents.get(edge_name, ()) if conn.alive
        )
        return result

    def __repr__(self) -> str:
        values = ", ".join(repr(v) for v in self.values())
        return f"{self.node}({values})"


class Connection:
    """One relationship instance linking a parent with its child tuple(s).

    Binary relationships have exactly one child (``.child``); n-ary ones
    carry further partners in ``extra_children`` and expose all of them via
    :meth:`child_partners`.
    """

    __slots__ = ("edge", "parent", "child", "extra_children", "attributes", "alive")

    def __init__(
        self,
        edge: str,
        parent: CachedTuple,
        child: CachedTuple,
        attributes: Dict[str, Any],
        extra_children: Optional[List[CachedTuple]] = None,
    ):
        self.edge = edge
        self.parent = parent
        self.child = child
        self.extra_children = list(extra_children or [])
        self.attributes = attributes
        self.alive = True

    def child_partners(self) -> List[CachedTuple]:
        return [self.child] + self.extra_children

    def partners_alive(self) -> bool:
        return self.parent.alive and all(
            c.alive for c in self.child_partners()
        )

    def __getitem__(self, name: str) -> Any:
        try:
            return self.attributes[name]
        except KeyError:
            raise XNFError(
                f"relationship {self.edge!r} has no attribute {name!r}"
            ) from None

    def __repr__(self) -> str:
        attrs = f" {self.attributes}" if self.attributes else ""
        return f"{self.edge}({self.parent!r} -> {self.child!r}){attrs}"


class COCache:
    """A loaded composite object: tuples, connections, navigation, cursors."""

    def __init__(self, schema: COSchema):
        self.schema = schema
        self.columns: Dict[str, List[str]] = {}
        self.projections: Dict[str, Optional[List[str]]] = {
            name: node.projection for name, node in schema.nodes.items()
        }
        self.edge_attributes: Dict[str, List[str]] = {}
        self.tuples: Dict[str, List[CachedTuple]] = {
            name: [] for name in schema.nodes
        }
        self.edge_connections: Dict[str, List[Connection]] = {
            name: [] for name in schema.edges
        }
        self._index: Dict[Tuple[str, Row], CachedTuple] = {}
        self._positions: Dict[str, Dict[str, int]] = {}
        # Lazy per-column lookup indexes: (node, COLUMN) -> value -> tuples.
        # Buckets may contain stale entries (dead or re-valued tuples);
        # lookups re-validate, so correctness never depends on eager upkeep.
        self._column_indexes: Dict[Tuple[str, str], Dict[Any, List[CachedTuple]]] = {}
        #: pointer hops performed (benchmark counter)
        self.navigations = 0
        #: the compiled program this CO was extracted by; it memoizes the
        #: parsed path expressions the CO is navigated with
        self.program: Optional[COProgram] = None
        #: the literals a kept program ran on, not yet in ``schema``
        self.literals: Optional[List[Any]] = None

    # -- loading ---------------------------------------------------------------------

    @classmethod
    def load(cls, instance: COInstance) -> "COCache":
        """Build the cache straight from *instance*: every node's tuples,
        then each edge's connections, wired to the tuples by row.  Edges
        come in the answer stream's order (:func:`load_order`), so a
        tuple's per-edge connection lists are keyed as a stream reader
        would key them."""
        cache = cls(instance.schema)
        index = cache._index
        for name in cache.tuples:
            columns = list(instance.columns[name])
            cache.columns[name] = columns
            cache._positions[name] = {col.upper(): pos for pos, col in enumerate(columns)}
            tuples = cache.tuples[name]
            for row in instance.rows[name]:
                cached = CachedTuple(name, row, cache)
                tuples.append(cached)
                index[(name, row)] = cached
        find = index.get
        for _node, edges in load_order(instance.schema):
            for edge in edges:
                name = edge.name
                attr_names = cache.edge_attributes[name] = edge.attribute_names()
                parent_node, child_nodes = edge.parent, edge.child_names()
                binary, child_node = edge.is_binary, child_nodes[0]
                connections = cache.edge_connections[name]
                for parent_row, child_rows, attrs in instance.connections[name]:
                    parent = find((parent_node, parent_row))
                    if binary:
                        children = [find((child_node, child_rows[0]))]
                    else:
                        children = [find(key) for key in zip(child_nodes, child_rows)]
                    if parent is None or None in children:
                        raise XNFError(
                            f"connection of {name!r} references a tuple "
                            "missing from the stream"
                        )
                    conn = Connection(
                        name, parent, children[0], dict(zip(attr_names, attrs)), children[1:]
                    )
                    connections.append(conn)
                    parent.children.setdefault(name, []).append(conn)
                    for partner in children:
                        partner.parents.setdefault(name, []).append(conn)
        return cache

    def instance(self) -> COInstance:
        """The live tuples and connections (what restrictions and
        structural projection left) as a :class:`COInstance`."""
        instance = COInstance(self.schema)
        for name in self.schema.nodes:
            instance.columns[name] = self.columns[name]
            instance.rows[name] = [t.full_values() for t in self.node(name)]
        for name in self.schema.edges:
            attr_names = self.edge_attributes.get(name, [])
            instance.connections[name] = [
                (
                    conn.parent.full_values(),
                    tuple(p.full_values() for p in conn.child_partners()),
                    tuple(conn.attributes.get(a) for a in attr_names),
                )
                for conn in self.connections_of(name)
            ]
        return instance

    def _add_tuple(self, node: str, row: Row) -> CachedTuple:
        cached = CachedTuple(node, row, self)
        self.tuples[node].append(cached)
        self._index[(node, row)] = cached
        self._index_tuple(cached)
        return cached

    def add_connection(
        self,
        edge_name: str,
        parent: CachedTuple,
        child: CachedTuple,
        attributes: Optional[Dict[str, Any]] = None,
        extra_children: Optional[List[CachedTuple]] = None,
    ) -> Connection:
        conn = Connection(edge_name, parent, child, attributes or {}, extra_children)
        self.edge_connections[edge_name].append(conn)
        parent.children.setdefault(edge_name, []).append(conn)
        for partner in conn.child_partners():
            partner.parents.setdefault(edge_name, []).append(conn)
        return conn

    # -- schema/metadata access ----------------------------------------------------------

    def position(self, node: str, column: str) -> int:
        pos = self.raw_position(node, column)
        projection = self.projections.get(node)
        if projection is not None and not any(
            v.upper() == column.upper() for v in projection
        ):
            raise XNFError(f"column {column!r} of {node} is projected away")
        return pos

    def raw_position(self, node: str, column: str) -> int:
        positions = self._positions.get(node)
        if positions is None:
            raise XNFError(f"unknown node {node!r}")
        pos = positions.get(column.upper())
        if pos is None:
            raise XNFError(f"node {node!r} has no column {column!r}")
        return pos

    def visible_columns(self, node: str) -> List[str]:
        projection = self.projections.get(node)
        if projection is None:
            return self.columns.get(node, [])
        return projection

    def node_names(self) -> List[str]:
        return list(self.tuples)

    def edge_names(self) -> List[str]:
        return list(self.edge_connections)

    # -- retrieval ----------------------------------------------------------------------

    def node(self, name: str) -> List[CachedTuple]:
        """Live tuples of a node, in load order."""
        if name not in self.tuples:
            raise XNFError(f"unknown node {name!r}")
        return [t for t in self.tuples[name] if t.alive]

    def connections_of(self, edge_name: str) -> List[Connection]:
        if edge_name not in self.edge_connections:
            raise XNFError(f"unknown relationship {edge_name!r}")
        return [
            conn
            for conn in self.edge_connections[edge_name]
            if conn.alive and conn.partners_alive()
        ]

    def find(self, node: str, **criteria: Any) -> Optional[CachedTuple]:
        """First live tuple of *node* matching all column=value criteria."""
        matches = self.find_all(node, **criteria)
        return matches[0] if matches else None

    def find_all(self, node: str, **criteria: Any) -> List[CachedTuple]:
        if node not in self.tuples:
            raise XNFError(f"unknown node {node!r}")
        if len(criteria) == 1:
            column, value = next(iter(criteria.items()))
            bucket = self._column_index(node, column).get(value, ())
            return [
                cached
                for cached in bucket
                if cached.alive and cached[column] == value
            ]
        return [
            cached
            for cached in self.node(node)
            if all(cached[col] == val for col, val in criteria.items())
        ]

    def _column_index(
        self, node: str, column: str
    ) -> Dict[Any, List[CachedTuple]]:
        """In-memory lookup structure (the cache-side analogue of an index)."""
        self.position(node, column)  # validates name and visibility
        key = (node, column.upper())
        index = self._column_indexes.get(key)
        if index is None:
            index = {}
            for cached in self.tuples[node]:
                index.setdefault(cached[column], []).append(cached)
            self._column_indexes[key] = index
        return index

    def _index_tuple(self, cached: CachedTuple) -> None:
        """Register *cached* in any existing column indexes of its node."""
        for (node, column), index in self._column_indexes.items():
            if node == cached.node:
                index.setdefault(cached[column], []).append(cached)

    # -- cursors (section 3.7) -------------------------------------------------------------

    def cursor(self, node: str) -> "IndependentCursor":
        from repro.xnf.cursors import IndependentCursor

        return IndependentCursor(self, node)

    def dependent_cursor(self, parent_cursor, path: str) -> "DependentCursor":
        from repro.xnf.cursors import DependentCursor

        return DependentCursor(self, parent_cursor, path)

    def path(self, start: Union[CachedTuple, str], path_text: str) -> List[CachedTuple]:
        """Evaluate a path expression; *start* is a tuple or a node name."""
        from repro.xnf.paths import evaluate_path

        steps = self.path_steps(path_text)
        if isinstance(start, CachedTuple):
            expr = xast.PathExpr(start.node, steps)
            return evaluate_path(self, expr, {start.node: start})
        return evaluate_path(self, xast.PathExpr(start, steps))

    def path_steps(self, path_text: str) -> List[xast.PathStep]:
        """The parsed steps of a path fragment, memoized by the program."""
        if self.program is not None:
            return self.program.path_steps(path_text)
        from repro.xnf.cursors import parse_path_steps

        return parse_path_steps(path_text)

    # -- maintenance used by restriction / projection / manipulation -------------------------

    def reindex(self, cached: CachedTuple, old_values: Row) -> None:
        self._index.pop((cached.node, old_values), None)
        self._index[(cached.node, cached.full_values())] = cached
        # Stale column-index buckets are tolerated (lookups re-validate);
        # the tuple just needs to be findable under its new values.
        self._index_tuple(cached)

    def remove_tuple(self, cached: CachedTuple) -> None:
        """Kill a tuple and every connection attached to it."""
        cached.alive = False
        for conns in cached.children.values():
            for conn in conns:
                conn.alive = False
        for conns in cached.parents.values():
            for conn in conns:
                conn.alive = False
        self._index.pop((cached.node, cached.full_values()), None)

    def recompute_reachability(self) -> int:
        """Re-enforce the reachability constraint over live tuples.

        Returns the number of tuples dropped.  Used after instance-level
        restrictions and structural projection (Fig. 5: "project p1 is not
        in the result since it is not reachable anymore").
        """
        reached: set = set()
        frontier: List[CachedTuple] = []
        for root in self.schema.roots():
            for cached in self.node(root):
                reached.add(id(cached))
                frontier.append(cached)
        while frontier:
            current = frontier.pop()
            for edge_name, conns in current.children.items():
                if edge_name not in self.schema.edges:
                    continue
                for conn in conns:
                    if not conn.alive:
                        continue
                    for partner in conn.child_partners():
                        if partner.alive and id(partner) not in reached:
                            reached.add(id(partner))
                            frontier.append(partner)
        dropped = 0
        for name in self.tuples:
            for cached in self.tuples[name]:
                if cached.alive and id(cached) not in reached:
                    self.remove_tuple(cached)
                    dropped += 1
        return dropped

    def project(self, schema: COSchema) -> None:
        """Apply a structural projection: *schema* is the projected schema."""
        for name in list(self.tuples):
            if name not in schema.nodes:
                for cached in self.tuples[name]:
                    cached.alive = False
                del self.tuples[name]
        for name in list(self.edge_connections):
            if name not in schema.edges:
                for conn in self.edge_connections[name]:
                    conn.alive = False
                del self.edge_connections[name]
        self.schema = schema
        self.projections = {
            name: node.projection for name, node in schema.nodes.items()
        }
        self.recompute_reachability()

    # -- reporting -------------------------------------------------------------------------

    def summary(self) -> str:
        lines = [f"CO {self.schema.name or '<anonymous>'}:"]
        for name in self.tuples:
            lines.append(f"  {name}: {len(self.node(name))} tuples")
        for name in self.edge_connections:
            lines.append(f"  {name}: {len(self.connections_of(name))} connections")
        return "\n".join(lines)

    def total_tuples(self) -> int:
        return sum(len(self.node(name)) for name in self.tuples)

    def total_connections(self) -> int:
        return sum(len(self.connections_of(name)) for name in self.edge_connections)
