"""Materialized composite-object views (CO snapshots).

The paper's footnote in section 5: "Base (materialized) relationships are
part of XNF but not reported here due to space limitation."  This module
supplies that unreported piece in its natural generalisation: a whole CO
view can be *materialized* — its instance stored back into base tables
(one table per node, one link table per relationship, keyed by surrogate
row ids) — and later re-loaded into a cache without re-running the view's
derivation joins or the reachability fixpoint.

This is the CO analogue of a relational materialized view:

* :func:`materialize` — instantiate a view once and persist the instance,
* :func:`load` — rebuild a :class:`COCache` from the stored tables
  (surrogate-key equi-joins only; reachability holds by construction),
* :func:`refresh` — re-derive from the current base data and swap contents.

Surrogate keys make the stored form NULL-safe: a connection between tuples
with NULL key columns survives materialisation, which a value-based link
table could not guarantee (NULL never equi-joins).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import XNFError
from repro.relational.catalog import Column
from repro.relational.engine import Database
from repro.relational.types import BOOLEAN, FLOAT, INTEGER, SQLType, VARCHAR
from repro.relational.sql import ast as sql_ast
from repro.xnf.schema import COSchema, EdgeSchema, NodeSchema
from repro.xnf.semantic_rewrite import COInstance

#: surrogate-key column added to every materialized node table
RID_COLUMN = "xnf_rid"

_snapshot_ids = itertools.count(1)


@dataclass
class MaterializedCOView:
    """Handle to a stored CO snapshot."""

    name: str
    source_view: str
    node_tables: Dict[str, str] = field(default_factory=dict)
    edge_tables: Dict[str, str] = field(default_factory=dict)
    node_columns: Dict[str, List[str]] = field(default_factory=dict)
    edge_attribute_names: Dict[str, List[str]] = field(default_factory=dict)
    roots: List[str] = field(default_factory=list)
    tuple_count: int = 0
    connection_count: int = 0


def store_instance(
    db: Database, name: str, source_view: str, instance: COInstance
) -> MaterializedCOView:
    """Persist *instance* into base tables; returns the snapshot handle."""
    handle = MaterializedCOView(name, source_view)
    handle.roots = instance.schema.roots()
    for edge in instance.schema.edges.values():
        if not edge.is_binary:
            raise XNFError(
                f"snapshot of n-ary relationship {edge.name!r} is not "
                "supported"
            )
    rid_maps: Dict[str, Dict[tuple, int]] = {}
    for node_name, rows in instance.rows.items():
        columns = instance.columns[node_name]
        if any(col.upper() == RID_COLUMN.upper() for col in columns):
            raise XNFError(
                f"node {node_name} already has a {RID_COLUMN} column"
            )
        table_name = f"{name}_{node_name}".upper()
        column_defs = [Column(RID_COLUMN, INTEGER, nullable=False)]
        column_defs.extend(
            Column(col, _infer_type(rows, pos), nullable=True)
            for pos, col in enumerate(columns)
        )
        table = db.catalog.create_table(table_name, column_defs)
        table.add_index(f"idx_{table_name}_rid", [RID_COLUMN], unique=True)
        rid_map: Dict[tuple, int] = {}
        tagged: List[tuple] = []
        for rid, row in enumerate(rows, start=1):
            tagged.append((rid,) + row)
            rid_map[row] = rid
        table.insert_many(tagged)
        table.analyze()
        rid_maps[node_name] = rid_map
        handle.node_tables[node_name] = table_name
        handle.node_columns[node_name] = list(columns)
        handle.tuple_count += len(rows)

    for edge_name, connections in instance.connections.items():
        edge = instance.schema.edges[edge_name]
        attr_names = edge.attribute_names()
        table_name = f"{name}_{edge_name}".upper()
        column_defs = [
            Column("parent_rid", INTEGER, nullable=False),
            Column("child_rid", INTEGER, nullable=False),
        ]
        attr_rows = [attrs for _, _, attrs in connections]
        for pos, attr in enumerate(attr_names):
            column_defs.append(
                Column(attr, _infer_type(attr_rows, pos), nullable=True)
            )
        table = db.catalog.create_table(table_name, column_defs)
        table.add_index(f"idx_{table_name}_p", ["parent_rid"])
        table.add_index(f"idx_{table_name}_c", ["child_rid"])
        parent_map = rid_maps[edge.parent]
        child_map = rid_maps[edge.child]
        table.insert_many([
            (parent_map[parent_row], child_map[child_rows[0]]) + attrs
            for parent_row, child_rows, attrs in connections
        ])
        table.analyze()
        handle.edge_tables[edge_name] = table_name
        handle.edge_attribute_names[edge_name] = attr_names
        handle.connection_count += len(connections)
    return handle


def snapshot_schema(handle: MaterializedCOView, schema: COSchema) -> COSchema:
    """A CO definition over the snapshot tables.

    Node queries select the data columns *plus* the surrogate key (hidden
    from the application by a projection); relationships join purely on
    surrogate keys through the stored link tables.
    """
    result = COSchema(handle.name)
    for node_name, table_name in handle.node_tables.items():
        columns = handle.node_columns[node_name]
        # Reference the snapshot table directly (trivial node: no copy, and
        # generated SQL can use the surrogate-key indexes); the projection
        # hides the surrogate key from the application.
        node = NodeSchema(node_name, table=table_name)
        original = schema.nodes[node_name]
        node.projection = (
            list(original.projection) if original.projection else list(columns)
        )
        result.add_node(node)
    for edge_name, table_name in handle.edge_tables.items():
        original = schema.edges[edge_name]
        link_alias = "l"
        predicate: sql_ast.Expr = sql_ast.BinaryOp(
            "AND",
            sql_ast.BinaryOp(
                "=",
                sql_ast.ColumnRef(original.parent_binding, RID_COLUMN),
                sql_ast.ColumnRef(link_alias, "parent_rid"),
            ),
            sql_ast.BinaryOp(
                "=",
                sql_ast.ColumnRef(original.child_binding, RID_COLUMN),
                sql_ast.ColumnRef(link_alias, "child_rid"),
            ),
        )
        attributes = [
            (attr, sql_ast.ColumnRef(link_alias, attr))
            for attr in handle.edge_attribute_names[edge_name]
        ]
        from repro.xnf.lang import xast

        result.add_edge(
            EdgeSchema(
                edge_name,
                original.parent,
                original.child,
                predicate,
                attributes,
                [xast.UsingTable(table_name, link_alias)],
                original.parent_role,
                original.child_role,
            )
        )
    return result


def load_stored_instance(
    db: Database, handle: MaterializedCOView, schema: COSchema
) -> COInstance:
    """Rebuild the CO instance directly from the snapshot tables.

    The stored instance is *closed* under reachability by construction, so
    no derivation joins and no fixpoint are needed: one ``SELECT *`` per
    node table plus one per link table reconstructs tuples and
    connections.  This is the fast path that makes materialized CO views
    pay off.  All of them read one snapshot, as a TAKE's generated queries
    do, so a concurrent refresh cannot tear the load.
    """
    snap_schema = snapshot_schema(handle, schema)
    instance = COInstance(snap_schema)
    rid_rows: Dict[str, Dict[int, tuple]] = {}

    def select_all(table_name: str) -> List[tuple]:
        instance.stats.queries_issued += 1
        return db.execute_ast(
            sql_ast.SelectStmt(
                [sql_ast.SelectItem(sql_ast.Star())],
                [sql_ast.NamedTable(table_name)],
            )
        ).rows

    with db.snapshot_scope():
        for node_name, table_name in handle.node_tables.items():
            rows = select_all(table_name)  # RID_COLUMN first, then data
            instance.columns[node_name] = db.catalog.get_table(table_name).column_names()
            instance.rows[node_name] = rows
            rid_rows[node_name] = {row[0]: row for row in rows}
        for edge_name, table_name in handle.edge_tables.items():
            edge = snap_schema.edges[edge_name]
            parents = rid_rows[edge.parent]
            children = rid_rows[edge.child]
            instance.connections[edge_name] = [
                (parents[row[0]], (children[row[1]],), tuple(row[2:]))
                for row in select_all(table_name)
            ]
    return instance


def drop_snapshot(db: Database, handle: MaterializedCOView) -> None:
    for table_name in list(handle.node_tables.values()) + list(
        handle.edge_tables.values()
    ):
        db.catalog.drop_table(table_name, if_exists=True)


def _infer_type(rows: List[Tuple[Any, ...]], position: int) -> SQLType:
    """Column type of a stored CO table: the first non-NULL value's."""
    for row in rows:
        value = row[position]
        if value is None:
            continue
        if isinstance(value, bool):
            return BOOLEAN
        if isinstance(value, int):
            return INTEGER
        if isinstance(value, float):
            return FLOAT
        if isinstance(value, str):
            return VARCHAR()
    return VARCHAR()
