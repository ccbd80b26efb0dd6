"""Instance-level restriction evaluation.

SUCH THAT predicates that contain path expressions (section 3.5's queries)
cannot be folded into the generated SQL — they quantify over the CO's own
instance.  They are therefore evaluated against the loaded cache: failing
tuples/connections are removed, then the reachability constraint is
re-enforced, exactly the semantics the paper walks through for Fig. 5.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import XNFError
from repro.relational.sql import ast as sql_ast
from repro.xnf.cache import COCache
from repro.xnf.lang import xast
from repro.xnf.paths import eval_instance_expr


def apply_instance_restrictions(
    cache: COCache, restrictions: List[xast.Restriction]
) -> int:
    """Apply path-bearing restrictions to *cache* in place.

    All predicates are evaluated against the *unrestricted* instance first
    (simultaneous semantics — a department dropped by one restriction still
    counts inside another restriction's COUNT), then the survivors are
    committed and reachability is recomputed.  Returns tuples dropped.
    """
    doomed_tuples = []
    doomed_connections = []
    for restriction in restrictions:
        if isinstance(restriction, xast.NodeRestriction):
            alias = restriction.alias or restriction.node
            for cached in cache.node(restriction.node):
                bindings = {alias: cached, restriction.node: cached}
                if (
                    eval_instance_expr(restriction.predicate, bindings, cache)
                    is not True
                ):
                    doomed_tuples.append(cached)
        elif isinstance(restriction, xast.EdgeRestriction):
            edge = cache.schema.edges.get(restriction.edge)
            if edge is not None and not edge.is_binary:
                raise XNFError(
                    "edge restriction on n-ary relationship "
                    f"{restriction.edge!r} is not supported"
                )
            for conn in cache.connections_of(restriction.edge):
                bindings = {
                    restriction.parent_alias: conn.parent,
                    restriction.child_alias: conn.child,
                }
                predicate = _bind_attributes(restriction, conn)
                if eval_instance_expr(predicate, bindings, cache) is not True:
                    doomed_connections.append(conn)
        else:  # pragma: no cover
            raise XNFError(f"unknown restriction {restriction!r}")
    for conn in doomed_connections:
        conn.alive = False
    dropped = 0
    for cached in doomed_tuples:
        if cached.alive:
            cache.remove_tuple(cached)
            dropped += 1
    dropped += cache.recompute_reachability()
    return dropped


def _bind_attributes(restriction: xast.EdgeRestriction, conn) -> sql_ast.Expr:
    """Replace references to connection attributes by their values."""
    if not conn.attributes:
        return restriction.predicate

    def bind(node: sql_ast.Expr) -> Optional[sql_ast.Expr]:
        if not isinstance(node, sql_ast.ColumnRef) or node.column not in conn.attributes:
            return None
        if node.table is None or node.table.upper() == restriction.edge.upper():
            return sql_ast.Literal(conn.attributes[node.column])
        return node

    return sql_ast.map(restriction.predicate, bind)
