"""Closure property and the query classification of Fig. 6.

The paper's classification scheme:

1. **NF → XNF** — the CO constructor over regular tables,
2. **XNF → XNF** — the CO constructor over XNF views (COs in, CO out),
3. **XNF → NF** — a CO component consumed as a regular table,
4. **NF → NF** — plain SQL.

Types 1, 2 and 4 are recognised syntactically by :func:`classify`.
Type 3 is a bridge the API provides: :func:`materialize_node` turns a node
of a loaded CO back into a base table that any SQL query can reference —
closing the loop ("closure property gives the advantage of using the same
query language on base data as well as on derived data").
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional, Union

from repro.errors import ParseError, XNFError
from repro.relational.catalog import Column
from repro.relational.engine import Database
from repro.xnf.cache import COCache
from repro.xnf.lang import xast
from repro.xnf.lang.parser import parse_xnf_statements
from repro.relational.sql.parser import parse_statements as parse_sql_statements
from repro.xnf.materialize import _infer_type


class QueryClass(enum.Enum):
    """The four query classes of Fig. 6."""

    NF_TO_XNF = 1
    XNF_TO_XNF = 2
    XNF_TO_NF = 3
    NF_TO_NF = 4


def classify(source: Union[str, xast.XNFStatement]) -> QueryClass:
    """Classify a statement per Fig. 6.

    A statement that parses as XNF is type 1 when it assembles its CO purely
    from node/relationship definitions, and type 2 when it builds on XNF
    views.  Plain SQL is type 4.  (Type 3 — consuming a CO as a table — is
    an API operation, :func:`materialize_node`, not a syntax form.)
    """
    statement = source
    if isinstance(source, str):
        statement = _parse_any(source)
        if statement is None:
            return QueryClass.NF_TO_NF
    query = statement.query if isinstance(statement, xast.CreateXNFView) else statement
    if isinstance(query, xast.XNFQuery):
        if any(isinstance(c, xast.ViewRef) for c in query.components):
            return QueryClass.XNF_TO_XNF
        return QueryClass.NF_TO_XNF
    return QueryClass.NF_TO_NF


def _parse_any(source: str) -> Optional[xast.XNFStatement]:
    stripped = source.lstrip().upper()
    if stripped.startswith("OUT"):
        return parse_xnf_statements(source)[0]
    if stripped.startswith("CREATE VIEW"):
        try:
            statements = parse_xnf_statements(source)
            if isinstance(statements[0], xast.CreateXNFView) and isinstance(
                statements[0].query, xast.XNFQuery
            ):
                return statements[0]
        except ParseError:
            pass
    try:
        parse_sql_statements(source)
        return None  # valid plain SQL
    except ParseError:
        return parse_xnf_statements(source)[0]


_materialize_ids = itertools.count(1)


def materialize_node(
    db: Database, cache: COCache, node: str, table_name: Optional[str] = None
) -> str:
    """Type-3 bridge: store a CO node's visible tuples as a base table.

    Returns the table name; the caller may then reference it from any SQL
    query (XNF → NF closure).
    """
    rows = [cached.values() for cached in cache.node(node)]
    columns = cache.visible_columns(node)
    if not columns:
        raise XNFError(f"node {node!r} has no visible columns")
    name = table_name or f"CO_{node}_{next(_materialize_ids)}".upper()
    column_defs = [
        Column(col, _infer_type(rows, pos), nullable=True)
        for pos, col in enumerate(columns)
    ]
    table = db.catalog.create_table(name, column_defs)
    table.insert_many(rows)
    return table.name
