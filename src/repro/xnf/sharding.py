"""Scatter/gather execution of XNF generated queries over sharded tables.

The semantic rewrite produces one query per node/edge (see
``semantic_rewrite.py``); when a node's candidate query reads a
:class:`~repro.relational.catalog.ShardedTable`, this module **scatters**
it across the table's shard views — skipping shards whose partition
bounds / zone maps prove the query's restriction predicate unsatisfiable
there (the work reduction that makes partitioned extraction pay off) —
runs the remaining per-shard queries one after another on the statement's
thread, and gathers results in shard order so the row order matches the
facade's chained scan exactly.

A scatter is a union of disjoint shard reads, so results are identical to
the unsharded plan (the equivalence suite asserts bit-identical
instances).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.relational.catalog import ShardedTable
from repro.relational.plancache import NormalizedStatement
from repro.relational.sql import ast as sql_ast

Row = Tuple[Any, ...]

#: (low, low_inclusive, high, high_inclusive); None bound = unbounded
_Interval = Tuple[Any, bool, Any, bool]


# -- locating the sharded table in a generated query ---------------------------


def _collect_named_tables(ref: Any, out: List[sql_ast.NamedTable]) -> None:
    if isinstance(ref, sql_ast.NamedTable):
        out.append(ref)
    elif isinstance(ref, sql_ast.Join):
        _collect_named_tables(ref.left, out)
        _collect_named_tables(ref.right, out)
    elif isinstance(ref, sql_ast.DerivedTable):
        _query_named_tables(ref.subquery, out)


def _query_named_tables(query: Any, out: List[sql_ast.NamedTable]) -> None:
    if isinstance(query, sql_ast.SetOpStmt):
        _query_named_tables(query.left, out)
        _query_named_tables(query.right, out)
        return
    if isinstance(query, sql_ast.SelectStmt):
        for ref in query.from_tables:
            _collect_named_tables(ref, out)


def _enclosing_select(
    query: Any, target: sql_ast.NamedTable
) -> Optional[sql_ast.SelectStmt]:
    """The SelectStmt whose FROM list (directly) holds *target*."""
    if isinstance(query, sql_ast.SetOpStmt):
        return _enclosing_select(query.left, target) or _enclosing_select(
            query.right, target
        )
    if not isinstance(query, sql_ast.SelectStmt):
        return None
    for ref in query.from_tables:
        if ref is target:
            return query
        if isinstance(ref, sql_ast.DerivedTable):
            found = _enclosing_select(ref.subquery, target)
            if found is not None:
                return found
    return None


def find_scatter_target(
    db: Any, query: Any
) -> Optional[Tuple[ShardedTable, sql_ast.NamedTable]]:
    """The single sharded base table a query reads, if there is exactly one.

    Queries touching zero or several sharded tables fall back to the facade
    path (always correct — the facade scan chains the shards anyway).
    """
    refs: List[sql_ast.NamedTable] = []
    _query_named_tables(query, refs)
    hits = [
        (table, ref)
        for ref in refs
        for table in (db.catalog.tables.get(ref.name.upper()),)
        if isinstance(table, ShardedTable)
    ]
    if len(hits) != 1:
        return None
    return hits[0]


# -- zone-map / partition-bound pruning ----------------------------------------


def _column_pos(
    table: ShardedTable, binding: str, ref: Any
) -> Optional[int]:
    if not isinstance(ref, sql_ast.ColumnRef):
        return None
    if ref.table is not None and ref.table.upper() != binding.upper():
        return None
    positions = table.column_positions
    for candidate in (ref.column, ref.column.lower(), ref.column.upper()):
        pos = positions.get(candidate)
        if pos is not None:
            return pos
    return None


def _literal(expr: Any, params: Sequence[Any]) -> Tuple[bool, Any]:
    if isinstance(expr, sql_ast.Literal):
        return True, expr.value
    if isinstance(expr, sql_ast.Parameter):
        return True, params[expr.index]
    return False, None


def _intersect(a: Optional[_Interval], b: Optional[_Interval]) -> Optional[_Interval]:
    if a is None:
        return b
    if b is None:
        return a
    lo, lo_inc, hi, hi_inc = a
    blo, blo_inc, bhi, bhi_inc = b
    if blo is not None and (lo is None or blo > lo or (blo == lo and not blo_inc)):
        lo, lo_inc = blo, blo_inc
    if bhi is not None and (hi is None or bhi < hi or (bhi == hi and not bhi_inc)):
        hi, hi_inc = bhi, bhi_inc
    return lo, lo_inc, hi, hi_inc


def _interval_empty(interval: _Interval) -> bool:
    lo, lo_inc, hi, hi_inc = interval
    if lo is None or hi is None:
        return False
    if lo > hi:
        return True
    return lo == hi and not (lo_inc and hi_inc)


def _contains(interval: _Interval, value: Any) -> bool:
    lo, lo_inc, hi, hi_inc = interval
    if lo is not None and (value < lo or (value == lo and not lo_inc)):
        return False
    if hi is not None and (value > hi or (value == hi and not hi_inc)):
        return False
    return True


def _comparison_satisfiable(op: str, interval: _Interval, value: Any) -> bool:
    """Can any point of *interval* satisfy ``col <op> value``?"""
    lo, lo_inc, hi, hi_inc = interval
    if op == "=":
        return _contains(interval, value)
    if op == "<":
        return lo is None or lo < value
    if op == "<=":
        return lo is None or lo < value or (lo == value and lo_inc)
    if op == ">":
        return hi is None or hi > value
    if op == ">=":
        return hi is None or hi > value or (hi == value and hi_inc)
    return True  # <>, LIKE, arithmetic … — never prune on these


def _shard_interval(
    table: ShardedTable, shard_id: int, pos: int
) -> Optional[Tuple[str, Optional[_Interval]]]:
    """What shard *shard_id* can hold in column *pos*.

    Returns ``("empty", None)`` when the shard provably holds no non-NULL
    value in the column (prunable for any NULL-rejecting predicate),
    ``("range", interval)`` when bounded, or None when nothing is known.
    """
    spec = table.partition
    zone = table.heap.zone_maps[shard_id]
    kind, payload = zone.classify(pos)
    if kind == "empty":
        return "empty", None
    interval: Optional[_Interval] = None
    if kind == "range":
        lo, hi = payload
        interval = (lo, True, hi, True)
    if spec.kind == "range" and pos == spec.column_pos:
        low, high = spec.range_of(shard_id)
        interval = _intersect(interval, (low, True, high, False))
    if interval is None:
        return None
    return "range", interval


def shard_may_match(
    table: ShardedTable,
    shard_id: int,
    conjuncts: List[Any],
    binding: str,
    params: Sequence[Any],
) -> bool:
    """False only when some conjunct of the normalized query provably
    matches nothing on the shard; *params* binds its parameters."""
    for conjunct in conjuncts:
        pos: Optional[int] = None
        verdict: Optional[bool] = None
        try:
            if isinstance(conjunct, sql_ast.BinaryOp):
                op = conjunct.op
                pos = _column_pos(table, binding, conjunct.left)
                ok, value = _literal(conjunct.right, params)
                if pos is None or not ok:
                    # literal OP column — mirror the operator
                    pos = _column_pos(table, binding, conjunct.right)
                    ok, value = _literal(conjunct.left, params)
                    op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
                if pos is None or not ok or value is None:
                    continue
                known = _shard_interval(table, shard_id, pos)
                if known is None:
                    continue
                if known[0] == "empty":
                    verdict = False
                else:
                    verdict = _comparison_satisfiable(op, known[1], value)
            elif isinstance(conjunct, sql_ast.Between) and not conjunct.negated:
                pos = _column_pos(table, binding, conjunct.operand)
                lo_ok, lo = _literal(conjunct.low, params)
                hi_ok, hi = _literal(conjunct.high, params)
                if pos is None or not lo_ok or not hi_ok:
                    continue
                known = _shard_interval(table, shard_id, pos)
                if known is None:
                    continue
                if known[0] == "empty":
                    verdict = False
                else:
                    narrowed = _intersect(known[1], (lo, True, hi, True))
                    verdict = narrowed is None or not _interval_empty(narrowed)
            elif isinstance(conjunct, sql_ast.InList) and not conjunct.negated:
                pos = _column_pos(table, binding, conjunct.operand)
                values = []
                for item in conjunct.items:
                    ok, value = _literal(item, params)
                    if not ok:
                        values = None
                        break
                    values.append(value)
                if pos is None or values is None:
                    continue
                known = _shard_interval(table, shard_id, pos)
                if known is None:
                    continue
                if known[0] == "empty":
                    verdict = False
                else:
                    verdict = any(
                        value is not None and _contains(known[1], value)
                        for value in values
                    )
            else:
                continue
        except TypeError:
            continue  # incomparable values: never prune on a guess
        if verdict is False:
            return False
    return True


# -- candidate scatter ---------------------------------------------------------


def _rewrite_for_shard(
    query: Any, target_name: str, view_name: str
) -> Any:
    """Deep-copy *query* with its (single) reference to *target_name*
    retargeted at *view_name*; the original binding is preserved via an
    alias so column qualifiers keep resolving."""
    clone = copy.deepcopy(query)
    refs: List[sql_ast.NamedTable] = []
    _query_named_tables(clone, refs)
    for ref in refs:
        if ref.name.upper() == target_name.upper():
            if ref.alias is None:
                ref.alias = ref.name
            ref.name = view_name
            return clone
    raise AssertionError(f"no reference to {target_name} in scattered query")


def scatter_candidates(
    db: Any, normalized: NormalizedStatement, values: Sequence[Any]
) -> Optional[Tuple[Optional[List[str]], List[Row], Dict[int, int], int]]:
    """Run a candidate query shard-wise, pruning non-matching shards.

    The query is a compiled program's *normalized* one, bound by its
    parameter *values*.  Returns ``(columns, rows, rows_per_shard,
    shards_pruned)`` with rows in shard order, or None when the query does
    not read exactly one sharded table (caller falls back to the facade
    plan).  ``columns`` is None when every shard was pruned (no query ran
    to report a header).
    """
    query = normalized.statement
    hit = find_scatter_target(db, query)
    if hit is None:
        return None
    table, ref = hit
    binding = ref.alias or ref.name
    select = _enclosing_select(query, ref)
    conjuncts = sql_ast.conjuncts(select.where) if select is not None else []
    shard_ids = [
        shard_id
        for shard_id in range(table.partition.num_shards)
        if shard_may_match(table, shard_id, conjuncts, binding, values)
    ]
    pruned = table.partition.num_shards - len(shard_ids)
    if pruned:
        db.metrics.inc("xnf.scatter.pruned", pruned)
    db.metrics.inc("xnf.scatter.queries", len(shard_ids))
    columns: Optional[List[str]] = None
    rows: List[Row] = []
    per_shard: Dict[int, int] = {}
    for shard_id in shard_ids:
        shard_query = _rewrite_for_shard(
            query, table.name, table.shard_view_name(shard_id)
        )
        shard_normalized = NormalizedStatement(
            shard_query, list(values), normalized.n_explicit
        )
        with db.tracer.span("xnf.scatter.shard", shard=shard_id) as span:
            result = db.execute_ast(
                shard_query, normalized=shard_normalized, values=values
            )
            span.annotate(rows=len(result.rows))
        if columns is None:
            columns = result.columns
        per_shard[shard_id] = len(result.rows)
        rows.extend(result.rows)
    return columns, rows, per_shard, pruned
