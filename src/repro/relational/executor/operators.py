"""Physical plan operators.

Every operator is *re-iterable*: ``rows(env)`` starts a fresh scan, so the
same plan object can serve as a correlated subplan executed once per outer
row (with a different environment each time).  Operators hold only compiled
closures and child operators — never per-run state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.types import sort_key

Row = Tuple[Any, ...]
Env = List[Dict]
RowFn = Callable[[Row, Env], Any]


class PlanOp:
    """Base class: re-iterable row source with an explain tree."""

    label = "plan"

    def rows(self, env: Env) -> Iterator[Row]:
        raise NotImplementedError

    def children(self) -> List["PlanOp"]:
        return []

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def _key_matches(positions: Sequence[int]) -> Callable[[Row, Row], bool]:
    """Re-verify an equality probe's key on a snapshot-resolved image."""

    def verify(row: Row, key: Row) -> bool:
        return tuple(row[p] for p in positions) == key

    return verify


class SeqScan(PlanOp):
    """Full scan of a base table; optionally emits the RID as column 0."""

    def __init__(self, table, emit_rid: bool = False):
        self.table = table
        self.emit_rid = emit_rid
        self.label = f"SeqScan({table.name})"

    def rows(self, env: Env) -> Iterator[Row]:
        if self.emit_rid:
            for rid, row in self.table.scan():
                yield (rid,) + row
        else:
            for _, row in self.table.scan():
                yield row


class IndexEqScan(PlanOp):
    """Equality lookup via an index; key values may depend only on env."""

    def __init__(self, table, index, key_fns: Sequence[RowFn], emit_rid: bool = False):
        self.table = table
        self.index = index
        self.key_fns = list(key_fns)
        self.emit_rid = emit_rid
        self._verify = _key_matches(index.column_positions)
        self.label = f"IndexEqScan({table.name}.{index.name})"

    def rows(self, env: Env) -> Iterator[Row]:
        key = tuple(fn((), env) for fn in self.key_fns)
        if any(component is None for component in key):
            return
        yield from self.table.probe(
            self.index.search(key), self._verify, key, self.emit_rid
        )


class IndexRangeScan(PlanOp):
    """Range scan over a B+-tree index (single-column bounds)."""

    def __init__(
        self,
        table,
        index,
        low_fn: Optional[RowFn],
        high_fn: Optional[RowFn],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        emit_rid: bool = False,
    ):
        self.table = table
        self.index = index
        self.low_fn = low_fn
        self.high_fn = high_fn
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.emit_rid = emit_rid
        self.label = f"IndexRangeScan({table.name}.{index.name})"

    def rows(self, env: Env) -> Iterator[Row]:
        low = high = None
        if self.low_fn is not None:
            value = self.low_fn((), env)
            if value is None:
                return
            low = (value,)
        if self.high_fn is not None:
            value = self.high_fn((), env)
            if value is None:
                return
            high = (value,)
        rids = [
            rid
            for _, rid in self.index.range_scan(
                low, high, self.low_inclusive, self.high_inclusive
            )
        ]
        yield from self.table.probe(rids, self._in_bounds, (low, high), self.emit_rid)

    def _in_bounds(self, row: Row, bounds) -> bool:
        """Re-verify the range predicate on a snapshot-resolved image."""
        low, high = bounds
        value = row[self.index.column_positions[0]]
        if value is None:
            return False
        key = sort_key(value)
        if low is not None:
            lo = sort_key(low[0])
            if key < lo or (key == lo and not self.low_inclusive):
                return False
        if high is not None:
            hi = sort_key(high[0])
            if key > hi or (key == hi and not self.high_inclusive):
                return False
        return True


class ValuesOp(PlanOp):
    """Constant row source, or the relation bound to parameter slot
    *param* of *context* when the plan is cached and re-bound per run."""

    def __init__(self, rows_: Sequence[Row], param: Optional[int] = None, context=None):
        self._rows = rows_ if param is None else ()
        self.param = param
        self.context = context
        self.label = f"Values({len(rows_)} rows)" if param is None else f"Values(?{param})"

    def rows(self, env: Env) -> Iterator[Row]:
        if self.param is None:
            return iter(self._rows)
        return iter(self.context.params[self.param])


class Filter(PlanOp):
    def __init__(self, child: PlanOp, predicate: RowFn, label: str = ""):
        self.child = child
        self.predicate = predicate
        self.label = f"Filter({label})" if label else "Filter"

    def rows(self, env: Env) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.rows(env):
            if predicate(row, env) is True:
                yield row

    def children(self) -> List[PlanOp]:
        return [self.child]


class Project(PlanOp):
    def __init__(self, child: PlanOp, exprs: Sequence[RowFn], label: str = ""):
        self.child = child
        self.exprs = list(exprs)
        self.label = f"Project({label})" if label else "Project"

    def rows(self, env: Env) -> Iterator[Row]:
        exprs = self.exprs
        for row in self.child.rows(env):
            yield tuple(fn(row, env) for fn in exprs)

    def children(self) -> List[PlanOp]:
        return [self.child]


class NestedLoopJoin(PlanOp):
    """Tuple nested-loop join; the inner side is materialised per run."""

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        predicate: Optional[RowFn],
        kind: str = "INNER",
        right_width: int = 0,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kind = kind
        self.right_width = right_width
        self.label = f"NestedLoopJoin[{kind}]"

    def rows(self, env: Env) -> Iterator[Row]:
        inner = list(self.right.rows(env))
        predicate = self.predicate
        pad = (None,) * self.right_width
        for left_row in self.left.rows(env):
            matched = False
            for right_row in inner:
                combined = left_row + right_row
                if predicate is None or predicate(combined, env) is True:
                    matched = True
                    yield combined
            if not matched and self.kind == "LEFT":
                yield left_row + pad

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class HashJoin(PlanOp):
    """Equi-join; builds a hash table on the right input per run."""

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        left_keys: Sequence[RowFn],
        right_keys: Sequence[RowFn],
        residual: Optional[RowFn] = None,
        kind: str = "INNER",
        right_width: int = 0,
    ):
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.kind = kind
        self.right_width = right_width
        self.label = f"HashJoin[{kind}]"

    def rows(self, env: Env) -> Iterator[Row]:
        table: Dict[Tuple, List[Row]] = {}
        for right_row in self.right.rows(env):
            key = tuple(fn(right_row, env) for fn in self.right_keys)
            if any(component is None for component in key):
                continue  # NULL never equi-joins
            table.setdefault(key, []).append(right_row)
        residual = self.residual
        pad = (None,) * self.right_width
        for left_row in self.left.rows(env):
            key = tuple(fn(left_row, env) for fn in self.left_keys)
            matched = False
            if not any(component is None for component in key):
                for right_row in table.get(key, ()):  # type: ignore[arg-type]
                    combined = left_row + right_row
                    if residual is None or residual(combined, env) is True:
                        matched = True
                        yield combined
            if not matched and self.kind == "LEFT":
                yield left_row + pad

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class IndexNLJoin(PlanOp):
    """Index nested-loop join: per outer row, probe an inner-table index."""

    def __init__(
        self,
        left: PlanOp,
        table,
        index,
        key_fns: Sequence[RowFn],
        residual: Optional[RowFn] = None,
        kind: str = "INNER",
        right_width: int = 0,
    ):
        self.left = left
        self.table = table
        self.index = index
        self.key_fns = list(key_fns)
        self.residual = residual
        self.kind = kind
        self.right_width = right_width
        self._verify = _key_matches(index.column_positions)
        self.label = f"IndexNLJoin[{kind}]({table.name}.{index.name})"

    def rows(self, env: Env) -> Iterator[Row]:
        residual = self.residual
        pad = (None,) * self.right_width
        probe, search, verify = self.table.probe, self.index.search, self._verify
        for left_row in self.left.rows(env):
            key = tuple(fn(left_row, env) for fn in self.key_fns)
            matched = False
            if not any(component is None for component in key):
                for row in probe(search(key), verify, key):
                    combined = left_row + row
                    if residual is None or residual(combined, env) is True:
                        matched = True
                        yield combined
            if not matched and self.kind == "LEFT":
                yield left_row + pad

    def children(self) -> List[PlanOp]:
        return [self.left]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class AggSpec:
    """One aggregate to compute: kind, argument, DISTINCT flag."""

    def __init__(self, kind: str, arg_fn: Optional[RowFn], distinct: bool = False):
        self.kind = kind
        self.arg_fn = arg_fn  # None for COUNT(*)
        self.distinct = distinct


class _Accumulator:
    __slots__ = ("spec", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: Optional[set] = set() if spec.distinct else None

    def add(self, row: Row, env: Env) -> None:
        spec = self.spec
        if spec.arg_fn is None:  # COUNT(*)
            self.count += 1
            return
        value = spec.arg_fn(row, env)
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if spec.kind in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif spec.kind == "MIN":
            if self.minimum is None or sort_key(value) < sort_key(self.minimum):
                self.minimum = value
        elif spec.kind == "MAX":
            if self.maximum is None or sort_key(value) > sort_key(self.maximum):
                self.maximum = value

    def add_value(self, value: Any) -> None:
        """Accumulate an already-evaluated argument (the vectorized path:
        the batch aggregate extracts argument vectors and feeds values
        directly, skipping the per-row closure call)."""
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        kind = self.spec.kind
        if kind in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif kind == "MIN":
            if self.minimum is None or sort_key(value) < sort_key(self.minimum):
                self.minimum = value
        elif kind == "MAX":
            if self.maximum is None or sort_key(value) > sort_key(self.maximum):
                self.maximum = value

    def result(self) -> Any:
        kind = self.spec.kind
        if kind == "COUNT":
            return self.count
        if kind == "SUM":
            return self.total
        if kind == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        if kind == "MIN":
            return self.minimum
        if kind == "MAX":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {kind}")


class HashAggregate(PlanOp):
    """Hash grouping.

    Internal rows have layout ``group_keys + aggregate_results``; the final
    ``head_fns`` and ``having_fns`` are compiled against that layout by the
    planner (via the expression compiler's *precomputed* map).
    """

    def __init__(
        self,
        child: PlanOp,
        key_fns: Sequence[RowFn],
        agg_specs: Sequence[AggSpec],
        head_fns: Sequence[RowFn],
        having_fns: Sequence[RowFn] = (),
        global_group: bool = False,
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.agg_specs = list(agg_specs)
        self.head_fns = list(head_fns)
        self.having_fns = list(having_fns)
        self.global_group = global_group
        self.label = f"HashAggregate(keys={len(key_fns)}, aggs={len(agg_specs)})"

    def rows(self, env: Env) -> Iterator[Row]:
        groups: Dict[Tuple, List[_Accumulator]] = {}
        order: List[Tuple] = []
        for row in self.child.rows(env):
            key = tuple(fn(row, env) for fn in self.key_fns)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(spec) for spec in self.agg_specs]
                groups[key] = accs
                order.append(key)
            for acc in accs:
                acc.add(row, env)
        if not groups and self.global_group:
            key = ()
            groups[key] = [_Accumulator(spec) for spec in self.agg_specs]
            order.append(key)
        for key in order:
            internal = key + tuple(acc.result() for acc in groups[key])
            if any(fn(internal, env) is not True for fn in self.having_fns):
                continue
            yield tuple(fn(internal, env) for fn in self.head_fns)

    def children(self) -> List[PlanOp]:
        return [self.child]


# ---------------------------------------------------------------------------
# Ordering, limiting, duplicate handling, set operations
# ---------------------------------------------------------------------------


class Sort(PlanOp):
    def __init__(self, child: PlanOp, key_fns: Sequence[RowFn], ascending: Sequence[bool]):
        self.child = child
        self.key_fns = list(key_fns)
        self.ascending = list(ascending)
        self.label = "Sort"

    def rows(self, env: Env) -> Iterator[Row]:
        data = list(self.child.rows(env))
        # Stable multi-key sort: apply keys right-to-left.
        for key_fn, asc in reversed(list(zip(self.key_fns, self.ascending))):
            data.sort(key=lambda row: sort_key(key_fn(row, env)), reverse=not asc)
        return iter(data)

    def children(self) -> List[PlanOp]:
        return [self.child]


class Limit(PlanOp):
    def __init__(self, child: PlanOp, limit: Optional[int], offset: Optional[int]):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.label = f"Limit({limit}, offset={offset or 0})"

    def rows(self, env: Env) -> Iterator[Row]:
        produced = 0
        skipped = 0
        for row in self.child.rows(env):
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

    def children(self) -> List[PlanOp]:
        return [self.child]


class Distinct(PlanOp):
    def __init__(self, child: PlanOp):
        self.child = child
        self.label = "Distinct"

    def rows(self, env: Env) -> Iterator[Row]:
        seen = set()
        for row in self.child.rows(env):
            if row not in seen:
                seen.add(row)
                yield row

    def children(self) -> List[PlanOp]:
        return [self.child]


class SetOp(PlanOp):
    """UNION / INTERSECT / EXCEPT with SQL bag semantics for ALL variants."""

    def __init__(self, op: str, all: bool, left: PlanOp, right: PlanOp):
        self.op = op
        self.all = all
        self.left = left
        self.right = right
        self.label = f"{op}{' ALL' if all else ''}"

    def rows(self, env: Env) -> Iterator[Row]:
        if self.op == "UNION":
            if self.all:
                yield from self.left.rows(env)
                yield from self.right.rows(env)
                return
            seen = set()
            for source in (self.left, self.right):
                for row in source.rows(env):
                    if row not in seen:
                        seen.add(row)
                        yield row
            return
        right_counts: Dict[Row, int] = {}
        for row in self.right.rows(env):
            right_counts[row] = right_counts.get(row, 0) + 1
        if self.op == "INTERSECT":
            emitted: Dict[Row, int] = {}
            for row in self.left.rows(env):
                available = right_counts.get(row, 0)
                used = emitted.get(row, 0)
                if self.all:
                    if used < available:
                        emitted[row] = used + 1
                        yield row
                else:
                    if available and not used:
                        emitted[row] = 1
                        yield row
            return
        if self.op == "EXCEPT":
            if self.all:
                consumed: Dict[Row, int] = {}
                for row in self.left.rows(env):
                    used = consumed.get(row, 0)
                    if used < right_counts.get(row, 0):
                        consumed[row] = used + 1
                        continue
                    yield row
            else:
                emitted_set = set()
                for row in self.left.rows(env):
                    if row in right_counts or row in emitted_set:
                        continue
                    emitted_set.add(row)
                    yield row
            return
        raise ExecutionError(f"unknown set operation {self.op}")

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class Materialize(PlanOp):
    """Caches child rows — keyed by nothing, so only safe for env-independent
    children (the planner inserts it under uncorrelated reuse points, e.g.
    the XNF common-subexpression node)."""

    def __init__(self, child: PlanOp):
        self.child = child
        self._cache: Optional[List[Row]] = None
        self.label = "Materialize"

    def rows(self, env: Env) -> Iterator[Row]:
        if self._cache is None:
            self._cache = list(self.child.rows(env))
        return iter(self._cache)

    def invalidate(self) -> None:
        self._cache = None

    def children(self) -> List[PlanOp]:
        return [self.child]
