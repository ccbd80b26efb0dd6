"""Physical plan operators: one batch-at-a-time family.

Every operator produces :class:`~repro.relational.executor.batch.Batch`
objects — column vectors with an optional selection vector — from
``batches(env)``; ``rows(env)`` flattens them for the consumers that want
tuples (correlated subplans, nested-loop inner sides, set operations).

Every operator is *re-iterable*: ``batches(env)`` starts a fresh run, so
the same plan object can serve as a correlated subplan executed once per
outer row (with a different environment each time).  Operators hold only
compiled closures and child operators — never per-run state.

Operators hold compiled kernels and selection functions
(:mod:`~repro.relational.executor.exprs`) and run each once per batch.
Filters only shrink the selection vector — column data is never copied;
projections and joins compact to dense batches on output.  A join's
residual selects from a batch of candidate rows (outer row + inner row),
``HAVING`` and the aggregate head run over a batch of group rows, and a
sort computes its key columns once before it orders row positions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, TypeCheckError
from repro.relational.executor.batch import (
    BATCH_SIZE,
    NUMERIC,
    Batch,
    batch_from_rows,
    batches_from_rows,
)
from repro.relational.executor.exprs import SelFn, VecValueFn, constant_value
from repro.relational.types import sort_key

Row = Tuple[Any, ...]
Env = List[Dict]


class PlanOp:
    """Base class: re-iterable batch source with an explain tree."""

    label = "plan"

    def batches(self, env: Env) -> Iterable[Batch]:
        raise NotImplementedError

    def rows(self, env: Env) -> Iterator[Row]:
        for batch in self.batches(env):
            yield from batch.iter_rows()

    def children(self) -> List["PlanOp"]:
        return []

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def _rebatch(rows: Sequence[Row]) -> Iterator[Batch]:
    """Chunk a materialised row list into dense batches."""
    for start in range(0, len(rows), BATCH_SIZE):
        yield batch_from_rows(rows[start : start + BATCH_SIZE])


def _join_keys(key_fns: Sequence[VecValueFn], batch: Batch, env: Env) -> Sequence[Any]:
    """One hash key per live row of *batch*; None where a component is NULL
    (NULL never equi-joins)."""
    cols, idx = batch.columns, batch.active_indices()
    vecs = [fn(cols, idx, env) for fn in key_fns]
    if len(vecs) == 1:
        return vecs[0]
    return [None if None in key else key for key in zip(*vecs)]


def _join_rows(
    left_rows: Sequence[Row],
    matches: Sequence[Sequence[Row]],
    residual: Optional[SelFn],
    pad: Optional[Row],
    env: Env,
) -> List[Row]:
    """Each left row joined with its candidate right rows, in order: the
    candidates *residual* selects (all of them without one), evaluated over
    one batch of combined rows.  With *pad* (a LEFT join) a left row none
    of whose candidates survives is padded instead."""
    combined = [lrow + rrow for lrow, rrows in zip(left_rows, matches) for rrow in rrows]
    if residual is None and pad is None:
        return combined
    keep: Sequence[int] = range(len(combined))
    if residual is not None and combined:
        keep = residual(batch_from_rows(combined).columns, keep, env)
    if pad is None:
        return [combined[pos] for pos in keep]
    out: List[Row] = []
    taken = end = 0
    for lrow, rrows in zip(left_rows, matches):
        end += len(rrows)
        start = len(out)
        while taken < len(keep) and keep[taken] < end:
            out.append(combined[keep[taken]])
            taken += 1
        if len(out) == start:
            out.append(lrow + pad)
    return out


def _key_matches(positions: Sequence[int]) -> Callable[[Row, Row], bool]:
    """Re-verify an equality probe's key on a snapshot-resolved image."""

    def verify(row: Row, key: Row) -> bool:
        return tuple(row[p] for p in positions) == key

    return verify


class SeqScan(PlanOp):
    """Full scan emitting column batches straight from heap pages.

    Pages yield plain row lists (``Table.scan_row_chunks`` passes clean
    pages through as read and snapshot-resolves the rest), transposed
    batch-at-a-time.  With *emit_rid* the RID is column 0 — DML's
    row-finding plans.  A SYS_* virtual table's provider is re-pulled on
    every ``batches()`` call, so a cached plan reads the live registry.
    """

    def __init__(self, table, emit_rid: bool = False):
        self.table = table
        self.emit_rid = emit_rid
        self.label = f"SeqScan({table.name})"

    def batches(self, env: Env) -> Iterator[Batch]:
        if self.emit_rid:
            yield from batches_from_rows((rid,) + row for rid, row in self.table.scan())
            return
        buffer: List[Row] = []
        for chunk in self.table.scan_row_chunks():
            buffer.extend(chunk)
            if len(buffer) >= BATCH_SIZE:
                yield batch_from_rows(buffer)
                buffer = []
        if buffer:
            yield batch_from_rows(buffer)


class IndexEqScan(PlanOp):
    """Equality lookup via an index, one batch per probe; the key kernels
    are constants (they may depend only on env)."""

    def __init__(self, table, index, key_fns: Sequence[VecValueFn], emit_rid: bool = False):
        self.table = table
        self.index = index
        self.key_fns = list(key_fns)
        self.emit_rid = emit_rid
        self._verify = _key_matches(index.column_positions)
        self.label = f"IndexEqScan({table.name}.{index.name})"

    def batches(self, env: Env) -> Iterable[Batch]:
        key = tuple([constant_value(fn, env) for fn in self.key_fns])
        if None in key:
            return ()
        rows = self.table.probe(self.index.search(key), self._verify, key, self.emit_rid)
        return (batch_from_rows(rows),) if rows else ()


class IndexRangeScan(PlanOp):
    """Range scan over a B+-tree index (single-column bounds), one batch
    per probe."""

    def __init__(
        self,
        table,
        index,
        low_fn: Optional[VecValueFn],
        high_fn: Optional[VecValueFn],
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

    def batches(self, env: Env) -> Iterable[Batch]:
        low = high = None
        if self.low_fn is not None:
            value = constant_value(self.low_fn, env)
            if value is None:
                return ()
            low = (value,)
        if self.high_fn is not None:
            value = constant_value(self.high_fn, env)
            if value is None:
                return ()
            high = (value,)
        rids = [
            rid
            for _, rid in self.index.range_scan(
                low, high, self.low_inclusive, self.high_inclusive
            )
        ]
        rows = self.table.probe(rids, self._in_bounds, (low, high), self.emit_rid)
        return (batch_from_rows(rows),) if rows else ()

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

    def batches(self, env: Env) -> Iterator[Batch]:
        if self.param is None:
            return _rebatch(self._rows)
        return _rebatch(self.context.params[self.param])


class Filter(PlanOp):
    """Filter by shrinking the selection vector; columns are shared."""

    def __init__(self, child: PlanOp, sel_fn: SelFn, label: str = ""):
        self.child = child
        self.sel_fn = sel_fn
        self.label = f"Filter({label})" if label else "Filter"

    def batches(self, env: Env) -> Iterator[Batch]:
        sel_fn = self.sel_fn
        for batch in self.child.batches(env):
            sel = sel_fn(batch.columns, batch.active_indices(), env)
            if sel:
                yield Batch(batch.columns, batch.length, sel)

    def children(self) -> List[PlanOp]:
        return [self.child]


class Project(PlanOp):
    """Compute output columns per batch; output batches are dense."""

    def __init__(self, child: PlanOp, vfns: Sequence[VecValueFn], label: str = ""):
        self.child = child
        self.vfns = list(vfns)
        self.label = f"Project({label})" if label else "Project"

    def batches(self, env: Env) -> Iterator[Batch]:
        vfns = self.vfns
        for batch in self.child.batches(env):
            idx = batch.active_indices()
            count = len(idx)
            if count == 0:
                continue
            cols = batch.columns
            yield Batch([vfn(cols, idx, env) for vfn in vfns], count)

    def children(self) -> List[PlanOp]:
        return [self.child]


class NestedLoopJoin(PlanOp):
    """Tuple nested-loop join; the inner side is materialised per run.

    The predicate selects from batches of candidate rows, each a run of
    whole outer rows times the inner side."""

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        predicate: Optional[SelFn],
        kind: str = "INNER",
        right_width: int = 0,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kind = kind
        self.right_width = right_width
        self.label = f"NestedLoopJoin[{kind}]"

    def batches(self, env: Env) -> Iterator[Batch]:
        inner = list(self.right.rows(env))
        pad = (None,) * self.right_width if self.kind == "LEFT" else None
        step = max(1, BATCH_SIZE // max(1, len(inner)))
        out: List[Row] = []
        for batch in self.left.batches(env):
            left_rows = batch.to_rows()
            for start in range(0, len(left_rows), step):
                chunk = left_rows[start : start + step]
                out.extend(_join_rows(chunk, [inner] * len(chunk), self.predicate, pad, env))
                if len(out) >= BATCH_SIZE:
                    yield batch_from_rows(out)
                    out = []
        if out:
            yield batch_from_rows(out)

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class HashJoin(PlanOp):
    """Equi-join; builds a hash table on the right input per run.

    Keys are extracted as whole vectors per batch.  NULL key components
    never join.  The optional *residual* selects from each outer batch's
    candidate rows; a LEFT join pads a left row none of whose key matches
    pass it.
    """

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        left_keys: Sequence[VecValueFn],
        right_keys: Sequence[VecValueFn],
        residual: Optional[SelFn] = None,
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

    def batches(self, env: Env) -> Iterator[Batch]:
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        for batch in self.right.batches(env):
            for key, row in zip(_join_keys(self.right_keys, batch, env), batch.to_rows()):
                if key is not None:
                    setdefault(key, []).append(row)
        get = table.get
        pad = (None,) * self.right_width if self.kind == "LEFT" else None
        out: List[Row] = []
        for batch in self.left.batches(env):
            # a NULL key is never in the table
            matches = [get(key, ()) for key in _join_keys(self.left_keys, batch, env)]
            out.extend(_join_rows(batch.to_rows(), matches, self.residual, pad, env))
            if len(out) >= BATCH_SIZE:
                yield batch_from_rows(out)
                out = []
        if out:
            yield batch_from_rows(out)

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class IndexNLJoin(PlanOp):
    """Index nested-loop join: per outer batch, one probe of an inner-table
    index with the batch's distinct keys; each outer row then joins its
    key's inner rows, in RID order."""

    def __init__(
        self,
        left: PlanOp,
        table,
        index,
        key_fn: VecValueFn,
        residual: Optional[SelFn] = None,
        kind: str = "INNER",
        right_width: int = 0,
        inner_filter: Optional[SelFn] = None,
        inner_filter_text: str = "",
    ):
        """*inner_filter* selects from the fetched inner rows before they
        are joined: the inner quantifier's single-table predicates, which
        the probe bypasses by reading the base table."""
        self.left = left
        self.table = table
        self.index = index
        self.key_fn = key_fn
        self.residual = residual
        self.kind = kind
        self.right_width = right_width
        self.inner_filter = inner_filter
        self._verify = _key_matches(index.column_positions)
        self.label = f"IndexNLJoin[{kind}]({table.name}.{index.name})"
        if inner_filter is not None:
            self.label += f" filter {inner_filter_text}"

    def _inner_rows(self, values: Sequence[Any], env: Env) -> Dict[Any, List[Row]]:
        """Each distinct non-NULL key of *values* -> its filtered inner rows
        (keys that compare equal, such as 1 and 1.0, share one entry)."""
        distinct = list(dict.fromkeys(value for value in values if value is not None))
        if not distinct:
            return {}
        keys = [(value,) for value in distinct]
        found = self.table.probe_many(keys, self.index.search_many(keys), self._verify)
        if self.inner_filter is not None:
            flat = [row for rows in found for row in rows]
            kept = [False] * len(flat)
            if flat:
                for pos in self.inner_filter(batch_from_rows(flat).columns, range(len(flat)), env):
                    kept[pos] = True
            flags = iter(kept)
            found = [[row for row in rows if next(flags)] for rows in found]
        return dict(zip(distinct, found))

    def batches(self, env: Env) -> Iterator[Batch]:
        pad = (None,) * self.right_width if self.kind == "LEFT" else None
        out: List[Row] = []
        for batch in self.left.batches(env):
            values = _join_keys([self.key_fn], batch, env)
            inner = self._inner_rows(values, env)
            matches = [() if value is None else inner[value] for value in values]
            out.extend(_join_rows(batch.to_rows(), matches, self.residual, pad, env))
            if len(out) >= BATCH_SIZE:
                yield batch_from_rows(out)
                out = []
        if out:
            yield batch_from_rows(out)

    def children(self) -> List[PlanOp]:
        return [self.left]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class AggSpec:
    """One aggregate to compute: kind, argument vector, DISTINCT flag."""

    def __init__(self, kind: str, arg: Optional[VecValueFn], distinct: bool = False):
        self.kind = kind
        self.arg = arg  # None for COUNT(*)
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

    def add_value(self, value: Any) -> None:
        """Accumulate one evaluated argument (COUNT(*) bumps ``count``)."""
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        kind = self.spec.kind
        if kind in ("SUM", "AVG"):
            # ``+`` concatenates strings, as the engine's ``+`` does
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
            if not isinstance(self.total, NUMERIC):
                raise TypeCheckError(
                    f"AVG requires numeric values, got {type(self.total).__name__}"
                )
            return self.total / self.count
        if kind == "MIN":
            return self.minimum
        if kind == "MAX":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {kind}")


class HashAggregate(PlanOp):
    """Hash grouping over batches.

    Group keys and aggregate arguments are extracted as whole vectors per
    batch; the accumulation itself stays per row (the dict lookup
    dominates).  Group rows have layout ``group_keys + aggregate_results``;
    the ``having_fns`` (selection functions) and ``head_fns`` (kernels)
    run over batches of them, compiled by the planner against that layout
    (via the expression compiler's *precomputed* map).
    """

    def __init__(
        self,
        child: PlanOp,
        key_fns: Sequence[VecValueFn],
        agg_specs: Sequence[AggSpec],
        head_fns: Sequence[VecValueFn],
        having_fns: Sequence[SelFn] = (),
        global_group: bool = False,
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.agg_specs = list(agg_specs)
        self.head_fns = list(head_fns)
        self.having_fns = list(having_fns)
        self.global_group = global_group
        self.label = f"HashAggregate(keys={len(key_fns)}, aggs={len(agg_specs)})"

    def batches(self, env: Env) -> List[Batch]:
        groups: Dict[tuple, List[_Accumulator]] = {}
        specs = self.agg_specs
        for batch in self.child.batches(env):
            idx = batch.active_indices()
            count = len(idx)
            if count == 0:
                continue
            cols = batch.columns
            keys = list(zip(*[fn(cols, idx, env) for fn in self.key_fns])) or [()] * count
            arg_vecs = [
                spec.arg(cols, idx, env) if spec.arg is not None else None
                for spec in specs
            ]
            for pos, key in enumerate(keys):
                accs = groups.get(key)
                if accs is None:
                    accs = groups[key] = [_Accumulator(spec) for spec in specs]
                for acc, vec in zip(accs, arg_vecs):
                    if vec is None:
                        acc.count += 1  # COUNT(*)
                    else:
                        acc.add_value(vec[pos])
        if not groups and self.global_group:
            groups[()] = [_Accumulator(spec) for spec in specs]
        group_rows = [key + tuple(acc.result() for acc in accs) for key, accs in groups.items()]
        out: List[Batch] = []
        for batch in _rebatch(group_rows):
            cols, idx = batch.columns, batch.active_indices()
            for having in self.having_fns:
                idx = having(cols, idx, env)
            if idx:
                out.append(Batch([fn(cols, idx, env) for fn in self.head_fns], len(idx)))
        return out

    def children(self) -> List[PlanOp]:
        return [self.child]


# ---------------------------------------------------------------------------
# Ordering, limiting, duplicate handling, set operations
# ---------------------------------------------------------------------------


class Sort(PlanOp):
    """Materialise, sort with the shared ``sort_key`` order, re-batch.

    The key kernels run once per input batch; the sort then orders row
    positions by those key columns, stably, one key at a time from the
    last to the first.
    """

    def __init__(
        self, child: PlanOp, key_fns: Sequence[VecValueFn], ascending: Sequence[bool]
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.ascending = list(ascending)
        self.label = "Sort"

    def batches(self, env: Env) -> Iterator[Batch]:
        data: List[Row] = []
        key_cols: List[List[Any]] = [[] for _ in self.key_fns]
        for batch in self.child.batches(env):
            cols, idx = batch.columns, batch.active_indices()
            for key_col, key_fn in zip(key_cols, self.key_fns):
                key_col.extend(key_fn(cols, idx, env))
            data.extend(batch.to_rows())
        order = list(range(len(data)))
        for key_col, asc in reversed(list(zip(key_cols, self.ascending))):
            keys = [sort_key(value) for value in key_col]
            order.sort(key=keys.__getitem__, reverse=not asc)
        return _rebatch([data[pos] for pos in order])

    def children(self) -> List[PlanOp]:
        return [self.child]


class Limit(PlanOp):
    """OFFSET/LIMIT by slicing selection vectors — no data movement."""

    def __init__(self, child: PlanOp, limit: Optional[int], offset: Optional[int]):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.label = f"Limit({limit}, offset={offset or 0})"

    def batches(self, env: Env) -> Iterator[Batch]:
        to_skip = self.offset
        remaining = self.limit
        if remaining is not None and remaining <= 0:
            return
        for batch in self.child.batches(env):
            idx = batch.active_indices()
            count = len(idx)
            start = min(to_skip, count)
            to_skip -= start
            stop = count if remaining is None else min(count, start + remaining)
            if remaining is not None:
                remaining -= stop - start
            if stop == count and start == 0:
                yield batch
            elif stop > start:
                yield Batch(batch.columns, batch.length, list(idx[start:stop]))
            if remaining == 0:
                return

    def children(self) -> List[PlanOp]:
        return [self.child]


class Distinct(PlanOp):
    """First-occurrence de-duplication, selecting survivors per batch."""

    def __init__(self, child: PlanOp):
        self.child = child
        self.label = "Distinct"

    def batches(self, env: Env) -> Iterator[Batch]:
        seen: set = set()
        add = seen.add
        for batch in self.child.batches(env):
            # to_rows() transposes at C speed; the zip keeps row tuples
            # aligned with their live indices for the surviving selection.
            sel = [
                i
                for i, row in zip(batch.active_indices(), batch.to_rows())
                if row not in seen and add(row) is None
            ]
            if sel:
                yield Batch(batch.columns, batch.length, sel)

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

    def batches(self, env: Env) -> Iterator[Batch]:
        if self.op == "UNION" and self.all:
            yield from self.left.batches(env)
            yield from self.right.batches(env)
            return
        yield from batches_from_rows(self._combined_rows(env))

    def _combined_rows(self, env: Env) -> Iterator[Row]:
        if self.op == "UNION":
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
