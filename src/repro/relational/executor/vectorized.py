"""Batch-at-a-time (vectorized) physical operators.

Each operator consumes and produces :class:`~repro.relational.executor.batch.Batch`
objects — column vectors with an optional selection vector — instead of one
tuple at a time.  The interface mirrors :class:`PlanOp` (re-iterable, explain
tree) with one addition, ``batches(env)``; ``rows(env)`` is derived from it,
so a vectorized subtree drops into any row-at-a-time consumer unchanged.

Division of labour with the row operators:

* filters evaluate a compiled *selection function* once per batch and only
  shrink the selection vector — column data is never copied;
* projections/joins compact to dense batches on output;
* anything the vector expression compiler cannot handle (subqueries, CASE,
  correlated references) stays on the row pipeline — the planner bridges the
  two worlds with :class:`RowSource`.

Labels are prefixed ``Vec`` so EXPLAIN output shows which mode a plan runs in.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.relational.executor.batch import (
    BATCH_SIZE,
    Batch,
    batch_from_rows,
    batches_from_rows,
)
from repro.relational.executor.exprs import SelFn, VecValueFn
from repro.relational.executor.operators import (
    AggSpec,
    Env,
    PlanOp,
    Row,
    RowFn,
    ValuesOp,
    _Accumulator,
)
from repro.relational.types import sort_key


def _rebatch(rows: List[Row], batch_size: int = BATCH_SIZE) -> Iterator[Batch]:
    """Chunk a materialised row list into dense batches."""
    for start in range(0, len(rows), batch_size):
        yield batch_from_rows(rows[start : start + batch_size], 0)


class VecOp(PlanOp):
    """Base class: re-iterable *batch* source.

    ``rows(env)`` flattens ``batches(env)``, so a VecOp satisfies the row
    protocol everywhere (correlated subplans, DML, the result collector).
    """

    label = "vec-plan"

    def batches(self, env: Env) -> Iterator[Batch]:
        raise NotImplementedError

    def rows(self, env: Env) -> Iterator[Row]:
        for batch in self.batches(env):
            yield from batch.iter_rows()


class RowSource(VecOp):
    """Bridge: chunks any row operator's output into batches.

    The planner inserts one wherever a vectorized operator consumes a
    row-only subtree (index scans, correlated subplans, set operations).
    """

    def __init__(self, child: PlanOp, width: int):
        self.child = child
        self.width = width
        self.label = "RowSource"

    def batches(self, env: Env) -> Iterator[Batch]:
        return batches_from_rows(self.child.rows(env), self.width)

    def rows(self, env: Env) -> Iterator[Row]:
        # A row consumer gets the child directly — no batch round-trip.
        return self.child.rows(env)

    def children(self) -> List[PlanOp]:
        return [self.child]


class VecValues(RowSource):
    """Batch form of :class:`ValuesOp`: its rows chunked into dense batches."""

    def __init__(self, values: ValuesOp, width: int):
        super().__init__(values, width)
        self.label = "Vec" + values.label

    def children(self) -> List[PlanOp]:
        return []


def as_batch_source(op: PlanOp, width: int) -> VecOp:
    """*op* itself when already vectorized, else a :class:`RowSource`."""
    if isinstance(op, VecOp):
        return op
    return RowSource(op, width)


class VecSeqScan(VecOp):
    """Full scan emitting column batches straight from heap pages.

    Skips the per-row RID allocation of the row SeqScan: pages yield plain
    row lists which are transposed page-at-a-time.  Never used for virtual
    (SYS_*) tables — their providers must be re-pulled per scan and stay on
    the row path.
    """

    def __init__(self, table):
        self.table = table
        self.label = f"VecSeqScan({table.name})"

    def batches(self, env: Env) -> Iterator[Batch]:
        width = len(self.table.columns)
        buffer: List[Row] = []
        # Table.scan_row_chunks passes clean pages through as read and
        # snapshot-resolves the rest, so vectorized scans see exactly the
        # row images the row executor would.
        for chunk in self.table.scan_row_chunks():
            buffer.extend(chunk)
            if len(buffer) >= BATCH_SIZE:
                yield batch_from_rows(buffer, width)
                buffer = []
        if buffer:
            yield batch_from_rows(buffer, width)


class VecFilter(VecOp):
    """Filter by shrinking the selection vector; columns are shared."""

    def __init__(self, child: VecOp, sel_fn: SelFn, label: str = ""):
        self.child = child
        self.sel_fn = sel_fn
        self.label = f"VecFilter({label})" if label else "VecFilter"

    def batches(self, env: Env) -> Iterator[Batch]:
        sel_fn = self.sel_fn
        for batch in self.child.batches(env):
            sel = sel_fn(batch.columns, batch.active_indices(), env)
            if sel:
                yield Batch(batch.columns, batch.length, sel)

    def children(self) -> List[PlanOp]:
        return [self.child]


class VecProject(VecOp):
    """Compute output columns per batch; output batches are dense."""

    def __init__(self, child: VecOp, vfns: Sequence[VecValueFn], label: str = ""):
        self.child = child
        self.vfns = list(vfns)
        self.label = f"VecProject({label})" if label else "VecProject"

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


class VecHashJoin(VecOp):
    """Equi-join over batches (INNER/LEFT, no residual predicate).

    Keys are extracted as whole vectors per batch; the probe loop then runs
    over pre-extracted key lists and materialised row tuples.  NULL key
    components never join, matching the row HashJoin.  Joins that carry a
    residual predicate keep the row operator (per-left-row match bookkeeping
    does not columnarise cleanly).
    """

    def __init__(
        self,
        left: VecOp,
        right: VecOp,
        left_keys: Sequence[VecValueFn],
        right_keys: Sequence[VecValueFn],
        kind: str = "INNER",
        right_width: int = 0,
    ):
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.kind = kind
        self.right_width = right_width
        self.label = f"VecHashJoin[{kind}]"

    def batches(self, env: Env) -> Iterator[Batch]:
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        single = len(self.right_keys) == 1
        for batch in self.right.batches(env):
            idx = batch.active_indices()
            if not len(idx):
                continue
            rows = batch.to_rows()
            key_vecs = [fn(batch.columns, idx, env) for fn in self.right_keys]
            if single:
                for key, row in zip(key_vecs[0], rows):
                    if key is not None:
                        setdefault(key, []).append(row)
            else:
                for pos, row in enumerate(rows):
                    key = tuple(vec[pos] for vec in key_vecs)
                    if None in key:
                        continue  # NULL never equi-joins
                    setdefault(key, []).append(row)
        get = table.get
        pad = (None,) * self.right_width
        left_join = self.kind == "LEFT"
        out: List[Row] = []
        append = out.append
        for batch in self.left.batches(env):
            idx = batch.active_indices()
            if not len(idx):
                continue
            lrows = batch.to_rows()
            key_vecs = [fn(batch.columns, idx, env) for fn in self.left_keys]
            if single:
                for key, lrow in zip(key_vecs[0], lrows):
                    matches = get(key) if key is not None else None
                    if matches:
                        for rrow in matches:
                            append(lrow + rrow)
                    elif left_join:
                        append(lrow + pad)
            else:
                for pos, lrow in enumerate(lrows):
                    key = tuple(vec[pos] for vec in key_vecs)
                    matches = get(key) if None not in key else None
                    if matches:
                        for rrow in matches:
                            append(lrow + rrow)
                    elif left_join:
                        append(lrow + pad)
            if len(out) >= BATCH_SIZE:
                yield batch_from_rows(out, 0)
                out = []
                append = out.append
        if out:
            yield batch_from_rows(out, 0)

    def children(self) -> List[PlanOp]:
        return [self.left, self.right]


class VecHashAggregate(VecOp):
    """Hash grouping with vectorized input consumption.

    Group keys and aggregate arguments are extracted as whole vectors per
    batch; the accumulation itself stays per-row (the dict lookup dominates).
    Internal rows and the ``head_fns``/``having_fns`` contract match the row
    :class:`HashAggregate` exactly — the planner compiles those finalisers
    once against the internal layout, independent of executor mode.
    """

    def __init__(
        self,
        child: VecOp,
        key_vfns: Sequence[VecValueFn],
        arg_vfns: Sequence[Optional[VecValueFn]],
        agg_specs: Sequence[AggSpec],
        head_fns: Sequence[RowFn],
        having_fns: Sequence[RowFn] = (),
        global_group: bool = False,
    ):
        self.child = child
        self.key_vfns = list(key_vfns)
        self.arg_vfns = list(arg_vfns)  # None slot = COUNT(*)
        self.agg_specs = list(agg_specs)
        self.head_fns = list(head_fns)
        self.having_fns = list(having_fns)
        self.global_group = global_group
        self.label = (
            f"VecHashAggregate(keys={len(key_vfns)}, aggs={len(agg_specs)})"
        )

    def batches(self, env: Env) -> Iterator[Batch]:
        groups: Dict[tuple, List[_Accumulator]] = {}
        order: List[tuple] = []
        specs = self.agg_specs
        key_vfns = self.key_vfns
        arg_vfns = self.arg_vfns
        for batch in self.child.batches(env):
            idx = batch.active_indices()
            count = len(idx)
            if count == 0:
                continue
            cols = batch.columns
            key_vecs = [vfn(cols, idx, env) for vfn in key_vfns]
            arg_vecs = [
                vfn(cols, idx, env) if vfn is not None else None
                for vfn in arg_vfns
            ]
            for pos in range(count):
                key = tuple(vec[pos] for vec in key_vecs)
                accs = groups.get(key)
                if accs is None:
                    accs = [_Accumulator(spec) for spec in specs]
                    groups[key] = accs
                    order.append(key)
                for acc, vec in zip(accs, arg_vecs):
                    if vec is None:
                        acc.count += 1  # COUNT(*)
                    else:
                        acc.add_value(vec[pos])
        if not groups and self.global_group:
            key = ()
            groups[key] = [_Accumulator(spec) for spec in specs]
            order.append(key)
        out: List[Row] = []
        for key in order:
            internal = key + tuple(acc.result() for acc in groups[key])
            if any(fn(internal, env) is not True for fn in self.having_fns):
                continue
            out.append(tuple(fn(internal, env) for fn in self.head_fns))
            if len(out) >= BATCH_SIZE:
                yield batch_from_rows(out, 0)
                out = []
        if out:
            yield batch_from_rows(out, 0)

    def children(self) -> List[PlanOp]:
        return [self.child]


class VecSort(VecOp):
    """Materialise, sort with the shared ``sort_key`` order, re-batch.

    Sorting is a pipeline breaker either way; the vectorized variant only
    saves the per-row generator hops on input and output.  Key functions are
    row closures — they run once per row once at the breaker, so vectorizing
    them buys nothing.
    """

    def __init__(
        self, child: VecOp, key_fns: Sequence[RowFn], ascending: Sequence[bool]
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.ascending = list(ascending)
        self.label = "VecSort"

    def batches(self, env: Env) -> Iterator[Batch]:
        data: List[Row] = []
        for batch in self.child.batches(env):
            data.extend(batch.to_rows())
        for key_fn, asc in reversed(list(zip(self.key_fns, self.ascending))):
            data.sort(key=lambda row: sort_key(key_fn(row, env)), reverse=not asc)
        return _rebatch(data)

    def children(self) -> List[PlanOp]:
        return [self.child]


class VecLimit(VecOp):
    """OFFSET/LIMIT by slicing selection vectors — no data movement."""

    def __init__(self, child: VecOp, limit: Optional[int], offset: Optional[int]):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.label = f"VecLimit({limit}, offset={offset or 0})"

    def batches(self, env: Env) -> Iterator[Batch]:
        to_skip = self.offset
        remaining = self.limit
        for batch in self.child.batches(env):
            idx = batch.active_indices()
            count = len(idx)
            if count == 0:
                continue
            if to_skip:
                if count <= to_skip:
                    to_skip -= count
                    continue
                idx = list(idx)[to_skip:]
                count = len(idx)
                to_skip = 0
            if remaining is not None:
                if remaining <= 0:
                    return
                if count > remaining:
                    idx = list(idx)[:remaining]
                    count = remaining
                remaining -= count
            yield Batch(batch.columns, batch.length, list(idx))

    def children(self) -> List[PlanOp]:
        return [self.child]


class VecDistinct(VecOp):
    """First-occurrence de-duplication, selecting survivors per batch."""

    def __init__(self, child: VecOp):
        self.child = child
        self.label = "VecDistinct"

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
