"""Column-vector batches: the unit of work of the executor.

A :class:`Batch` is a fixed-capacity chunk of rows stored column-wise:
``columns[pos][i]`` is the value of column *pos* in row *i*.  An optional
*selection vector* (``sel``) lists the indices of the rows that are still
alive — filters never copy column data, they only shrink the selection.
Operators that need dense output (projections, joins) compact on demand.

The second half of this module holds the *selection kernels*: tight,
allocation-light loops used by the batch expression compiler
(:class:`~repro.relational.executor.exprs.VecExprCompiler`).  They inline
SQL's NULL-propagating comparison semantics (``sql_compare``) directly into
list comprehensions, which is where the constant-factor win over
tuple-at-a-time execution comes from — one Python-level loop per batch
instead of several closure calls per row.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TypeCheckError
from repro.relational.types import sql_in

#: Rows per batch.  Big enough to amortise per-batch dispatch, small enough
#: that a batch's columns stay cache-friendly and LIMIT does not overshoot
#: by much.
BATCH_SIZE = 1024

#: Python domains that SQL treats as mutually comparable numerics.
NUMERIC = (int, float, bool)


class Batch:
    """One column-wise chunk of rows with an optional selection vector.

    ``columns`` are dense sequences of equal length ``length``; ``sel`` is
    either ``None`` (all rows alive) or a strictly increasing list of live
    row indices.  Batches are immutable by convention: operators build new
    batches (or new selection vectors) instead of mutating columns in place.
    """

    __slots__ = ("columns", "length", "sel")

    def __init__(
        self,
        columns: Sequence[Sequence[Any]],
        length: int,
        sel: Optional[List[int]] = None,
    ):
        self.columns = columns
        self.length = length
        self.sel = sel

    @property
    def num_active(self) -> int:
        return len(self.sel) if self.sel is not None else self.length

    def active_indices(self) -> Sequence[int]:
        """The live row indices (a ``range`` when no selection exists)."""
        return self.sel if self.sel is not None else range(self.length)

    def iter_rows(self) -> Iterator[Tuple[Any, ...]]:
        """Yield the live rows as tuples (the batch→row bridge)."""
        cols = self.columns
        if self.sel is None:
            if not cols:
                empty = ()
                for _ in range(self.length):
                    yield empty
                return
            yield from zip(*cols)
            return
        if not cols:
            empty = ()
            for _ in self.sel:
                yield empty
            return
        for i in self.sel:
            yield tuple(col[i] for col in cols)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """The live rows, materialised (used by sort/join build sides)."""
        cols = self.columns
        if self.sel is None:
            if not cols:
                return [()] * self.length
            return list(zip(*cols))
        if not cols:
            return [()] * len(self.sel)
        sel = self.sel
        return list(zip(*[[col[i] for i in sel] for col in cols]))


def batch_from_rows(rows: Sequence[Tuple[Any, ...]]) -> Batch:
    """Transpose row tuples into a dense batch (C-speed via ``zip``)."""
    return Batch(list(zip(*rows)), len(rows))


def batches_from_rows(rows: Iterable[Tuple[Any, ...]]) -> Iterator[Batch]:
    """Chunk a row iterator into dense batches."""
    buffer: List[Tuple[Any, ...]] = []
    append = buffer.append
    for row in rows:
        append(row)
        if len(buffer) >= BATCH_SIZE:
            yield batch_from_rows(buffer)
            buffer = []
            append = buffer.append
    if buffer:
        yield batch_from_rows(buffer)


def gather(column: Sequence[Any], idx: Sequence[int]) -> Sequence[Any]:
    """Column values at the live indices; avoids copying when already dense."""
    if type(idx) is range and len(idx) == len(column):
        return column
    return [column[i] for i in idx]


# ---------------------------------------------------------------------------
# Selection kernels: one batch-level loop per predicate.
#
# Each kernel keeps exactly the rows on which the predicate is True — SQL's
# filter semantics (False and NULL both drop).  Domain mismatches raise
# TypeCheckError just like sql_compare, via the _domain_error slow path.
# ---------------------------------------------------------------------------


def _domain_error(value: Any, other: Any) -> bool:
    raise TypeCheckError(
        f"cannot compare {type(value).__name__} with {type(other).__name__}"
    )


def sel_cmp_const(
    column: Sequence[Any], idx: Sequence[int], op: str, constant: Any
) -> List[int]:
    """Keep indices where ``column[i] <op> constant`` is True.

    A NULL constant matches nothing (the comparison is unknown for every
    row).  The per-domain branches let the hot comparison run inline in a
    list comprehension; rows in the wrong domain take the raising slow path.
    """
    if constant is None:
        return []
    if isinstance(constant, NUMERIC):
        ok = NUMERIC
    elif isinstance(constant, str):
        ok = str  # type: ignore[assignment]
    else:
        return _domain_error(constant, constant) or []
    k = constant
    if op == "=":
        return [i for i in idx if (v := column[i]) is not None
                and (v == k if isinstance(v, ok) else _domain_error(v, k))]
    if op == "<>":
        return [i for i in idx if (v := column[i]) is not None
                and (v != k if isinstance(v, ok) else _domain_error(v, k))]
    if op == "<":
        return [i for i in idx if (v := column[i]) is not None
                and (v < k if isinstance(v, ok) else _domain_error(v, k))]
    if op == "<=":
        return [i for i in idx if (v := column[i]) is not None
                and (v <= k if isinstance(v, ok) else _domain_error(v, k))]
    if op == ">":
        return [i for i in idx if (v := column[i]) is not None
                and (v > k if isinstance(v, ok) else _domain_error(v, k))]
    if op == ">=":
        return [i for i in idx if (v := column[i]) is not None
                and (v >= k if isinstance(v, ok) else _domain_error(v, k))]
    raise TypeCheckError(f"unknown comparison operator {op!r}")


def sel_cmp_columns(
    left: Sequence[Any], right: Sequence[Any], idx: Sequence[int], op: str
) -> List[int]:
    """Keep indices where ``left[i] <op> right[i]`` is True (both columns)."""
    if op == "=":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a == b if _same_domain(a, b) else _domain_error(a, b))]
    if op == "<>":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a != b if _same_domain(a, b) else _domain_error(a, b))]
    if op == "<":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a < b if _same_domain(a, b) else _domain_error(a, b))]
    if op == "<=":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a <= b if _same_domain(a, b) else _domain_error(a, b))]
    if op == ">":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a > b if _same_domain(a, b) else _domain_error(a, b))]
    if op == ">=":
        return [i for i in idx
                if (a := left[i]) is not None and (b := right[i]) is not None
                and (a >= b if _same_domain(a, b) else _domain_error(a, b))]
    raise TypeCheckError(f"unknown comparison operator {op!r}")


def _same_domain(a: Any, b: Any) -> bool:
    if isinstance(a, NUMERIC):
        return isinstance(b, NUMERIC)
    if isinstance(a, str):
        return isinstance(b, str)
    return False


def sel_in_set(
    column: Sequence[Any], idx: Sequence[int], items: Sequence[Any], negated: bool
) -> List[int]:
    """Keep indices satisfying ``column[i] [NOT] IN items``.

    Answers and raises exactly as ``sql_in``'s left-to-right fold of
    ``sql_compare("=", value, item)``: a NULL probe is unknown (dropped);
    for NOT IN, a NULL *item* makes every non-match unknown (dropped); a
    probe whose domain no non-NULL item shares raises TypeCheckError.  When
    the non-NULL items share one domain, set membership hashes once per row
    instead of comparing once per item.
    """
    values = frozenset(v for v in items if v is not None)
    if not values:
        return []  # every item NULL: unknown for every row, nothing compared
    if all(isinstance(v, NUMERIC) for v in values):
        ok = NUMERIC
    elif all(isinstance(v, str) for v in values):
        ok = str  # type: ignore[assignment]
    else:  # mixed domains: whether a row raises depends on the item order
        want = not negated
        return [i for i in idx if sql_in(column[i], items) is want]
    first = next(v for v in items if v is not None)
    if negated:
        keep = all(v is not None for v in items)
        return [i for i in idx if (v := column[i]) is not None
                and ((keep and v not in values) if isinstance(v, ok)
                     else _domain_error(v, first))]
    return [i for i in idx if (v := column[i]) is not None
            and (v in values if isinstance(v, ok) else _domain_error(v, first))]


def sel_is_null(
    column: Sequence[Any], idx: Sequence[int], negated: bool
) -> List[int]:
    if negated:
        return [i for i in idx if column[i] is not None]
    return [i for i in idx if column[i] is None]


def sel_like_const(
    column: Sequence[Any], idx: Sequence[int], pattern: str, negated: bool
) -> List[int]:
    """LIKE against a constant pattern, regex compiled once per call."""
    import re

    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    match = re.compile(regex, flags=re.DOTALL).fullmatch
    if negated:
        return [i for i in idx if (v := column[i]) is not None
                and (match(v) is None if isinstance(v, str)
                     else _like_type_error())]
    return [i for i in idx if (v := column[i]) is not None
            and (match(v) is not None if isinstance(v, str)
                 else _like_type_error())]


def _like_type_error() -> bool:
    raise TypeCheckError("LIKE requires string operands")


def sel_from_truth(
    idx: Sequence[int], truth: Sequence[Optional[bool]]
) -> List[int]:
    """Generic fallback: keep indices whose 3VL truth value is True."""
    return [i for i, t in zip(idx, truth) if t is True]
