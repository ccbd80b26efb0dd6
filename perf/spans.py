"""The benchmark's own span recorder, and the patches that place spans
around the calls into each layer of ``src/`` without editing it.

A span is a list ``[name, start, end, parent, op, thread]``: *parent* is
the enclosing span's record (or None), *op* the id of the benchmark op
that caused it.  Spans stay in memory and are written out once, at exit.
A layer's self time is its span minus the interval its children cover.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, OP, THREAD = range(6)
Span = List[Any]


_NO_SPAN = contextlib.nullcontext()


class _OpenSpan:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "Recorder", name: str, op: Optional[str]):
        self.recorder = recorder
        self.record: Span = [name, 0.0, 0.0, None, op, 0]

    def __enter__(self) -> Span:
        self.recorder.begin(self.record)
        return self.record

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.end(self.record)


class Recorder:
    """In-memory span recorder; ``enabled=False`` makes ``span()`` free."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.ident = threading.get_ident()
        return stack

    def begin(self, record: Span) -> None:
        """Open *record* under the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            record[PARENT] = parent
            record[OP] = parent[OP]
        record[THREAD] = self._local.ident
        stack.append(record)
        self.spans.append(record)
        record[START] = time.perf_counter()

    def end(self, record: Span) -> None:
        record[END] = time.perf_counter()
        stack = self._local.stack
        # Iterator spans can close out of order; pop by identity.
        if stack[-1] is record:
            stack.pop()
        elif record in stack:
            stack.remove(record)

    def span(self, name: str, op: Optional[str] = None):
        if not self.enabled:
            return _NO_SPAN
        return _OpenSpan(self, name, op)

    def write_jsonl(self, path: str) -> None:
        ids = {id(record): index for index, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                parent = record[PARENT]
                out.write(json.dumps({
                    "id": index,
                    "name": record[NAME],
                    "start": record[START],
                    "end": record[END],
                    "parent": None if parent is None else ids[id(parent)],
                    "op": record[OP],
                    "thread": record[THREAD],
                }) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of *intervals*, clipped to ``[low, high]``."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start = max(start, edge)
        end = min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of each span: duration minus what its children cover
    (children may nest, overlap each other, or stick out of the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[id(record[PARENT])].append((record[START], record[END]))
    return [
        (record[END] - record[START])
        - covered(children.get(id(record), ()), record[START], record[END])
        for record in spans
    ]


def waterfall(spans: List[Span], n_ops: int) -> Tuple[List[Dict[str, Any]], float]:
    """Per-layer rows (calls, self ms/op, share) over the spans that hang
    under an op span, and the ms/op of the rest: spans opened on other
    threads (scatter workers) have no op and stay out of the rows, since
    they run beside the op's thread, not in it."""
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    beside = 0.0
    for record, own in zip(spans, self_times(spans)):
        if record[OP] is None:
            beside += own
            continue
        calls[record[NAME]] += 1
        total[record[NAME]] += own
    grand = sum(total.values()) or 1.0
    rows = [
        {
            "layer": name,
            "calls": calls[name],
            "self_ms_per_op": total[name] * 1e3 / max(n_ops, 1),
            "share": total[name] / grand,
        }
        for name in total
    ]
    rows.sort(key=lambda row: -row["self_ms_per_op"])
    return rows, beside * 1e3 / max(n_ops, 1)


def render_waterfall(rows: List[Dict[str, Any]]) -> str:
    lines = [f"  {'layer':30s} {'calls':>8s} {'self ms/op':>12s} {'share':>7s}"]
    for row in rows:
        lines.append(
            f"  {row['layer']:30s} {row['calls']:8d} "
            f"{row['self_ms_per_op']:12.4f} {row['share'] * 100:6.1f}%"
        )
    return "\n".join(lines)


class Patches:
    """Wrap public callables of ``src/`` in spans, from outside.

    ``wrap(owner, attr, layer)`` replaces ``owner.attr`` (module function,
    class method or bound method of one instance) with a version that runs
    inside a span named *layer*; ``restore()`` undoes every patch.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    def _install(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        missing = object()
        raw = vars(owner).get(attr, missing)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(getattr(owner, attr))
        setattr(owner, attr, replacement)
        if raw is missing:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, raw))

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        recorder = self.recorder

        def make(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack = recorder._stack()
                # a call that stays inside its layer (Database.execute ->
                # execute_ast) needs no span of its own
                if not recorder.enabled or (stack and stack[-1][NAME] == layer):
                    return fn(*args, **kwargs)
                record: Span = [layer, 0.0, 0.0, None, None, 0]
                recorder.begin(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.end(record)

            return traced

        self._install(owner, attr, make)

    def wrap_iter(self, owner: Any, attr: str, layer: str) -> None:
        """For callables returning an iterator: the span runs from the
        first ``next()`` to exhaustion, where the work actually happens."""
        recorder = self.recorder

        def make(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
                with recorder.span(layer):
                    yield from fn(*args, **kwargs)

            return traced

        self._install(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
