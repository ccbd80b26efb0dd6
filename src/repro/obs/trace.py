"""Lightweight span tracer for the statement pipeline.

A :class:`Span` records one stage of work — name, wall time, and a small
attribute dict (rows, plan-cache hit/miss, fixpoint round number, …) —
plus its child spans, forming a tree per executed statement.  The
:class:`Tracer` keeps a stack of open spans; the engine, the XNF compiler
and the executor open spans around their stages, and whatever is on top of
the stack becomes the parent of the next span.

Tracing is cheap (two ``perf_counter`` calls and a list append per span;
no per-row work) and on by default.  ``Tracer(enabled=False)`` — or
setting ``db.tracer.enabled = False`` — degrades every ``span()`` call to
a shared no-op span so the hot path pays a single attribute check.

Distributed tracing
-------------------

A statement runs on exactly one thread, so inside a process the span
stack alone carries parentage.  The one boundary a trace crosses is the
wire: a :class:`TraceContext` carries (trace id, parent span id, sampling
decision) from the client into the server worker that runs the statement:

* ``TraceContext.to_wire()`` / ``from_wire()`` serialize the context
  into protocol frames so client- and server-side trees share one
  trace id;
* ``tracer.adopt(ctx)`` installs it on the worker thread, so the next
  root span opened there becomes a local root that shares the remote
  trace id and records the remote parent's span id.

Root spans that still complete unparented on a known worker-pool thread
are counted in :attr:`Tracer.orphans` (and the ``trace.orphan_spans``
metric) — zero is the healthy steady state.

Head-based sampling: :attr:`Tracer.sample_rate` decides at root-span
creation whether the tree is recorded; unsampled roots suppress all
child spans (near-zero cost) and are dropped on completion unless they
erred or ran longer than :attr:`Tracer.slow_sample_s` (always-sample on
slow/error, annotated ``sampled=late``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

#: process-wide span id sequence (0 is reserved for the shared null span)
_SPAN_IDS = itertools.count(1)

# Span creation sits on the per-statement hot path whose overhead budget
# is gated in CI: bind the two C functions it calls as module globals so
# each span pays two LOAD_GLOBALs instead of module-attribute lookups.
_perf_counter = time.perf_counter
_get_ident = threading.get_ident

#: trace ids are (random 16-bit process tag << 32) | counter so ids minted
#: by separate processes (a WireClient and a remote server, say) do not
#: collide when their JSONL exports are merged for stitching.
_TRACE_IDS = itertools.count(1)
_TRACE_TAG = int.from_bytes(os.urandom(2), "big") << 32


def _next_trace_id() -> int:
    return _TRACE_TAG | next(_TRACE_IDS)


#: thread-name prefixes of the pools whose workers must receive an
#: explicit TraceContext handoff; a root span completing on one of these
#: without an adopted context is an orphan (checked once per root).
_WORKER_THREAD_PREFIXES = ("ThreadPoolExecutor", "xnf-wire")


class TraceContext:
    """A portable parent reference: trace id + parent span id + sampling.

    The adopting root span becomes a local root that shares the remote
    trace id.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: int, sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_wire(self) -> Dict[str, Any]:
        return {"id": self.trace_id, "span": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, payload: Any) -> Optional["TraceContext"]:
        """Tolerant decode of a frame's ``trace`` field (None on junk)."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("id")
        span_id = payload.get("span")
        if not isinstance(trace_id, int) or trace_id <= 0:
            return None
        if not isinstance(span_id, int) or span_id < 0:
            return None
        return cls(trace_id, span_id, bool(payload.get("sampled", True)))

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id}, span_id={self.span_id}, "
            f"sampled={self.sampled})"
        )


#: marker for "intentionally a fresh trace" — adopting it documents that
#: no parent exists (e.g. a wire frame without a trace field) so the
#: resulting root is *not* counted as an orphan.
FRESH_CONTEXT = TraceContext(0, 0)


class Span:
    """One timed stage with attributes and children.

    A span doubles as its own context manager (closing it pops it off the
    owning tracer's stack); the attribute dict is allocated lazily so the
    per-span cost on the traced hot path stays at two ``perf_counter``
    calls and a couple of list operations.
    """

    __slots__ = (
        "name", "_attrs", "start_s", "end_s", "_children", "_tracer",
        "span_id", "trace_id", "parent_id", "sampled", "thread_id",
    )

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self._attrs = attrs
        self.start_s = _perf_counter()
        self.end_s: Optional[float] = None
        # Child list and attribute dict are allocated lazily: most spans are
        # leaves with no attributes, and span creation sits on the per-
        # statement hot path whose overhead budget is gated in CI.
        self._children: Optional[List["Span"]] = None
        self._tracer: Optional["Tracer"] = None
        self.span_id = next(_SPAN_IDS)
        self.trace_id = 0
        #: parent span id — set only across the wire boundary; the
        #: in-stack tree carries parentage structurally.
        self.parent_id: Optional[int] = None
        self.sampled = True
        self.thread_id = _get_ident()

    @property
    def attrs(self) -> Dict[str, Any]:
        if self._attrs is None:
            self._attrs = {}
        return self._attrs

    @property
    def children(self) -> List["Span"]:
        if self._children is None:
            self._children = []
        return self._children

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else _perf_counter()
        return end - self.start_s

    def finish(self) -> "Span":
        if self.end_s is None:
            self.end_s = _perf_counter()
        return self

    def annotate(self, **attrs: Any) -> "Span":
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.annotate(error=type(exc).__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- introspection -------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self._children or ():
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All spans named *name* in this subtree, pre-order."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the span tree."""
        out: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "duration_ms": round(self.duration_s * 1e3, 4),
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.parent_id is not None:
            out["parent_span_id"] = self.parent_id
        if self._attrs:
            out["attrs"] = dict(self._attrs)
        if self._children:
            out["children"] = [child.to_dict() for child in self._children]
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def render(self, indent: int = 0) -> str:
        """Indented one-line-per-span rendering (EXPLAIN ANALYZE uses it).

        A ``detail`` attribute (the instrumented operator tree the engine
        attaches in analyze mode) is multiline: it is emitted indented
        below the span's own line instead of inline.
        """
        detail = self._attrs.get("detail") if self._attrs else None
        attrs = " ".join(
            f"{k}={v}" for k, v in (self._attrs or {}).items() if k != "detail"
        )
        line = "  " * indent + (
            f"{self.name}  {self.duration_s * 1e3:.3f} ms"
            + (f"  [{attrs}]" if attrs else "")
        )
        lines = [line]
        if detail is not None:
            pad = "  " * (indent + 1)
            lines.extend(pad + extra for extra in str(detail).splitlines())
        lines.extend(child.render(indent + 1) for child in self._children or ())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, {self.attrs})"


class _NullSpan(Span):
    """Shared do-nothing span handed out when tracing is disabled."""

    def __init__(self) -> None:
        super().__init__("<disabled>")
        self.end_s = self.start_s
        self.span_id = 0

    def annotate(self, **attrs: Any) -> "Span":
        return self

    def finish(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _ThreadSpans(threading.local):
    """One thread's span stack and trace handoff state; every field exists
    from the first read, so opening and closing a span never takes the
    missing-attribute path of a bare ``threading.local``."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        #: TraceContext adopted for root spans opened on this thread
        self.inherited: Optional[TraceContext] = None
        # thread names are fixed at pool-worker creation
        self.is_worker = threading.current_thread().name.startswith(
            _WORKER_THREAD_PREFIXES
        )
        self.exporting = False


class Tracer:
    """Stack-based span collector; one tree per top-level operation.

    The root span of the most recently finished tree is kept in
    :attr:`last_trace`; a bounded history of recent roots is in
    :attr:`recent` (newest last).
    """

    def __init__(
        self,
        enabled: bool = True,
        history: int = 16,
        sample_rate: float = 1.0,
        slow_sample_s: Optional[float] = None,
    ):
        self.enabled = enabled
        self.history = history
        #: head-based sampling probability for new roots (1.0 = trace all);
        #: adopted contexts carry their own decision instead.
        self.sample_rate = sample_rate
        #: unsampled roots slower than this are kept anyway (None = never)
        self.slow_sample_s = slow_sample_s
        # Each thread gets its own span stack so concurrent sessions build
        # independent trees instead of parenting into each other's spans.
        # last_trace/recent stay shared (guarded by _history_mutex).
        self._local = _ThreadSpans()
        self._history_mutex = threading.Lock()
        self.last_trace: Optional[Span] = None
        self.recent: List[Span] = []
        #: optional sink with an ``export(span)`` method, called once per
        #: completed *root* span (e.g. :class:`repro.obs.JsonlTraceExporter`)
        self.exporter: Optional[Any] = None
        self.export_failures = 0
        #: root spans that completed on a worker-pool thread without an
        #: adopted TraceContext — each one is a tree SYS_MONITOR cannot
        #: reach from its statement.  Healthy steady state: zero.
        self.orphans = 0
        #: roots dropped by head-based sampling (not slow, no error)
        self.sampled_out = 0
        #: optional MetricsRegistry mirror for the orphan counter
        self.metrics: Optional[Any] = None
        # deterministic sampling stream: overhead benches and tests get
        # reproducible keep/drop sequences for a given rate
        self._rng = random.Random(0x5EED)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of whatever span is currently on the stack.

        The returned span is a context manager; leaving the ``with`` block
        finishes it (annotating the exception type if one is unwinding).
        On an empty stack the new span becomes a root: it adopts the
        thread's installed :class:`TraceContext` if one is present, else
        mints a fresh trace id and takes the head-based sampling decision.
        """
        if not self.enabled:
            return NULL_SPAN
        local = self._local
        stack = local.stack
        if stack:
            if not stack[0].sampled:
                return NULL_SPAN  # unsampled tree: suppress children
            span = Span(name, attrs or None)
            span._tracer = self
            span.trace_id = stack[0].trace_id
            parent = stack[-1]
            if parent._children is None:
                parent._children = [span]
            else:
                parent._children.append(span)
            stack.append(span)
            return span
        span = Span(name, attrs or None)
        span._tracer = self
        inherited = local.inherited
        if inherited is not None and inherited.trace_id:
            span.trace_id = inherited.trace_id
            span.parent_id = inherited.span_id
            span.sampled = inherited.sampled
        else:
            span.trace_id = _next_trace_id()
            rate = self.sample_rate
            span.sampled = rate >= 1.0 or self._rng.random() < rate
        stack.append(span)
        return span

    def current(self) -> Optional[Span]:
        stack = self._local.stack
        return stack[-1] if stack else None

    def force_sample(self) -> None:
        """Late-sample the currently open tree.

        EXPLAIN ANALYZE exists to be read: if head-based sampling (or an
        adopted unsampled context) suppressed the open root, flip it so
        the subtree about to run records normally.  No-op when nothing is
        open or the root is already sampled.
        """
        stack = self._local.stack
        if stack and not stack[0].sampled:
            stack[0].sampled = True
            stack[0].annotate(sampled="late")

    def adopt(self, context: Optional[TraceContext]) -> "_Adopt":
        """Install *context* as the parent for root spans on this thread.

        ``adopt(None)`` installs :data:`FRESH_CONTEXT` — an explicit "new
        trace starts here" marker that suppresses orphan accounting (use
        it when there is genuinely no parent, e.g. a wire frame from a
        non-tracing client).
        """
        return _Adopt(self, context if context is not None else FRESH_CONTEXT)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op when idle)."""
        stack = self._local.stack
        if stack:
            stack[-1].annotate(**attrs)

    def _pop(self, span: Span) -> None:
        span.finish()
        # Tolerate a stack disturbed by an exception unwinding several
        # spans at once: pop down to (and including) the span being closed.
        local = self._local
        stack = local.stack
        while stack:
            top = stack.pop()
            top.finish()
            if top is span:
                break
        if stack:
            return
        if local.inherited is None:
            # A root finished on a pool worker with no explicit handoff:
            # SYS_MONITOR's statement->spans path cannot reach this tree.
            if local.is_worker:
                self.orphans += 1
                if self.metrics is not None:
                    self.metrics.inc("trace.orphan_spans")
        if not span.sampled:
            erred = bool(span._attrs) and "error" in span._attrs
            slow = (
                self.slow_sample_s is not None
                and span.duration_s >= self.slow_sample_s
            )
            if not (erred or slow):
                self.sampled_out += 1
                return
            span.annotate(sampled="late")
        with self._history_mutex:
            self.last_trace = span
            self.recent.append(span)
            if len(self.recent) > self.history:
                del self.recent[: len(self.recent) - self.history]
        if self.exporter is not None:
            # An exporter IO error must not fail the traced statement —
            # and a misbehaving exporter that runs statements itself must
            # not recurse into another export (non-re-entrant guard).
            if local.exporting:
                return
            local.exporting = True
            try:
                self.exporter.export(span)
            except Exception:
                self.export_failures += 1
            finally:
                local.exporting = False


class _Adopt:
    """Context manager installing/restoring a thread's inherited context."""

    __slots__ = ("_tracer", "_context", "_saved")

    def __init__(self, tracer: Tracer, context: TraceContext):
        self._tracer = tracer
        self._context = context

    def __enter__(self) -> TraceContext:
        local = self._tracer._local
        self._saved = local.inherited
        local.inherited = self._context
        return self._context

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._local.inherited = self._saved
        return False
