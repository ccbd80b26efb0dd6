"""Operator-level instrumentation behind EXPLAIN ANALYZE.

:func:`instrument_plan` walks a compiled plan's operator tree and shadows
each operator instance's ``batches`` method with a counting/timing wrapper.
Because the engine compiles EXPLAIN ANALYZE plans *outside* the plan cache
(instrumented operators must never leak into cached, shared plans), the
instance-level shadowing is safe: the instrumented tree is executed once,
rendered, and discarded.  ``rows`` is defined over ``batches``, so
consumption through the row interface is counted too — exactly once.

Recorded per operator:

* ``rows_out`` — live rows the operator produced (over all invocations; a
  correlated subplan runs once per outer row and the counts accumulate);
* ``loops``   — number of times the operator was (re-)opened;
* ``time_s``  — cumulative wall time spent *inside* the operator and its
  subtree (inclusive, like PostgreSQL's ``actual time``);
* ``batches`` — the number of column batches produced.

``rows in`` for the renderer is simply the children's ``rows_out``.  An
operator the planner annotated with ``est_rows`` (an access path or a join)
also shows that estimate as ``est=``, beside the actual ``rows=``, as
PostgreSQL's ``EXPLAIN ANALYZE`` does.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.relational.executor.operators import PlanOp


class OpStats:
    """Execution counters of one plan operator instance."""

    __slots__ = ("op", "rows_out", "loops", "time_s", "batches")

    def __init__(self, op: PlanOp):
        self.op = op
        self.rows_out = 0
        self.loops = 0
        self.time_s = 0.0
        self.batches = 0


def instrument_plan(root: PlanOp) -> Dict[int, OpStats]:
    """Shadow every operator's ``batches`` with a counting wrapper.

    Returns ``{id(op): OpStats}`` for the renderer.  The wrapper times
    each ``next()`` of the underlying iterator, so an operator's time is
    inclusive of its children (which are themselves wrapped — their time
    is the inner share).
    """
    stats: Dict[int, OpStats] = {}

    def wrap(op: PlanOp) -> None:
        if id(op) in stats:
            return
        st = stats[id(op)] = OpStats(op)
        # the default binds the original method before it is shadowed
        def counted_batches(env, _inner=op.batches, _st=st):
            _st.loops += 1
            begin = time.perf_counter()
            iterator = iter(_inner(env))
            _st.time_s += time.perf_counter() - begin
            while True:
                begin = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    _st.time_s += time.perf_counter() - begin
                    return
                _st.time_s += time.perf_counter() - begin
                _st.batches += 1
                _st.rows_out += batch.num_active
                yield batch

        op.batches = counted_batches  # type: ignore[method-assign]
        for child in op.children():
            wrap(child)

    wrap(root)
    return stats


def render_analyzed(root: PlanOp, stats: Dict[int, OpStats], indent: int = 0) -> str:
    """The plan tree annotated with actual row counts and times."""
    st = stats.get(id(root))
    if st is None:
        annotation = "  (not executed)"
    else:
        rows_in = sum(
            stats[id(child)].rows_out
            for child in root.children()
            if id(child) in stats
        )
        parts = [f"rows={st.rows_out}"]
        est = getattr(root, "est_rows", None)
        if est is not None:
            parts.append(f"est={est:.0f}")
        if root.children():
            parts.append(f"rows_in={rows_in}")
        parts.append(f"loops={st.loops}")
        parts.append(f"time={st.time_s * 1e3:.3f}ms")
        if st.batches:
            parts.append(f"batches={st.batches}")
            parts.append(f"fill={st.rows_out / st.batches:.1f}")
        annotation = "  (" + ", ".join(parts) + ")"
    lines = ["  " * indent + root.label + annotation]
    lines.extend(
        render_analyzed(child, stats, indent + 1) for child in root.children()
    )
    return "\n".join(lines)
