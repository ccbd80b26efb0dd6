"""Per-statement profiles: a structured time breakdown of one trace tree.

:func:`build_profile` walks a completed root span (typically the wire
server's ``wire.<op>`` span, or the engine's ``statement`` span) and
aggregates it into a small JSON-ready dict:

* ``stages`` — the statement pipeline (parse, build_qgm, rewrite,
  optimize, execute) in milliseconds, plus the batch count when an
  instrumented (EXPLAIN ANALYZE) execution recorded one.  The compile
  stages are spans; execute is the ``execute_ms`` attribute of each
  ``sql.<kind>`` statement span (a bare ``execute`` span counts too);
* ``scatter`` — per-shard durations of the XNF scatter/gather stage,
  keyed by shard id, with a ``skew`` ratio (slowest shard over mean)
  exposing stragglers;
* ``queue_wait_ms`` / ``retry_wait_ms`` / ``lock_conflicts`` — the
  server-side admission/queue wait before the statement ran, time slept
  in transparent IO/serialization retries, and no-wait lock conflicts
  hit while it ran (passed in by the caller; spans cannot see them).

The wire server builds one per dispatched frame (``PROFILE`` op), the
REPL renders it via ``\\profile``, and :func:`render_profile` gives the
human-readable form.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .trace import Span

#: statement-pipeline span names rolled up into the ``stages`` breakdown
PIPELINE_STAGES = ("parse", "build_qgm", "rewrite", "optimize", "execute")


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 4)


def build_profile(
    root: Optional[Span],
    queue_wait_s: Optional[float] = None,
    retry_wait_s: Optional[float] = None,
    lock_conflicts: Optional[int] = None,
) -> Optional[Dict[str, Any]]:
    """Aggregate *root*'s tree into a per-statement profile dict."""
    if root is None or root.span_id == 0:  # missing or NULL_SPAN
        return None
    stages: Dict[str, float] = {}
    scatter: Dict[int, float] = {}
    batches = 0
    rounds = 0
    rows: Optional[int] = None
    error: Optional[str] = None
    for span in root.walk():
        dur = span.duration_s
        name = span.name
        if name in PIPELINE_STAGES:
            stages[name] = stages.get(name, 0.0) + dur
        elif name == "xnf.scatter.shard":
            shard = span._attrs.get("shard", -1) if span._attrs else -1
            scatter[shard] = scatter.get(shard, 0.0) + dur
        elif name == "xnf.fixpoint.round":
            rounds += 1
        attrs = span._attrs
        if attrs:
            if "execute_ms" in attrs:
                stages["execute"] = stages.get("execute", 0.0) + attrs["execute_ms"] / 1e3
            batches += attrs.get("batches") or 0
            if error is None and "error" in attrs:
                error = str(attrs["error"])
    if root._attrs:
        rows = root._attrs.get("rows")
    profile: Dict[str, Any] = {
        "op": root.name,
        "trace_id": root.trace_id,
        "span_id": root.span_id,
        "sampled": bool(root.sampled),
        "total_ms": _ms(root.duration_s),
        "stages": {name: _ms(s) for name, s in stages.items()},
    }
    if queue_wait_s is not None:
        profile["queue_wait_ms"] = _ms(queue_wait_s)
    if retry_wait_s:
        profile["retry_wait_ms"] = _ms(retry_wait_s)
    if lock_conflicts:
        profile["lock_conflicts"] = lock_conflicts
    if batches:
        profile["execute_batches"] = batches
    if rounds:
        profile["fixpoint_rounds"] = rounds
    if rows is not None:
        profile["rows"] = rows
    if error is not None:
        profile["error"] = error
    if scatter:
        mean = sum(scatter.values()) / len(scatter)
        profile["scatter"] = {
            "shards": {shard: _ms(s) for shard, s in sorted(scatter.items())},
            "skew": round(max(scatter.values()) / mean, 3) if mean > 0 else 1.0,
        }
    return profile


def render_profile(profile: Optional[Dict[str, Any]]) -> str:
    """Human-readable rendering of :func:`build_profile` output."""
    if not profile:
        return "no profile recorded (run a statement first)"
    lines: List[str] = [
        f"{profile.get('op', '?')}  trace_id={profile.get('trace_id', 0)}  "
        f"total {profile.get('total_ms', 0.0):.3f} ms"
    ]
    if "queue_wait_ms" in profile:
        lines.append(f"  queue wait   {profile['queue_wait_ms']:9.3f} ms")
    for stage in PIPELINE_STAGES:
        stage_ms = profile.get("stages", {}).get(stage)
        if stage_ms is not None:
            lines.append(f"  {stage:<12} {stage_ms:9.3f} ms")
    if "execute_batches" in profile:
        lines.append(f"  batches      {profile['execute_batches']:9d}")
    if "retry_wait_ms" in profile:
        lines.append(f"  retry wait   {profile['retry_wait_ms']:9.3f} ms")
    if "lock_conflicts" in profile:
        lines.append(f"  lock conflicts {profile['lock_conflicts']:7d}")
    if "fixpoint_rounds" in profile:
        lines.append(f"  fixpoint rounds {profile['fixpoint_rounds']:6d}")
    scatter = profile.get("scatter")
    if scatter:
        lines.append(f"  scatter (skew {scatter.get('skew', 1.0):.2f}x):")
        for shard, shard_ms in scatter.get("shards", {}).items():
            lines.append(f"    shard {shard}: {shard_ms:9.3f} ms")
    if "rows" in profile:
        lines.append(f"  rows         {profile['rows']:9d}")
    if "error" in profile:
        lines.append(f"  error        {profile['error']}")
    if not profile.get("sampled", True):
        lines.append("  (unsampled: child spans suppressed)")
    return "\n".join(lines)
