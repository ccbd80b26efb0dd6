"""Measurement core: set-up repeats, timed blocks, the statistics the
metrics are made of, and the separate per-layer (traced) pass.

End-to-end metrics always come from runs with the recorder off.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf.spans import Patches, Recorder, render_waterfall, waterfall
from perf.workloads import WORKLOADS, Failure, Sample, Workload

#: a timed window is split into this many blocks; a metric is the median
#: of its block values, and its spread is (max - min) / median across them
BLOCKS = 3
#: set-up runs at least this many times per run (``setup_s`` is the
#: median), and up to SETUP_REPEATS_MAX while it has used less than
#: SETUP_BUDGET_S: short set-ups jitter most and cost least to repeat
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_BUDGET_S = 4.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: (name, unit, better, bound) - what BENCHMARK.json declares
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: layers whose self time the traced pass reports as ``<layer>_ms``
LAYERS = (
    "xnf.lang", "xnf.views", "xnf.semantic_rewrite", "xnf.sharding",
    "xnf.cache_load", "xnf.nav", "xnf.manipulate",
    "relational.sql", "relational.plancache", "relational.qgm",
    "relational.rewrite", "relational.optimizer", "relational.executor",
    "relational.storage", "relational.txn", "relational.engine",
    "client.codec", "wire.roundtrip", "perf.op",
)
#: per-op deltas of the program's own counters
COUNTS = (
    "xnf.rounds", "xnf.queries", "xnf.temp_tables", "xnf.scatter_queries",
    "xnf.scatter_pruned", "xnf.navigations", "xnf.manipulate_statements",
    "plancache.misses", "engine.statements",
    "storage.buffer_hits", "storage.buffer_misses", "storage.evictions",
    "storage.disk_reads", "storage.disk_writes",
    "txn.wal_flushes", "txn.wal_bytes", "txn.retries",
    "wire.frames", "wire.bytes",
)
PHASES = (
    "traverse", "lookup", "path", "take", "walk", "update", "checkin",
    "point", "scan", "write",
)
#: (name, unit, better) - what BENCHMARK.json declares
PER_LAYER = (
    tuple((f"{layer}_ms", "ms", "lower") for layer in LAYERS)
    + tuple((name, "count", "lower") for name in COUNTS)
    + tuple((f"phase.{phase}_ms", "ms", "lower") for phase in PHASES)
    + (
        ("plancache.hit_rate", "ratio", "higher"),
        ("xnf.load_items_s", "1/s", "higher"),
        ("xnf.nav_visit_us", "us", "lower"),
        ("wire.ping_ms", "ms", "lower"),
        ("wire.scan_codec_ms", "ms", "lower"),
        ("server.embedded_ms", "ms", "lower"),
        ("wire.dispatch_ms", "ms", "lower"),
        ("obs.overhead_pct", "%", "lower"),
        ("trace.op_p50_ms", "ms", "lower"),
        ("trace.replay_gap", "ratio", "lower"),
    )
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def select_tail_percentile(samples: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest ladder percentile with at least *beyond* samples past
    it; the median when even that is not supported."""
    supported = [
        pct for pct in TAIL_LADDER
        if round(samples * (100.0 - pct) / 100.0, 6) >= beyond
    ]
    return max(supported, default=TAIL_LADDER[0])


def median_of_blocks(values: Sequence[float]) -> Tuple[float, float]:
    """(median, spread) of per-block values; spread = (max - min) / median."""
    middle = statistics.median(values)
    spread = (max(values) - min(values)) / middle if middle else 0.0
    return middle, spread


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the wire.mix server), in MB.  Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# the untraced run
# ---------------------------------------------------------------------------

Block = Tuple[List[Sample], List[Failure], float]


def run_setups(workload: Workload, quick: bool = False) -> List[float]:
    """Set up repeatedly, tearing down in between; the last one stays."""
    times: List[float] = []
    while True:
        begin = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - begin)
        enough = len(times) >= SETUP_REPEATS and (
            len(times) >= SETUP_REPEATS_MAX or sum(times) >= SETUP_BUDGET_S
        )
        if quick or enough:
            break
        workload.teardown()
        gc.collect()
    workload.verify_setup()
    return times


def run_blocks(workload: Workload, seconds: float) -> List[Block]:
    gc.collect()
    return [workload.run_block(seconds / BLOCKS) for _ in range(BLOCKS)]


def end_to_end(
    workload: Workload, setups: Sequence[float], blocks: Sequence[Block]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(metrics, spreads) by end-to-end metric name."""
    totals = [[sum(sample) for sample in samples] for samples, _f, _b in blocks]
    measured = [(block, busy) for block, (_s, _f, busy) in zip(totals, blocks) if block]
    if not measured:
        raise RuntimeError(f"{workload.name}: no op completed in the timed window")
    everything = sorted(value for block, _busy in measured for value in block)
    supported = select_tail_percentile(len(everything))
    if supported < workload.tail_pct:
        print(
            f"note: {len(everything)} samples support p{supported:g} at most; "
            f"tail_ms is still p{workload.tail_pct:g}",
            file=sys.stderr,
        )
    p50, p50_spread = median_of_blocks(
        [statistics.median(block) * 1e3 for block, _busy in measured]
    )
    rate, rate_spread = median_of_blocks(
        [len(block) / busy for block, busy in measured]
    )
    setup, setup_spread = median_of_blocks(list(setups))
    # tail_ms does not repeat within its bound from run to run on any
    # workload (see README), so it is a printed diagnostic, not a metric
    print(
        f"diagnostic {workload.name} tail_ms: p{workload.tail_pct:g} = "
        f"{percentile(everything, workload.tail_pct) * 1e3:.4f} ms "
        f"over {len(everything)} samples",
        file=sys.stderr,
    )
    metrics = {"setup_s": setup, "ops_s": rate, "op_p50_ms": p50}
    spreads = {"setup_s": setup_spread, "ops_s": rate_spread, "op_p50_ms": p50_spread}
    return metrics, spreads


# ---------------------------------------------------------------------------
# the per-layer pass
# ---------------------------------------------------------------------------


def phase_medians(workload: Workload, samples: Sequence[Sample]) -> Dict[str, float]:
    return {
        f"phase.{phase}_ms": statistics.median(s[index] for s in samples) * 1e3
        for index, phase in enumerate(workload.phases)
    }


def obs_overhead_pct(
    workload: Workload, seconds: float
) -> Tuple[float, int, List[Failure]]:
    """Op p50 with the program's own tracing on vs off, as % of off, from
    alternating (off on on off off on) slices of the same op sequence.
    Returns (overhead, ops attempted, failures)."""
    failures: List[Failure] = []
    attempted = 0
    medians: Dict[bool, List[float]] = {False: [], True: []}
    try:
        for enabled in (False, True, True, False, False, True):
            if not workload.set_obs(enabled):
                return 0.0, attempted, failures
            samples, failed, _busy = workload.run_block(seconds / 6)
            attempted += len(samples) + len(failed)
            failures.extend(failed)
            if samples:
                medians[enabled].append(statistics.median(sum(s) for s in samples))
    finally:
        workload.set_obs(True)
    if not medians[False] or not medians[True]:
        return 0.0, attempted, failures
    off = statistics.median(medians[False])
    overhead = (statistics.median(medians[True]) - off) / off * 100.0
    return overhead, attempted, failures


def per_layer(
    workload: Workload, seconds: float
) -> Tuple[Dict[str, float], int, List[Failure], str]:
    """(metrics, ops attempted, failures, rendered waterfall)."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    failures: List[Failure] = []
    attempted = 0

    recorder = workload.rec
    patches = Patches(recorder)

    def traced_block(seconds: float, min_ops: int, stream: str) -> int:
        workload.instrument(patches)
        recorder.enabled = True
        try:
            samples, failed, _busy = workload.run_block(seconds, min_ops, stream)
        finally:
            recorder.enabled = False
            patches.restore()
        failures.extend(failed)
        return len(samples) + len(failed)

    # traced, first: exact per-op counts need the state set-up left behind
    # and a fixed op sequence, not whatever a timed segment got through
    before = workload.counters()
    n_counted = traced_block(0.0, workload.count_ops, "count")
    after = workload.counters()

    # untraced: the base the replay is compared with, and the phase medians
    base, failed, _busy = workload.run_block(seconds * 0.3)
    attempted += len(base) + len(failed)
    failures.extend(failed)
    if not base:
        raise RuntimeError(f"{workload.name}: no op completed before the traced pass")
    base_p50_ms = statistics.median(sum(s) for s in base) * 1e3
    values.update(phase_medians(workload, base))
    values["trace.op_p50_ms"] = base_p50_ms

    # traced: the spans the waterfall is made of
    n_traced = n_counted + traced_block(seconds * 0.4, 1, "run")
    attempted += n_traced

    delta = {key: (after[key] - before[key]) / n_counted for key in after}
    for name in COUNTS:
        values[name] = delta.get(name, 0.0)
    lookups = delta.get("plancache.hits", 0.0) + delta.get("plancache.misses", 0.0)
    if lookups:
        values["plancache.hit_rate"] = delta["plancache.hits"] / lookups

    rows, beside = waterfall(recorder.spans, n_traced)
    layer_ms = {row["layer"]: row["self_ms_per_op"] for row in rows}
    for layer in LAYERS:
        values[f"{layer}_ms"] = layer_ms.get(layer, 0.0)
    if values["xnf.cache_load_ms"] and delta.get("xnf.loaded_items"):
        values["xnf.load_items_s"] = (
            delta["xnf.loaded_items"] / values["xnf.cache_load_ms"] * 1e3
        )
    if delta.get("xnf.visits"):
        values["xnf.nav_visit_us"] = values["phase.traverse_ms"] * 1e3 / delta["xnf.visits"]
    replayed_ms = sum(ms for layer, ms in layer_ms.items() if layer != "perf.op")
    values["trace.replay_gap"] = abs(replayed_ms - base_p50_ms) / base_p50_ms

    workload.measure_floor()
    values.update(workload.extras)
    if values["server.embedded_ms"]:
        values["wire.dispatch_ms"] = (
            values["wire.roundtrip_ms"] - values["server.embedded_ms"]
        )

    values["obs.overhead_pct"], ops, failed = obs_overhead_pct(workload, seconds * 0.3)
    attempted += ops
    failures.extend(failed)

    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_jsonl(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
    text = (
        f"{workload.name}: {n_traced} traced ops, untraced p50 {base_p50_ms:.3f} ms, "
        f"replay_gap {values['trace.replay_gap'] * 100:.1f}%\n" + render_waterfall(rows)
    )
    if beside:
        text += f"\n  (beside the op's thread: {beside:.4f} ms/op in worker-thread spans)"
    return values, attempted, failures, text


# ---------------------------------------------------------------------------
# one workload, one process
# ---------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the contract's result
    object (and prints spreads, failures and the waterfall to stderr)."""
    workload = WORKLOADS[name](seed, Recorder())
    workload.prepare()
    failures: List[Failure] = []
    spreads: Dict[str, float] = {}
    report: Optional[str] = None
    try:
        setups = run_setups(workload, quick)
        if trace:
            values, attempted, failures, report = per_layer(workload, seconds)
            units = {n: unit for n, unit, _better in PER_LAYER}
        else:
            blocks = run_blocks(workload, seconds)
            attempted = sum(len(s) + len(f) for s, f, _busy in blocks)
            failures = [failure for _s, failed, _busy in blocks for failure in failed]
            values, spreads = end_to_end(workload, setups, blocks)
            units = {n: unit for n, unit, _better, _bound in END_TO_END}
    finally:
        workload.teardown()
    if not trace:
        # after teardown, so the wire.mix server child has been reaped
        values["peak_rss_mb"] = peak_rss_mb()
    for metric, spread in spreads.items():
        across = "set-ups" if metric == "setup_s" else f"{BLOCKS} blocks"
        print(f"spread {name} {metric}: {spread * 100:.1f}% across {across}",
              file=sys.stderr)
    for op_id, message in failures[:20]:
        print(f"FAILED {name} op {op_id}: {message}", file=sys.stderr)
    if report:
        print(report, file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
            if metric in units
        },
    }
