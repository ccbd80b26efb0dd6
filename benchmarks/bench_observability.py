"""Observability cost ledger: SYS-table scan cost and tracing overhead.

Three numbers guard the "observability is near-free" claim (ISSUE 5
satellite f; ISSUE 10 extends it end to end), written to
``BENCH_observability.json`` for ``benchmarks/check_regression.py``:

* ``sys_scan_ms`` — median wall time of the acceptance query
  (``SELECT … FROM SYS_STAT_STATEMENTS ORDER BY mean_ms DESC``) plus a
  two-way SYS join, over a registry warmed with a few hundred statements.
* ``tracing_overhead`` — relative cost of running a cached, pre-parsed
  SELECT with tracing + statement stats ON vs. OFF.  Trials pair the two
  configurations with alternating order (traced-first, then
  untraced-first — ABBA) so CPU-frequency and cache-warmth drift cancels
  instead of systematically favouring whichever side runs second; the
  ledger records the best of three block **medians** of per-pair ratios.
  The CI gate budget is 5% (``TRACING_OVERHEAD_BUDGET``).
* ``server_tracing_overhead`` — the same ABBA ratio across the wire: a
  tracing client (TraceContext injected into every frame) against a real
  loopback server adopting it, opening the ``wire.<op>`` span and
  building the per-statement profile, vs. both tracers off.  Budget 10%
  (``REMOTE_TRACING_OVERHEAD_BUDGET``).

The run also writes ``BENCH_trace_spans.jsonl`` (a short non-timed
stanza): client- and server-side JSONL trace records of the same
statements, stitchable on ``trace_id`` — uploaded as a CI artifact.
"""

import gc
import json
import pathlib
import statistics
import time

import pytest

from benchmarks.conftest import report
from repro.client.client import WireClient
from repro.obs.export import JsonlTraceExporter
from repro.relational.engine import Database
from repro.relational.sql.parser import parse_statements
from repro.server.server import ServerThread

LEDGER_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_observability.json"
TRACE_SPANS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_trace_spans.jsonl"
)

_RESULTS = {}

ACCEPTANCE_SQL = (
    "SELECT fingerprint, calls, mean_ms FROM SYS_STAT_STATEMENTS "
    "ORDER BY mean_ms DESC"
)
JOIN_SQL = (
    "SELECT s.fingerprint, sp.name, sp.duration_ms "
    "FROM SYS_STAT_STATEMENTS s "
    "JOIN SYS_TRACE_SPANS sp ON s.fingerprint = sp.fingerprint"
)


def _warmed_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.execute("BEGIN")
    for i in range(300):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 7})")
    db.execute("COMMIT")
    db.execute("ANALYZE")
    for i in range(200):
        db.execute(f"SELECT * FROM t WHERE b = {i % 7}")
    return db


def test_sys_scan_cost(benchmark):
    db = _warmed_db()

    def scan():
        rows = db.execute(ACCEPTANCE_SQL).rows
        rows += db.execute(JOIN_SQL).rows
        return len(rows)

    assert scan() > 0
    samples = []
    for _ in range(15):
        begin = time.perf_counter()
        scan()
        samples.append((time.perf_counter() - begin) * 1e3)
    sys_scan_ms = round(statistics.median(samples), 3)
    _RESULTS["sys_scan_ms"] = sys_scan_ms
    report("observability", f"SYS scan (acceptance + join): {sys_scan_ms:.3f} ms")
    benchmark(scan)


def test_tracing_overhead(benchmark):
    """Traced/untraced cost ratio over a representative statement mix.

    The mix (point query, aggregate, self-join) weights per-statement
    tracing cost the way a real workload would; every statement is
    pre-parsed and plan-cached so the ratio isolates the per-execution
    tracing + statement-stats work.
    """
    db = _warmed_db()
    mix = [
        parse_statements("SELECT * FROM t WHERE b = 3")[0]
    ] * 6 + [
        parse_statements("SELECT b, count(*), sum(a) FROM t GROUP BY b")[0]
    ] * 2 + [
        parse_statements(
            "SELECT x.a, y.a FROM t x JOIN t y ON x.a = y.a WHERE x.b = 1"
        )[0]
    ]
    for statement in mix:
        db.execute_ast(statement)  # warm the plan cache for both configs

    def batch(n=50):
        for _ in range(n):
            for statement in mix:
                db.execute_ast(statement)

    def configure(enabled: bool):
        db.tracer.enabled = enabled
        db.statement_stats.enabled = enabled

    def timed(enabled: bool) -> float:
        configure(enabled)
        begin = time.perf_counter()
        batch()
        return time.perf_counter() - begin

    # warm-up both configurations before measuring
    for enabled in (True, False):
        configure(enabled)
        batch()

    overhead, block_estimates, all_ratios = _abba_overhead(timed, blocks=5)
    configure(True)
    _RESULTS["tracing_overhead"] = overhead
    _RESULTS["tracing_block_medians"] = [round(b, 4) for b in block_estimates]
    _RESULTS["tracing_pair_ratios"] = [round(r, 4) for r in all_ratios]
    report(
        "observability",
        f"tracing+stats overhead: {overhead:+.2%} "
        f"(best of 5 block medians, 10 paired batches each)",
    )
    benchmark(lambda: batch(2))


def _abba_overhead(timed, blocks: int = 3, pairs: int = 10):
    """Best-of-blocks median of paired ``timed(True)/timed(False)`` ratios.

    The true overhead is a few µs per ~150µs statement; scheduler and
    allocator noise in CI easily exceeds it per batch.  Estimate per
    block as the median of paired (traced/untraced) ratios — pairs
    alternate which configuration runs first, so warm-up drift inside a
    pair cancels over the block instead of biasing the ratio — then take
    the best of the independent blocks: noise only ever inflates a
    block, so the minimum is the tightest *stable* estimate.
    """
    block_estimates = []
    all_ratios = []
    gc.disable()  # a collection landing in one batch would skew its ratio
    try:
        for _ in range(blocks):
            # collect at the block boundary: with the collector disabled,
            # cyclic garbage from earlier blocks' traced batches would
            # otherwise pile up and slow later blocks' allocations —
            # systematically inflating the traced side of the ratio.
            gc.collect()
            ratios = []
            for pair in range(pairs):
                if pair % 2 == 0:
                    traced = timed(True)
                    untraced = timed(False)
                else:
                    untraced = timed(False)
                    traced = timed(True)
                ratios.append(traced / untraced - 1.0)
            block_estimates.append(statistics.median(ratios))
            all_ratios.extend(ratios)
    finally:
        gc.enable()
    return round(min(block_estimates), 4), block_estimates, all_ratios


def test_server_tracing_overhead(benchmark):
    """Distributed-tracing cost across the wire (ISSUE 10 budget: 10%).

    Traced = client injects a TraceContext into every frame AND the
    server adopts it, opens the ``wire.<op>`` span, and builds the
    per-statement profile.  Untraced = both tracers off (the frames then
    carry no trace field at all) — so the ratio prices the whole
    end-to-end tracing path, not just one side.
    """
    db = _warmed_db()
    with ServerThread(db, max_connections=8) as server:
        with WireClient(port=server.port, tracing=True) as client:

            def batch(n=12):
                for _ in range(n):
                    client.execute("SELECT * FROM t WHERE b = 3")
                    client.execute(
                        "SELECT b, count(*), sum(a) FROM t GROUP BY b"
                    )

            def configure(enabled: bool):
                db.tracer.enabled = enabled
                client.tracer.enabled = enabled

            def timed(enabled: bool) -> float:
                configure(enabled)
                begin = time.perf_counter()
                batch()
                return time.perf_counter() - begin

            for enabled in (True, False):
                configure(enabled)
                batch()
            overhead, block_estimates, _ = _abba_overhead(timed, pairs=6)
            configure(True)

            # Non-timed stanza: write the stitched client/server trace
            # JSONL that CI uploads as an artifact.  Both sides append to
            # the same file; records join on trace_id.
            TRACE_SPANS_PATH.unlink(missing_ok=True)
            server_log = JsonlTraceExporter(str(TRACE_SPANS_PATH))
            client_log = JsonlTraceExporter(str(TRACE_SPANS_PATH))
            db.tracer.exporter = server_log
            client.tracer.exporter = client_log
            batch(3)
            db.tracer.exporter = None
            client.tracer.exporter = None
            server_log.close()
            client_log.close()

            benchmark(lambda: batch(2))
    _RESULTS["server_tracing_overhead"] = overhead
    _RESULTS["server_tracing_block_medians"] = [
        round(b, 4) for b in block_estimates
    ]
    report(
        "observability",
        f"server tracing overhead: {overhead:+.2%} "
        f"(best of 3 block medians, 6 paired wire batches each)",
    )


@pytest.fixture(scope="module", autouse=True)
def observability_ledger():
    yield
    if _RESULTS:
        LEDGER_PATH.write_text(json.dumps(_RESULTS, indent=2) + "\n")
