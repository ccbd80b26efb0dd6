#!/usr/bin/env python
"""Perf-regression gate over the benchmark plan-cache ledger.

Compares the per-module aggregates of a fresh ``BENCH_plan_cache.json``
(written by the benchmark smoke run, see ``benchmarks/conftest.py``)
against the committed ``benchmarks/baseline.json``:

* **wall time** — a module may not be slower than ``baseline * (1 + tol)``,
  with ``tol`` = ``PERF_TOLERANCE`` (default 0.30, i.e. ±30%).  Modules
  whose baseline wall time is below ``PERF_WALL_FLOOR_S`` (default 0.1s)
  are exempt: at that scale the signal is all noise.
* **plan-cache hit rate** — deterministic, so the band is tight: a module
  may not lose more than ``PERF_HIT_RATE_BAND`` (default 0.05 absolute)
  against its baseline hit rate.
* a module present in the baseline but missing from the fresh ledger
  fails the gate (a silently-skipped benchmark is a regression too);
  a new module not yet in the baseline is reported but passes.

It additionally gates the observability cost ledger
(``BENCH_observability.json``, written by ``bench_observability.py``):

* **tracing overhead** — the measured tracing + statement-stats cost
  ratio may not exceed ``TRACING_OVERHEAD_BUDGET`` (default 0.05, i.e.
  the ISSUE's 5% budget);
* **distributed tracing overhead** — the end-to-end wire ratio
  (``server_tracing_overhead``: client TraceContext injection + server
  adoption + wire.<op> span + profile build) may not exceed
  ``REMOTE_TRACING_OVERHEAD_BUDGET`` (default 0.10 — tracing must be
  cheap enough to stay on in production even across the wire);
* **SYS scan cost** — the acceptance query + SYS join must stay under
  ``SYS_SCAN_BUDGET_MS`` (default 50 ms — generous; it guards against
  accidentally quadratic snapshot providers, not µs-level drift);
* a missing observability ledger fails the gate.

And the MVCC concurrency ledger (``BENCH_concurrency.json``, written by
``bench_concurrency.py``):

* **reader progress** — snapshot readers must keep a positive query rate
  with the maximum writer count attached (readers never block on locks);
* a missing concurrency ledger fails the gate.

And the sharding ledger (``BENCH_sharding.json``, written by
``bench_sharding.py``):

* **sharded speedup** — every gated workload (CO extraction at 10x data)
  must show the 4-shard database at least ``SHARD_SPEEDUP_FLOOR``
  (default 2.0) times faster than the unsharded one — the work reduction
  from partition-bound/zone-map shard pruning, not thread parallelism;
* **equivalence** — the ledger's ``equivalent`` flag must be true: the
  sharded extraction was canonicalised and compared bit-for-bit against
  the unsharded result before any timing was trusted;
* a missing sharding ledger fails the gate.

And the wire-server ledger (``BENCH_server.json``, written by
``bench_server.py``):

* **session survival** — ``failed_sessions`` must be exactly 0 and the
  run must have used at least ``SERVER_CLIENTS_FLOOR`` (default 32)
  concurrent loopback clients;
* **tail latency** — the overall p99 must stay under
  ``SERVER_P99_BUDGET_MS`` (default 5000 ms — a liveness bound for slow
  CI machines, not a µs-level target);
* **throughput** — overall throughput must stay above
  ``SERVER_THROUGHPUT_FLOOR`` (default 10 ops/s);
* a missing server ledger fails the gate.

``--update`` regenerates the baseline from the fresh ledger (run the
benchmark smoke first, then commit the result).

Exit status 0 = gate passed, 1 = regression, 2 = usage/IO problem.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
LEDGER_PATH = HERE.parent / "BENCH_plan_cache.json"
OBSERVABILITY_LEDGER_PATH = HERE.parent / "BENCH_observability.json"
CONCURRENCY_LEDGER_PATH = HERE.parent / "BENCH_concurrency.json"
SERVER_LEDGER_PATH = HERE.parent / "BENCH_server.json"
SHARDING_LEDGER_PATH = HERE.parent / "BENCH_sharding.json"
BASELINE_PATH = HERE / "baseline.json"

TOLERANCE = float(os.environ.get("PERF_TOLERANCE", "0.30"))
WALL_FLOOR_S = float(os.environ.get("PERF_WALL_FLOOR_S", "0.1"))
HIT_RATE_BAND = float(os.environ.get("PERF_HIT_RATE_BAND", "0.05"))
TRACING_OVERHEAD_BUDGET = float(
    os.environ.get("TRACING_OVERHEAD_BUDGET", "0.05")
)
REMOTE_TRACING_OVERHEAD_BUDGET = float(
    os.environ.get("REMOTE_TRACING_OVERHEAD_BUDGET", "0.10")
)
SYS_SCAN_BUDGET_MS = float(os.environ.get("SYS_SCAN_BUDGET_MS", "50.0"))
SERVER_CLIENTS_FLOOR = int(os.environ.get("SERVER_CLIENTS_FLOOR", "32"))
SERVER_P99_BUDGET_MS = float(os.environ.get("SERVER_P99_BUDGET_MS", "5000.0"))
SERVER_THROUGHPUT_FLOOR = float(
    os.environ.get("SERVER_THROUGHPUT_FLOOR", "10.0")
)
SHARD_SPEEDUP_FLOOR = float(os.environ.get("SHARD_SPEEDUP_FLOOR", "2.0"))

#: Workloads the sharding ledger must contain — a silently-dropped
#: workload would otherwise pass the floor vacuously.
SHARD_REQUIRED_WORKLOADS = ("co_extraction", "oo1_setwise_traversal")


def load(path: pathlib.Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def update_baseline(ledger: dict) -> None:
    baseline = {
        "note": (
            "Per-module benchmark baseline for check_regression.py. "
            "Regenerate with: run the benchmark smoke modules, then "
            "`python benchmarks/check_regression.py --update`."
        ),
        "modules": {
            module: {
                "wall_time_s": agg["wall_time_s"],
                "hit_rate": agg.get("hit_rate"),
            }
            for module, agg in sorted(ledger["modules"].items())
        },
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline written to {BASELINE_PATH}")
    for module, agg in baseline["modules"].items():
        print(
            f"  {module}: wall={agg['wall_time_s']:.3f}s "
            f"hit_rate={agg['hit_rate']}"
        )


def check(ledger: dict, baseline: dict) -> int:
    failures = []
    current = ledger.get("modules", {})
    for module, base in sorted(baseline.get("modules", {}).items()):
        agg = current.get(module)
        if agg is None:
            failures.append(f"{module}: present in baseline but not run")
            continue
        base_wall = base["wall_time_s"]
        wall = agg["wall_time_s"]
        if base_wall >= WALL_FLOOR_S:
            limit = base_wall * (1.0 + TOLERANCE)
            verdict = "FAIL" if wall > limit else "ok"
            print(
                f"{module}: wall {wall:.3f}s vs baseline {base_wall:.3f}s "
                f"(limit {limit:.3f}s) {verdict}"
            )
            if wall > limit:
                failures.append(
                    f"{module}: wall time {wall:.3f}s exceeds "
                    f"{limit:.3f}s (+{TOLERANCE:.0%} over baseline)"
                )
        else:
            print(
                f"{module}: wall {wall:.3f}s (baseline {base_wall:.3f}s "
                f"below {WALL_FLOOR_S}s floor, not gated)"
            )
        base_rate = base.get("hit_rate")
        rate = agg.get("hit_rate")
        if base_rate is not None:
            if rate is None or rate < base_rate - HIT_RATE_BAND:
                failures.append(
                    f"{module}: plan-cache hit rate {rate} fell below "
                    f"baseline {base_rate} - {HIT_RATE_BAND}"
                )
            else:
                print(
                    f"{module}: hit_rate {rate} vs baseline {base_rate} ok"
                )
    for module in sorted(set(current) - set(baseline.get("modules", {}))):
        print(f"{module}: no baseline yet (run --update to adopt)")
    if failures:
        print("\nperf-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf-regression gate passed")
    return 0


def check_observability(obs: dict) -> int:
    """Gate the observability cost ledger (tracing budget, SYS scan)."""
    failures = []
    overhead = obs.get("tracing_overhead")
    if overhead is None:
        failures.append("observability: ledger lacks tracing_overhead")
    else:
        verdict = "FAIL" if overhead > TRACING_OVERHEAD_BUDGET else "ok"
        print(
            f"observability: tracing overhead {overhead:+.2%} "
            f"(budget {TRACING_OVERHEAD_BUDGET:.0%}) {verdict}"
        )
        if overhead > TRACING_OVERHEAD_BUDGET:
            failures.append(
                f"observability: tracing overhead {overhead:+.2%} exceeds "
                f"the {TRACING_OVERHEAD_BUDGET:.0%} budget"
            )
    remote = obs.get("server_tracing_overhead")
    if remote is None:
        failures.append("observability: ledger lacks server_tracing_overhead")
    else:
        verdict = "FAIL" if remote > REMOTE_TRACING_OVERHEAD_BUDGET else "ok"
        print(
            f"observability: server (wire) tracing overhead {remote:+.2%} "
            f"(budget {REMOTE_TRACING_OVERHEAD_BUDGET:.0%}) {verdict}"
        )
        if remote > REMOTE_TRACING_OVERHEAD_BUDGET:
            failures.append(
                f"observability: server (wire) tracing overhead "
                f"{remote:+.2%} exceeds the "
                f"{REMOTE_TRACING_OVERHEAD_BUDGET:.0%} budget"
            )
    scan_ms = obs.get("sys_scan_ms")
    if scan_ms is None:
        failures.append("observability: ledger lacks sys_scan_ms")
    else:
        verdict = "FAIL" if scan_ms > SYS_SCAN_BUDGET_MS else "ok"
        print(
            f"observability: SYS scan {scan_ms:.3f} ms "
            f"(budget {SYS_SCAN_BUDGET_MS:.0f} ms) {verdict}"
        )
        if scan_ms > SYS_SCAN_BUDGET_MS:
            failures.append(
                f"observability: SYS scan {scan_ms:.3f} ms exceeds "
                f"{SYS_SCAN_BUDGET_MS:.0f} ms"
            )
    if failures:
        print("\nobservability gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("observability gate passed")
    return 0


def check_concurrency(ledger: dict) -> int:
    """Gate the MVCC concurrency ledger (reader progress)."""
    failures = []
    throughput = ledger.get("reader_throughput", {})
    if not throughput:
        failures.append("concurrency: ledger lacks reader_throughput")
    else:
        busiest = max(throughput, key=int)
        qps = throughput[busiest].get("reader_qps", 0)
        verdict = "FAIL" if qps <= 0 else "ok"
        print(
            f"concurrency: reader throughput {qps:.0f} q/s with "
            f"{busiest} writer(s) {verdict}"
        )
        if qps <= 0:
            failures.append(
                f"concurrency: readers starved with {busiest} writer(s)"
            )
    if failures:
        print("\nconcurrency gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("concurrency gate passed")
    return 0


def check_server(ledger: dict) -> int:
    """Gate the wire-server ledger (sessions, tail latency, throughput)."""
    failures = []
    failed = ledger.get("failed_sessions")
    clients = ledger.get("clients", 0)
    if failed is None:
        failures.append("server: ledger lacks failed_sessions")
    else:
        verdict = "FAIL" if failed != 0 else "ok"
        print(f"server: {clients} clients, {failed} failed sessions {verdict}")
        if failed != 0:
            failures.append(f"server: {failed} wire sessions failed")
    if clients < SERVER_CLIENTS_FLOOR:
        failures.append(
            f"server: ran with {clients} clients, below the "
            f"{SERVER_CLIENTS_FLOOR}-client acceptance floor"
        )
    p99 = ledger.get("overall", {}).get("p99_ms")
    if p99 is None:
        failures.append("server: ledger lacks overall p99_ms")
    else:
        verdict = "FAIL" if p99 > SERVER_P99_BUDGET_MS else "ok"
        print(
            f"server: p99 {p99:.1f} ms "
            f"(budget {SERVER_P99_BUDGET_MS:.0f} ms) {verdict}"
        )
        if p99 > SERVER_P99_BUDGET_MS:
            failures.append(
                f"server: p99 {p99:.1f} ms exceeds the "
                f"{SERVER_P99_BUDGET_MS:.0f} ms budget"
            )
    throughput = ledger.get("throughput_ops_s")
    if throughput is None:
        failures.append("server: ledger lacks throughput_ops_s")
    else:
        verdict = "FAIL" if throughput < SERVER_THROUGHPUT_FLOOR else "ok"
        print(
            f"server: throughput {throughput:.1f} ops/s "
            f"(floor {SERVER_THROUGHPUT_FLOOR:.0f} ops/s) {verdict}"
        )
        if throughput < SERVER_THROUGHPUT_FLOOR:
            failures.append(
                f"server: throughput {throughput:.1f} ops/s below the "
                f"{SERVER_THROUGHPUT_FLOOR:.0f} ops/s floor"
            )
    if failures:
        print("\nserver gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("server gate passed")
    return 0


def check_sharding(ledger: dict) -> int:
    """Gate the sharding ledger (sharded speedup floor + equivalence)."""
    failures = []
    if not ledger.get("equivalent", False):
        failures.append(
            "sharding: sharded and unsharded extractions were not verified "
            "equivalent (ledger's 'equivalent' flag is false)"
        )
    workloads = ledger.get("workloads", {})
    for name in SHARD_REQUIRED_WORKLOADS:
        if name not in workloads:
            failures.append(f"sharding: workload {name} missing from ledger")
    for name, stats in sorted(workloads.items()):
        speedup = stats.get("speedup")
        if speedup is None:
            failures.append(f"sharding: workload {name} lacks a speedup")
            continue
        if not stats.get("gated", False):
            print(
                f"sharding: {name} {speedup:.2f}x "
                f"({stats.get('shards', '?')} shards; report-only)"
            )
            continue
        verdict = "FAIL" if speedup < SHARD_SPEEDUP_FLOOR else "ok"
        print(
            f"sharding: {name} {speedup:.2f}x "
            f"(1 shard {stats.get('unsharded_s', float('nan')):.3f}s, "
            f"{stats.get('shards', '?')} shards "
            f"{stats.get('sharded_s', float('nan')):.3f}s; "
            f"floor {SHARD_SPEEDUP_FLOOR:.1f}x) {verdict}"
        )
        if speedup < SHARD_SPEEDUP_FLOOR:
            failures.append(
                f"sharding: {name} speedup {speedup:.2f}x below the "
                f"{SHARD_SPEEDUP_FLOOR:.1f}x floor"
            )
    if failures:
        print("\nsharding gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("sharding gate passed")
    return 0


def main(argv) -> int:
    ledger = load(LEDGER_PATH)
    if "--update" in argv:
        update_baseline(ledger)
        return 0
    status = check(ledger, load(BASELINE_PATH))
    obs_status = check_observability(load(OBSERVABILITY_LEDGER_PATH))
    conc_status = check_concurrency(load(CONCURRENCY_LEDGER_PATH))
    server_status = check_server(load(SERVER_LEDGER_PATH))
    shard_status = check_sharding(load(SHARDING_LEDGER_PATH))
    return (
        status
        or obs_status
        or conc_status
        or server_status
        or shard_status
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
