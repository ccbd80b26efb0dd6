"""Wire server benchmark: N concurrent loopback clients (ISSUE 8).

Boots one :class:`~repro.server.XNFServer` over the combined demo
database and hammers it with ``SERVER_BENCH_CLIENTS`` concurrent
connections (default 32, the acceptance floor) running a fixed op mix:

* **E1** — extract the Fig. 1 company CO and navigate one path,
* **E6** — extract the recursive STAFF-chain CO (fixpoint over the wire),
* **OO1** — a parts-graph traversal as per-step SQL frontier queries,
* **point** — a single-row indexed SELECT (the latency floor).

Per-op wall times aggregate into p50/p95/p99 and overall throughput,
written to ``BENCH_server.json``; ``benchmarks/check_regression.py``
gates on zero failed sessions, the ≥32-client floor, the p99 budget and
a throughput floor.
"""

import json
import os
import pathlib
import statistics
import threading
import time

import pytest

from benchmarks.conftest import report
from repro.client.client import WireClient
from repro.errors import ReproError
from repro.server.bootstrap import STAFF_CO, demo_database
from repro.server.server import ServerThread
from repro.workloads.company import FIGURE1_CO

LEDGER_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_server.json"

_RESULTS = {}

#: acceptance floor: the bench must sustain at least this many clients
CLIENTS = int(os.environ.get("SERVER_BENCH_CLIENTS", "32"))
#: ops per client (one op = one full E1/E6/OO1/point interaction)
OPS_PER_CLIENT = int(os.environ.get("SERVER_BENCH_OPS", "12"))
#: OO1 traversal shape (frontier depth per op)
TRAVERSE_DEPTH = 3

OP_NAMES = ("e1_take", "e6_take", "oo1_traverse", "point_select")


def _op_e1_take(client: WireClient) -> None:
    co = client.take(FIGURE1_CO)
    assert co.nodes["Xemp"] == 5
    emps = co.path("Xdept", "employment", dname="d2")
    assert len(emps) == 3
    co.close()


def _op_e6_take(client: WireClient) -> None:
    co = client.take(STAFF_CO)
    assert co.nodes["Xemp"] > 1  # fixpoint closed over the chain
    co.close()


def _op_oo1_traverse(client: WireClient, start_pid: int) -> int:
    """OO1-style traversal: per-step SQL frontier queries over the wire."""
    frontier = [start_pid]
    visited = 0
    for _ in range(TRAVERSE_DEPTH):
        ids = ", ".join(str(pid) for pid in frontier)
        rows = client.execute(
            f"SELECT cto FROM CONN WHERE cfrom IN ({ids})"
        ).rows()
        frontier = sorted({row[0] for row in rows})[:32]
        visited += len(rows)
        if not frontier:
            break
    return visited


def _op_point_select(client: WireClient, pid: int) -> None:
    row = client.execute(f"SELECT ptype, x, y FROM PART WHERE pid = {pid}").first()
    assert row is not None


def _client_worker(port: int, slot: int, latencies, failures) -> None:
    try:
        with WireClient(port=port) as client:
            for op_index in range(OPS_PER_CLIENT):
                op = OP_NAMES[(slot + op_index) % len(OP_NAMES)]
                begin = time.perf_counter()
                if op == "e1_take":
                    _op_e1_take(client)
                elif op == "e6_take":
                    _op_e6_take(client)
                elif op == "oo1_traverse":
                    _op_oo1_traverse(client, 1 + (slot * 7 + op_index) % 150)
                else:
                    _op_point_select(client, 1 + (slot * 11 + op_index) % 150)
                latencies[op].append((time.perf_counter() - begin) * 1000.0)
    except (ReproError, OSError) as exc:
        failures.append((slot, repr(exc)))


def _percentiles(samples):
    ordered = sorted(samples)

    def pct(p: float) -> float:
        index = min(len(ordered) - 1, int(round(p * (len(ordered) - 1))))
        return ordered[index]

    return {
        "p50_ms": round(statistics.median(ordered), 3),
        "p95_ms": round(pct(0.95), 3),
        "p99_ms": round(pct(0.99), 3),
        "max_ms": round(ordered[-1], 3),
        "count": len(ordered),
    }


def test_concurrent_wire_clients(benchmark):
    """The acceptance experiment: ≥32 clients, zero failed sessions."""
    db = demo_database(mvcc=True, num_parts=150)
    latencies = {name: [] for name in OP_NAMES}
    failures = []
    with ServerThread(db, max_connections=CLIENTS + 8) as server:
        # warm the plan cache so percentiles measure the
        # steady state, not first-compile costs
        with WireClient(port=server.port) as warm:
            _op_e1_take(warm)
            _op_e6_take(warm)
            _op_oo1_traverse(warm, 1)
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(server.port, slot, latencies, failures),
            )
            for slot in range(CLIENTS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(600)
            assert not thread.is_alive(), "bench client wedged"
        elapsed = time.perf_counter() - begin
        counters = db.network.snapshot()
    assert not failures, f"failed sessions: {failures}"
    assert len(db.wire_sessions) == 0, "sessions leaked after shutdown"

    total_ops = sum(len(v) for v in latencies.values())
    all_samples = [sample for v in latencies.values() for sample in v]
    _RESULTS["server"] = {
        "clients": CLIENTS,
        "ops_per_client": OPS_PER_CLIENT,
        "total_ops": total_ops,
        "failed_sessions": len(failures),
        "elapsed_s": round(elapsed, 3),
        "throughput_ops_s": round(total_ops / elapsed, 2),
        "overall": _percentiles(all_samples),
        "per_op": {
            name: _percentiles(samples)
            for name, samples in latencies.items()
        },
        "frames_in": counters["frames_in"],
        "frames_out": counters["frames_out"],
        "bytes_in": counters["bytes_in"],
        "bytes_out": counters["bytes_out"],
        "connections_opened": counters["connections_opened"],
        "connections_refused": counters["connections_refused"],
        "retryable_errors_sent": counters["retryable_errors_sent"],
    }
    overall = _RESULTS["server"]["overall"]
    report(
        "wire server",
        f"{CLIENTS} clients x {OPS_PER_CLIENT} ops: "
        f"{_RESULTS['server']['throughput_ops_s']:7.1f} ops/s | "
        f"p50 {overall['p50_ms']:7.1f} ms | p95 {overall['p95_ms']:7.1f} ms "
        f"| p99 {overall['p99_ms']:7.1f} ms",
    )
    for name in OP_NAMES:
        stats = _RESULTS["server"]["per_op"][name]
        report(
            "wire server",
            f"  {name:13s} p50 {stats['p50_ms']:7.1f} ms | "
            f"p95 {stats['p95_ms']:7.1f} ms | p99 {stats['p99_ms']:7.1f} ms "
            f"({stats['count']} ops)",
        )

    # a light single-client run for the pytest-benchmark table
    db2 = demo_database(mvcc=True, num_parts=150)
    with ServerThread(db2) as server:
        with WireClient(port=server.port) as client:
            _op_point_select(client, 1)  # warm
            benchmark(lambda: _op_point_select(client, 42))


@pytest.fixture(scope="module", autouse=True)
def server_ledger():
    yield
    if _RESULTS:
        LEDGER_PATH.write_text(json.dumps(_RESULTS["server"], indent=2) + "\n")
