"""MVCC concurrency benchmarks: reader throughput, conflicts, vacuum.

Two experiments, written to ``BENCH_concurrency.json``:

* ``reader_throughput`` — snapshot readers scanning the company database
  while 0 / 1 / 4 writer threads stream budget transfers.  Under MVCC
  readers take no locks, so reader throughput should degrade gracefully
  (GIL contention) rather than collapse behind writer locks; the ledger
  records queries/sec per writer count plus writer conflict/retry totals.
* ``vacuum_lag`` — a writer churns versions while vacuum passes run;
  records how many images accumulate between passes and that the final
  pass drains the store (monotonic counters, bounded lag).
"""

import json
import pathlib
import threading
import time

import pytest

from benchmarks.conftest import report
from repro.workloads import company

LEDGER_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_concurrency.json"

_RESULTS = {}

#: reader-throughput experiment shape
READER_SECONDS = 1.2
READER_THREADS = 2
WRITER_COUNTS = (0, 1, 4)

#: vacuum experiment
VACUUM_CHURN_TXNS = 120
VACUUM_EVERY = 30


def test_reader_throughput_under_writers(benchmark):
    """Snapshot readers never block: throughput vs. concurrent writers."""
    results = {}
    for writers in WRITER_COUNTS:
        db = company.figure1_database(mvcc=True)
        stop = threading.Event()
        reads = [0] * READER_THREADS
        writer_stats = {"commits": 0}

        def reader(slot):
            sess = db.connect()
            while not stop.is_set():
                total = sess.execute("SELECT SUM(budget) FROM DEPT").scalar()
                assert total == 3500.0
                reads[slot] += 1

        def writer(wid):
            sess = db.connect()
            src, dst = 1 + (wid % 3), 1 + ((wid + 1) % 3)
            while not stop.is_set():
                def txn():
                    sess.begin()
                    sess.execute(
                        f"UPDATE DEPT SET budget = budget + 1 WHERE dno = {src}"
                    )
                    sess.execute(
                        f"UPDATE DEPT SET budget = budget - 1 WHERE dno = {dst}"
                    )
                    sess.commit()

                sess.run_retryable(
                    txn, retries=200, backoff_s=0.0002, max_backoff_s=0.005
                )
                writer_stats["commits"] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READER_THREADS)
        ] + [threading.Thread(target=writer, args=(wid,)) for wid in range(writers)]
        for thread in threads:
            thread.start()
        time.sleep(READER_SECONDS)
        stop.set()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()

        snapshot = db.metrics_snapshot()
        mvcc_stats = snapshot.get("mvcc", {})
        results[str(writers)] = {
            "reader_qps": round(sum(reads) / READER_SECONDS, 1),
            "writer_commits": writer_stats["commits"],
            "serialization_conflicts": mvcc_stats.get(
                "serialization_conflicts", 0
            ),
            "retries": snapshot.get("txn", {}).get("retries", 0),
        }
        report(
            "mvcc concurrency",
            f"readers vs {writers} writer(s): "
            f"{results[str(writers)]['reader_qps']:8.1f} q/s, "
            f"{writer_stats['commits']} commits, "
            f"{results[str(writers)]['retries']} retries",
        )
    # snapshot readers must keep making progress under write load
    assert results["4"]["reader_qps"] > 0
    _RESULTS["reader_throughput"] = results
    db = company.figure1_database(mvcc=True)
    sess = db.connect()
    benchmark(lambda: sess.execute("SELECT SUM(budget) FROM DEPT").scalar())


def test_vacuum_lag(benchmark):
    """Version churn vs. vacuum: lag stays bounded, counters monotonic."""
    db = company.figure1_database(mvcc=True)
    db.mvcc.autovacuum_threshold = 0  # manual vacuum only for this experiment
    sess = db.connect()
    lags = []
    pruned_series = []
    for i in range(VACUUM_CHURN_TXNS):
        sess.begin()
        sess.execute(
            f"UPDATE DEPT SET budget = budget + {1 if i % 2 == 0 else -1} "
            f"WHERE dno = {1 + i % 3}"
        )
        sess.commit()
        if (i + 1) % VACUUM_EVERY == 0:
            before = db.mvcc.store.metrics()
            lags.append(before["version_images"])
            db.vacuum()
            after = db.mvcc.store.metrics()
            assert after["versions_pruned"] >= before["versions_pruned"]
            pruned_series.append(after["versions_pruned"])
    final = db.vacuum()
    stats = db.mvcc.store.metrics()
    # no snapshots open: everything reclaimable must be gone
    assert stats["version_images"] == 0
    assert pruned_series == sorted(pruned_series)
    _RESULTS["vacuum_lag"] = {
        "churn_txns": VACUUM_CHURN_TXNS,
        "vacuum_every": VACUUM_EVERY,
        "max_image_lag": max(lags),
        "versions_pruned": stats["versions_pruned"],
        "entries_dropped": stats["entries_dropped"],
        "final_horizon": final["horizon"],
    }
    report(
        "mvcc concurrency",
        f"vacuum lag: max {max(lags)} images between passes, "
        f"{stats['versions_pruned']} pruned total",
    )
    benchmark(db.vacuum)


@pytest.fixture(scope="module", autouse=True)
def concurrency_ledger():
    yield
    if _RESULTS:
        LEDGER_PATH.write_text(json.dumps(dict(_RESULTS), indent=2) + "\n")
