"""Satellite (c): the metrics registry, slow-query log and statement
stats stay bounded and consistent under concurrent hammering."""

import threading

from repro.obs import MetricsRegistry, SlowQueryLog, StatementStatsRegistry

THREADS = 8
ITERATIONS = 400


def _hammer(fn):
    errors = []

    def body(worker):
        try:
            for i in range(ITERATIONS):
                fn(worker, i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(w,)) for w in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestMetricsRegistryConcurrency:
    def test_counters_sum_exactly(self):
        registry = MetricsRegistry()
        _hammer(lambda w, i: registry.inc("shared.counter"))
        assert registry.counter("shared.counter").value == THREADS * ITERATIONS
        assert registry.dropped == 0

    def test_capacity_bound_holds_under_pressure(self):
        registry = MetricsRegistry(max_metrics=64)
        _hammer(lambda w, i: registry.inc(f"worker{w}.c{i}"))
        assert len(registry) <= 64
        # everything over the cap landed on detached metrics and was counted
        assert registry.dropped == THREADS * ITERATIONS - 64

    def test_histograms_record_every_observation(self):
        registry = MetricsRegistry()
        _hammer(lambda w, i: registry.observe("lat", 0.001 * (i + 1)))
        snap = registry.snapshot()
        assert snap["lat"]["count"] == THREADS * ITERATIONS
        assert snap["lat"]["p50"] is not None

    def test_snapshot_while_writing_is_safe(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                registry.snapshot()

        t = threading.Thread(target=reader)
        t.start()
        try:
            _hammer(lambda w, i: registry.inc("c"))
        finally:
            stop.set()
            t.join()
        assert registry.counter("c").value == THREADS * ITERATIONS


class TestSlowLogConcurrency:
    def test_ring_buffer_bounded_with_eviction_count(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=32)
        _hammer(lambda w, i: log.maybe_record(f"SELECT {w}-{i}", 0.5))
        assert len(log) == 32
        assert log.evicted == THREADS * ITERATIONS - 32


class TestStatementStatsConcurrency:
    def test_bounded_with_lru_eviction(self):
        registry = StatementStatsRegistry(capacity=50)
        _hammer(lambda w, i: registry.record(f"q{i % 200}", 0.001, rows=1))
        assert len(registry) <= 50
        assert registry.evicted > 0
        total_calls = sum(s.calls for s in registry.entries())
        assert total_calls <= THREADS * ITERATIONS

    def test_single_fingerprint_counts_exactly(self):
        registry = StatementStatsRegistry()
        _hammer(
            lambda w, i: registry.record(
                "hot", 0.002, rows=3, cache_hit=(i % 2 == 0)
            )
        )
        stat = registry.get("hot")
        assert stat.calls == THREADS * ITERATIONS
        assert stat.rows == 3 * THREADS * ITERATIONS
        assert stat.plan_cache_hits == THREADS * (ITERATIONS // 2)
        assert stat.latency.count == stat.calls
        assert registry.latency.count == stat.calls
