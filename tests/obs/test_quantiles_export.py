"""Latency quantiles (satellite b) and the JSONL trace exporter."""

import io
import json

import pytest

from repro.obs import Histogram, JsonlTraceExporter
from repro.relational.engine import Database


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram()
        assert h.quantile(0.5) is None
        snap = h.snapshot()
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_observation_collapses_to_value(self):
        h = Histogram()
        h.observe(0.0042)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(0.0042)

    def test_quantiles_ordered_and_within_range(self):
        h = Histogram()
        values = [0.0002 * (i + 1) for i in range(200)]  # 0.2ms .. 40ms
        for v in values:
            h.observe(v)
        p50, p95, p99 = h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # log-bucket interpolation is coarse; just require sane ballpark
        assert 0.01 <= p50 <= 0.03
        assert p99 >= 0.03

    def test_overflow_bucket_clamped_to_max(self):
        h = Histogram()
        h.observe(0.001)
        for _ in range(99):
            h.observe(50.0)  # beyond the last bound
        p99 = h.quantile(0.99)
        assert 10.0 <= p99 <= 50.0  # interpolated inside overflow, <= max
        assert h.quantile(1.0) == pytest.approx(50.0)

    def test_snapshot_carries_quantiles(self):
        h = Histogram()
        for i in range(50):
            h.observe(0.001 * (i + 1))
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_statement_latency_quantiles_in_metrics_snapshot(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
        snap = db.metrics_snapshot()
        latency = snap["statements"]["latency"]
        assert latency["count"] >= 11
        assert latency["p50"] is not None
        assert latency["p50"] <= latency["p95"] <= latency["p99"]


class TestJsonlExporter:
    def test_export_to_stream_one_line_per_root(self):
        stream = io.StringIO()
        db = Database()
        db.tracer.exporter = JsonlTraceExporter(stream)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT * FROM t")
        db.tracer.exporter.flush()  # exports are buffered (batch_size=16)
        lines = [ln for ln in stream.getvalue().splitlines() if ln]
        assert len(lines) == 3
        roots = [json.loads(line) for line in lines]
        assert all(root["name"] == "statement" for root in roots)
        select = roots[-1]
        child_names = [child["name"] for child in select["children"]]
        assert "sql.select" in child_names
        assert db.tracer.exporter.exported == 3
        assert db.tracer.export_failures == 0

    def test_export_to_file_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        db = Database()
        with JsonlTraceExporter(str(path)) as exporter:
            db.tracer.exporter = exporter
            db.execute("CREATE TABLE t (a INTEGER)")
        db.tracer.exporter = None
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "statement"

    def test_exporter_failure_never_breaks_statements(self):
        class Broken:
            def export(self, span):
                raise OSError("disk full")

        db = Database()
        db.tracer.exporter = Broken()
        db.execute("CREATE TABLE t (a INTEGER)")
        result = db.execute("SELECT 1")
        assert result.rows == [(1,)]
        assert db.tracer.export_failures == 2
