"""Unit tests for distributed tracing: TraceContext handoff, head-based
sampling, orphan accounting, exporter batching, and per-statement profiles."""

import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.export import JsonlTraceExporter
from repro.obs.profile import build_profile, render_profile
from repro.obs.trace import FRESH_CONTEXT, NULL_SPAN, TraceContext, Tracer


class TestTraceContextWire:
    def test_to_wire_round_trips(self):
        ctx = TraceContext(trace_id=42, span_id=7, sampled=False)
        back = TraceContext.from_wire(ctx.to_wire())
        assert back is not None
        assert (back.trace_id, back.span_id, back.sampled) == (42, 7, False)
        assert not hasattr(back, "span")  # coordinates only, no live span

    @pytest.mark.parametrize("junk", [
        None, "garbage", 17, [], {"id": "x", "span": 1},
        {"id": 0, "span": 1}, {"id": -3, "span": 1},
        {"id": 5, "span": -1}, {"id": 5, "span": "y"}, {},
    ])
    def test_from_wire_tolerates_junk(self, junk):
        assert TraceContext.from_wire(junk) is None

    def test_from_wire_defaults_sampled_true(self):
        ctx = TraceContext.from_wire({"id": 5, "span": 3})
        assert ctx is not None and ctx.sampled is True

    def test_trace_ids_are_unique_and_tagged(self):
        tracer = Tracer()
        ids = set()
        for _ in range(50):
            with tracer.span("statement") as span:
                ids.add(span.trace_id)
        assert len(ids) == 50
        assert all(trace_id > (1 << 32) for trace_id in ids)


class TestCrossThreadHandoff:
    def test_wire_context_adoption_sets_parent_id(self):
        server = Tracer()
        remote = TraceContext.from_wire({"id": 99, "span": 12})
        with server.adopt(remote):
            with server.span("wire.query") as span:
                assert span.trace_id == 99
                assert span.parent_id == 12
        assert server.last_trace is span

    def test_unadopted_pool_root_counts_as_orphan(self):
        tracer = Tracer()

        def work():
            with tracer.span("stray"):
                pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(work).result()
        assert tracer.orphans == 1

    def test_fresh_context_suppresses_orphan_accounting(self):
        tracer = Tracer()

        def work():
            with tracer.adopt(None):  # explicit "new trace starts here"
                with tracer.span("wire.query"):
                    pass

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(work).result()
        assert tracer.orphans == 0
        assert FRESH_CONTEXT.trace_id == 0

    def test_main_thread_roots_are_never_orphans(self):
        tracer = Tracer()
        with tracer.span("statement"):
            pass
        assert tracer.orphans == 0

    def test_adopt_restores_previous_context(self):
        tracer = Tracer()
        outer = TraceContext(5, 1)
        with tracer.adopt(outer):
            with tracer.adopt(TraceContext(6, 2)):
                pass
            with tracer.span("wire.query") as span:
                assert (span.trace_id, span.parent_id) == (5, 1)


class TestHeadBasedSampling:
    def test_rate_zero_drops_fast_clean_roots(self):
        tracer = Tracer(sample_rate=0.0)
        for _ in range(5):
            with tracer.span("statement") as root:
                child = tracer.span("execute")
                assert child is NULL_SPAN  # children suppressed
                assert root.sampled is False
        assert tracer.sampled_out == 5
        assert tracer.recent == [] and tracer.last_trace is None

    def test_rate_one_keeps_everything(self):
        tracer = Tracer(sample_rate=1.0)
        for _ in range(5):
            with tracer.span("statement"):
                pass
        assert tracer.sampled_out == 0
        assert len(tracer.recent) == 5

    def test_errors_are_kept_despite_sampling(self):
        tracer = Tracer(sample_rate=0.0)
        with pytest.raises(ValueError):
            with tracer.span("statement"):
                raise ValueError("boom")
        assert tracer.last_trace is not None
        assert tracer.last_trace.attrs["sampled"] == "late"
        assert tracer.sampled_out == 0

    def test_slow_roots_are_kept_despite_sampling(self):
        tracer = Tracer(sample_rate=0.0, slow_sample_s=0.0)
        with tracer.span("statement"):
            pass
        assert tracer.last_trace is not None
        assert tracer.last_trace.attrs["sampled"] == "late"

    def test_adopted_context_overrides_local_rate(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.adopt(TraceContext(77, 3, sampled=True)):
            with tracer.span("wire.query") as span:
                assert span.sampled is True
        assert tracer.last_trace is span

    def test_force_sample_revives_suppressed_tree(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("statement") as root:
            tracer.force_sample()
            with tracer.span("execute"):
                pass
        assert root.attrs["sampled"] == "late"
        assert [c.name for c in root.children] == ["execute"]
        assert tracer.last_trace is root


class TestExporterBatching:
    def _root(self, tracer, name="statement"):
        with tracer.span(name):
            pass
        return tracer.last_trace

    def test_buffered_until_batch_size(self):
        stream = io.StringIO()
        tracer = Tracer()
        tracer.exporter = JsonlTraceExporter(stream, batch_size=3)
        for _ in range(2):
            self._root(tracer)
        assert stream.getvalue() == ""  # still buffered
        self._root(tracer)
        assert len(stream.getvalue().splitlines()) == 3
        assert tracer.exporter.exported == 3

    def test_flush_writes_partial_batch(self):
        stream = io.StringIO()
        tracer = Tracer()
        tracer.exporter = JsonlTraceExporter(stream, batch_size=100)
        self._root(tracer)
        tracer.exporter.flush()
        (line,) = stream.getvalue().splitlines()
        assert json.loads(line)["name"] == "statement"

    def test_close_drains_owned_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        exporter = JsonlTraceExporter(str(path), batch_size=100)
        tracer.exporter = exporter
        self._root(tracer)
        exporter.close()
        assert len(path.read_text().splitlines()) == 1

    def test_exported_lines_carry_trace_ids(self):
        stream = io.StringIO()
        tracer = Tracer()
        tracer.exporter = JsonlTraceExporter(stream, batch_size=1)
        root = self._root(tracer)
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == root.trace_id

    def test_reentrant_export_does_not_recurse(self):
        tracer = Tracer()

        class Nosy:
            def __init__(self):
                self.calls = 0

            def export(self, span):
                self.calls += 1
                # a misbehaving exporter that traces work of its own
                with tracer.span("exporter.side_effect"):
                    pass

        tracer.exporter = Nosy()
        with tracer.span("statement"):
            pass
        assert tracer.exporter.calls == 1
        assert tracer.export_failures == 0


class TestBuildProfile:
    def test_none_and_null_span_give_no_profile(self):
        assert build_profile(None) is None
        assert build_profile(NULL_SPAN) is None

    def test_aggregates_stages_and_shards(self):
        tracer = Tracer()
        with tracer.span("wire.query") as root:
            with tracer.span("parse"):
                pass
            with tracer.span("execute") as ex:
                ex.annotate(batches=4)
            for shard in (0, 1):
                with tracer.span("xnf.scatter.shard", shard=shard):
                    pass
            with tracer.span("xnf.fixpoint.round"):
                pass
        profile = build_profile(
            root, queue_wait_s=0.001, retry_wait_s=0.002, lock_conflicts=3
        )
        assert profile["op"] == "wire.query"
        assert profile["trace_id"] == root.trace_id
        assert set(profile["stages"]) == {"parse", "execute"}
        assert profile["queue_wait_ms"] == 1.0
        assert profile["retry_wait_ms"] == 2.0
        assert profile["lock_conflicts"] == 3
        assert profile["execute_batches"] == 4
        assert profile["fixpoint_rounds"] == 1
        assert set(profile["scatter"]["shards"]) == {0, 1}
        assert profile["scatter"]["skew"] >= 1.0

    def test_error_surfaces_in_profile(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("wire.query"):
                raise RuntimeError("boom")
        profile = build_profile(tracer.last_trace)
        assert profile["error"] == "RuntimeError"

    def test_render_profile_is_human_readable(self):
        tracer = Tracer()
        with tracer.span("wire.query") as root:
            with tracer.span("execute"):
                pass
            with tracer.span("xnf.scatter.shard", shard=1):
                pass
        text = render_profile(build_profile(root, queue_wait_s=0.0))
        assert "wire.query" in text
        assert "execute" in text
        assert "shard 1" in text
        assert render_profile(None).startswith("no profile")

    def test_render_survives_json_round_trip(self):
        # PROFILE crosses the wire as JSON: shard keys become strings
        tracer = Tracer()
        with tracer.span("wire.xnf") as root:
            with tracer.span("xnf.scatter.shard", shard=2):
                pass
        profile = json.loads(json.dumps(build_profile(root)))
        assert "shard 2" in render_profile(profile)


class TestMainThreadNaming:
    def test_worker_prefix_detection_uses_thread_name(self):
        tracer = Tracer()
        done = threading.Event()

        def work():
            with tracer.span("stray"):
                pass
            done.set()

        # a plain (non-pool) thread is not treated as a pool worker
        thread = threading.Thread(target=work, name="my-own-thread")
        thread.start()
        thread.join()
        assert done.is_set()
        assert tracer.orphans == 0
