"""Unit tests of the benchmark harness, and a --quick end-to-end smoke.

Run explicitly: ``python -m pytest perf -q`` (tier-1 collects ``tests/``
only).
"""

import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

import perf.run  # noqa: F401  (puts src/ on sys.path)
from perf import harness, spans
from perf.oracle import DesignOracle, PartsOracle
from perf.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- statistics ---------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    assert harness.select_tail_percentile(samples) == expected


def test_percentile_interpolates():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert harness.percentile([7.0], 99.9) == 7.0


def test_median_of_blocks_and_spread():
    assert harness.median_of_blocks([1.0, 2.0, 4.0]) == (2.0, 1.5)
    assert harness.median_of_blocks([3.0, 3.0, 3.0]) == (3.0, 0.0)


# -- spans --------------------------------------------------------------------


def span(name, start, end, parent=None, op=None):
    return [name, start, end, parent, op if parent is None else parent[spans.OP], 1]


def test_self_time_with_nested_and_overlapping_children():
    root = span("perf.op", 0.0, 10.0, op=7)
    a = span("a", 1.0, 5.0, root)
    b = span("b", 4.0, 7.0, root)  # overlaps a: union covers [1, 7]
    nested = span("c", 2.0, 3.0, a)
    sticking_out = span("d", 9.0, 12.0, root)  # clipped to the parent
    own = spans.self_times([root, a, b, nested, sticking_out])
    assert own == [pytest.approx(10.0 - 6.0 - 1.0), 3.0, 3.0, 1.0, 3.0]


def test_waterfall_leaves_out_other_threads():
    root = span("perf.op", 0.0, 4.0, op=0)
    layer = span("layer", 1.0, 3.0, root)
    worker = span("layer", 1.0, 3.0)  # no op: ran beside the op's thread
    rows, beside_ms = spans.waterfall([root, layer, worker], n_ops=1)
    assert {row["layer"]: row["calls"] for row in rows} == {"perf.op": 1, "layer": 1}
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
    assert beside_ms == pytest.approx(2000.0)


class _Layer:
    def plain(self, value):
        return value + 1

    @classmethod
    def build(cls):
        return cls()

    def stream(self, count):
        return iter(range(count))


def test_patches_record_spans_and_restore():
    recorder = spans.Recorder()
    recorder.enabled = True
    patches = spans.Patches(recorder)
    instance = _Layer()
    patches.wrap(_Layer, "build", "layer.build")
    patches.wrap(instance, "plain", "layer.plain")
    patches.wrap_iter(_Layer, "stream", "layer.stream")
    with recorder.span("perf.op", 3):
        assert isinstance(_Layer.build(), _Layer)
        assert instance.plain(1) == 2
        assert list(instance.stream(3)) == [0, 1, 2]
    patches.restore()
    names = [record[spans.NAME] for record in recorder.spans]
    assert names == ["perf.op", "layer.build", "layer.plain", "layer.stream"]
    assert all(record[spans.OP] == 3 for record in recorder.spans)
    assert "plain" not in vars(instance)
    before = len(recorder.spans)
    _Layer.build(), instance.plain(1), list(instance.stream(1))
    assert len(recorder.spans) == before


# -- ops and oracles ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_sequence_is_a_function_of_the_seed(name):
    def first_ops(seed):
        workload = WORKLOADS[name](seed)
        workload.prepare()
        return list(itertools.islice(workload.ops("run0"), 5))

    assert first_ops(7) == first_ops(7)
    assert first_ops(7) != first_ops(8)


def test_parts_oracle_against_brute_force():
    oracle = PartsOracle(50, seed=3)

    def visits(pid, depth):
        if depth == 0:
            return 1
        return 1 + sum(visits(target, depth - 1) for target in oracle.adjacency[pid])

    for start in (1, 17, 50):
        assert oracle.walk_visits(start, 3) == visits(start, 3)
        members = oracle.closure(start)
        assert start in members
        assert all(t in members for pid in members for t in oracle.adjacency[pid])
        assert oracle.two_hops(start) == {
            far for near in oracle.adjacency[start] for far in oracle.adjacency[near]
        }


def test_design_oracle_shape():
    oracle = DesignOracle(2)
    assert oracle.version_id(2, 1) == 4
    assert list(oracle.component_ids(2)) == list(range(21, 41))
    assert list(oracle.subcomp_ids(1)) == list(range(1, 81))
    assert oracle.component_of(80) == 20 and oracle.component_of(81) == 21
    assert oracle.num_subcomps == 2 * 3 * 20 * 4


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_declares_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER
    )
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)


# -- smoke ----------------------------------------------------------------------


def test_quick_suite_runs_all_six_workloads():
    begin = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.monotonic() - begin
    assert done.returncode == 0, done.stdout
    for name in WORKLOADS:
        assert f"{name}: attempted" in done.stdout
    assert "failed_share 0.0000" in done.stdout
    assert "nav_speedup" in done.stdout
    assert elapsed < 40, f"--quick took {elapsed:.1f} s"


def test_quick_traced_pass_prints_a_waterfall():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--quick",
         "--workload", "oo1.sql_step", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "relational.sql" in done.stderr and "replay_gap" in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, _u, _b in harness.PER_LAYER}
    assert result["metrics"]["xnf.nav_ms"]["value"] == 0.0
