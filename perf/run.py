"""The repo's one benchmark command.

One workload, as ``BENCHMARK.json`` declares it (the last stdout line is
the result object)::

    python3 perf/run.py --workload oo1.closure --seed 7 --seconds 10 --trace 0

Every workload, each in its own child process, every metric by name::

    python3 perf/run.py --seed 1993            # end-to-end metrics
    python3 perf/run.py --seed 1993 --traced   # per-layer waterfalls
    python3 perf/run.py --selfcheck            # run the set twice, compare
    python3 perf/run.py --quick                # smoke: all six in seconds
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perf/run.py: no src/repro beside perf/ - nothing to benchmark")
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import harness  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1993
#: a child that runs longer than this is killed and the run fails
CHILD_CAP_S = 170.0
#: the paper's floor for cache navigation against per-step SQL (E1)
NAV_SPEEDUP_FLOOR = 10.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)


def run_child(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run one workload in a child, so peak RSS, GC state and plan-cache
    globals are per workload.  Raises on overrun, crash or missing metric."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        command.append("--quick")
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_CAP_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: overran the {CHILD_CAP_S:.0f} s wall-clock cap")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    missing = [metric for metric in expected if metric not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{name}: missing metrics {missing}")
    tail = re.search(r"tail_ms: (p[\d.]+) = ([\d.]+) ms over (\d+) samples", done.stderr)
    if tail:
        result["tail"] = (tail.group(1), float(tail.group(2)), int(tail.group(3)))
    return result


def run_suite(seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Dict[str, Any]]:
    return {
        workload["name"]: run_child(workload["name"], seed, seconds, trace, quick)
        for workload in SPEC["workloads"]
    }


def print_suite(results: Dict[str, Dict[str, Any]], trace: bool) -> None:
    for name, result in results.items():
        share = result["failed"] / result["attempted"]
        print(f"{name}: attempted {result['attempted']}, failed_share {share:.4f}")
        print(f"  [{WORKLOADS[name].shape}]")
        for metric, entry in result["metrics"].items():
            if trace and not entry["value"]:
                continue  # an idle layer: the prediction is exactly this zero
            print(f"  {metric:28s} {entry['value']:14.4f} {entry['unit']}")


def nav_speedup(results: Dict[str, Dict[str, Any]]) -> float:
    """oo1.sql_step op p50 / oo1.cache_nav op p50: same traversals and
    lookups.  Printed, not an end-to-end metric: it falls when SQL gets
    faster."""
    sql = results["oo1.sql_step"]["metrics"]["op_p50_ms"]["value"]
    cache = results["oo1.cache_nav"]["metrics"]["op_p50_ms"]["value"]
    print(f"nav_speedup {sql / cache:.1f}x  ({sql:.3f} ms per-step SQL / {cache:.4f} ms cache)")
    return sql / cache


def selfcheck(seed: int, seconds: float, quick: bool) -> List[str]:
    """Run the full set twice on the same code; every end-to-end metric
    must agree within its bound, and the per-op counts of the embedded
    workloads must be identical."""
    problems: List[str] = []
    first = run_suite(seed, seconds, False, quick)
    second = run_suite(seed, seconds, False, quick)
    print("noise floor: |second - first| / first per end-to-end metric")
    for metric in SPEC["end_to_end"]:
        for name in first:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            noise = abs(b - a) / a
            verdict = "ok" if noise <= metric["bound"] else "EXCEEDS BOUND"
            print(f"  {metric['name']:12s} {name:20s} {a:12.4f} {b:12.4f} "
                  f"{noise * 100:6.2f}%  (bound {metric['bound'] * 100:.0f}%) {verdict}")
            if noise > metric["bound"]:
                problems.append(f"{metric['name']} on {name}: {noise * 100:.1f}%")
    print("tail_ms, a diagnostic because it does not repeat within a bound:")
    for name in first:
        (pct, a, samples), (_pct, b, _n) = first[name]["tail"], second[name]["tail"]
        print(f"  {name:20s} {pct:>6s} of {samples:6d} samples {a:12.4f} {b:12.4f} "
              f"{abs(b - a) / a * 100:6.2f}%")
    traced = [run_suite(seed, seconds, True, quick) for _ in range(2)]
    for name in traced[0]:
        if name == "wire.mix":
            continue  # two connections interleave; its counts are not exact
        for count in harness.COUNTS:
            a = traced[0][name]["metrics"][count]["value"]
            b = traced[1][name]["metrics"][count]["value"]
            if a != b:
                problems.append(f"count {count} on {name}: {a} vs {b}")
    print("counts on the embedded workloads: "
          + ("identical" if not any(p.startswith("count") for p in problems) else "DIFFER"))
    for results in (first, second, *traced):
        for name, result in results.items():
            if result["failed"]:
                problems.append(f"{name}: {result['failed']} failed ops")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="suite: the per-layer pass")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 s windows, one set-up each")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else args.seconds

    if args.workload:
        result = harness.run_workload(
            args.workload, args.seed, seconds, bool(args.trace), quick=args.quick
        )
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    if args.selfcheck:
        problems = selfcheck(args.seed, seconds, args.quick)
        for problem in problems:
            print(f"SELFCHECK FAILED: {problem}")
        return 1 if problems else 0

    trace = args.traced or bool(args.trace)
    results = run_suite(args.seed, seconds, trace, args.quick)
    print_suite(results, trace)
    failed = [name for name, result in results.items() if not result["correct"]]
    if failed:
        print(f"oracle failures on: {', '.join(failed)}")
        return 1
    if not trace and nav_speedup(results) < NAV_SPEEDUP_FLOOR:
        print(f"nav_speedup is below the paper's {NAV_SPEEDUP_FLOOR:.0f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except RuntimeError as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        raise SystemExit(2)
