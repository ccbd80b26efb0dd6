"""Sharded vs. unsharded XNF extraction at 10x data (sharding tentpole).

Two databases built from the same OO1 generator seed — one plain, one with
PART range-partitioned on ``x`` into 4 shards and CONN hash-partitioned on
``cfrom`` — and two workloads:

* ``co_extraction`` (**gated**) — a working-set CO over 200 000 parts:
  the compound restriction ``x < 10000`` keeps only the first range
  shard's key space, so the scatter stage proves the
  other shards empty from their partition bounds + zone maps and skips
  scanning them entirely.  On one GIL-bound core that work *reduction* —
  not thread parallelism — is what the ``SHARD_SPEEDUP_FLOOR`` (default
  2x) gate enforces.
* ``oo1_setwise_traversal`` (report-only) — the per-level ``cfrom IN``
  traversal; its index probes go through the facade identically either
  way, so this guards against sharding *taxing* the non-scatter path.

Extraction results are canonicalised and compared before any timing is
trusted; the ``equivalent`` flag in ``BENCH_sharding.json`` is gated by
``benchmarks/check_regression.py`` alongside the speedup floor.
"""

import json
import pathlib
import time

import pytest

from benchmarks.conftest import report
from repro.workloads.oo1 import build_parts_database, traverse_setwise_sql
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.semantic_rewrite import XNFCompiler
from repro.xnf.views import XNFViewCatalog, resolve

LEDGER_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sharding.json"

_RESULTS = {}
_FLAGS = {"equivalent": False}

PARTS = 200000
BUFFER_PAGES = 65536
SHARDS = 4

TRAVERSAL_DEPTH = 6
TRAVERSAL_STARTS = (17, PARTS // 2, PARTS - 9)

#: ~0.1% of PART survives this CO's compound restriction, the regime partition
#: pruning targets — the candidate scan (data-size-bound, prunable to one
#: range shard) dominates, while the fixpoint's per-row index probes
#: (working-set-bound, identical either way) stay small.  The recursive
#: ``connects`` edge still drives reachability over hash-sharded CONN.
WORKING_SET_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS (SELECT * FROM PART
           WHERE x < 10000 AND y < 2500
             AND ptype IN ('part-type1', 'part-type2',
                           'part-type3', 'part-type4')),
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""


@pytest.fixture(scope="module")
def dbs():
    plain = build_parts_database(PARTS, buffer_capacity=BUFFER_PAGES)
    sharded = build_parts_database(
        PARTS, buffer_capacity=BUFFER_PAGES, shards=SHARDS
    )
    return {"unsharded": plain, "sharded": sharded}


def _best_of(fn, repeats):
    """(best wall seconds, last result) after one untimed warm-up run."""
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - begin)
    return best, result


def _canonical(instance):
    return (
        instance.total_tuples(),
        instance.total_connections(),
        sorted((name, sorted(rows)) for name, rows in instance.rows.items()),
        sorted(
            (name, sorted(conns))
            for name, conns in instance.connections.items()
        ),
    )


def _record(name, unsharded_s, sharded_s, rows, gated):
    speedup = unsharded_s / sharded_s
    _RESULTS[name] = {
        "unsharded_s": round(unsharded_s, 6),
        "sharded_s": round(sharded_s, 6),
        "speedup": round(speedup, 2),
        "rows": rows,
        "shards": SHARDS,
        "gated": gated,
    }
    report(
        "sharded extraction",
        f"{name}: 1 shard {unsharded_s * 1e3:8.1f} ms | "
        f"{SHARDS} shards {sharded_s * 1e3:8.1f} ms "
        f"| {speedup:5.2f}x ({rows} rows)",
    )
    return speedup


def test_co_extraction_speedup(dbs, benchmark):
    schema = resolve(parse_xnf(WORKING_SET_CO), XNFViewCatalog())
    times = {}
    shapes = {}
    for mode, db in dbs.items():
        times[mode], instance = _best_of(
            lambda d=db: XNFCompiler(d).instantiate(schema), 3
        )
        shapes[mode] = _canonical(instance)
    assert shapes["unsharded"] == shapes["sharded"]
    _FLAGS["equivalent"] = True
    tuples, connections, _, _ = shapes["unsharded"]
    assert tuples > 0 and connections > 0
    pruned = dbs["sharded"].metrics.counter("xnf.scatter.pruned").value
    assert pruned > 0  # the speedup must come from provable shard pruning
    speedup = _record(
        "co_extraction",
        times["unsharded"],
        times["sharded"],
        tuples + connections,
        gated=True,
    )
    assert speedup > 1.0
    benchmark(lambda: XNFCompiler(dbs["sharded"]).instantiate(schema))


def test_setwise_traversal_reported(dbs, benchmark):
    times = {}
    visits = {}

    def traverse(db):
        return sum(
            traverse_setwise_sql(db, start, TRAVERSAL_DEPTH)
            for start in TRAVERSAL_STARTS
        )

    for mode, db in dbs.items():
        times[mode], visits[mode] = _best_of(lambda d=db: traverse(d), 2)
    assert visits["unsharded"] == visits["sharded"]
    # report-only: the traversal never enters the scatter stage, this row
    # documents that sharding does not tax plain index-driven SQL
    _record(
        "oo1_setwise_traversal",
        times["unsharded"],
        times["sharded"],
        visits["unsharded"],
        gated=False,
    )
    benchmark(lambda: traverse(dbs["sharded"]))


@pytest.fixture(scope="module", autouse=True)
def sharding_ledger():
    yield
    if _RESULTS:
        payload = {
            "parts": PARTS,
            "shards": SHARDS,
            "equivalent": _FLAGS["equivalent"],
            "workloads": _RESULTS,
        }
        LEDGER_PATH.write_text(json.dumps(payload, indent=2) + "\n")
