"""Exact per-op engine counts of the embedded perf workloads.

Wall clock cannot resolve a few per cent on a shared machine, but the
counts below are exact: a change that issues one more statement, misses
the plan cache once more or touches one more buffer page per op moves
them.  Each workload runs a fixed op prefix of its ``run`` stream at seed
1993, exactly as ``perf/run.py`` would, and every op's counter deltas are
compared with the pinned values.

A changed count fails here and is re-pinned in the same change, with the
reason.  Opcode counts are not pinned: they differ between interpreter
versions.

After warm-up, no op parses SQL text: every statement a workload issues
as text is recognised by the plan cache from its tokens.
"""

import pytest

from perf.workloads import WORKLOADS
from repro.relational import engine

SEED = 1993

PINNED = (
    "plancache.misses",
    "engine.statements",
    "storage.buffer_hits",
    "storage.buffer_misses",
    "txn.wal_flushes",
    "xnf.queries",
    "xnf.temp_tables",
)

#: per op, the deltas of PINNED in that order
EXPECTED = {
    "oo1.cache_nav": [(0, 0, 0, 0, 0, 0, 0)] * 3,
    "oo1.sql_step": [
        (0, 175, 176, 0, 0, 0, 0),
        (0, 175, 177, 0, 0, 0, 0),
        (0, 175, 176, 0, 0, 0, 0),
    ],
    "design.checkout": [
        (0, 18, 34, 1, 2, 8, 0),
        (0, 18, 33, 2, 2, 8, 0),
        (0, 18, 33, 2, 2, 8, 0),
    ],
    "oo1.closure": [(0, 19, 740, 0, 0, 19, 0), (0, 19, 737, 0, 0, 19, 0)],
    "oo1.closure_sharded": [
        (0, 21, 800, 0, 0, 21, 0),
        (0, 20, 819, 0, 0, 20, 0),
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_per_op_counts(name, monkeypatch):
    # the benchmark runs without forced sharding; so does this prefix
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    workload = WORKLOADS[name](SEED)
    workload.prepare()
    workload.setup()
    parses = []
    parse = engine.parse_statements

    def counted_parse(sql, *literal_tokens):
        parses.append(sql)
        return parse(sql, *literal_tokens)

    monkeypatch.setattr(engine, "parse_statements", counted_parse)
    try:
        ops = workload.op_stream("run")
        got = []
        before = workload.counters()
        token_lookups = workload.db.plan_cache.stats()["token_lookups"]
        for _ in EXPECTED[name]:
            _, op = next(ops)
            workload.run_op(op)
            after = workload.counters()
            got.append(tuple(after[key] - before[key] for key in PINNED))
            before = after
        token_lookups = workload.db.plan_cache.stats()["token_lookups"] - token_lookups
    finally:
        workload.teardown()
    assert got == EXPECTED[name]
    assert parses == []
    if name == "oo1.sql_step":
        assert token_lookups == sum(op[PINNED.index("engine.statements")] for op in got)
