"""The six workloads.  Later issues refer to them by name.

Every workload is a closed loop: the caller waits for its composite
object before it navigates it.  The op sequence comes from ``--seed``; the
program under test sees only the generated inputs.  ``run_op`` times the
op's phases and then checks the outputs against ``perf.oracle`` outside
the timed regions; a mismatch raises :class:`CheckFailed`.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perf.oracle import DesignOracle, PartsOracle
from perf.spans import Patches, Recorder
from repro.client.client import WireClient
from repro.relational.engine import Database
from repro.relational.txn.wal import WriteAheadLog
from repro.workloads.design import build_design_database, working_set_co
from repro.workloads.oo1 import PARTS_CO, build_parts_database
from repro.xnf.api import XNFSession

now = time.perf_counter

Sample = Tuple[float, ...]  # seconds per phase, in Workload.phases order
Failure = Tuple[str, str]  # (op id "<stream>:<n>", what went wrong)


class CheckFailed(Exception):
    """An op ran but its output does not match the oracle."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""
    why = ""
    #: what one op is, and the sizes behind it (printed and in the README)
    shape = ""
    phases: Tuple[str, ...] = ()
    #: tail percentile: the highest of 50/75/90/95/99/99.9 that leaves at
    #: least ten samples beyond it at the op count of the seed commit
    tail_pct = 50.0
    warmup_ops = 2
    #: ops over which the traced pass takes its exact per-op counts
    count_ops = 4

    def __init__(self, seed: int, recorder: Optional[Recorder] = None):
        self.seed = seed
        self.rec = recorder if recorder is not None else Recorder()
        self.extras: Dict[str, float] = {}
        self._streams: Dict[str, Iterator[Tuple[str, Any]]] = {}

    # -- life cycle ----------------------------------------------------------

    def prepare(self) -> None:
        """Build the oracle (the benchmark's own work, not timed)."""

    def setup(self) -> None:
        """Build + load + warm-up: everything ``setup_s`` pays for."""
        raise NotImplementedError

    def verify_setup(self) -> None:
        """Once, untimed: is the oracle still in step with the generator?"""

    def teardown(self) -> None:
        """Release what setup() built, so it can run again."""

    # -- ops -----------------------------------------------------------------

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    def ops(self, stream: str) -> Iterator[Any]:
        """Endless deterministic op sequence for (seed, stream)."""
        raise NotImplementedError

    def run_op(self, op: Any) -> Sample:
        raise NotImplementedError

    def warm_up(self) -> None:
        stream = self.ops("warm")
        for _ in range(self.warmup_ops):
            self.run_op(next(stream))

    def op_stream(self, stream: str) -> Iterator[Tuple[str, Any]]:
        """(op id, op) pairs of *stream*, resumed where it was left."""
        if stream not in self._streams:
            self._streams[stream] = (
                (f"{stream}:{number}", op) for number, op in enumerate(self.ops(stream))
            )
        return self._streams[stream]

    def run_block(
        self, seconds: float, min_ops: int = 1, stream: str = "run"
    ) -> Tuple[List[Sample], List[Failure], float]:
        """Run ops of *stream* for *seconds* (and at least *min_ops*).
        Returns the samples, the failures, and the seconds the samples
        account for."""
        ops = self.op_stream(stream)
        samples: List[Sample] = []
        failures: List[Failure] = []
        deadline = now() + seconds
        while now() < deadline or len(samples) + len(failures) < min_ops:
            op_id, op = next(ops)
            try:
                with self.rec.span("perf.op", op_id):
                    samples.append(self.run_op(op))
            except Exception as exc:  # an op that raises is a failed op
                failures.append((op_id, f"{type(exc).__name__}: {exc}"))
        return samples, failures, sum(sum(sample) for sample in samples)

    # -- per-layer pass ---------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Monotonic raw counters; the harness reports per-op deltas."""
        return {}

    def instrument(self, patches: Patches) -> None:
        """Place spans around the calls into each layer."""

    def set_obs(self, enabled: bool) -> bool:
        """Switch the program's own tracing; False when it has no switch."""
        return False

    def measure_floor(self) -> None:
        """Fill ``extras`` with what only this workload can measure."""


# ---------------------------------------------------------------------------
# instrumentation shared by the embedded workloads
# ---------------------------------------------------------------------------


def instrument_engine(patches: Patches, db: Database) -> None:
    from repro.relational import engine
    from repro.relational.catalog import Table
    from repro.relational.executor.operators import SeqScan
    from repro.relational.optimizer.planner import CompiledPlan, Planner
    from repro.relational.rewrite import Rewriter

    patches.wrap(db, "execute", "relational.engine")
    patches.wrap(db, "execute_ast", "relational.engine")
    patches.wrap(engine, "parse_statements", "relational.sql")
    patches.wrap(engine, "normalize_statement", "relational.plancache")
    patches.wrap(db.plan_cache, "lookup", "relational.plancache")
    patches.wrap(db.builder, "build_query", "relational.qgm")
    patches.wrap(Rewriter, "rewrite", "relational.rewrite")
    patches.wrap(Planner, "plan_statement", "relational.optimizer")
    patches.wrap_iter(CompiledPlan, "rows", "relational.executor")
    patches.wrap_iter(CompiledPlan, "batches", "relational.executor")
    # UPDATE/DELETE find their rows with a bare SeqScan, outside any plan
    patches.wrap_iter(SeqScan, "rows", "relational.executor")
    # worktable ingest (ShardedTable inherits both)
    patches.wrap(Table, "insert_many", "relational.storage")
    patches.wrap(Table, "truncate", "relational.storage")
    patches.wrap(db.txn_manager, "begin", "relational.txn")
    patches.wrap(db.txn_manager, "commit", "relational.txn")
    patches.wrap(db.txn_manager, "rollback", "relational.txn")


def instrument_xnf(patches: Patches) -> None:
    from repro.xnf import api, sharding
    from repro.xnf.cache import COCache
    from repro.xnf.semantic_rewrite import XNFCompiler

    patches.wrap(api, "parse_xnf_statements", "xnf.lang")
    patches.wrap(api, "resolve", "xnf.views")
    patches.wrap(XNFCompiler, "instantiate", "xnf.semantic_rewrite")
    patches.wrap(sharding, "scatter_candidates", "xnf.sharding")
    patches.wrap(COCache, "load", "xnf.cache_load")


def engine_counters(db: Database) -> Dict[str, float]:
    io = db.io_stats()
    cache = db.plan_cache.stats()
    wal = db.txn_manager.wal.metrics()
    counter = db.metrics.counter
    return {
        "storage.buffer_hits": io["buffer_hits"],
        "storage.buffer_misses": io["buffer_misses"],
        "storage.evictions": io["evictions"],
        "storage.disk_reads": io["disk_reads"],
        "storage.disk_writes": io["disk_writes"],
        "plancache.hits": cache["hits"],
        "plancache.misses": cache["misses"],
        "engine.statements": db.statements_executed,
        "txn.wal_flushes": wal["flushes"],
        "txn.wal_bytes": wal["bytes_flushed"],
        "txn.retries": counter("txn.retries").value,
        "xnf.rounds": counter("xnf.fixpoint.rounds").value,
        "xnf.scatter_queries": counter("xnf.scatter.queries").value,
        "xnf.scatter_pruned": counter("xnf.scatter.pruned").value,
    }


class Embedded(Workload):
    """One thread, one in-process Database."""

    db: Database
    session: XNFSession

    def __init__(self, seed: int, recorder: Optional[Recorder] = None):
        super().__init__(seed, recorder)
        self.xnf_queries = 0
        self.xnf_temp_tables = 0
        self.loaded_items = 0

    def take(self, text: str):
        co = self.session.query(text)
        stats = self.session.last_stats
        self.xnf_queries += stats.queries_issued
        self.xnf_temp_tables += stats.temp_tables_created
        self.loaded_items += co.cache.total_tuples() + co.cache.total_connections()
        return co

    def counters(self) -> Dict[str, float]:
        out = engine_counters(self.db)
        out["xnf.queries"] = self.xnf_queries
        out["xnf.temp_tables"] = self.xnf_temp_tables
        out["xnf.loaded_items"] = self.loaded_items
        return out

    def instrument(self, patches: Patches) -> None:
        instrument_engine(patches, self.db)
        instrument_xnf(patches)

    def set_obs(self, enabled: bool) -> bool:
        self.db.tracer.enabled = enabled
        return True

    def teardown(self) -> None:
        self.__dict__.pop("db", None)
        self.__dict__.pop("session", None)


# ---------------------------------------------------------------------------
# OO1: navigation (cache vs per-step SQL) and recursive closure
# ---------------------------------------------------------------------------

NUM_PARTS = 2000
TRAVERSE_DEPTH = 5
LOOKUPS_PER_OP = 50
TWO_HOP_PATH = "connects[target]->connects[target]"


class OO1(Embedded):
    shards = 0

    def prepare(self) -> None:
        self.oracle = PartsOracle(NUM_PARTS, self.seed)

    def build(self) -> None:
        self.db = build_parts_database(NUM_PARTS, seed=self.seed, shards=self.shards)
        self.session = XNFSession(self.db)

    def verify_setup(self) -> None:
        rows = self.db.execute("SELECT cfrom, cto FROM CONN").rows
        self.oracle.check_generator([(row[0], row[1]) for row in rows])


class NavWorkload(OO1):
    phases = ("traverse", "lookup", "path")
    #: does a traversal cross each connection instance once (a CO
    #: relationship is a set) or each CONN row (SQL returns the bag)?
    connections_as_set = False
    shape = (
        f"{NUM_PARTS} parts, 3 connections each; op = depth-{TRAVERSE_DEPTH} "
        f"traversal (~364 visits) + {LOOKUPS_PER_OP} lookups + one 2-hop path; "
        "1 thread, closed loop"
    )

    def ops(self, stream: str) -> Iterator[Tuple[int, List[int]]]:
        rng = self.rng(stream)
        while True:
            yield (
                rng.randint(1, NUM_PARTS),
                [rng.randint(1, NUM_PARTS) for _ in range(LOOKUPS_PER_OP)],
            )

    def check_nav(
        self,
        start: int,
        visits: int,
        found: Sequence[Tuple[int, Any]],
        two_hops: Sequence[int],
    ) -> None:
        oracle = self.oracle
        expected = oracle.walk_visits(start, TRAVERSE_DEPTH, self.connections_as_set)
        check(visits == expected, f"traversal from {start}: {visits} visits, oracle {expected}")
        for pid, x in found:
            check(x == oracle.parts[pid][2], f"lookup {pid}: x={x!r}")
        check(len(found) == LOOKUPS_PER_OP, f"{len(found)} lookups answered")
        check(
            len(two_hops) == len(set(two_hops))
            and set(two_hops) == oracle.two_hops(start),
            f"2-hop path from {start} is not the oracle's set",
        )


class CacheNav(NavWorkload):
    name = "oo1.cache_nav"
    why = (
        "The paper's headline, navigating a loaded CO cache: xnf.cache/cursors/paths do "
        "all the work and relational.* none, so an engine change must not move it."
    )
    tail_pct = 99.9
    warmup_ops = 50
    connections_as_set = True

    def setup(self) -> None:
        self.visits = 0
        self.build()
        self.co = self.take(PARTS_CO)
        self.warm_up()

    def teardown(self) -> None:
        super().teardown()
        self.__dict__.pop("co", None)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["xnf.navigations"] = self.co.cache.navigations
        out["xnf.visits"] = self.visits
        return out

    def run_op(self, op: Tuple[int, List[int]]) -> Sample:
        start_pid, lookups = op
        co = self.co
        t0 = now()
        with self.rec.span("xnf.nav"):
            visits = 0
            stack = [(co.find("Xpart", pid=start_pid), TRAVERSE_DEPTH)]
            while stack:
                part, remaining = stack.pop()
                visits += 1
                if remaining:
                    remaining -= 1
                    for target in part.related("connects", "children"):
                        stack.append((target, remaining))
            t1 = now()
            found = [co.find("Xpart", pid=pid) for pid in lookups]
            t2 = now()
            two_hops = co.path(co.find("Xpart", pid=start_pid), TWO_HOP_PATH)
            t3 = now()
        self.visits += visits
        self.check_nav(
            start_pid,
            visits,
            [(pid, part["x"]) for pid, part in zip(lookups, found) if part is not None],
            [part["pid"] for part in two_hops],
        )
        return (t1 - t0, t2 - t1, t3 - t2)


class SqlStep(NavWorkload):
    name = "oo1.sql_step"
    why = (
        "The same traversals and lookups as one SQL statement per step: per-statement "
        "overhead is everything and xnf.* is idle; its ratio to oo1.cache_nav is the "
        "paper's E1."
    )
    tail_pct = 95.0
    warmup_ops = 3

    def setup(self) -> None:
        self.build()
        self.warm_up()

    def run_op(self, op: Tuple[int, List[int]]) -> Sample:
        start_pid, lookups = op
        execute = self.db.execute
        t0 = now()
        visits = 0
        stack = [(start_pid, TRAVERSE_DEPTH)]
        while stack:
            pid, remaining = stack.pop()
            visits += 1
            if remaining:
                remaining -= 1
                for (target,) in execute(f"SELECT cto FROM CONN WHERE cfrom = {pid}").rows:
                    stack.append((target, remaining))
        t1 = now()
        found = [
            execute(f"SELECT pid, x FROM PART WHERE pid = {pid}").rows for pid in lookups
        ]
        t2 = now()
        near = {row[0] for row in execute(f"SELECT cto FROM CONN WHERE cfrom = {start_pid}").rows}
        two_hops = {
            row[0]
            for pid in sorted(near)
            for row in execute(f"SELECT cto FROM CONN WHERE cfrom = {pid}").rows
        }
        t3 = now()
        self.check_nav(
            start_pid, visits, [rows[0] for rows in found if rows], sorted(two_hops)
        )
        return (t1 - t0, t2 - t1, t3 - t2)


def closure_co(root_pid: int) -> str:
    return f"""
    OUT OF
     Xroot AS (SELECT * FROM PART WHERE pid = {root_pid}),
     Xpart AS PART,
     anchor AS (RELATE Xroot, Xpart WHERE Xroot.pid = Xpart.pid),
     connects AS (RELATE Xpart source, Xpart target
                  WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
                  USING CONN c
                  WHERE source.pid = c.cfrom AND target.pid = c.cto)
    TAKE *
    """


class Closure(OO1):
    name = "oo1.closure"
    why = (
        "Bulk recursive extraction over a cyclic relationship: executor batches, "
        "worktable ingest and COCache.load do the work; plans are cached, so it "
        "bypasses what oo1.sql_step stresses."
    )
    shape = (
        f"{NUM_PARTS} parts (fits the 256-page pool); op = TAKE the reachability "
        "closure of one root part: ~1 900 tuples + ~5 600 connections, 16-19 "
        "semi-naive rounds; 1 thread, closed loop"
    )
    phases = ("take",)
    tail_pct = 75.0
    warmup_ops = 2

    def ops(self, stream: str) -> Iterator[int]:
        rng = self.rng(stream)
        while True:
            yield rng.randint(1, NUM_PARTS)

    def setup(self) -> None:
        self.build()
        self.warm_up()

    def run_op(self, root: int) -> Sample:
        t0 = now()
        co = self.take(closure_co(root))
        t1 = now()
        members = self.oracle.closure(root)
        parts = co.node("Xpart")
        check(len(co.node("Xroot")) == 1, f"closure of {root}: no single root tuple")
        check(
            len(parts) == len(members) and {part["pid"] for part in parts} == members,
            f"closure of {root}: {len(parts)} parts, oracle set has {len(members)}",
        )
        expected = self.oracle.closure_connections(members)
        got = len(co.connections("connects"))
        check(got == expected, f"closure of {root}: {got} connections, oracle {expected}")
        return (t1 - t0,)


class ClosureSharded(Closure):
    name = "oo1.closure_sharded"
    why = (
        "Identical ops and oracle on 2 shards: the only row that exercises "
        "relational.storage.sharded and xnf.sharding (scatter/gather, partitioned "
        "deltas); must stay flat beside oo1.closure."
    )
    shape = Closure.shape.replace("parts (", "parts on 2 shards (")
    shards = 2


# ---------------------------------------------------------------------------
# design.checkout: selective extraction with writes beside reads
# ---------------------------------------------------------------------------

CHECKOUT_DOCUMENTS = 200
UPDATES_PER_CHECKIN = 5


def check_working_set(co: Any, oracle: DesignOracle, did: int, vnum: int) -> None:
    """Check a working-set CO (embedded) against the oracle."""
    for node, count in oracle.NODE_COUNTS.items():
        check(len(co.node(node)) == count, f"doc {did} v{vnum}: {node} has {len(co.node(node))}")
    vid = oracle.version_id(did, vnum)
    check(co.node("Xver")[0]["vid"] == vid, f"doc {did} v{vnum}: wrong version")
    check(
        {sub["sid"] for sub in co.node("Xsub")} == set(oracle.subcomp_ids(vid)),
        f"doc {did} v{vnum}: subcomponents are not the oracle's",
    )


class Checkout(Embedded):
    name = "design.checkout"
    why = (
        "Selective extraction with writes beside reads on a table larger than the "
        "buffer pool: compile, semantic rewrite and index probes dominate the TAKE, "
        "PK UPDATEs the check-in."
    )
    shape = (
        f"{CHECKOUT_DOCUMENTS} documents = 60 800 tuples; SUBCOMP is 471 pages against "
        "the 256-page pool; op = TAKE one version's 102-tuple working set, walk it with "
        f"cursors, update {UPDATES_PER_CHECKIN} subcomponents (deferred), flush in one "
        "WAL-forced transaction; 1 thread, closed loop"
    )
    phases = ("take", "walk", "update", "checkin")
    tail_pct = 50.0
    warmup_ops = 2
    count_ops = 3

    def prepare(self) -> None:
        self.oracle = DesignOracle(CHECKOUT_DOCUMENTS)
        self.statements_emitted = 0

    def setup(self) -> None:
        self.wal = WriteAheadLog()
        self.db = build_design_database(CHECKOUT_DOCUMENTS, seed=self.seed, wal=self.wal)
        self.session = XNFSession(self.db, deferred_propagation=True)
        self.warm_up()

    def ops(self, stream: str) -> Iterator[Tuple[int, int, List[int], List[float]]]:
        rng = self.rng(stream)
        per_version = self.oracle.NODE_COUNTS["Xsub"]
        while True:
            yield (
                rng.randint(1, CHECKOUT_DOCUMENTS),
                rng.randint(1, self.oracle.VERSIONS),
                rng.sample(range(per_version), UPDATES_PER_CHECKIN),
                [float(rng.randint(1, 100000)) for _ in range(UPDATES_PER_CHECKIN)],
            )

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["xnf.manipulate_statements"] = self.statements_emitted
        return out

    def run_op(self, op: Tuple[int, int, List[int], List[float]]) -> Sample:
        did, vnum, offsets, costs = op
        sids = self.oracle.subcomp_ids(self.oracle.version_id(did, vnum))
        t0 = now()
        co = self.take(working_set_co(did, vnum))
        t1 = now()
        with self.rec.span("xnf.nav"):
            walked = 0
            components = co.cursor("Xcomp")
            while components.fetch() is not None:
                subcomps = co.dependent_cursor(components, "has_subcomp")
                while subcomps.fetch() is not None:
                    walked += 1
                subcomps.close()
            components.close()
        t2 = now()
        with self.rec.span("xnf.manipulate"):
            for offset, cost in zip(offsets, costs):
                co.update(co.find("Xsub", sid=sids[offset]), cost=cost)
        t3 = now()
        with self.rec.span("xnf.manipulate"):
            emitted = co.flush()
        t4 = now()
        self.statements_emitted += emitted
        check_working_set(co, self.oracle, did, vnum)
        check(walked == self.oracle.NODE_COUNTS["Xsub"], f"walk saw {walked} subcomponents")
        check(emitted == UPDATES_PER_CHECKIN, f"check-in ran {emitted} statements")
        for offset, cost in zip(offsets, costs):
            sid = sids[offset]
            stored = self.db.execute(f"SELECT cost FROM SUBCOMP WHERE sid = {sid}").rows
            check(stored == [(cost,)], f"after check-in SUBCOMP {sid} holds {stored}, not {cost}")
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


# ---------------------------------------------------------------------------
# wire.mix: the same engine through repro.client / repro.server
# ---------------------------------------------------------------------------

WIRE_DOCUMENTS = 60
WIRE_CLIENTS = 2
SCAN_ROWS = 1000
#: rows per response frame (perf/serve.py starts the server with this)
SCAN_PAGE_ROWS = 256
#: one op is one round of ten requests in this fixed interleaving:
#: 40 % take, 30 % point, 20 % scan, 10 % write
ROUND = ("take", "point", "scan", "take", "point", "write", "take", "scan", "point", "take")
SERVER_START_TIMEOUT_S = 60.0


class WireMix(Workload):
    name = "wire.mix"
    why = (
        "The same engine through repro.client/repro.server with 2 concurrent "
        "connections, MVCC snapshots and transactions: encode/decode, framing and "
        "executor-pool queueing exist only here."
    )
    shape = (
        f"server child process, design database of {WIRE_DOCUMENTS} documents = 18 240 "
        f"tuples, MVCC on; {WIRE_CLIENTS} closed-loop connections from one client "
        "process; op = one round of 10 requests: 4 take (TAKE a working set, page a "
        "cursor, one path, close), 3 point (PK select), 2 scan (1 000 rows paged by "
        "256), 1 write (BEGIN, UPDATE by PK, COMMIT under run_retryable, read back)"
    )
    phases = ("take", "point", "scan", "write")
    tail_pct = 90.0
    warmup_ops = 1
    count_ops = 4

    def prepare(self) -> None:
        self.oracle = DesignOracle(WIRE_DOCUMENTS)
        self.retries = 0
        self.requests = 0
        self._count_lock = threading.Lock()
        self.server: Optional[subprocess.Popen] = None
        self.clients: List[WireClient] = []

    # -- server child -----------------------------------------------------------

    def setup(self) -> None:
        serve = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")
        self.server = subprocess.Popen(
            [sys.executable, serve, "--seed", str(self.seed),
             "--documents", str(WIRE_DOCUMENTS), "--fetch-size", str(SCAN_PAGE_ROWS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        port = self._read_port()
        self.clients = [WireClient(port=port) for _ in range(WIRE_CLIENTS)]
        for index, client in enumerate(self.clients):
            stream = self.ops(f"warm{index}")
            for _ in range(self.warmup_ops):
                self.run_round(client, next(stream))

    def _read_port(self) -> int:
        assert self.server is not None and self.server.stdout is not None
        # readline() has no timeout of its own; a watchdog ends a silent child
        watchdog = threading.Timer(SERVER_START_TIMEOUT_S, self.server.kill)
        watchdog.start()
        try:
            line = self.server.stdout.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("PORT "):
            raise RuntimeError(f"perf/serve.py did not come up (said {line!r})")
        return int(line.split()[1])

    def teardown(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
        server.wait()
        for pipe in (server.stdin, server.stdout):
            if pipe is not None:
                pipe.close()

    # -- ops -----------------------------------------------------------------

    def ops(self, stream: str) -> Iterator[List[Tuple[str, Any]]]:
        """Rounds for one connection.  Connection *i* writes only
        subcomponents with ``sid % clients == i``: a read-back then has one
        possible answer, and the run has no failing op by construction."""
        rng = self.rng(stream)
        lane = int(stream[-1]) if stream[-1].isdigit() else 0
        oracle = self.oracle
        while True:
            requests: List[Tuple[str, Any]] = []
            for kind in ROUND:
                if kind == "take":
                    did = rng.randint(1, WIRE_DOCUMENTS)
                    vnum = rng.randint(1, oracle.VERSIONS)
                    cids = oracle.component_ids(oracle.version_id(did, vnum))
                    requests.append((kind, (did, vnum, rng.choice(cids))))
                elif kind == "point":
                    requests.append((kind, rng.randint(1, oracle.num_subcomps)))
                elif kind == "scan":
                    requests.append(
                        (kind, rng.randint(1, oracle.num_subcomps - SCAN_ROWS + 1))
                    )
                else:
                    slot = rng.randrange(oracle.num_subcomps // WIRE_CLIENTS)
                    sid = slot * WIRE_CLIENTS + lane + 1
                    requests.append((kind, (sid, float(rng.randint(1, 100000)))))
            yield requests

    def run_round(self, client: WireClient, requests: List[Tuple[str, Any]]) -> Sample:
        spent = dict.fromkeys(self.phases, 0.0)
        for kind, arg in requests:
            begin = now()
            verify = getattr(self, f"do_{kind}")(client, arg)
            spent[kind] += now() - begin
            verify()
        with self._count_lock:
            self.requests += len(requests)
        return tuple(spent[kind] for kind in self.phases)

    def do_take(self, client: WireClient, arg: Tuple[int, int, int]):
        did, vnum, cid = arg
        co = client.take(working_set_co(did, vnum))
        paged = list(co.cursor("Xsub"))
        below = co.path("Xcomp", "has_subcomp", cid=cid)
        co.close()
        oracle = self.oracle

        def verify() -> None:
            check(co.nodes == oracle.NODE_COUNTS, f"doc {did} v{vnum}: nodes {co.nodes}")
            sids = set(oracle.subcomp_ids(oracle.version_id(did, vnum)))
            check({row["sid"] for row in paged} == sids and len(paged) == len(sids),
                  f"doc {did} v{vnum}: paged cursor is not the oracle's set")
            check(sorted(row["values"]["sid"] for row in below)
                  == list(oracle.subcomp_ids_of_component(cid)),
                  f"path below component {cid} is not the oracle's")

        return verify

    def do_point(self, client: WireClient, sid: int):
        row = client.execute(f"SELECT sid, scid FROM SUBCOMP WHERE sid = {sid}").first()
        return lambda: check(
            row == (sid, self.oracle.component_of(sid)), f"point {sid}: {row}"
        )

    def do_scan(self, client: WireClient, low: int):
        high = low + SCAN_ROWS - 1
        rows = client.execute(
            f"SELECT sid, scid FROM SUBCOMP WHERE sid >= {low} AND sid <= {high}"
        ).rows()
        return lambda: check(
            sorted(row[0] for row in rows) == list(range(low, high + 1)),
            f"scan {low}..{high}: {len(rows)} rows",
        )

    def do_write(self, client: WireClient, arg: Tuple[int, float]):
        sid, cost = arg
        attempts = 0

        def attempt() -> None:
            nonlocal attempts
            attempts += 1
            client.begin()
            client.execute(f"UPDATE SUBCOMP SET cost = {cost} WHERE sid = {sid}")
            client.commit()

        # an exhausted retry budget raises: the round counts as failed
        client.run_retryable(attempt, rng=self.rng(f"retry{sid}"))
        stored = client.execute(f"SELECT cost FROM SUBCOMP WHERE sid = {sid}").first()
        if attempts > 1:
            with self._count_lock:
                self.retries += attempts - 1
        return lambda: check(stored == (cost,), f"write {sid}: read back {stored}")

    def run_block(
        self, seconds: float, min_ops: int = 1, stream: str = "run"
    ) -> Tuple[List[Sample], List[Failure], float]:
        """All connections run rounds for the same *seconds*; the block
        accounts for wall time, since the connections share the server."""
        streams = [self.op_stream(f"{stream}{index}") for index in range(WIRE_CLIENTS)]
        samples: List[Sample] = []
        failures: List[Failure] = []
        begin = now()
        deadline = begin + seconds
        share = -(-min_ops // WIRE_CLIENTS)

        def connection(index: int) -> None:
            done = 0
            while now() < deadline or done < share:
                op_id, requests = next(streams[index])
                done += 1
                try:
                    with self.rec.span("perf.op", op_id):
                        samples.append(self.run_round(self.clients[index], requests))
                except Exception as exc:  # an op that raises is a failed op
                    failures.append((op_id, f"{type(exc).__name__}: {exc}"))

        threads = [
            threading.Thread(target=connection, args=(index,))
            for index in range(WIRE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples, failures, now() - begin

    # -- per-layer pass ---------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        network = self.clients[0].execute(
            "SELECT frames_in, frames_out, bytes_in, bytes_out FROM SYS_STAT_NETWORK"
        ).first()
        return {
            "wire.frames": network[0] + network[1],
            "wire.bytes": network[2] + network[3],
            "txn.retries": self.retries,
            "wire.requests": self.requests,
        }

    def instrument(self, patches: Patches) -> None:
        from repro.server import protocol

        patches.wrap(WireClient, "request", "wire.roundtrip")
        patches.wrap(protocol, "encode_frame", "client.codec")
        patches.wrap(protocol, "decode_body", "client.codec")

    def measure_floor(self) -> None:
        """What the wire adds: ping RTT, the codec's cost on the frames of
        one scan, and the same rounds run embedded on an identical local
        database (round trip minus that = dispatch + queue + kernel)."""
        from repro.server import protocol

        client = self.clients[0]
        pings = []
        for _ in range(200):
            begin = now()
            client.ping()
            pings.append(now() - begin)
        self.extras["wire.ping_ms"] = statistics.median(pings) * 1e3
        # the response frames of one scan, as the server pages them
        rows = [[sid, self.oracle.component_of(sid)] for sid in range(1, SCAN_ROWS + 1)]
        frames = [
            protocol.ok(columns=["sid", "scid"], rows=rows[low:low + SCAN_PAGE_ROWS],
                        more=low + SCAN_PAGE_ROWS < SCAN_ROWS)
            for low in range(0, SCAN_ROWS, SCAN_PAGE_ROWS)
        ]
        codec = []
        for _ in range(50):
            begin = now()
            for frame in frames:
                protocol.decode_body(protocol.encode_frame(frame)[4:])
            codec.append(now() - begin)
        self.extras["wire.scan_codec_ms"] = statistics.median(codec) * 1e3
        twin = EmbeddedTwin(self.seed, self.oracle)
        stream = self.ops("twin0")
        twin.run_round(next(stream))
        rounds = []
        for _ in range(self.count_ops):
            begin = now()
            twin.run_round(next(stream))
            rounds.append(now() - begin)
        self.extras["server.embedded_ms"] = statistics.median(rounds) * 1e3


class EmbeddedTwin:
    """The wire.mix requests against a local copy of the server's database."""

    def __init__(self, seed: int, oracle: DesignOracle):
        self.db = build_design_database(WIRE_DOCUMENTS, seed=seed, mvcc=True)
        self.session = XNFSession(self.db)
        self.oracle = oracle

    def run_round(self, requests: List[Tuple[str, Any]]) -> None:
        db = self.db
        for kind, arg in requests:
            if kind == "take":
                did, vnum, cid = arg
                co = self.session.query(working_set_co(did, vnum))
                list(co.cursor("Xsub"))
                co.path(co.find("Xcomp", cid=cid), "has_subcomp")
            elif kind == "point":
                db.execute(f"SELECT sid, scid FROM SUBCOMP WHERE sid = {arg}")
            elif kind == "scan":
                db.execute(
                    "SELECT sid, scid FROM SUBCOMP "
                    f"WHERE sid >= {arg} AND sid <= {arg + SCAN_ROWS - 1}"
                )
            else:
                sid, cost = arg

                def attempt() -> None:
                    db.begin()
                    db.execute(f"UPDATE SUBCOMP SET cost = {cost} WHERE sid = {sid}")
                    db.commit()

                db.run_retryable(attempt)
                db.execute(f"SELECT cost FROM SUBCOMP WHERE sid = {sid}")


WORKLOADS = {
    cls.name: cls
    for cls in (CacheNav, SqlStep, Checkout, Closure, ClosureSharded, WireMix)
}
