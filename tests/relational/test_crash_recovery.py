"""Crash-recovery property harness (ISSUE PR 2 tentpole, part 4).

For each seed: build a fully *logged* workload database, run a seeded DML
mix under an armed :class:`FaultInjector` until a simulated crash, then
reopen over the surviving disk + stable WAL prefix and recover.  The
invariants checked after every crash:

1. **Exactly the committed transactions** — a shadow oracle replays the
   CRC-verified stable log (committed transactions only, compensation
   records included) into per-table multisets; the recovered tables must
   match the oracle exactly.
2. **Acknowledged implies durable** — every transaction whose COMMIT was
   acknowledged to the client before the crash is in the stable committed
   set (the reverse need not hold: a commit can reach stable storage and
   crash before the acknowledgement).
3. **Every torn write detected** — recovery's checksum pass flags exactly
   the pages whose latest disk image the injector tore.
4. **Checksums clean afterwards** — every page re-reads without error.
5. **Idempotence** — a second recovery pass redoes and undoes nothing.
6. **CO equivalence** — instantiating the paper's composite object on the
   recovered database gives byte-identical nodes and connections to a
   never-crashed control database holding the oracle rows.
7. **Plan-cache warm-up** — re-running the CO instantiation after recovery
   hits the (freshly invalidated, then refilled) plan cache at > 0.9.
8. **Recovery timed** — the run's :class:`RecoveryStats` records a
   non-negative wall time.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

from repro.errors import (
    ChecksumError,
    IOFaultError,
    ResourceExhaustedError,
    SimulatedCrash,
)
from repro.relational.engine import Database
from repro.relational.storage import FaultInjector, FaultPlan
from repro.relational.txn import wal as wal_kinds
from repro.workloads import company, oo1
from repro.xnf.api import XNFSession

SEEDS = [11, 23, 37, 41, 59]

COMPANY_TABLES = [
    "DEPT", "EMP", "PROJ", "SKILLS", "EMPSKILL", "PROJSKILL", "EMPPROJ",
]
PARTS_TABLES = ["DESIGNLIB", "PART", "CONN"]

# ---------------------------------------------------------------------------
# shadow oracle: replay the stable log's committed transactions
# ---------------------------------------------------------------------------


def _oracle_tables(wal) -> Dict[str, Counter]:
    """Multiset of rows per table implied by the stable committed txns."""
    records = wal.stable_records()
    committed = {r.txn_id for r in records if r.kind == wal_kinds.COMMIT}
    tables: Dict[str, Counter] = {}
    for record in records:
        if record.txn_id not in committed:
            continue
        kind = record.comp_kind if record.kind == wal_kinds.CLR else record.kind
        if kind not in (wal_kinds.INSERT, wal_kinds.DELETE, wal_kinds.UPDATE):
            continue
        table = tables.setdefault(record.table, Counter())
        if kind in (wal_kinds.DELETE, wal_kinds.UPDATE):
            table[tuple(record.before)] -= 1
        if kind in (wal_kinds.INSERT, wal_kinds.UPDATE):
            table[tuple(record.after)] += 1
    return {name: +counter for name, counter in tables.items()}


def _table_contents(db: Database, name: str) -> Counter:
    return Counter(tuple(row) for row in db.execute(f"SELECT * FROM {name}").rows)


def _control_database(schema_fn, oracle: Dict[str, Counter]) -> Database:
    """A never-crashed database holding exactly the oracle rows."""
    control = Database()
    schema_fn(control)
    for name, rows in oracle.items():
        table = control.catalog.get_table(name)
        for row, count in sorted(rows.items(), key=repr):
            for _ in range(count):
                table.insert(row)
    control.execute("ANALYZE")
    return control


def _co_fingerprint(db: Database, co_text: str):
    """Canonical (nodes, connections) image of a composite object."""
    co = XNFSession(db).query(co_text)
    nodes = {
        name: sorted(tuple(ct.values()) for ct in co.node(name))
        for name in co.nodes()
    }
    edges = {
        name: sorted(
            (
                tuple(conn.parent.values()),
                tuple(conn.child.values()),
                tuple(sorted(conn.attributes.items())),
            )
            for conn in co.connections(name)
        )
        for name in co.edges()
    }
    return nodes, edges


# ---------------------------------------------------------------------------
# the seeded fault workload
# ---------------------------------------------------------------------------


class WorkloadRun:
    """One crash run: client-side acknowledgement log plus fault telemetry."""

    def __init__(self):
        self.acked_txn_ids: set = set()
        self.statements_run = 0
        self.statement_errors = 0
        self.crashed = False
        self.checksum_poisoned = False


def _last_commit_txn_id(db: Database) -> Optional[int]:
    records = db.txn_manager.wal.records
    if records and records[-1].kind == wal_kinds.COMMIT:
        return records[-1].txn_id
    return None


def _run_company_workload(
    db: Database, rng: random.Random, statements: int = 120
) -> WorkloadRun:
    """Seeded mix of autocommit DML, explicit transactions, rollbacks and
    checkpoints against EMP, driven until a simulated crash (or the end)."""
    run = WorkloadRun()
    known = [1, 2, 3, 4, 5, 6]
    next_eno = 1000

    def one_statement(sql: str) -> bool:
        """Returns True iff the statement was acknowledged."""
        run.statements_run += 1
        try:
            db.execute(sql)
            return True
        except IOFaultError:
            run.statement_errors += 1
            return False
        except ChecksumError:
            run.statement_errors += 1
            run.checksum_poisoned = True
            return False

    def random_dml() -> str:
        nonlocal next_eno
        roll = rng.random()
        if roll < 0.4:
            next_eno += 1
            known.append(next_eno)
            return (
                f"INSERT INTO EMP VALUES ({next_eno}, 'w{next_eno}', "
                f"{rng.randint(1, 900)}.0, {rng.randint(1, 3)}, 'gen')"
            )
        if roll < 0.8 or len(known) <= 4:
            return (
                f"UPDATE EMP SET sal = {rng.randint(1, 900)}.0 "
                f"WHERE eno = {rng.choice(known)}"
            )
        victim = known.pop(rng.randrange(6, len(known)) if len(known) > 6 else -1)
        return f"DELETE FROM EMP WHERE eno = {victim}"

    try:
        for _ in range(statements):
            if run.checksum_poisoned:
                break  # a poisoned page means an operator-forced restart
            action = rng.random()
            if action < 0.10 and not db.in_transaction:
                try:
                    db.checkpoint()
                except (IOFaultError, ChecksumError):
                    pass
                continue
            if action < 0.35:
                # explicit transaction: a few statements then COMMIT/ROLLBACK
                db.execute("BEGIN")
                txn_id = db._txn.txn_id
                for _ in range(rng.randint(1, 3)):
                    one_statement(random_dml())
                try:
                    if rng.random() < 0.75:
                        db.execute("COMMIT")
                        run.acked_txn_ids.add(txn_id)
                    else:
                        db.execute("ROLLBACK")
                except IOFaultError:
                    run.statement_errors += 1
                    if db.in_transaction:
                        db.execute("ROLLBACK")
                continue
            if one_statement(random_dml()):
                txn_id = _last_commit_txn_id(db)
                if txn_id is not None:
                    run.acked_txn_ids.add(txn_id)
    except SimulatedCrash:
        run.crashed = True
    return run


def _crash_and_recover(db: Database, schema_fn) -> Tuple[Database, object]:
    db.txn_manager.wal.crash()
    reopened = Database(disk=db.disk, wal=db.txn_manager.wal)
    schema_fn(reopened)
    stats = reopened.recover()
    return reopened, stats


def _company_schema(database: Database) -> None:
    database.execute_script(company._SCHEMA)


def _check_invariants(
    recovered: Database,
    stats,
    injector: FaultInjector,
    torn_snapshot: set,
    run: WorkloadRun,
    tables: List[str],
    schema_fn,
    co_text: str,
) -> None:
    wal = recovered.txn_manager.wal
    oracle = _oracle_tables(wal)

    # 1. exactly the committed transactions
    for name in tables:
        assert _table_contents(recovered, name) == oracle.get(name, Counter()), (
            f"seed-run table {name} diverges from the stable-log oracle"
        )

    # 2. acknowledged implies durable
    stable_committed = {
        r.txn_id for r in wal.stable_records() if r.kind == wal_kinds.COMMIT
    }
    assert run.acked_txn_ids <= stable_committed

    # 3. every torn write detected
    assert set(stats.torn_pages_detected) == torn_snapshot

    # 4. checksums clean after recovery
    for page_id in recovered.disk.page_ids():
        recovered.disk.read(page_id)

    # 5. idempotence
    second = recovered.recover()
    assert second.redo_applied == 0
    assert second.undo_applied == 0
    assert second.loser_txns == 0

    # 6. CO equivalence against a never-crashed control database
    control = _control_database(schema_fn, oracle)
    assert _co_fingerprint(recovered, co_text) == _co_fingerprint(
        control, co_text
    )

    # 7. plan-cache warm-up on re-run
    XNFSession(recovered).query(co_text)
    before = recovered.plan_cache.stats()
    XNFSession(recovered).query(co_text)
    after = recovered.plan_cache.stats()
    lookups = (after["hits"] - before["hits"]) + (
        after["misses"] - before["misses"]
    )
    assert lookups > 0
    hit_rate = (after["hits"] - before["hits"]) / lookups
    assert hit_rate > 0.9, f"plan-cache hit rate {hit_rate:.2f} after recovery"

    # 8. the recovery pass timed itself
    assert stats.wall_time_s >= 0


@pytest.mark.parametrize("seed", SEEDS)
def test_company_crash_recovery_properties(seed):
    rng = random.Random(seed)
    # A 4-frame pool keeps the working set larger than the cache, so the
    # workload generates steady disk traffic for the injector to corrupt.
    db = company.figure1_database(buffer_capacity=4)
    db.checkpoint()

    injector = FaultInjector(
        seed=seed,
        plan=FaultPlan(
            read_error_rate=0.02,
            write_error_rate=0.02,
            torn_write_rate=0.05,
            drop_flush_rate=0.03,
        ),
        crash_after_ops=rng.randint(60, 220),
    ).install(db)
    injector.arm()

    run = _run_company_workload(db, rng, statements=160)

    injector.disarm()
    torn_snapshot = set(injector.torn_pages)
    recovered, stats = _crash_and_recover(db, _company_schema)

    _check_invariants(
        recovered, stats, injector, torn_snapshot, run,
        COMPANY_TABLES, _company_schema, company.FIGURE1_CO,
    )


# ---------------------------------------------------------------------------
# OO1 parts workload (logged variant: the stock builder bulk-loads without
# logging, which recovery cannot rebuild after a torn write)
# ---------------------------------------------------------------------------


def _parts_schema(database: Database) -> None:
    database.execute_script(
        """
        CREATE TABLE DESIGNLIB (lid INTEGER PRIMARY KEY, lname VARCHAR);
        CREATE TABLE PART (pid INTEGER PRIMARY KEY, ptype VARCHAR,
                           x INTEGER, y INTEGER, lib INTEGER);
        CREATE TABLE CONN (cfrom INTEGER, cto INTEGER, ctype VARCHAR,
                           clength INTEGER);
        CREATE INDEX idx_conn_from ON CONN (cfrom);
        CREATE INDEX idx_conn_to ON CONN (cto);
        """
    )


def _logged_parts_database(num_parts: int, seed: int, **db_kwargs) -> Database:
    """OO1-shaped database loaded through the logged SQL path."""
    db = Database(**db_kwargs)
    _parts_schema(db)
    db.execute("INSERT INTO DESIGNLIB VALUES (1, 'main-library')")
    rng = random.Random(seed)
    for pid in range(1, num_parts + 1):
        db.execute(
            f"INSERT INTO PART VALUES ({pid}, 'part-type{rng.randint(0, 9)}', "
            f"{rng.randint(0, 99999)}, {rng.randint(0, 99999)}, 1)"
        )
    for cfrom, cto, ctype, clength in oo1.generate_connections(num_parts, rng):
        db.execute(
            f"INSERT INTO CONN VALUES ({cfrom}, {cto}, '{ctype}', {clength})"
        )
    db.execute("ANALYZE")
    return db


def _run_parts_workload(
    db: Database, rng: random.Random, num_parts: int, statements: int = 60
) -> WorkloadRun:
    """OO1 insert-operation mix: new parts with connections, plus moves."""
    run = WorkloadRun()
    next_pid = num_parts + 1000
    try:
        for _ in range(statements):
            if run.checksum_poisoned:
                break
            run.statements_run += 1
            try:
                if rng.random() < 0.5:
                    next_pid += 1
                    targets = [rng.randint(1, num_parts) for _ in range(3)]
                    db.execute("BEGIN")
                    txn_id = db._txn.txn_id
                    db.execute(
                        f"INSERT INTO PART VALUES ({next_pid}, 'part-typeX', "
                        f"{rng.randint(0, 99999)}, {rng.randint(0, 99999)}, 1)"
                    )
                    for cto in targets:
                        db.execute(
                            f"INSERT INTO CONN VALUES ({next_pid}, {cto}, "
                            f"'conn-typeX', {rng.randint(0, 99)})"
                        )
                    db.execute("COMMIT")
                    run.acked_txn_ids.add(txn_id)
                else:
                    db.execute(
                        f"UPDATE PART SET x = {rng.randint(0, 99999)} "
                        f"WHERE pid = {rng.randint(1, num_parts)}"
                    )
                    txn_id = _last_commit_txn_id(db)
                    if txn_id is not None:
                        run.acked_txn_ids.add(txn_id)
            except IOFaultError:
                run.statement_errors += 1
                if db.in_transaction:
                    try:
                        db.execute("ROLLBACK")
                    except IOFaultError:
                        pass
            except ChecksumError:
                run.statement_errors += 1
                run.checksum_poisoned = True
                if db.in_transaction:
                    try:
                        db.execute("ROLLBACK")
                    except (IOFaultError, ChecksumError):
                        pass
    except SimulatedCrash:
        run.crashed = True
    return run


@pytest.mark.parametrize("seed", SEEDS)
def test_oo1_crash_recovery_properties(seed):
    num_parts = 40
    rng = random.Random(seed * 7919)
    db = _logged_parts_database(num_parts, seed=3, buffer_capacity=6)
    db.checkpoint()

    injector = FaultInjector(
        seed=seed,
        plan=FaultPlan(
            read_error_rate=0.01,
            write_error_rate=0.01,
            torn_write_rate=0.03,
            drop_flush_rate=0.02,
        ),
        crash_after_ops=rng.randint(40, 150),
    ).install(db)
    injector.arm()

    run = _run_parts_workload(db, rng, num_parts, statements=80)

    injector.disarm()
    torn_snapshot = set(injector.torn_pages)
    recovered, stats = _crash_and_recover(db, _parts_schema)

    _check_invariants(
        recovered, stats, injector, torn_snapshot, run,
        PARTS_TABLES, _parts_schema, oo1.PARTS_CO,
    )


# ---------------------------------------------------------------------------
# graceful degradation: execution guards abort cleanly
# ---------------------------------------------------------------------------


class TestExecutionGuards:
    def test_fixpoint_round_limit_aborts_cleanly(self, fig4_db):
        session = XNFSession(fig4_db, max_rounds=1)
        company.create_paper_views(session)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        assert "round" in str(excinfo.value)
        # the aborted extraction left no table registered in the catalog
        assert not [
            n for n in fig4_db.catalog.tables if n.startswith("XNF_")
        ]
        # and a fresh, unguarded session still instantiates the view
        retry = XNFSession(fig4_db)
        company.create_paper_views(retry)
        co = retry.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        assert co.cache.total_tuples() > 0

    def test_fixpoint_row_limit(self, fig4_db):
        session = XNFSession(fig4_db, max_rows=1)
        company.create_paper_views(session)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        assert "row" in str(excinfo.value)

    def test_fixpoint_timeout(self, fig4_db):
        session = XNFSession(fig4_db, timeout_s=0.0)
        company.create_paper_views(session)
        with pytest.raises(ResourceExhaustedError):
            session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")

    def test_guarded_session_leaves_engine_usable(self, fig4_db):
        session = XNFSession(fig4_db, max_rounds=1)
        company.create_paper_views(session)
        with pytest.raises(ResourceExhaustedError):
            session.query("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        # plain SQL still works and the plan cache still serves entries
        assert fig4_db.execute("SELECT COUNT(*) FROM EMP").scalar() == 4
        assert fig4_db.execute("SELECT COUNT(*) FROM EMP").scalar() == 4
        assert fig4_db.plan_cache.stats()["hits"] > 0

    def test_statement_timeout(self):
        db = Database(statement_timeout_s=0.0)
        db.execute("CREATE TABLE T (a INTEGER)")
        with pytest.raises(ResourceExhaustedError) as excinfo:
            db.execute("SELECT * FROM T")
        assert "timeout" in str(excinfo.value)
        # the guard is per-statement: lifting it restores service
        db.statement_timeout_s = None
        assert db.execute("SELECT * FROM T").rows == []
