"""Server smoke check: ``python -m repro.server.smoke``.

Boots a wire server over the demo database, drives a scripted REPL
session across loopback (DDL + queries + an E1 composite-object
extraction, navigated client-side: take + cursor + path + close must cost
exactly one request frame; a second take of the same shape runs the
compiled program of the first), provokes and retries a genuine MVCC
serialization conflict through the wire error frames, profiles a cached
query (one ``sql.select`` span under ``wire.query``, whose execute time
the profile still reports as a stage), then shuts down
gracefully and asserts no wire session leaked (``SYS_SESSIONS`` must be
empty and the network counters must balance).  Exit code 0 means every
stage passed — CI runs this as the ``server-smoke`` job.
"""

from __future__ import annotations

import io
import sys
import threading

from repro.errors import SerializationError
from repro.client.client import WireClient
from repro.client.repl import Repl
from repro.relational.engine import Database
from repro.server.bootstrap import demo_database
from repro.server.server import ServerThread
from repro.workloads.company import FIGURE1_CO

REPL_SCRIPT = """
CREATE TABLE SMOKE (k INTEGER PRIMARY KEY, v VARCHAR);
INSERT INTO SMOKE VALUES (1, 'hello'), (2, 'world');
SELECT k, v FROM SMOKE ORDER BY k;
EXPLAIN SELECT dname, loc FROM DEPT WHERE loc = 'NY';
SELECT COUNT(*) FROM SYS_SESSIONS;
\\timeout 30
\\q
"""


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}", flush=True)
    if not condition:
        raise SystemExit(f"smoke check failed: {label}")


def scripted_repl(port: int) -> None:
    print("* scripted REPL session", flush=True)
    out = io.StringIO()
    with WireClient(port=port) as client:
        Repl(client, out=out).run(io.StringIO(REPL_SCRIPT))
    transcript = out.getvalue()
    sys.stdout.write(transcript)
    check("error:" not in transcript, "REPL transcript has no errors")
    check("hello" in transcript and "world" in transcript,
          "DDL + INSERT + SELECT round-tripped")
    check("SeqScan" in transcript, "EXPLAIN passthrough rendered a plan")


def composite_object(port: int, db: Database) -> None:
    print("* E1 composite-object extraction over the wire", flush=True)

    def frames_in() -> int:
        return db.execute("SELECT frames_in FROM SYS_STAT_NETWORK").scalar()

    with WireClient(port=port) as client:
        before = frames_in()
        co = client.take(FIGURE1_CO)
        check(co.nodes.get("Xdept") == 3, "Xdept has the 3 Fig. 1 departments")
        check(co.nodes.get("Xemp") == 5, "e3 (employed by nobody) excluded")
        emps = co.path("Xdept", "employment", dname="d2")
        check(len(emps) == 3, "path d2 -> employment finds e4, e5, e6")
        cursor = co.cursor("Xskill")
        names = sorted(row["sname"] for row in cursor)
        check("s2" not in names, "unreachable skill s2 excluded")
        co.close()
        check(frames_in() - before == 1,
              "take + cursor + path + close cost one request frame")


def repeated_take(port: int, db: Database) -> None:
    print("* a repeated TAKE runs its compiled program", flush=True)
    text = FIGURE1_CO.replace("Xdept AS DEPT", "Xdept AS (SELECT * FROM DEPT WHERE dno < {n})")
    with WireClient(port=port) as client:
        client.take(text.format(n=3)).close()
        hits = db.plan_cache.stats()["program_hits"]
        co = client.take(text.format(n=9))
        check(co.nodes.get("Xdept") == 3, "the second take binds its own literal")
        co.close()
    check(db.plan_cache.stats()["program_hits"] == hits + 1,
          "a second TAKE of the same shape is a program hit")
    spans = [span for root in db.tracer.recent for span in root.find("xnf.instantiate")]
    check(spans[-1].attrs["program"] == "hit", "its xnf.instantiate span says program=hit")


def profiled_statement(port: int, db: Database) -> None:
    print("* PROFILE of a cached query", flush=True)
    sql = "SELECT dname FROM DEPT WHERE loc = 'NY'"
    with WireClient(port=port) as client:
        client.execute(sql)  # parses and leaves the statement's template
        client.execute(sql)  # runs from the template and the cached plan
        profile = client.profile()
    check(profile is not None and "execute" in profile["stages"],
          "the profile reports an execute stage")
    [root] = [span for span in db.tracer.recent
              if span.trace_id == profile["trace_id"]]
    check(root.name == "wire.query", "the profiled tree is rooted at wire.query")
    check([child.name for child in root.children] == ["sql.select"],
          "a cached query is one sql.select span under wire.query")


def retryable_conflict(port: int) -> None:
    """Two wire sessions race an UPDATE on the same row: first committer
    wins, the loser sees a retryable SerializationError *over the wire*
    and succeeds via the client-side retry loop."""
    print("* retryable serialization conflict across two wire sessions",
          flush=True)
    with WireClient(port=port) as a, WireClient(port=port) as b:
        a.execute("CREATE TABLE COUNTERS (id INTEGER PRIMARY KEY, n INTEGER)")
        a.execute("INSERT INTO COUNTERS VALUES (1, 0)")
        a.begin()
        b.begin()
        a.execute("UPDATE COUNTERS SET n = n + 1 WHERE id = 1")
        a.commit()
        # b's snapshot predates a's commit: first committer wins.
        try:
            b.execute("UPDATE COUNTERS SET n = n + 10 WHERE id = 1")
            raise SystemExit("smoke check failed: conflict never surfaced")
        except SerializationError as err:
            check(err.retryable, "conflict arrived retryable over the wire")
            check(getattr(err, "remote", False), "error was rehydrated")
            check(err.backoff_hint_s == SerializationError.backoff_hint_s,
                  "backoff hint survived serialization")
        b.rollback()

        def attempt():
            b.begin()
            b.execute("UPDATE COUNTERS SET n = n + 10 WHERE id = 1")
            b.commit()

        b.run_retryable(attempt)
        final = a.execute("SELECT n FROM COUNTERS WHERE id = 1").scalar()
        check(final == 11, f"both increments applied (n = {final})")


def concurrent_sessions(port: int, fan_out: int = 8) -> None:
    print(f"* {fan_out} concurrent wire sessions", flush=True)
    errors: list = []

    def worker(idx: int) -> None:
        try:
            with WireClient(port=port) as client:
                count = client.execute(
                    "SELECT COUNT(*) FROM PART"
                ).scalar()
                assert count and count > 0
        except Exception as exc:  # noqa: BLE001 - collected and reported
            errors.append((idx, exc))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(fan_out)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    check(not errors, f"all {fan_out} sessions succeeded ({errors!r})")


def main() -> int:
    db = demo_database(mvcc=True)
    with ServerThread(db, max_connections=32) as server:
        port = server.port
        print(f"server on 127.0.0.1:{port}", flush=True)
        scripted_repl(port)
        composite_object(port, db)
        repeated_take(port, db)
        profiled_statement(port, db)
        retryable_conflict(port)
        concurrent_sessions(port)

        with WireClient(port=port) as client:
            live = client.execute("SELECT COUNT(*) FROM SYS_SESSIONS").scalar()
            check(live == 1, "only the inspecting session is live")

    print("* graceful shutdown", flush=True)
    check(len(db.wire_sessions) == 0, "no leaked sessions after shutdown")
    counters = db.network.snapshot()
    check(counters["connections_active"] == 0, "connections_active drained to 0")
    check(counters["connections_opened"] >= 12, "all sessions were counted")
    check(db.execute("SELECT COUNT(*) FROM SYS_SESSIONS").scalar() == 0,
          "SYS_SESSIONS is empty after shutdown")
    print("server smoke: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
