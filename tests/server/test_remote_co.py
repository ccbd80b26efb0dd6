"""Composite objects over the wire live in the client.

The ``XNF`` response to a TAKE carries the whole CO — schema header plus
the heterogeneous tuple stream — and :class:`RemoteCO` loads it into a
client-side :class:`~repro.xnf.cache.COCache`.  So a take is one request,
navigation afterwards is none, and remote results equal in-process ones
for every kind of CO the server can extract.
"""

import io

import pytest

from repro.client.client import WireClient
from repro.client.repl import Repl
from repro.errors import CursorError, ExecutionError, SQLError
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.server import ServerThread
from repro.workloads.company import FIGURE1_CO, figure1_database
from repro.xnf.api import XNFSession

PROJECTED_CO = """
OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
TAKE Xdept(dname), employment, Xemp(ename, sal)
"""

RESTRICTED_CO = """
OUT OF Xdept AS DEPT, Xemp AS EMP, Xskill AS SKILLS,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 empproperty AS (RELATE Xemp, Xskill USING EMPSKILL es
                 WHERE Xemp.eno = es.eseno AND Xskill.sno = es.essno)
WHERE Xdept d SUCH THAT COUNT(d->employment) >= 3
TAKE *
"""

RESTRICTED_PROJECTED_CO = RESTRICTED_CO.replace(
    "TAKE *", "TAKE Xdept(dname), employment, Xemp(ename, sal)"
)

TERNARY_CO = """
OUT OF
  Xproj AS PROJECT, Xpart AS PART, Xsupp AS SUPPLIER,
  supply AS (RELATE Xproj, Xpart pt, Xsupp su
             WITH ATTRIBUTES s.qty
             USING SUPPLY s
             WHERE Xproj.pjid = s.spj AND pt.ptid = s.spt AND su.sid = s.ssu)
TAKE *
"""

CYCLIC_CO = """
OUT OF
  Xtop AS (SELECT * FROM STAFF WHERE mgrno IS NULL),
  Xemp AS STAFF,
  heads AS (RELATE Xtop, Xemp WHERE Xtop.eno = Xemp.eno),
  manages AS (RELATE Xemp manager, Xemp report
              WHERE manager.eno = report.mgrno)
TAKE *
"""

EXTRA_TABLES = """
CREATE TABLE PROJECT (pjid INTEGER PRIMARY KEY, pjname VARCHAR);
CREATE TABLE PART (ptid INTEGER PRIMARY KEY, ptname VARCHAR);
CREATE TABLE SUPPLIER (sid INTEGER PRIMARY KEY, sname VARCHAR);
CREATE TABLE SUPPLY (spj INTEGER, spt INTEGER, ssu INTEGER, qty INTEGER);
INSERT INTO PROJECT VALUES (1, 'alpha'), (2, 'beta');
INSERT INTO PART VALUES (10, 'bolt'), (11, 'nut'), (12, 'gear');
INSERT INTO SUPPLIER VALUES (100, 'acme'), (101, 'globex');
INSERT INTO SUPPLY VALUES (1, 10, 100, 500), (1, 11, 101, 200),
                          (2, 10, 101, 50);
CREATE TABLE STAFF (eno INTEGER PRIMARY KEY, ename VARCHAR, mgrno INTEGER);
INSERT INTO STAFF VALUES (1, 'boss', NULL), (2, 'mid', 1), (3, 'leaf1', 2),
                         (4, 'leaf2', 2), (5, 'loop', 5);
"""

#: (CO text, [(start node, path, anchor criteria)], server fetch_size)
CASES = {
    "figure1": (FIGURE1_CO, [
        ("Xdept", "employment", {}),
        ("Xdept", "employment->Xemp->empproperty", {"dname": "d1"}),
        ("Xemp", "employment", {"ename": "e4"}),
    ], None),
    "take_projection": (PROJECTED_CO, [
        ("Xdept", "employment", {}),
        ("Xdept", "employment", {"dname": "d2"}),
    ], None),
    "such_that_path": (RESTRICTED_CO, [
        ("Xdept", "employment->Xemp->empproperty", {}),
        ("Xemp", "empproperty", {"ename": "e4"}),
    ], None),
    "such_that_then_take_projection": (RESTRICTED_PROJECTED_CO, [
        ("Xdept", "employment", {"dname": "d2"}),
    ], None),
    "nary_roles": (TERNARY_CO, [
        ("Xproj", "supply[su]", {}),
        ("Xproj", "supply[pt]", {"pjname": "alpha"}),
        ("Xsupp", "supply", {"sname": "globex"}),
    ], None),
    "cyclic_recursive": (CYCLIC_CO, [
        ("Xtop", "heads->Xemp->manages[report]->manages[report]", {}),
        ("Xemp", "manages[report]", {"ename": "mid"}),
        ("Xemp", "manages[manager]", {"ename": "leaf1"}),
    ], None),
    "paged": (FIGURE1_CO, [
        ("Xdept", "employment->Xemp->empproperty", {}),
        ("Xproj", "projproperty", {"pname": "p2"}),
    ], 4),
}


def company_database():
    db = figure1_database(mvcc=True)
    db.execute_script(EXTRA_TABLES)
    return db


def count_requests(client: WireClient, monkeypatch) -> list:
    """Record the op of every request the client sends."""
    ops: list = []
    send = client.request

    def counting(**payload):
        ops.append(payload["op"])
        return send(**payload)

    monkeypatch.setattr(client, "request", counting)
    return ops


@pytest.fixture
def server():
    with ServerThread(company_database(), max_connections=4) as running:
        yield running


@pytest.fixture
def client(server):
    with WireClient(port=server.port) as c:
        yield c


def local_path(co, start, path, criteria):
    anchor = co.find(start, **criteria) if criteria else start
    return [{"node": t.node, "values": t.as_dict()} for t in co.path(anchor, path)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_remote_equals_in_process(case, monkeypatch):
    text, paths, fetch_size = CASES[case]
    db = company_database()
    local = XNFSession(db).query(text)
    kwargs = {"fetch_size": fetch_size} if fetch_size else {}
    with ServerThread(db, max_connections=4, **kwargs) as server:
        with WireClient(port=server.port) as client:
            ops = count_requests(client, monkeypatch)
            remote = client.take(text)
            take_ops = list(ops)
    if fetch_size:
        assert take_ops.count("FETCH") >= 3, take_ops
    assert take_ops == ["XNF"] + ["FETCH"] * (len(take_ops) - 1)
    # everything below runs with the connection and the server gone
    assert remote.nodes == {n: len(local.node(n)) for n in local.nodes()}
    assert remote.edges == {e: len(local.connections(e)) for e in local.edges()}
    for node in local.nodes():
        # full rows, in load order (projected columns travel too) ...
        assert [t.full_values() for t in remote._cache.node(node)] == [
            t.full_values() for t in local.node(node)
        ]
        # ... and the cursor shows the visible columns only
        assert list(remote.cursor(node)) == [t.as_dict() for t in local.cursor(node)]
    for start, path, criteria in paths:
        expected = local_path(local, start, path, criteria)
        assert expected, (start, path, criteria)
        assert remote.path(start, path, **criteria) == expected


class TestRoundTrips:
    def test_take_is_one_request_and_navigation_is_none(self, client, monkeypatch):
        ops = count_requests(client, monkeypatch)
        co = client.take(FIGURE1_CO)
        assert ops == ["XNF"]
        assert co.nodes == {"Xdept": 3, "Xemp": 5, "Xproj": 2, "Xskill": 4}
        assert sorted(r["ename"] for r in co.cursor("Xemp")) == [
            "e1", "e2", "e4", "e5", "e6"]
        assert len(co.path("Xdept", "employment")) == 5
        assert len(co.path("Xdept", "employment", dname="d2")) == 3
        co.close()
        assert ops == ["XNF"]

    def test_take_adds_one_frame_on_the_server(self, server, client):
        network = server.server.db.network
        before = network.snapshot()["frames_in"]
        with client.take(FIGURE1_CO) as co:
            list(co.cursor("Xskill"))
            co.path("Xdept", "ownership", dname="d1")
        assert network.snapshot()["frames_in"] - before == 1

    def test_closed_co_raises_without_a_frame(self, client, monkeypatch):
        co = client.take(FIGURE1_CO)
        ops = count_requests(client, monkeypatch)
        co.close()
        co.close()  # idempotent
        with pytest.raises(CursorError):
            co.cursor("Xemp")
        with pytest.raises(CursorError):
            co.path("Xdept", "employment")
        assert ops == []

    def test_unmatched_anchor_raises_execution_error(self, client):
        co = client.take(FIGURE1_CO)
        with pytest.raises(ExecutionError):
            co.path("Xdept", "employment", dname="no-such-dept")

    def test_retired_co_ops_are_unknown(self, client):
        for op in ("CO_CURSOR", "CO_FETCH", "CO_PATH", "CO_CLOSE"):
            with pytest.raises(SQLError, match="unknown op") as exc:
                client.request(op=op, co=1)
            assert type(exc.value) is SQLError


def test_repl_navigates_the_local_cache(client, monkeypatch):
    out = io.StringIO()
    repl = Repl(client, out=out)
    ops = count_requests(client, monkeypatch)
    for line in (FIGURE1_CO.replace("\n", " "), "\\co 1 Xemp",
                 "\\path 1 Xdept employment dname=d2", "\\close 1"):
        assert repl.handle(line)
    assert ops == ["XNF"]
    text = out.getvalue()
    assert "error" not in text
    assert "(5 tuples)" in text and "(3 tuples)" in text and "closed" in text


def test_client_refuses_another_protocol_version(server, monkeypatch):
    monkeypatch.setattr(
        protocol, "hello_payload",
        lambda session_id: {"ok": True, "protocol": 1, "session": session_id},
    )
    with pytest.raises(ProtocolError, match="protocol 1") as exc:
        WireClient(port=server.port)
    assert exc.value.retryable is False
