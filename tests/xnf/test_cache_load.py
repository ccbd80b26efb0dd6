"""One loader for the CO cache, in process and over the wire.

``COCache.load`` builds tuples and connections straight from a
:class:`COInstance`; a wire client gets its instance from
``decode_stream`` and loads it the same way (``RemoteCO``).  Both must
build the cache a reader of the heterogeneous stream (section 4.3) would:
the same tuples, connections in the same order, and every tuple's
per-relationship connection lists keyed and ordered as the stream
delivers them.
"""

import json

import pytest

from repro.client.client import RemoteCO
from repro.errors import XNFError
from repro.relational.engine import Database
from repro.workloads.oo1 import build_parts_database
from repro.xnf.api import XNFSession
from repro.xnf.cache import COCache
from repro.xnf.stream import (
    ConnectionItem,
    TupleItem,
    decode_stream,
    encode_stream,
    heterogeneous_stream,
)

CLOSURE_CO = """
OUT OF
 Xroot AS (SELECT * FROM PART WHERE pid = 1),
 Xpart AS PART,
 anchor AS (RELATE Xroot, Xpart WHERE Xroot.pid = Xpart.pid),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""

TERNARY_CO = """
OUT OF
  Xproj AS PROJECT, Xpart AS PART, Xsupp AS SUPPLIER,
  supply AS (RELATE Xproj, Xpart pt, Xsupp su
             WITH ATTRIBUTES s.qty
             USING SUPPLY s
             WHERE Xproj.pjid = s.spj AND pt.ptid = s.spt AND su.sid = s.ssu)
TAKE *
"""


def ternary_database():
    db = Database()
    db.execute_script(
        """
        CREATE TABLE PROJECT (pjid INTEGER PRIMARY KEY, pjname VARCHAR);
        CREATE TABLE PART (ptid INTEGER PRIMARY KEY, ptname VARCHAR);
        CREATE TABLE SUPPLIER (sid INTEGER PRIMARY KEY, sname VARCHAR);
        CREATE TABLE SUPPLY (spj INTEGER, spt INTEGER, ssu INTEGER, qty INTEGER);
        INSERT INTO PROJECT VALUES (1, 'alpha'), (2, 'beta');
        INSERT INTO PART VALUES (10, 'bolt'), (11, 'nut'), (12, 'gear');
        INSERT INTO SUPPLIER VALUES (100, 'acme'), (101, 'globex');
        INSERT INTO SUPPLY VALUES (1, 10, 100, 500), (1, 11, 101, 200),
                                  (2, 10, 101, 50), (2, 11, 101, 70);
        """
    )
    return db


CASES = {
    "closure": (lambda: build_parts_database(300, seed=7), CLOSURE_CO),
    "ternary": (ternary_database, TERNARY_CO),
}


@pytest.fixture(params=sorted(CASES))
def instance(request):
    make_db, text = CASES[request.param]
    return XNFSession(make_db()).execute_remote(text)


def over_the_wire(instance):
    """``RemoteCO``'s cache for *instance*, through the JSON wire form."""
    header, items = json.loads(json.dumps(encode_stream(instance)))
    return RemoteCO(None, {"co": header, "rows": items})._cache


def layout(cache):
    """Tuples, connections and per-tuple connection lists, with tuples and
    connections named by position."""
    tuple_at = {}
    for node, tuples in cache.tuples.items():
        for pos, cached in enumerate(tuples):
            tuple_at[id(cached)] = (node, pos)
    conn_at = {}
    connections = {}
    for edge, conns in cache.edge_connections.items():
        connections[edge] = []
        for pos, conn in enumerate(conns):
            conn_at[id(conn)] = (edge, pos)
            connections[edge].append((
                tuple_at[id(conn.parent)],
                [tuple_at[id(partner)] for partner in conn.child_partners()],
                conn.attributes,
            ))
    links = {
        tuple_at[id(cached)]: (
            [(edge, [conn_at[id(c)] for c in conns]) for edge, conns in cached.children.items()],
            [(edge, [conn_at[id(c)] for c in conns]) for edge, conns in cached.parents.items()],
        )
        for tuples in cache.tuples.values()
        for cached in tuples
    }
    rows = {node: [t.full_values() for t in tuples] for node, tuples in cache.tuples.items()}
    return rows, connections, links, cache.columns, cache.edge_attributes


def stream_layout(instance):
    """What a reader of the heterogeneous stream builds, item by item."""
    rows = {name: [] for name in instance.schema.nodes}
    position = {}
    connections = {name: [] for name in instance.schema.edges}
    links = {}
    for item in heterogeneous_stream(instance):
        if isinstance(item, TupleItem):
            key = (item.component, len(rows[item.component]))
            rows[item.component].append(item.row)
            position[(item.component, item.row)] = key
            links[key] = ({}, {})
        elif isinstance(item, ConnectionItem):
            edge = instance.schema.edges[item.component]
            conn = (item.component, len(connections[item.component]))
            parent = position[(edge.parent, item.parent_row)]
            partners = [
                position[key] for key in zip(edge.child_names(), item.child_rows)
            ]
            connections[item.component].append((
                parent, partners, dict(zip(edge.attribute_names(), item.attributes)),
            ))
            links[parent][0].setdefault(item.component, []).append(conn)
            for partner in partners:
                links[partner][1].setdefault(item.component, []).append(conn)
    links = {key: (list(c.items()), list(p.items())) for key, (c, p) in links.items()}
    return rows, connections, links


class TestOneLoader:
    def test_in_process_and_remote_build_the_same_cache(self, instance):
        local = layout(COCache.load(instance))
        assert local == layout(over_the_wire(instance))
        assert instance.total_connections() > 0
        assert sum(len(conns) for conns in local[1].values()) == instance.total_connections()

    def test_cache_is_what_the_stream_delivers(self, instance):
        assert layout(COCache.load(instance))[:3] == stream_layout(instance)

    def test_ternary_connections_carry_every_partner(self):
        cache = COCache.load(XNFSession(ternary_database()).execute_remote(TERNARY_CO))
        remote = over_the_wire(XNFSession(ternary_database()).execute_remote(TERNARY_CO))
        for loaded in (cache, remote):
            conns = loaded.connections_of("supply")
            assert [
                (c.parent["pjid"], [p.full_values()[0] for p in c.child_partners()], c["qty"])
                for c in conns
            ] == [(1, [10, 100], 500), (1, [11, 101], 200), (2, [10, 101], 50), (2, [11, 101], 70)]

    def test_connection_to_a_missing_tuple_raises(self, instance):
        edge = next(
            name for name, conns in instance.connections.items() if conns
        )
        child = instance.schema.edges[edge].child
        missing = instance.connections[edge][0][1][0]
        instance.rows[child] = [row for row in instance.rows[child] if row != missing]
        with pytest.raises(XNFError, match="missing from the stream"):
            COCache.load(instance)
        header, items = encode_stream(instance)
        with pytest.raises(XNFError, match="missing from the stream"):
            COCache.load(decode_stream(header, items))
        with pytest.raises(XNFError, match="missing from the stream"):
            over_the_wire(instance)
