"""Cattell OO1-style parts/connections workload.

Section 4.2 of the paper grounds its performance claim in "Cattell's
benchmark" [Gr91]: the OO1 (Sun/Cattell "engineering database") benchmark —
N parts, exactly 3 outgoing connections per part (90% to *nearby* parts),
and three operations:

* **lookup** — fetch 1000 random parts by id,
* **traversal** — from a random part, follow connections to depth 7
  (counting a part once per arrival, i.e. 3^7 visits in the classic form —
  we report both raw visits and distinct parts),
* **insert** — add 100 parts plus their 3 connections each.

The generator builds PART and CONN base tables; the CO view over them
(:data:`PARTS_CO`) gives the XNF cache its pointer structure, with the
cyclic relationship carried by role names.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.relational.engine import Database
from repro.xnf.api import CompositeObject, XNFSession

#: fraction of connections targeting parts with nearby ids (OO1 locality)
NEARBY_FRACTION = 0.9
NEARBY_WINDOW = 0.01  # +-1% of N
CONNECTIONS_PER_PART = 3


def build_parts_database(
    num_parts: int, seed: int = 42, shards: int = 0, **db_kwargs
) -> Database:
    """Create PART/CONN tables with the OO1 shape.

    ``shards >= 2`` repartitions PART (range on ``x`` — part coordinates are
    uniform on [0, 99999], so equal-width split points balance the shards)
    and CONN (hash on ``cfrom``, the reachability join key) *before* loading
    any rows, so the bulk load itself routes through the shards.
    """
    db = Database(**db_kwargs)
    db.execute_script(
        """
        CREATE TABLE DESIGNLIB (lid INTEGER PRIMARY KEY, lname VARCHAR);
        CREATE TABLE PART (pid INTEGER PRIMARY KEY, ptype VARCHAR,
                           x INTEGER, y INTEGER, lib INTEGER);
        CREATE TABLE CONN (cfrom INTEGER, cto INTEGER, ctype VARCHAR,
                           clength INTEGER);
        """
    )
    if shards >= 2:
        db.repartition(
            "PART",
            shards,
            kind="range",
            column="x",
            bounds=[(i * 100000) // shards for i in range(1, shards)],
        )
        db.repartition("CONN", shards, kind="hash", column="cfrom")
    db.execute("INSERT INTO DESIGNLIB VALUES (1, 'main-library')")
    part_table = db.catalog.get_table("PART")
    conn_table = db.catalog.get_table("CONN")
    rng = random.Random(seed)
    # Bulk-load: append_rows pins pages batch-at-a-time (and, when sharded,
    # buckets per shard so each shard's pages fill contiguously).
    part_table.insert_many(
        [
            (pid, f"part-type{rng.randint(0, 9)}", rng.randint(0, 99999),
             rng.randint(0, 99999), 1)
            for pid in range(1, num_parts + 1)
        ]
    )
    conn_table.insert_many(generate_connections(num_parts, rng))
    db.execute(
        "CREATE INDEX idx_conn_from ON CONN (cfrom); "
        "CREATE INDEX idx_conn_to ON CONN (cto); "
        "ANALYZE"
    )
    return db


def generate_connections(
    num_parts: int, rng: random.Random
) -> List[Tuple[int, int, str, int]]:
    window = max(1, int(num_parts * NEARBY_WINDOW))
    rows: List[Tuple[int, int, str, int]] = []
    for cfrom in range(1, num_parts + 1):
        for _ in range(CONNECTIONS_PER_PART):
            if rng.random() < NEARBY_FRACTION:
                cto = cfrom + rng.randint(-window, window)
                cto = min(max(cto, 1), num_parts)
            else:
                cto = rng.randint(1, num_parts)
            rows.append(
                (cfrom, cto, f"conn-type{rng.randint(0, 9)}", rng.randint(0, 99))
            )
    return rows


#: CO over the whole parts database.  The design library is the root table
#: (reachability needs one); 'connects' is cyclic on Xpart, hence the roles.
PARTS_CO = """
OUT OF
 Xlib AS DESIGNLIB,
 Xpart AS PART,
 contains AS (RELATE Xlib, Xpart WHERE Xlib.lid = Xpart.lib),
 connects AS (RELATE Xpart source, Xpart target
              WITH ATTRIBUTES c.ctype AS ctype, c.clength AS clength
              USING CONN c
              WHERE source.pid = c.cfrom AND target.pid = c.cto)
TAKE *
"""


def load_parts_co(session: XNFSession) -> CompositeObject:
    """Extract the full parts CO into the cache."""
    return session.query(PARTS_CO)


# ---------------------------------------------------------------------------
# The three OO1 operations, in each access style
# ---------------------------------------------------------------------------


def lookup_cache(co: CompositeObject, part_ids: List[int]) -> int:
    """OO1 lookup via the cache index."""
    found = 0
    for pid in part_ids:
        if co.find("Xpart", pid=pid) is not None:
            found += 1
    return found


def lookup_sql(db: Database, part_ids: List[int]) -> int:
    """OO1 lookup via one SQL query per part (the paper's 'regular SQL
    DBMS interface' baseline)."""
    found = 0
    for pid in part_ids:
        if db.execute(f"SELECT * FROM PART WHERE pid = {pid}").rows:
            found += 1
    return found


def traverse_cache(co: CompositeObject, start_pid: int, depth: int = 7) -> int:
    """Depth-d traversal counting raw visits, via cache pointers."""
    start = co.find("Xpart", pid=start_pid)
    if start is None:
        return 0
    visits = 0

    def recurse(part, remaining: int) -> None:
        nonlocal visits
        visits += 1
        if remaining == 0:
            return
        for conn in part.children.get("connects", ()):  # one hop per connection
            if conn.alive and conn.child.alive:
                part._cache.navigations += 1
                recurse(conn.child, remaining - 1)

    recurse(start, depth)
    return visits


def traverse_sql(db: Database, start_pid: int, depth: int = 7) -> int:
    """Depth-d traversal issuing one SQL query per visited part."""
    visits = 0

    def recurse(pid: int, remaining: int) -> None:
        nonlocal visits
        visits += 1
        if remaining == 0:
            return
        result = db.execute(f"SELECT cto FROM CONN WHERE cfrom = {pid}")
        for (cto,) in result.rows:
            recurse(cto, remaining - 1)

    recurse(start_pid, depth)
    return visits


def insert_parts_sql(db: Database, start_id: int, count: int, rng: random.Random) -> None:
    """OO1 insert: *count* new parts with 3 connections each, via SQL."""
    for offset in range(count):
        pid = start_id + offset
        db.execute(
            f"INSERT INTO PART VALUES ({pid}, 'part-type0', "
            f"{rng.randint(0, 99999)}, {rng.randint(0, 99999)}, 0)"
        )
        for _ in range(CONNECTIONS_PER_PART):
            target = rng.randint(1, start_id - 1)
            db.execute(
                f"INSERT INTO CONN VALUES ({pid}, {target}, 'conn-type0', "
                f"{rng.randint(0, 99)})"
            )


def insert_parts_cache(
    co: CompositeObject, start_id: int, count: int, rng: random.Random
) -> None:
    """OO1 insert through the CO manipulation API (cache + propagation)."""
    for offset in range(count):
        pid = start_id + offset
        part = co.insert(
            "Xpart",
            pid=pid,
            ptype="part-type0",
            x=rng.randint(0, 99999),
            y=rng.randint(0, 99999),
            lib=1,
        )
        for _ in range(CONNECTIONS_PER_PART):
            target = co.find("Xpart", pid=rng.randint(1, start_id - 1))
            if target is not None:
                co.connect("connects", part, target)
