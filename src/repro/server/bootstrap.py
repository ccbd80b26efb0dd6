"""Demo database behind ``python -m repro.server``.

One Database carrying three workload families, so a single listener can
serve them concurrently (``tests/server/test_server.py`` drives 32
clients over it):

* the paper's Fig. 1 company instance (E1: ``FIGURE1_CO`` extraction),
* a reports-to STAFF chain (E6: recursive CO fixpoint),
* the OO1 parts/connections graph (per-step SQL traversal).
"""

from __future__ import annotations

import random

from repro.relational.engine import Database
from repro.workloads.company import figure1_database
from repro.workloads.oo1 import generate_connections

#: E6 CO over the STAFF chain: the root and the recursive reports-to edge
STAFF_CO = """
OUT OF
  Xroot AS (SELECT * FROM STAFF WHERE mgrno IS NULL),
  Xemp AS STAFF,
  heads AS (RELATE Xroot, Xemp WHERE Xroot.eno = Xemp.eno),
  manages AS (RELATE Xemp manager, Xemp report
              WHERE manager.eno = report.mgrno)
TAKE *
"""

STAFF_WIDTH = 4  # employees per level of the reports-to chain


def add_staff_chain(db: Database, depth: int = 8) -> None:
    """Install the E6 reports-to chain (root + WIDTH per level)."""
    db.execute("CREATE TABLE STAFF (eno INTEGER PRIMARY KEY, mgrno INTEGER)")
    table = db.catalog.get_table("STAFF")
    eno = 1
    table.insert((eno, None))
    previous_level = [1]
    for _ in range(depth - 1):
        level = []
        for manager in previous_level[:1]:
            for _ in range(STAFF_WIDTH):
                eno += 1
                table.insert((eno, manager))
                level.append(eno)
        previous_level = level
    db.execute("CREATE INDEX idx_staff_mgr ON STAFF (mgrno)")


def add_parts_graph(db: Database, num_parts: int = 200, seed: int = 42) -> None:
    """Install the OO1 parts graph (DESIGNLIB/PART/CONN + indexes)."""
    db.execute_script(
        """
        CREATE TABLE DESIGNLIB (lid INTEGER PRIMARY KEY, lname VARCHAR);
        CREATE TABLE PART (pid INTEGER PRIMARY KEY, ptype VARCHAR,
                           x INTEGER, y INTEGER, lib INTEGER);
        CREATE TABLE CONN (cfrom INTEGER, cto INTEGER, ctype VARCHAR,
                           clength INTEGER);
        """
    )
    db.execute("INSERT INTO DESIGNLIB VALUES (1, 'main-library')")
    part_table = db.catalog.get_table("PART")
    conn_table = db.catalog.get_table("CONN")
    rng = random.Random(seed)
    for pid in range(1, num_parts + 1):
        part_table.insert(
            (pid, f"part-type{rng.randint(0, 9)}", rng.randint(0, 99999),
             rng.randint(0, 99999), 1)
        )
    for row in generate_connections(num_parts, rng):
        conn_table.insert(row)
    db.execute(
        "CREATE INDEX idx_conn_from ON CONN (cfrom); "
        "CREATE INDEX idx_conn_to ON CONN (cto)"
    )


def demo_database(
    staff_depth: int = 8, num_parts: int = 200, **db_kwargs
) -> Database:
    """Company Fig. 1 + STAFF chain + OO1 parts in one Database."""
    db = figure1_database(**db_kwargs)
    add_staff_chain(db, staff_depth)
    add_parts_graph(db, num_parts)
    db.execute("ANALYZE")
    return db
