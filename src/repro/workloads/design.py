"""CAD-style design database for the working-set experiments.

Section 1 of the paper: "design applications ... often work on a
well-specified set of data, called working set, such as a particular
version of a document ... loading a working set translates into a data
extraction where on average one tuple out of 10000 to 100000 is selected".

The generator builds DOCUMENT / VERSION / COMPONENT / SUBCOMP tables whose
total size scales with *num_documents*, while a *working set* — one
document version with its components and subcomponents — stays a fixed,
small size.  :func:`working_set_co` extracts exactly that working set as a
composite object; experiment E2 (``tests/test_experiment_counts.py``)
grows the database and counts the queries of the set-oriented extraction
against a navigational one-query-per-tuple loader.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.relational.engine import Database
from repro.xnf.api import CompositeObject, XNFSession

COMPONENTS_PER_VERSION = 20
SUBCOMPS_PER_COMPONENT = 4
VERSIONS_PER_DOCUMENT = 3


def build_design_database(
    num_documents: int, seed: int = 11, **db_kwargs
) -> Database:
    """DOCUMENT(1) -< VERSION(3) -< COMPONENT(20) -< SUBCOMP(4 each)."""
    db = Database(**db_kwargs)
    db.execute_script(
        """
        CREATE TABLE DOCUMENT (did INTEGER PRIMARY KEY, dname VARCHAR,
                               owner VARCHAR);
        CREATE TABLE VERSION (vid INTEGER PRIMARY KEY, vdid INTEGER,
                              vnum INTEGER, state VARCHAR);
        CREATE TABLE COMPONENT (cid INTEGER PRIMARY KEY, cvid INTEGER,
                                ckind VARCHAR, weight FLOAT);
        CREATE TABLE SUBCOMP (sid INTEGER PRIMARY KEY, scid INTEGER,
                              material VARCHAR, cost FLOAT);
        """
    )
    rng = random.Random(seed)
    documents = db.catalog.get_table("DOCUMENT")
    versions = db.catalog.get_table("VERSION")
    components = db.catalog.get_table("COMPONENT")
    subcomps = db.catalog.get_table("SUBCOMP")
    vid = cid = sid = 0
    for did in range(1, num_documents + 1):
        documents.insert((did, f"doc{did}", f"owner{did % 17}"))
        for vnum in range(1, VERSIONS_PER_DOCUMENT + 1):
            vid += 1
            versions.insert(
                (vid, did, vnum, rng.choice(["draft", "released", "frozen"]))
            )
            for _ in range(COMPONENTS_PER_VERSION):
                cid += 1
                components.insert(
                    (cid, vid, rng.choice(["wing", "panel", "rib", "spar"]),
                     float(rng.randint(1, 500)))
                )
                for _ in range(SUBCOMPS_PER_COMPONENT):
                    sid += 1
                    subcomps.insert(
                        (sid, cid, rng.choice(["alu", "steel", "cfrp"]),
                         float(rng.randint(1, 100)))
                    )
    db.execute(
        "CREATE INDEX idx_version_doc ON VERSION (vdid); "
        "CREATE INDEX idx_component_ver ON COMPONENT (cvid); "
        "CREATE INDEX idx_subcomp_comp ON SUBCOMP (scid); "
        "ANALYZE"
    )
    return db


def total_tuples(num_documents: int) -> int:
    per_doc = 1 + VERSIONS_PER_DOCUMENT * (
        1 + COMPONENTS_PER_VERSION * (1 + SUBCOMPS_PER_COMPONENT)
    )
    return num_documents * per_doc


def working_set_co(document_id: int, version_num: int) -> str:
    """The XNF query extracting one document version's working set."""
    return f"""
    OUT OF
     Xdoc AS (SELECT * FROM DOCUMENT WHERE did = {document_id}),
     Xver AS (SELECT * FROM VERSION WHERE vnum = {version_num}),
     Xcomp AS COMPONENT,
     Xsub AS SUBCOMP,
     has_version AS (RELATE Xdoc, Xver WHERE Xdoc.did = Xver.vdid),
     has_component AS (RELATE Xver, Xcomp WHERE Xver.vid = Xcomp.cvid),
     has_subcomp AS (RELATE Xcomp, Xsub WHERE Xcomp.cid = Xsub.scid)
    TAKE *
    """


def extract_working_set(
    session: XNFSession, document_id: int, version_num: int = 1
) -> CompositeObject:
    """Set-oriented extraction: one XNF query, optimizer-planned."""
    return session.query(working_set_co(document_id, version_num))


def extract_working_set_navigational(
    db: Database, document_id: int, version_num: int = 1
) -> Tuple[int, int]:
    """Baseline: tuple-at-a-time extraction with one query per step.

    This is what an application without the CO facility does: fetch the
    document, then its version, then loop over components, then over each
    component's subcomponents.  Returns (tuples_fetched, queries_issued).
    """
    queries = 0
    fetched = 0
    doc = db.execute(f"SELECT * FROM DOCUMENT WHERE did = {document_id}")
    queries += 1
    fetched += len(doc.rows)
    version_rows = db.execute(
        f"SELECT * FROM VERSION WHERE vdid = {document_id} "
        f"AND vnum = {version_num}"
    )
    queries += 1
    fetched += len(version_rows.rows)
    for version in version_rows.rows:
        comp_rows = db.execute(
            f"SELECT * FROM COMPONENT WHERE cvid = {version[0]}"
        )
        queries += 1
        fetched += len(comp_rows.rows)
        for comp in comp_rows.rows:
            sub_rows = db.execute(
                f"SELECT * FROM SUBCOMP WHERE scid = {comp[0]}"
            )
            queries += 1
            fetched += len(sub_rows.rows)
    return fetched, queries
