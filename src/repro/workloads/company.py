"""The paper's company database (Figs 1–5) and its XNF views.

Two fixed instances:

* :func:`figure1_database` — DEPT/EMP/PROJ/SKILLS with the exact tuples of
  Fig. 1 (d1–d3, e1–e6, p1–p2, s1–s5; e3 and s2 deliberately unreachable),
* :func:`figure4_database` — the recursive scenario of Figs 3–5
  (membership with a percentage attribute, projmanagement closing the
  cycle, and p1 unreachable once 'ownership' is projected away),

plus :func:`scaled_database`, a size-parameterised version for experiments,
and :func:`create_paper_views` which installs ALL-DEPS, ALL-DEPS-ORG and
EXT-ALL-DEPS-ORG exactly as sections 3.2–3.4 define them.

:func:`cdb2_database` builds the alternative representation of Fig. 2
(EMPLOYMENT stored in an explicit DEPTEMP table) — the point being that the
same CO abstraction is derived from either representation.
"""

from __future__ import annotations

import random

from repro.relational.engine import Database
from repro.xnf.api import XNFSession

_SCHEMA = """
CREATE TABLE DEPT (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR,
                   budget FLOAT, dmgrno INTEGER);
CREATE TABLE EMP (eno INTEGER PRIMARY KEY, ename VARCHAR, sal FLOAT,
                  edno INTEGER, descr VARCHAR);
CREATE TABLE PROJ (pno INTEGER PRIMARY KEY, pname VARCHAR, budget FLOAT,
                   pdno INTEGER, pmgrno INTEGER);
CREATE TABLE SKILLS (sno INTEGER PRIMARY KEY, sname VARCHAR);
CREATE TABLE EMPSKILL (eseno INTEGER, essno INTEGER);
CREATE TABLE PROJSKILL (pspno INTEGER, pssno INTEGER);
CREATE TABLE EMPPROJ (epeno INTEGER, eppno INTEGER, percentage FLOAT);
"""


def empty_company_database(**db_kwargs) -> Database:
    """The company schema with no rows."""
    db = Database(**db_kwargs)
    db.execute_script(_SCHEMA)
    return db


def figure1_database(**db_kwargs) -> Database:
    """The exact instance of Fig. 1.

    Reachability from the root DEPT must exclude employee e3 (employed by
    no department) and skill s2 (possessed/needed by nobody reachable);
    skill s3 is instance-shared by e2, e4 and project p1.
    """
    db = empty_company_database(**db_kwargs)
    db.execute(
        "INSERT INTO DEPT VALUES (1,'d1','NY',1000.0,NULL),"
        "(2,'d2','SF',2000.0,NULL),(3,'d3','NY',500.0,NULL)"
    )
    db.execute(
        "INSERT INTO EMP VALUES (1,'e1',100.0,1,'staff'),(2,'e2',200.0,1,'staff'),"
        "(3,'e3',300.0,NULL,'staff'),(4,'e4',400.0,2,'staff'),"
        "(5,'e5',500.0,2,'staff'),(6,'e6',600.0,2,'mgr')"
    )
    db.execute(
        "INSERT INTO PROJ VALUES (1,'p1',50.0,1,NULL),(2,'p2',60.0,2,NULL)"
    )
    db.execute(
        "INSERT INTO SKILLS VALUES (1,'s1'),(2,'s2'),(3,'s3'),(4,'s4'),(5,'s5')"
    )
    db.execute("INSERT INTO EMPSKILL VALUES (1,1),(2,3),(4,3),(5,4)")
    db.execute("INSERT INTO PROJSKILL VALUES (1,3),(2,5)")
    db.execute("ANALYZE")
    return db


FIGURE1_CO = """
OUT OF
 Xdept AS DEPT,
 Xemp AS EMP,
 Xproj AS PROJ,
 Xskill AS SKILLS,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
 empproperty AS (RELATE Xemp, Xskill USING EMPSKILL es
                 WHERE Xemp.eno = es.eseno AND Xskill.sno = es.essno),
 projproperty AS (RELATE Xproj, Xskill USING PROJSKILL ps
                  WHERE Xproj.pno = ps.pspno AND Xskill.sno = ps.pssno)
TAKE *
"""


def figure4_database(**db_kwargs) -> Database:
    """The instance behind Figs 3–5.

    Two departments (dNY in New York, dSF in San Francisco); p1 is owned by
    dSF and managed by nobody, so the Fig. 5 query (restrict to NY, project
    away 'ownership') must drop it as unreachable.
    """
    db = empty_company_database(**db_kwargs)
    db.execute(
        "INSERT INTO DEPT VALUES (1,'dNY','NY',1000.0,NULL),"
        "(2,'dSF','SF',2000.0,NULL)"
    )
    db.execute(
        "INSERT INTO EMP VALUES (1,'e1',100.0,1,'staff'),(2,'e2',200.0,1,'staff'),"
        "(3,'e3',300.0,2,'mgr'),(4,'e4',400.0,2,'staff')"
    )
    db.execute(
        "INSERT INTO PROJ VALUES (1,'p1',10.0,2,NULL),(2,'p2',20.0,1,1),"
        "(3,'p3',30.0,1,2),(4,'p4',40.0,2,3)"
    )
    db.execute(
        "INSERT INTO EMPPROJ VALUES (3,2,50.0),(4,2,25.0),(4,4,100.0)"
    )
    db.execute("ANALYZE")
    return db


def create_paper_views(session: XNFSession) -> None:
    """Install ALL-DEPS / ALL-DEPS-ORG / EXT-ALL-DEPS-ORG (sections 3.2–3.4)."""
    session.create_view(
        """
        CREATE VIEW ALL-DEPS AS
        OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
          employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
          ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
        TAKE *
        """
    )
    session.create_view(
        """
        CREATE VIEW ALL-DEPS-ORG AS
        OUT OF ALL-DEPS,
          membership AS (RELATE Xproj, Xemp
            WITH ATTRIBUTES ep.percentage
            USING EMPPROJ ep
            WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
        TAKE *
        """
    )
    session.create_view(
        """
        CREATE VIEW EXT-ALL-DEPS-ORG AS
        OUT OF ALL-DEPS-ORG,
          projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)
        TAKE *
        """
    )


def cdb2_database(**db_kwargs) -> Database:
    """Fig. 2's second representation: EMPLOYMENT as an explicit table.

    Same logical content as :func:`figure1_database` for DEPT/EMP, but the
    association lives in DEPTEMP instead of an EMP foreign key.
    """
    db = Database(**db_kwargs)
    db.execute_script(
        """
        CREATE TABLE DEPT (dno INTEGER PRIMARY KEY, dname VARCHAR,
                           loc VARCHAR, budget FLOAT);
        CREATE TABLE EMP (eno INTEGER PRIMARY KEY, ename VARCHAR, sal FLOAT);
        CREATE TABLE DEPTEMP (dedno INTEGER, deeno INTEGER, since INTEGER);
        """
    )
    db.execute(
        "INSERT INTO DEPT VALUES (1,'d1','NY',1000.0),(2,'d2','SF',2000.0),"
        "(3,'d3','NY',500.0)"
    )
    db.execute(
        "INSERT INTO EMP VALUES (1,'e1',100.0),(2,'e2',200.0),(3,'e3',300.0),"
        "(4,'e4',400.0),(5,'e5',500.0),(6,'e6',600.0)"
    )
    db.execute(
        "INSERT INTO DEPTEMP VALUES (1,1,1990),(1,2,1991),(2,4,1989),"
        "(2,5,1992),(2,6,1988)"
    )
    db.execute("ANALYZE")
    return db


def scaled_database(
    departments: int = 20,
    employees_per_dept: int = 10,
    projects_per_dept: int = 3,
    skills: int = 50,
    seed: int = 7,
    **db_kwargs,
) -> Database:
    """A size-parameterised company database for the experiment counts."""
    rng = random.Random(seed)
    db = empty_company_database(**db_kwargs)
    locations = ["NY", "SF", "LA", "CHI", "AUS"]
    eno = pno = 0
    dept_rows, emp_rows, proj_rows = [], [], []
    empproj_rows, empskill_rows, projskill_rows = [], [], []
    for dno in range(1, departments + 1):
        dept_rows.append(
            (dno, f"d{dno}", locations[dno % len(locations)],
             float(rng.randint(100, 10000)), None)
        )
        dept_emps = []
        for _ in range(employees_per_dept):
            eno += 1
            dept_emps.append(eno)
            emp_rows.append(
                (eno, f"e{eno}", float(rng.randint(10, 500)), dno,
                 rng.choice(["staff", "mgr", "contractor"]))
            )
            for _ in range(rng.randint(0, 3)):
                empskill_rows.append((eno, rng.randint(1, skills)))
        for _ in range(projects_per_dept):
            pno += 1
            manager = rng.choice(dept_emps) if dept_emps else None
            proj_rows.append(
                (pno, f"p{pno}", float(rng.randint(10, 1000)), dno, manager)
            )
            for member in rng.sample(dept_emps, min(3, len(dept_emps))):
                empproj_rows.append((member, pno, float(rng.randint(5, 100))))
            for _ in range(rng.randint(0, 2)):
                projskill_rows.append((pno, rng.randint(1, skills)))
    _bulk_insert(db, "DEPT", dept_rows)
    _bulk_insert(db, "EMP", emp_rows)
    _bulk_insert(db, "PROJ", proj_rows)
    _bulk_insert(db, "SKILLS", [(i, f"s{i}") for i in range(1, skills + 1)])
    _bulk_insert(db, "EMPSKILL", empskill_rows)
    _bulk_insert(db, "PROJSKILL", projskill_rows)
    _bulk_insert(db, "EMPPROJ", empproj_rows)
    db.execute(
        "CREATE INDEX idx_emp_edno ON EMP (edno); "
        "CREATE INDEX idx_proj_pdno ON PROJ (pdno); "
        "CREATE INDEX idx_proj_pmgrno ON PROJ (pmgrno); "
        "CREATE INDEX idx_empproj_eno ON EMPPROJ (epeno); "
        "CREATE INDEX idx_empproj_pno ON EMPPROJ (eppno); "
        "ANALYZE"
    )
    return db


def _bulk_insert(db: Database, table_name: str, rows) -> None:
    """Direct bulk load through the catalog (skips SQL text round trips)."""
    table = db.catalog.get_table(table_name)
    for row in rows:
        table.insert(row)
