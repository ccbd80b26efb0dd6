"""Shared fixtures: fresh engines and the paper's example databases."""

import pytest
from hypothesis import settings

from repro.relational.engine import Database
from repro.workloads import company, oo1
from repro.xnf.api import XNFSession

# Hypothesis example budgets.  Tier-1 runs "default" (Hypothesis's own 100
# examples); CI's long step passes --hypothesis-profile=long.  The SQLite
# crosscheck properties size their budgets from the active profile.
settings.register_profile("default", max_examples=100)
settings.register_profile("long", max_examples=1000)


@pytest.fixture
def db():
    """An empty database."""
    return Database()


@pytest.fixture
def company_db():
    """The Fig. 1 company database."""
    return company.figure1_database()


@pytest.fixture
def fig4_db():
    """The Figs 3-5 company database (recursive scenario)."""
    return company.figure4_database()


@pytest.fixture
def fig4_session(fig4_db):
    """XNF session over the Fig. 4 database, with the paper's views."""
    session = XNFSession(fig4_db)
    company.create_paper_views(session)
    return session


@pytest.fixture
def company_session(company_db):
    return XNFSession(company_db)


@pytest.fixture
def parts_db():
    """A small OO1 parts database."""
    return oo1.build_parts_database(120, seed=3)


@pytest.fixture
def parts_co(parts_db):
    session = XNFSession(parts_db)
    return oo1.load_parts_co(session)


@pytest.fixture
def people_db():
    """A small generic table for SQL-semantics tests."""
    database = Database()
    database.execute(
        "CREATE TABLE PEOPLE (id INTEGER PRIMARY KEY, name VARCHAR, "
        "age INTEGER, city VARCHAR, score FLOAT)"
    )
    database.execute(
        "INSERT INTO PEOPLE VALUES "
        "(1, 'ann', 30, 'NY', 1.5), "
        "(2, 'bob', 25, 'SF', 2.5), "
        "(3, 'cat', 35, 'NY', NULL), "
        "(4, 'dan', NULL, 'LA', 4.0), "
        "(5, 'eve', 25, NULL, 0.5)"
    )
    return database
