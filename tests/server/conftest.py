"""Fixtures for wire server/client tests: one server per test over a
fresh Fig. 1 company database."""

import pytest

from repro.client.client import WireClient
from repro.server.server import ServerThread
from repro.workloads.company import figure1_database


@pytest.fixture
def wire_server():
    db = figure1_database(mvcc=True)
    with ServerThread(db, max_connections=16) as server:
        yield server


@pytest.fixture
def client(wire_server):
    with WireClient(port=wire_server.port) as c:
        yield c
