"""Per-connection handle caps: LRU eviction with a typed, non-retryable error.

A wire session's prepared statements and fetch cursors used to accumulate
until disconnect.  With ``max_session_handles`` set, the oldest handle of
a kind is evicted when the cap is exceeded, and touching an evicted handle
raises :class:`~repro.errors.HandleEvictedError` — distinguishable on the
client from a plain unknown-handle :class:`CursorError`, and never
retryable (the handle cannot be replayed; the client must re-create it).
Composite objects hold no server handle: they live in the client.
"""

import pytest

from repro.client.client import WireClient
from repro.errors import CursorError, HandleEvictedError
from repro.server.server import ServerThread
from repro.workloads.company import figure1_database


@pytest.fixture
def tight_server():
    """A server that only keeps 3 live handles per kind per connection."""
    db = figure1_database(mvcc=True)
    with ServerThread(db, max_connections=8, max_session_handles=3) as server:
        yield server


@pytest.fixture
def client(tight_server):
    with WireClient(port=tight_server.port) as c:
        yield c


def open_cursor(client: WireClient) -> int:
    """A FETCH cursor over EMP: one row inline, the rest server-side."""
    payload = client.request(op="QUERY", sql="SELECT * FROM EMP", max_rows=1)
    assert payload["more"] is True
    return payload["cursor"]


class TestPreparedEviction:
    def test_oldest_prepared_statement_evicted(self, client):
        handles = [client.prepare("SELECT * FROM DEPT") for _ in range(4)]
        with pytest.raises(HandleEvictedError) as exc:
            handles[0].execute()
        assert exc.value.retryable is False
        # the survivors still execute
        assert handles[1].execute().rows()
        assert handles[3].execute().rows()

    def test_lru_order_respects_recent_use(self, client):
        handles = [client.prepare("SELECT * FROM DEPT") for _ in range(3)]
        handles[0].execute()  # touch: now handles[1] is the LRU entry
        client.prepare("SELECT * FROM EMP")
        assert handles[0].execute().rows()
        with pytest.raises(HandleEvictedError):
            handles[1].execute()

    def test_error_survives_wire_roundtrip_as_typed(self, client):
        for _ in range(4):
            client.prepare("SELECT * FROM DEPT")
        with pytest.raises(HandleEvictedError):
            client.request(op="EXECUTE", stmt=1, params=[])
        # and an id that never existed still reports the generic error
        with pytest.raises(CursorError) as exc:
            client.request(op="FETCH", cursor=99999)
        assert not isinstance(exc.value, HandleEvictedError)

    def test_eviction_counter_visible_in_network_stats(self, tight_server):
        with WireClient(port=tight_server.port) as c:
            for _ in range(5):
                c.prepare("SELECT * FROM DEPT")
        snap = tight_server.server.db.network.snapshot()
        assert snap.get("handles_evicted", 0) >= 2


class TestFetchCursorEviction:
    def test_oldest_fetch_cursor_evicted(self, client):
        cursors = [open_cursor(client) for _ in range(4)]
        with pytest.raises(HandleEvictedError) as exc:
            client.request(op="FETCH", cursor=cursors[0])
        assert exc.value.retryable is False
        assert client.request(op="FETCH", cursor=cursors[3])["rows"]

    def test_explicit_close_still_reports_unknown(self, client):
        cursor = open_cursor(client)
        # draining a cursor closes it: a plain removal, not an eviction
        assert client.request(op="FETCH", cursor=cursor, n=100)["more"] is False
        with pytest.raises(CursorError) as exc:
            client.request(op="FETCH", cursor=cursor)
        assert not isinstance(exc.value, HandleEvictedError)


class TestDefaultCapIsRoomy:
    def test_default_server_keeps_many_handles(self):
        db = figure1_database(mvcc=True)
        with ServerThread(db, max_connections=4) as server:
            assert server.server.max_session_handles == 256
            with WireClient(port=server.port) as c:
                handles = [c.prepare("SELECT * FROM DEPT") for _ in range(20)]
                assert all(h.execute().rows() for h in handles)
