"""Blocking wire-protocol client.

:class:`WireClient` is the client half of :mod:`repro.server`: one TCP
connection, one wire session (its own transaction state and statement
timeout on the server).  Every request raises the *same* typed exception
an in-process caller would see — the server serializes its error taxonomy
and :func:`~repro.server.protocol.rehydrate_error` rebuilds the class, its
``retryable`` flag and its ``backoff_hint_s`` — so
:meth:`WireClient.run_retryable` behaves exactly like
:meth:`Database.run_retryable` across the network: roll back, back off
(seeded from the server's hint), re-run on a fresh snapshot.

With ``tracing=True`` the client opens a ``client.<op>`` span around every
round trip and injects its :class:`~repro.obs.trace.TraceContext` into the
frame, so the server's spans for that statement share the client's trace
id — one trace follows the statement from the client through the server
into the engine.  :meth:`WireClient.profile` fetches the server's
structured time breakdown of the session's last statement.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CursorError, ExecutionError, ReproError
from repro.obs.trace import TraceContext, Tracer
from repro.server import protocol
from repro.xnf.cache import CachedTuple, COCache
from repro.xnf.stream import decode_stream


class WireResult:
    """Result set of one remote statement.

    Small results arrive inline; long ones stream through a server-side
    fetch cursor that :meth:`rows` / iteration drain transparently.
    """

    def __init__(self, client: "WireClient", payload: Dict[str, Any]):
        self._client = client
        self.columns: List[str] = payload.get("columns") or []
        self.rowcount: int = payload.get("rowcount", 0)
        self._rows: List[Tuple[Any, ...]] = [
            tuple(row) for row in payload.get("rows") or []
        ]
        self._cursor: Optional[int] = payload.get("cursor")
        self._more: bool = bool(payload.get("more"))

    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows (drains the server-side cursor if one is open)."""
        while self._more:
            self._fetch_more()
        return self._rows

    def _fetch_more(self) -> None:
        payload = self._client.request(op="FETCH", cursor=self._cursor)
        self._rows.extend(tuple(row) for row in payload.get("rows") or [])
        self._more = bool(payload.get("more"))

    def scalar(self) -> Any:
        rows = self.rows()
        return rows[0][0] if rows else None

    def first(self) -> Optional[Tuple[Any, ...]]:
        rows = self.rows()
        return rows[0] if rows else None

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows())

    def __len__(self) -> int:
        return len(self.rows())


class RemotePrepared:
    """Handle on a server-side prepared statement."""

    def __init__(self, client: "WireClient", stmt_id: int, n_params: int):
        self._client = client
        self.stmt_id = stmt_id
        self.n_params = n_params

    def execute(self, params: Sequence[Any] = ()) -> WireResult:
        payload = self._client.request(
            op="EXECUTE", stmt=self.stmt_id, params=list(params)
        )
        return WireResult(self._client, payload)


class RemoteCO:
    """A composite object extracted over the wire and held in this process.

    The ``XNF`` response carries the CO itself (schema header plus the
    heterogeneous tuple stream, see :func:`repro.xnf.stream.encode_stream`);
    it is loaded into a :class:`~repro.xnf.cache.COCache` here, so cursors,
    paths and ``nodes`` never cross the network — as the paper has it, "the
    access to the cache does not require any inter-process communication".
    """

    def __init__(self, client: "WireClient", payload: Dict[str, Any]):
        # the same loader as an in-process TAKE's
        cache = COCache.load(decode_stream(payload["co"], WireResult(client, payload).rows()))
        self._cache: Optional[COCache] = cache
        #: node name -> tuple count (as extracted)
        self.nodes: Dict[str, int] = {
            name: len(cache.node(name)) for name in cache.node_names()
        }
        #: edge name -> connection count
        self.edges: Dict[str, int] = {
            name: len(cache.connections_of(name)) for name in cache.edge_names()
        }

    def _open_cache(self) -> COCache:
        if self._cache is None:
            raise CursorError("composite object is closed")
        return self._cache

    def cursor(self, node: str) -> Iterator[Dict[str, Any]]:
        """Independent cursor on *node*: its tuples as dicts, in load order."""
        cursor = self._open_cache().cursor(node).open()
        return (cached.as_dict() for cached in cursor)

    def path(
        self, start: str, path: str, **criteria: Any
    ) -> List[Dict[str, Any]]:
        """Evaluate a path expression on the local cache.

        ``criteria`` anchor the start: ``co.path("Xdept", "employment",
        dname="d1")`` navigates from the department named d1.
        """
        cache = self._open_cache()
        anchor: Union[CachedTuple, str] = start
        if criteria:
            found = cache.find(start, **criteria)
            if found is None:
                raise ExecutionError(f"no {start} tuple matches {criteria!r}")
            anchor = found
        return [
            {"node": t.node, "values": t.as_dict()}
            for t in cache.path(anchor, path)
        ]

    def close(self) -> None:
        self._cache = None

    def __enter__(self) -> "RemoteCO":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WireClient:
    """One blocking connection to an :class:`~repro.server.XNFServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7474,
        *,
        auth_token: Optional[str] = None,
        connect_timeout_s: float = 10.0,
        io_timeout_s: Optional[float] = 120.0,
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
    ):
        #: client-side span tracer; off by default so the plain client
        #: pays nothing.  Attach a JsonlTraceExporter to stitch the
        #: client's records with the server's on trace_id.
        self.tracer = Tracer(enabled=tracing, sample_rate=trace_sample_rate)
        self.sock = socket.create_connection((host, port), connect_timeout_s)
        self.sock.settimeout(io_timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = protocol.read_frame(self.sock)
        if not hello.get("ok"):
            # the server refused admission before the session existed
            self.sock.close()
            raise protocol.rehydrate_error(hello.get("error") or {})
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            self.sock.close()
            raise protocol.ProtocolError(
                f"server speaks protocol {hello.get('protocol')!r}, this "
                f"client speaks {protocol.PROTOCOL_VERSION}"
            )
        self.server_info = hello
        self.session_id: int = hello.get("session", -1)
        self._closed = False
        if auth_token is not None:
            self.request(op="AUTH", token=auth_token)

    # -- framing --------------------------------------------------------------

    def request(self, **payload: Any) -> Dict[str, Any]:
        """Send one frame, await its response; raise on error frames.

        When tracing is on, the round trip runs inside a ``client.<op>``
        span whose context is injected into the frame's ``trace`` field,
        so server-side spans parent under it (by id, across the wire).
        """
        if self._closed:
            raise CursorError("client connection is closed")
        if not self.tracer.enabled:
            return self._roundtrip(payload)
        op = str(payload.get("op") or "frame").lower()
        with self.tracer.span(f"client.{op}", session=self.session_id) as span:
            if span.span_id and span.trace_id:
                payload["trace"] = TraceContext(
                    span.trace_id, span.span_id, span.sampled
                ).to_wire()
            return self._roundtrip(payload)

    def _roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        protocol.write_frame(self.sock, payload)
        response = protocol.read_frame(self.sock)
        if not response.get("ok"):
            raise protocol.rehydrate_error(response.get("error") or {})
        return response

    # -- SQL ------------------------------------------------------------------

    def execute(self, sql: str, max_rows: Optional[int] = None) -> WireResult:
        payload: Dict[str, Any] = {"op": "QUERY", "sql": sql}
        if max_rows is not None:
            payload["max_rows"] = max_rows
        return WireResult(self, self.request(**payload))

    def prepare(self, sql: str) -> RemotePrepared:
        payload = self.request(op="PREPARE", sql=sql)
        return RemotePrepared(self, payload["stmt"], payload.get("n_params", 0))

    def begin(self) -> None:
        self.execute("BEGIN")

    def commit(self) -> None:
        self.execute("COMMIT")

    def rollback(self) -> None:
        self.execute("ROLLBACK")

    # -- XNF ------------------------------------------------------------------

    def take(self, text: str) -> RemoteCO:
        """Run an XNF TAKE query in one request (plus FETCH pages for a CO
        longer than the server's ``fetch_size``); the CO lives here."""
        payload = self.request(op="XNF", text=text)
        if "co" not in payload:
            raise CursorError("XNF statement did not produce a composite object")
        return RemoteCO(self, payload)

    def xnf(self, text: str) -> Dict[str, Any]:
        """Run any XNF statement; returns the raw response payload."""
        return self.request(op="XNF", text=text)

    def explain_analyze(self, text: str) -> str:
        return self.request(op="XNF_EXPLAIN", text=text)["text"]

    # -- session options ------------------------------------------------------

    def set_statement_timeout(self, seconds: Optional[float]) -> None:
        self.request(op="SET", option="statement_timeout_s", value=seconds)

    def ping(self) -> float:
        return float(self.request(op="PING")["time_s"])

    # -- observability ---------------------------------------------------------

    def profile(self) -> Optional[Dict[str, Any]]:
        """Structured time breakdown of this session's last statement.

        Returns the server-built profile (queue wait, pipeline stages,
        per-shard scatter durations + skew, MVCC retry wait, …) or None
        when the server has not run a statement for this session yet or
        has tracing disabled.  Render it with
        :func:`repro.obs.render_profile`.
        """
        return self.request(op="PROFILE").get("profile")

    # -- retry loop (mirrors Database.run_retryable) ---------------------------

    def run_retryable(
        self,
        fn,
        *,
        retries: int = 5,
        backoff_s: Optional[float] = None,
        max_backoff_s: float = 0.25,
        jitter: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> Any:
        """Run *fn* retrying retryable wire errors with backoff + jitter.

        Same contract as :meth:`Database.run_retryable`, driven by the
        retry metadata the server serialized: when *backoff_s* is None or
        non-positive the first delay is the error's own ``backoff_hint_s``
        (an :class:`AdmissionError`'s 20 ms vs. a conflict's 2 ms), then
        doubles.  A caller-supplied ``backoff_s=0`` used to stick at zero
        forever (``0 * 2 == 0``) and busy-spin through every retry; it now
        re-arms from the hint like ``None``.  The post-jitter sleep is
        clamped so *max_backoff_s* really is the maximum (jitter could
        previously overshoot it by up to 50%).  Any open remote transaction
        is rolled back before each retry so every attempt starts on a fresh
        snapshot.
        """
        rng = rng if rng is not None else random.Random()
        delay = backoff_s
        for attempt in range(retries + 1):
            try:
                return fn()
            except ReproError as err:
                if not getattr(err, "retryable", False):
                    raise
                try:
                    self.rollback()
                except (ReproError, OSError):
                    pass
                if attempt >= retries:
                    raise
                if delay is None or delay <= 0:
                    delay = getattr(err, "backoff_hint_s", None) or 0.002
                sleep_s = min(delay, max_backoff_s) * (1.0 + jitter * rng.random())
                sleep_s = min(sleep_s, max_backoff_s)
                if sleep_s > 0:
                    time.sleep(sleep_s)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.request(op="CLOSE")
        except (ReproError, OSError):
            pass
        self._closed = True
        self.sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def connect(host: str = "127.0.0.1", port: int = 7474, **kwargs: Any) -> WireClient:
    """Convenience constructor mirroring ``Database.connect``."""
    return WireClient(host, port, **kwargs)
