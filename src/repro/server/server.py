"""Asyncio wire server: many network clients, one shared Database.

:class:`XNFServer` is the network front door of the paper's Fig. 7
architecture: every accepted connection becomes a *wire session* with its
own :class:`~repro.relational.engine.Session` (transaction state, per-
session statement timeout) and its own lazily-created
:class:`~repro.xnf.api.XNFSession` (CO extraction, views, SYS_MONITOR),
all over one shared :class:`Database` — so thousands of clients each pull
small composite-object working sets out of the same relational store.

Concurrency model: the event loop owns all socket IO; every blocking
database call runs on a bounded thread pool, and the engine's thread-local
session state is made connection-local by running each call inside the
connection's ``Session._activate()`` swap (one frame at a time per
connection, so a session's statements never run concurrently with each
other).  Each statement picks up its ambient snapshot exactly as
in-process callers do.

Failure surface: every error a statement raises crosses the wire as a
typed error frame (see :mod:`repro.server.protocol`) and the connection
keeps serving; only *protocol* errors (garbage bytes, oversized length
prefixes) close the offending connection — and never anyone else's.
Admission control is two-layered: the server refuses connections past
``max_connections`` with a retryable
:class:`~repro.errors.AdmissionError` frame, and the database's own
``max_concurrent_txns`` ceiling surfaces per-statement the same way.

Shutdown is graceful: the listener closes first, idle connections are
disconnected, in-flight statements get ``drain_timeout_s`` to finish (each
receives its response before its connection closes), and the thread pool
drains before :meth:`stop` returns.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    AdmissionError,
    AuthError,
    CursorError,
    ExecutionError,
    HandleEvictedError,
    ReproError,
    ServerShutdownError,
    SQLError,
)
from repro.obs.profile import build_profile
from repro.obs.trace import FRESH_CONTEXT, TraceContext
from repro.relational.engine import Database, Result, Session
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.xnf.api import XNFSession
from repro.xnf.semantic_rewrite import COInstance
from repro.xnf.stream import encode_stream

#: default cap on rows returned inline by QUERY/EXECUTE before the rest
#: spills into a server-side fetch cursor
DEFAULT_FETCH_SIZE = 4096


class _LRUHandles:
    """Bounded, LRU-ordered id → handle map for per-connection server state.

    The wire protocol hands out integer handles (prepared statements, fetch
    cursors) that live until the session ends or, for a cursor, until it is
    drained — so a sloppy or long-lived client used to grow these maps
    without bound.  Each map now caps at ``cap`` entries; inserting past the
    cap evicts the least recently used handle (``on_evict`` does the
    per-kind bookkeeping).  Evicted ids are remembered so a later access
    raises a typed, **non-retryable**
    :class:`~repro.errors.HandleEvictedError` (which survives the wire
    roundtrip) instead of the generic "unknown handle" — the client learns
    it must re-create the handle, not retry.
    """

    def __init__(
        self,
        kind: str,
        cap: int,
        on_evict: Callable[[int, Any], None],
    ):
        self.kind = kind
        self.cap = max(1, int(cap))
        self.on_evict = on_evict
        self._items: "OrderedDict[int, Any]" = OrderedDict()
        self._evicted: set = set()

    def __setitem__(self, key: int, value: Any) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.cap:
            old_key, old_value = self._items.popitem(last=False)
            self._evicted.add(old_key)
            self.on_evict(old_key, old_value)

    def get(self, key: Any) -> Optional[Any]:
        """Fetch + LRU-touch; raises HandleEvictedError for evicted ids."""
        value = self._items.get(key)
        if value is None:
            if key in self._evicted:
                raise HandleEvictedError(
                    f"{self.kind} {key!r} was evicted by the session handle "
                    "cap; re-create it (the handle cannot be replayed)"
                )
            return None
        self._items.move_to_end(key)
        return value

    def pop(self, key: Any, default: Any = None) -> Any:
        """Plain removal (drained cursor) — does NOT mark the id evicted."""
        return self._items.pop(key, default)

    def clear(self) -> None:
        self._items.clear()
        self._evicted.clear()


class _WireConnection:
    """Server-side state of one client connection."""

    def __init__(self, server: "XNFServer", reader, writer, stats):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.stats = stats  # WireSessionStats row behind SYS_SESSIONS
        self.session: Session = server.db.connect()
        self.session.statement_timeout_s = server.statement_timeout_s
        #: wire-session attribution: statements run through this session
        #: stamp its id into SYS_STAT_STATEMENTS and the slow-query log
        self.session.session_id = stats.session_id
        self.authed = server.auth_token is None
        self.busy = False
        self.closing = False
        #: per-frame distributed-trace state (frames are serial per
        #: connection): the incoming TraceContext and the op name, set by
        #: dispatch() and consumed by run_db()
        self._frame_trace: Optional[TraceContext] = None
        self._frame_op: Optional[str] = None
        #: profile of the last frame that ran database work (PROFILE op)
        self.last_profile: Optional[Dict[str, Any]] = None
        self._xnf: Optional[XNFSession] = None
        self._ids = itertools.count(1)
        cap = server.max_session_handles
        self.prepared = _LRUHandles(
            "prepared statement", cap, self._evicted_handle
        )
        #: result-set cursors: id -> {"columns": [...], "rows": [...]}
        self.cursors = _LRUHandles("fetch cursor", cap, self._evicted_cursor)

    # -- handle eviction bookkeeping ------------------------------------------

    def _evicted_handle(self, handle_id: int, value: Any) -> None:
        self.server.db.network.inc("handles_evicted")

    def _evicted_cursor(self, handle_id: int, value: Any) -> None:
        self.stats.record(cursors_open=-1)
        self.server.db.network.inc("handles_evicted")

    # -- helpers --------------------------------------------------------------

    @property
    def xnf(self) -> XNFSession:
        """The connection's XNF session, created on first XNF frame (its
        constructor installs the SYS_MONITOR CO, which costs a few
        statements — pure-SQL clients never pay it)."""
        if self._xnf is None:
            self._xnf = self.server.xnf_session_factory(self.server.db)
        return self._xnf

    def next_id(self) -> int:
        return next(self._ids)

    async def run_db(self, fn: Callable[[], Any]) -> Any:
        """Run blocking database work on the pool, inside this session.

        Distributed tracing: the frame's :class:`TraceContext` (or
        ``FRESH_CONTEXT`` when the client sent none) rides in on
        ``session.trace_context`` so ``Session._activate`` adopts it on
        the pool worker before the statement runs; the whole call is
        wrapped in a ``wire.<op>`` span — the server-side root that
        parents every engine/XNF/shard span — and its completed tree is
        aggregated into the connection's last profile (``PROFILE`` op),
        including the admission/queue wait measured from frame dispatch
        to worker start.
        """
        session = self.session
        db = self.server.db
        tracer = db.tracer
        session.trace_context = self._frame_trace or FRESH_CONTEXT
        op_name = self._frame_op or "db"
        submitted = time.perf_counter()

        def call():
            queue_wait_s = time.perf_counter() - submitted
            with session._activate():
                retry_base = db._retry_wait_s
                conflicts_base = db.txn_manager.locks.conflicts
                span = tracer.span(f"wire.{op_name}", session=session.session_id)
                try:
                    with span:
                        return fn()
                finally:
                    if tracer.enabled:
                        self.last_profile = build_profile(
                            span,
                            queue_wait_s=queue_wait_s,
                            retry_wait_s=db._retry_wait_s - retry_base,
                            lock_conflicts=(
                                db.txn_manager.locks.conflicts - conflicts_base
                            ),
                        )

        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self.server._executor, call)
        finally:
            session.trace_context = None

    def _result_payload(
        self, result: Result, max_rows: Optional[int]
    ) -> Dict[str, Any]:
        """Build a QUERY/EXECUTE response, spilling long results into a
        FETCH cursor."""
        rows = result.rows
        limit = max_rows if max_rows is not None else self.server.fetch_size
        payload = protocol.ok(
            columns=result.columns, rowcount=result.rowcount
        )
        if limit is not None and len(rows) > limit:
            cursor_id = self.next_id()
            self.cursors[cursor_id] = {
                "columns": result.columns,
                "rows": rows[limit:],
            }
            self.stats.record(cursors_open=1)
            payload["rows"] = rows[:limit]
            payload["more"] = True
            payload["cursor"] = cursor_id
        else:
            payload["rows"] = rows
            payload["more"] = False
        self.stats.record(rows_sent=len(payload["rows"]))
        return payload

    # -- frame dispatch -------------------------------------------------------

    async def dispatch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        if not isinstance(op, str):
            raise ProtocolError("frame lacks an 'op' field")
        handler = getattr(self, f"op_{op.lower()}", None)
        if handler is None:
            raise SQLError(f"unknown op {op!r}")
        if not self.authed and op.upper() not in ("AUTH", "CLOSE", "PING"):
            raise AuthError("authentication required (send AUTH first)")
        # Per-frame trace state (frames are serial on this connection): a
        # malformed 'trace' field decodes to None — a fresh server-side
        # trace — never an error (the field is additive in protocol v1).
        self._frame_op = op.lower()
        self._frame_trace = TraceContext.from_wire(payload.get("trace"))
        return await handler(payload)

    async def op_auth(self, payload) -> Dict[str, Any]:
        token = payload.get("token")
        if self.server.auth_token is not None and token != self.server.auth_token:
            raise AuthError("bad auth token")
        self.authed = True
        return protocol.ok()

    async def op_ping(self, payload) -> Dict[str, Any]:
        return protocol.ok(time_s=time.time())

    async def op_query(self, payload) -> Dict[str, Any]:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise SQLError("QUERY frame lacks 'sql'")
        self.stats.record(statements=1)
        result = await self.run_db(lambda: self.server.db.execute(sql))
        self.stats.in_txn = self.session.in_transaction
        return self._result_payload(result, payload.get("max_rows"))

    async def op_prepare(self, payload) -> Dict[str, Any]:
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise SQLError("PREPARE frame lacks 'sql'")
        prepared = await self.run_db(lambda: self.server.db.prepare(sql))
        stmt_id = self.next_id()
        self.prepared[stmt_id] = prepared
        return protocol.ok(stmt=stmt_id, n_params=prepared.n_params)

    async def op_execute(self, payload) -> Dict[str, Any]:
        prepared = self.prepared.get(payload.get("stmt"))
        if prepared is None:
            raise SQLError(f"unknown prepared statement {payload.get('stmt')!r}")
        params = payload.get("params") or []
        if not isinstance(params, list):
            raise SQLError("EXECUTE 'params' must be a list")
        self.stats.record(statements=1)
        result = await self.run_db(lambda: prepared.execute(params))
        self.stats.in_txn = self.session.in_transaction
        return self._result_payload(result, payload.get("max_rows"))

    async def op_fetch(self, payload) -> Dict[str, Any]:
        cursor = self.cursors.get(payload.get("cursor"))
        if cursor is None:
            raise CursorError(f"unknown fetch cursor {payload.get('cursor')!r}")
        n = int(payload.get("n") or self.server.fetch_size or DEFAULT_FETCH_SIZE)
        rows = cursor["rows"][:n]
        del cursor["rows"][:n]
        more = bool(cursor["rows"])
        if not more:  # exhausted cursors close themselves
            self.cursors.pop(payload.get("cursor"), None)
            self.stats.record(cursors_open=-1)
        self.stats.record(rows_sent=len(rows))
        return protocol.ok(columns=cursor["columns"], rows=rows, more=more)

    # -- XNF / composite objects ---------------------------------------------

    async def op_xnf(self, payload) -> Dict[str, Any]:
        """Run one XNF statement.  A TAKE answers with the CO itself — its
        schema header under ``co``, its heterogeneous stream as rows paged
        like any long result — so the session keeps no CO state."""
        text = payload.get("text")
        if not isinstance(text, str):
            raise SQLError("XNF frame lacks 'text'")
        self.stats.record(statements=1)
        result = await self.run_db(lambda: self.xnf.execute_remote(text))
        self.stats.in_txn = self.session.in_transaction
        if isinstance(result, COInstance):
            header, items = encode_stream(result)
            response = self._result_payload(Result(rows=items), None)
            response["co"] = header
            return response
        if isinstance(result, int):
            return protocol.ok(rowcount=result)
        return protocol.ok()

    async def op_xnf_explain(self, payload) -> Dict[str, Any]:
        text = payload.get("text")
        if not isinstance(text, str):
            raise SQLError("XNF_EXPLAIN frame lacks 'text'")
        self.stats.record(statements=1)
        rendered = await self.run_db(lambda: self.xnf.explain_analyze(text))
        return protocol.ok(text=rendered)

    # -- observability --------------------------------------------------------

    async def op_profile(self, payload) -> Dict[str, Any]:
        """Profile of this connection's last database-running frame: the
        structured time breakdown built from its ``wire.<op>`` span tree
        (queue wait, pipeline stages, per-shard scatter/delta durations,
        retry wait).  Pure in-memory read — never dispatched to the pool."""
        return protocol.ok(profile=self.last_profile)

    # -- session options ------------------------------------------------------

    async def op_set(self, payload) -> Dict[str, Any]:
        option = payload.get("option")
        value = payload.get("value")
        if option == "statement_timeout_s":
            self.session.statement_timeout_s = (
                None if value is None else float(value)
            )
            return protocol.ok(option=option, value=value)
        raise SQLError(f"unknown session option {option!r}")

    async def op_close(self, payload) -> Dict[str, Any]:
        self.closing = True
        return protocol.ok(goodbye=True)

    # -- teardown -------------------------------------------------------------

    def release(self) -> None:
        """Drop per-connection engine state (rolls back an open txn)."""
        if self.session.in_transaction:
            try:
                with self.session._activate():
                    self.server.db.rollback()
            except ReproError:
                pass
        self.prepared.clear()
        self.cursors.clear()


class XNFServer:
    """Asyncio socket server multiplexing wire sessions over one Database."""

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        auth_token: Optional[str] = None,
        statement_timeout_s: Optional[float] = None,
        fetch_size: Optional[int] = DEFAULT_FETCH_SIZE,
        drain_timeout_s: float = 10.0,
        max_session_handles: int = 256,
        xnf_session_factory: Callable[[Database], XNFSession] = XNFSession,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.auth_token = auth_token
        self.statement_timeout_s = statement_timeout_s
        self.fetch_size = fetch_size
        self.drain_timeout_s = drain_timeout_s
        #: per-kind cap on a connection's live handles (prepared statements,
        #: fetch cursors); LRU-evicted past the cap
        self.max_session_handles = max_session_handles
        self.xnf_session_factory = xnf_session_factory
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._draining = False
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(4, min(max_connections, 64)),
            thread_name_prefix="xnf-wire",
        )

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "XNFServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight statements."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Disconnect idle connections now; they are blocked in a frame read.
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        deadline = time.monotonic() + self.drain_timeout_s
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Anything still here exceeded the drain budget: cut it off.
        for conn in list(self._connections):
            conn.writer.close()
        while self._connections:
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=True)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- per-connection protocol loop ----------------------------------------

    async def _refuse(self, writer, exc: ReproError) -> None:
        self.db.network.inc("connections_refused")
        try:
            await self._write(writer, protocol.err_frame(exc))
        except (ConnectionError, OSError):
            pass
        writer.close()

    async def _write(self, writer, payload: Dict[str, Any]) -> None:
        data = protocol.encode_frame(payload)
        writer.write(data)
        await writer.drain()
        self.db.network.inc("frames_out")
        self.db.network.inc("bytes_out", len(data))

    async def _read_frame(self, reader) -> Optional[Dict[str, Any]]:
        """Read one request frame; None on clean EOF."""
        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean disconnect between frames
            raise ProtocolError(
                f"connection closed mid-prefix ({len(exc.partial)}/4 bytes)"
            ) from None
        length = protocol.decode_length(header)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
            ) from None
        self.db.network.inc("frames_in")
        self.db.network.inc("bytes_in", 4 + length)
        return protocol.decode_body(body)

    async def _handle(self, reader, writer) -> None:
        network = self.db.network
        if self._draining:
            await self._refuse(writer, ServerShutdownError("server is draining"))
            return
        if len(self._connections) >= self.max_connections:
            await self._refuse(
                writer,
                AdmissionError(
                    f"connection limit of {self.max_connections} reached; "
                    "back off and retry"
                ),
            )
            return
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "<unknown>"
        stats = self.db.wire_sessions.register(peer)
        conn = _WireConnection(self, reader, writer, stats)
        self._connections.add(conn)
        network.inc("connections_opened")
        network.inc("connections_active")
        try:
            await self._write(writer, protocol.hello_payload(stats.session_id))
            await self._serve_connection(conn)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away (or shutdown cancelled us) mid-write
        finally:
            conn.release()
            self._connections.discard(conn)
            self.db.wire_sessions.unregister(stats)
            network.dec("connections_active")
            writer.close()

    async def _serve_connection(self, conn: _WireConnection) -> None:
        network = self.db.network
        while True:
            try:
                payload = await self._read_frame(conn.reader)
            except ProtocolError as exc:
                # The byte stream is unsynchronized: answer (best-effort)
                # and close THIS connection; every other session keeps going.
                network.inc("protocol_errors")
                conn.stats.record(errors=1)
                try:
                    await self._write(conn.writer, protocol.err_frame(exc))
                except (ConnectionError, OSError):
                    pass
                return
            if payload is None:
                return
            conn.busy = True
            conn.stats.touch("running")
            try:
                response = await conn.dispatch(payload)
            except ProtocolError as exc:
                network.inc("protocol_errors")
                conn.stats.record(errors=1)
                try:
                    await self._write(conn.writer, protocol.err_frame(exc))
                except (ConnectionError, OSError):
                    pass
                return
            except ReproError as exc:
                response = protocol.err_frame(exc)
                network.inc("errors_sent")
                conn.stats.record(errors=1)
                if getattr(exc, "retryable", False):
                    network.inc("retryable_errors_sent")
                    conn.stats.record(retryable_errors=1)
            except Exception as exc:  # bug shield: isolate, don't crash
                response = protocol.err_frame(
                    ExecutionError(f"internal server error: {exc!r}")
                )
                network.inc("errors_sent")
                conn.stats.record(errors=1)
            finally:
                conn.busy = False
                conn.stats.touch("idle")
            await self._write(conn.writer, response)
            if conn.closing:
                return
            if self._draining:
                # Drain semantics: the in-flight statement got its answer;
                # now the connection ends (clients reconnect elsewhere).
                return


class ServerThread:
    """Run an :class:`XNFServer` on a dedicated event-loop thread.

    The blocking-world adapter for tests, ``perf/`` and the CI smoke
    script: ``start()`` returns once the port is bound, ``stop()`` runs the
    graceful drain and joins the thread.  Usable as a context manager.
    """

    def __init__(self, db: Database, **kwargs: Any):
        self.server = XNFServer(db, **kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="xnf-server-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(10)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("server did not start within 10s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_requested = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self._stop_requested.wait()
            await self.server.stop()

        try:
            asyncio.run(main())
        except BaseException:
            if not self._started.is_set():
                self._started.set()

    def stop(self) -> None:
        if self._thread is None or self._loop is None:
            return
        loop, event = self._loop, self._stop_requested
        if event is not None:
            loop.call_soon_threadsafe(event.set)
        self._thread.join(self.server.drain_timeout_s + 30)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("server thread did not stop")
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
