"""Wire-server observability: frame/byte counters and live session rows.

Both registries live on every :class:`~repro.relational.engine.Database`
(``db.network`` and ``db.wire_sessions``) so the ``SYS_STAT_NETWORK`` and
``SYS_SESSIONS`` virtual tables are installable at construction time; an
embedded database that never starts a server simply reports zero counters
and no sessions.  The server (:mod:`repro.server`) increments the counters
from its event loop and registers one :class:`WireSessionStats` per
accepted connection; statement workers update their own session's row from
worker threads, hence the locking.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

#: counter names in SYS_STAT_NETWORK column order
NETWORK_COUNTER_KEYS = (
    "connections_opened",
    "connections_active",
    "connections_refused",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "errors_sent",
    "retryable_errors_sent",
    "protocol_errors",
)


class NetworkStats:
    """Thread-safe frame/byte counters for the wire server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {key: 0 for key in NETWORK_COUNTER_KEYS}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def dec(self, name: str, amount: int = 1) -> None:
        self.inc(name, -amount)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)


class WireSessionStats:
    """One live wire session's row behind ``SYS_SESSIONS``."""

    __slots__ = (
        "session_id", "peer", "state", "statements", "rows_sent", "errors",
        "retryable_errors", "cursors_open", "in_txn",
        "connected_at", "last_activity", "_lock",
    )

    def __init__(self, session_id: int, peer: str):
        self.session_id = session_id
        self.peer = peer
        self.state = "idle"
        self.statements = 0
        self.rows_sent = 0
        self.errors = 0
        self.retryable_errors = 0
        self.cursors_open = 0
        self.in_txn = False
        self.connected_at = time.monotonic()
        self.last_activity = self.connected_at
        self._lock = threading.Lock()

    def touch(self, state: str) -> None:
        with self._lock:
            self.state = state
            self.last_activity = time.monotonic()

    def record(self, **deltas: int) -> None:
        """Add *deltas* to the named integer counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
            self.last_activity = time.monotonic()

    def row(self) -> Tuple:
        with self._lock:
            now = time.monotonic()
            return (
                self.session_id,
                self.peer,
                self.state,
                self.statements,
                self.rows_sent,
                self.errors,
                self.retryable_errors,
                self.cursors_open,
                self.in_txn,
                round((now - self.connected_at) * 1e3, 3),
                round((now - self.last_activity) * 1e3, 3),
            )


class WireSessionRegistry:
    """Thread-safe registry of live wire sessions (``SYS_SESSIONS``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: Dict[int, WireSessionStats] = {}
        self._ids = 0
        #: lifetime totals survive session unregistration
        self.total_registered = 0

    def register(self, peer: str) -> WireSessionStats:
        with self._lock:
            self._ids += 1
            self.total_registered += 1
            stats = WireSessionStats(self._ids, peer)
            self._sessions[stats.session_id] = stats
            return stats

    def unregister(self, stats: WireSessionStats) -> None:
        with self._lock:
            self._sessions.pop(stats.session_id, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def rows_snapshot(self) -> List[Tuple]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [stats.row() for stats in sessions]
