"""Table-granularity lock manager with a no-wait conflict policy.

Instead of blocking, a conflicting request raises :class:`DeadlockError`
immediately ("no-wait" deadlock avoidance — the policy Tandem NonStop SQL
shipped with).  Sessions catch it and abort, exactly like a victim of
deadlock detection would; the error is marked ``retryable`` so
``Database.run_retryable()`` re-runs the victim after a backoff.

Under MVCC mode only writers take (X) locks — reads are served from
snapshots and never touch the lock table — so no-wait blocking cannot
starve readers.  Without MVCC every statement locks, autocommit ones
included: an autocommit query holds its S locks for the statement only
(:class:`StatementLocks`).  The manager is thread-safe: a single mutex
guards the lock table, and a per-transaction reverse index makes
``release_all`` / ``release_shared`` O(locks held by that transaction)
instead of a scan over every locked table.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import DeadlockError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class LockManager:
    """Tracks table locks per transaction id."""

    def __init__(self):
        self._mutex = threading.Lock()
        # table -> {txn_id: mode}
        self._locks: Dict[str, Dict[int, LockMode]] = {}
        # txn_id -> tables it holds locks on (reverse index)
        self._by_txn: Dict[int, Set[str]] = {}
        #: granted lock requests (upgrades and re-grants included)
        self.acquisitions = 0
        #: no-wait conflicts surfaced as DeadlockError (= waits + timeouts
        #: collapsed into one event under the no-wait policy)
        self.conflicts = 0
        #: owner ids of :class:`StatementLocks`; negated, so they never
        #: collide with (positive) transaction ids
        self.statement_owners = itertools.count(1)

    def acquire(self, txn_id: int, table: str, mode: LockMode) -> None:
        with self._mutex:
            holders = self._locks.setdefault(table, {})
            current = holders.get(txn_id)
            if current is LockMode.EXCLUSIVE or current is mode:
                return
            # Here txn_id holds nothing on the table, or S when asking for X.
            if mode is LockMode.SHARED:
                if LockMode.EXCLUSIVE in holders.values():
                    self.conflicts += 1
                    raise DeadlockError(
                        f"txn {txn_id}: table {table} is X-locked by another transaction"
                    )
            elif len(holders) > (current is not None):  # anyone else at all
                self.conflicts += 1
                raise DeadlockError(
                    f"txn {txn_id}: table {table} is locked by another transaction"
                )
            holders[txn_id] = mode
            self._by_txn.setdefault(txn_id, set()).add(table)
            self.acquisitions += 1

    def release(self, txn_id: int, table: str) -> None:
        with self._mutex:
            self._release_locked(txn_id, table)

    def _release_locked(self, txn_id: int, table: str) -> None:
        holders = self._locks.get(table)
        if holders:
            holders.pop(txn_id, None)
            if not holders:
                del self._locks[table]
        tables = self._by_txn.get(txn_id)
        if tables is not None:
            tables.discard(table)
            if not tables:
                del self._by_txn[txn_id]

    def release_all(self, txn_id: int) -> None:
        with self._mutex:
            for table in list(self._by_txn.get(txn_id, ())):
                self._release_locked(txn_id, table)

    def release_shared(self, txn_id: int) -> None:
        """Release only S locks (cursor-stability end-of-statement).

        O(locks held by *txn_id*) via the reverse index — not a scan over
        every locked table in the system.
        """
        with self._mutex:
            for table in list(self._by_txn.get(txn_id, ())):
                holders = self._locks.get(table)
                if holders and holders.get(txn_id) is LockMode.SHARED:
                    self._release_locked(txn_id, table)

    def metrics(self) -> Dict[str, int]:
        """Counter snapshot for ``Database.metrics_snapshot()``."""
        with self._mutex:
            s_held = x_held = 0
            for holders in self._locks.values():
                for mode in holders.values():
                    if mode is LockMode.SHARED:
                        s_held += 1
                    else:
                        x_held += 1
            return {
                "acquisitions": self.acquisitions,
                "conflicts": self.conflicts,
                "held": s_held + x_held,
                "s_held": s_held,
                "x_held": x_held,
                "tables_locked": len(self._locks),
            }

    def holders_snapshot(self) -> List[Tuple[str, int, str]]:
        """Point-in-time ``(table, txn_id, mode)`` rows for SYS_LOCK_HOLDERS."""
        with self._mutex:
            return [
                (table, txn_id, mode.value)
                for table, holders in sorted(self._locks.items())
                for txn_id, mode in sorted(holders.items())
            ]

    def held(self, txn_id: int) -> Set[Tuple[str, LockMode]]:
        with self._mutex:
            return {
                (table, self._locks[table][txn_id])
                for table in self._by_txn.get(txn_id, ())
                if txn_id in self._locks.get(table, {})
            }


class StatementLocks:
    """Context manager: the no-wait S locks an autocommit query holds on
    *tables* under 2PL, for the statement only (released error or not).

    A class rather than a generator-based context manager because every
    autocommit query enters one.
    """

    __slots__ = ("locks", "tables", "owner")

    def __init__(self, locks: LockManager, tables: Sequence[str]):
        self.locks = locks
        self.tables = tables
        self.owner = -next(locks.statement_owners)

    def __enter__(self) -> None:
        try:
            for table in self.tables:
                self.locks.acquire(self.owner, table, LockMode.SHARED)
        except BaseException:
            self.locks.release_all(self.owner)
            raise

    def __exit__(self, *exc_info) -> None:
        self.locks.release_all(self.owner)
