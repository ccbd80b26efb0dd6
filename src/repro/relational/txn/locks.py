"""Table-granularity exclusive (write) locks with a no-wait conflict policy.

Only writers lock: reads are served from MVCC snapshots and never touch
the lock table, so no-wait blocking cannot starve readers.  A writer's X
lock orders its physical mutations against every other writer's for the
rest of its transaction (implicit per-statement transactions included).

Instead of blocking, a conflicting request raises :class:`DeadlockError`
immediately ("no-wait" deadlock avoidance — the policy Tandem NonStop SQL
shipped with).  Sessions catch it and abort, exactly like a victim of
deadlock detection would; the error is marked ``retryable`` so
``Database.run_retryable()`` re-runs the victim after a backoff.  The
manager is thread-safe: a single mutex guards the lock table, and a
per-transaction reverse index makes ``release_all`` O(locks held by that
transaction) instead of a scan over every locked table.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set, Tuple

from repro.errors import DeadlockError


class LockManager:
    """Tracks which transaction X-locks each table."""

    def __init__(self):
        self._mutex = threading.Lock()
        # table -> txn_id holding its X lock
        self._locks: Dict[str, int] = {}
        # txn_id -> tables it holds locks on (reverse index)
        self._by_txn: Dict[int, Set[str]] = {}
        #: granted lock requests (re-grants to the holder excluded)
        self.acquisitions = 0
        #: no-wait conflicts surfaced as DeadlockError (= waits + timeouts
        #: collapsed into one event under the no-wait policy)
        self.conflicts = 0

    def acquire(self, txn_id: int, table: str) -> None:
        with self._mutex:
            holder = self._locks.get(table)
            if holder == txn_id:
                return
            if holder is not None:
                self.conflicts += 1
                raise DeadlockError(
                    f"txn {txn_id}: table {table} is locked by another transaction"
                )
            self._locks[table] = txn_id
            self._by_txn.setdefault(txn_id, set()).add(table)
            self.acquisitions += 1

    def release_all(self, txn_id: int) -> None:
        with self._mutex:
            for table in self._by_txn.pop(txn_id, ()):
                self._locks.pop(table, None)

    def metrics(self) -> Dict[str, int]:
        """Counter snapshot for ``Database.metrics_snapshot()``."""
        with self._mutex:
            return {
                "acquisitions": self.acquisitions,
                "conflicts": self.conflicts,
                "held": len(self._locks),
                "tables_locked": len(self._locks),
            }

    def holders_snapshot(self) -> List[Tuple[str, int]]:
        """Point-in-time ``(table, txn_id)`` rows for SYS_LOCK_HOLDERS."""
        with self._mutex:
            return sorted(self._locks.items())

    def held(self, txn_id: int) -> Set[str]:
        with self._mutex:
            return set(self._by_txn.get(txn_id, ()))
