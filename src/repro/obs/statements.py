"""Per-statement cumulative statistics, keyed by normalized fingerprint.

The engine records one entry per executed statement into a bounded,
thread-safe registry; ``SYS_STAT_STATEMENTS`` is a live view over it.
The same record feeds the database-wide statement latency histogram, so
a statement takes one lock for both.
Statements that differ only in WHERE/JOIN literals share a fingerprint
(the plan-cache normalizer produces it), so the registry aggregates the
way pg_stat_statements does: per *statement shape*, not per SQL text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram


class StatementStat:
    """Cumulative counters for one statement fingerprint."""

    __slots__ = (
        "fingerprint", "calls", "errors", "total_s", "rows",
        "plan_cache_hits", "latency", "last_session_id", "last_trace_id",
    )

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.rows = 0
        self.plan_cache_hits = 0
        self.latency = Histogram()
        #: wire-session attribution: the last session/trace that ran this
        #: fingerprint (None for purely in-process statements), so
        #: SYS_SESSIONS joins to per-statement stats.
        self.last_session_id: Optional[int] = None
        self.last_trace_id: Optional[int] = None

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class StatementStatsRegistry:
    """Bounded LRU map fingerprint → :class:`StatementStat`, plus the
    database-wide :attr:`latency` histogram of every statement.

    Thread-safe (one lock per record), bounded at *capacity* fingerprints
    with least-recently-updated eviction; ``evicted`` counts casualties so
    a snapshot can say how much history was shed.
    """

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._stats: "OrderedDict[str, StatementStat]" = OrderedDict()
        self._lock = threading.Lock()
        self.evicted = 0
        self.latency = Histogram()

    def record(
        self,
        fingerprint: str,
        elapsed_s: float,
        rows: int = 0,
        cache_hit: bool = False,
        error: bool = False,
        session_id: Optional[int] = None,
        trace_id: Optional[int] = None,
    ) -> None:
        """Record one statement."""
        with self._lock:
            self.latency.observe(elapsed_s)
            stats = self._stats
            stat = stats.get(fingerprint)
            if stat is None:
                if len(stats) >= self.capacity:
                    stats.popitem(last=False)
                    self.evicted += 1
                stat = stats[fingerprint] = StatementStat(fingerprint)
            elif len(stats) >= self.capacity:
                # Refresh recency only once the registry is full: below
                # capacity nothing can be evicted, so the move_to_end per
                # record would be pure hot-path overhead.
                stats.move_to_end(fingerprint)
            stat.calls += 1
            stat.total_s += elapsed_s
            stat.rows += rows
            if cache_hit:
                stat.plan_cache_hits += 1
            if error:
                stat.errors += 1
            if session_id is not None:
                stat.last_session_id = session_id
            if trace_id is not None:
                stat.last_trace_id = trace_id
            stat.latency.observe(elapsed_s)

    def latency_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return self.latency.snapshot()

    def get(self, fingerprint: str) -> Optional[StatementStat]:
        with self._lock:
            return self._stats.get(fingerprint)

    def entries(self) -> List[StatementStat]:
        with self._lock:
            return list(self._stats.values())

    def rows_snapshot(self) -> List[Tuple]:
        """``SYS_STAT_STATEMENTS`` rows: one per tracked fingerprint."""
        out: List[Tuple] = []
        for stat in self.entries():
            quantiles: Dict[str, Optional[float]] = {
                q: stat.latency.quantile(p)
                for q, p in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
            }
            out.append((
                stat.fingerprint,
                stat.calls,
                stat.errors,
                stat.rows,
                stat.plan_cache_hits,
                round(stat.total_s * 1e3, 4),
                round(stat.mean_s * 1e3, 4),
                _ms(quantiles["p50"]),
                _ms(quantiles["p95"]),
                _ms(quantiles["p99"]),
                _ms(stat.latency.maximum),
                stat.last_session_id,
                stat.last_trace_id,
            ))
        return out

    def clear(self) -> None:
        with self._lock:
            self._stats.clear()
            self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 4)
