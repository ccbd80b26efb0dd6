"""SYS_MONITOR: the built-in self-monitoring Composite Object.

The engine watches itself with its own abstraction: SYS_MONITOR is an
ordinary XNF view ``OUT OF`` the SYS_* virtual tables (statement stats
joined to their trace spans, spans related to their child spans), so the
same path expressions applications use on business COs answer questions
like *"which operator dominated my slowest query?"*::

    co = session.query("OUT OF SYS_MONITOR TAKE *")
    worst = max(co.node("STATEMENTS"), key=lambda t: t["mean_ms"])
    for span in co.path(worst, "CALLS->SUBSPANS[callee]"):
        print(span["name"], span["duration_ms"])

Both components are query-defined (SELECTs over SYS tables), so the
instantiation pipeline runs each one ONCE and binds the rows to every
generated query that needs them — the monitor observes a stable snapshot
instead of chasing its own footprints.
"""

from __future__ import annotations

from repro.xnf.lang.parser import parse_xnf_statements
from repro.xnf.views import resolve

#: Name under which the monitor view is registered.
MONITOR_VIEW_NAME = "SYS_MONITOR"

#: XNF source of the built-in monitor.  STATEMENTS is the sole root;
#: CALLS fans out to each statement's spans by fingerprint and SUBSPANS
#: (a cyclic self-edge, so path steps must name a role, e.g.
#: ``SUBSPANS[callee]``) walks down the span tree.
MONITOR_VIEW_SQL = """
CREATE VIEW SYS_MONITOR AS
  OUT OF
    STATEMENTS AS (SELECT * FROM SYS_STAT_STATEMENTS),
    SPANS AS (SELECT * FROM SYS_TRACE_SPANS),
    CALLS AS (RELATE STATEMENTS, SPANS
              WHERE STATEMENTS.fingerprint = SPANS.fingerprint),
    SUBSPANS AS (RELATE SPANS caller, SPANS callee
                 WHERE callee.parent_span_id = caller.span_id)
  TAKE *
"""


def install_monitor(session) -> bool:
    """Register the SYS_MONITOR view on *session* (idempotent).

    Returns True when the view is (now) present.  Silently skips when the
    underlying database lacks the SYS virtual tables (e.g. a stripped-down
    catalog in tests) so sessions never fail to construct over them.
    """
    if session.views.get(MONITOR_VIEW_NAME) is not None:
        return True
    catalog = session.db.catalog
    is_virtual = getattr(catalog, "is_virtual", None)
    if is_virtual is None or not is_virtual("SYS_STAT_STATEMENTS"):
        return False
    statement = parse_xnf_statements(MONITOR_VIEW_SQL)[0]
    # Same eager validation as XNFSession.execute()'s CREATE VIEW path.
    resolve(statement.query, session.views, MONITOR_VIEW_NAME)
    session.views.create(MONITOR_VIEW_NAME, statement.query)
    return True
