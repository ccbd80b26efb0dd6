"""Interactive REPL over the wire protocol (``python -m repro.client``).

Reads statements from stdin (scriptable: pipe a file in), sends them to a
:class:`~repro.server.XNFServer` and pretty-prints results.  SQL and
``EXPLAIN`` / ``EXPLAIN ANALYZE`` pass straight through the server's SQL
entry point; statements starting with ``OUT OF`` run as XNF TAKE queries
(the extracted CO arrives whole, is summarized and kept in this process as
CO ``N``); ``XNF EXPLAIN ANALYZE <take-query>`` renders the server-side
span tree.

Dot commands (``\\co``, ``\\path`` and ``\\close`` run on the local CO
cache and send no frame)::

    \\co N node      open a cursor on node of CO N and print its tuples
    \\path N node path [col=value]   evaluate a path expression on CO N
    \\close N        drop CO N from the client
    \\timeout S      set this session's statement timeout (- to clear)
    \\retry <sql>    run one statement under the client retry loop
    \\profile        time breakdown of this session's last statement
    \\q              quit
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.client.client import RemoteCO, WireClient
from repro.obs.profile import render_profile


def _render_rows(columns: List[str], rows: List[tuple], limit: int = 50) -> str:
    header = list(columns)
    body = [
        ["NULL" if v is None else str(v) for v in row] for row in rows[:limit]
    ]
    widths = [len(h) for h in header]
    for row in body:
        for idx, cell in enumerate(row):
            if idx < len(widths):
                widths[idx] = max(widths[idx], len(cell))
            else:
                widths.append(len(cell))

    def fmt(cells: List[str]) -> str:
        return " | ".join(
            cell.ljust(widths[idx]) for idx, cell in enumerate(cells)
        )

    lines = []
    if header:
        lines.append(fmt(header))
        lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in body)
    if len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more rows)")
    return "\n".join(lines)


class Repl:
    def __init__(self, client: WireClient, out=None):
        self.client = client
        self.out = out if out is not None else sys.stdout
        self.cos: Dict[int, RemoteCO] = {}
        self._next_co = 1

    def emit(self, text: str) -> None:
        print(text, file=self.out, flush=True)

    # -- statement dispatch ---------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False to quit."""
        stmt = line.strip().rstrip(";")
        if not stmt:
            return True
        try:
            if stmt.startswith("\\"):
                return self._dot_command(stmt)
            upper = stmt.upper()
            if upper.startswith("XNF EXPLAIN ANALYZE"):
                self.emit(self.client.explain_analyze(stmt[len("XNF EXPLAIN ANALYZE"):]))
            elif upper.startswith("OUT OF"):
                self._take(stmt)
            else:
                # plain SQL — including the engine's own EXPLAIN [ANALYZE]
                result = self.client.execute(stmt)
                if result.columns:
                    self.emit(_render_rows(result.columns, result.rows()))
                    self.emit(f"({len(result)} rows)")
                else:
                    self.emit(f"ok ({result.rowcount} rows affected)")
        except ReproError as err:
            retry = " [retryable]" if getattr(err, "retryable", False) else ""
            self.emit(f"error: {type(err).__name__}: {err}{retry}")
        return True

    def _take(self, stmt: str) -> None:
        co = self.client.take(stmt)
        handle = self._next_co
        self._next_co += 1
        self.cos[handle] = co
        nodes = ", ".join(f"{n}:{c}" for n, c in sorted(co.nodes.items()))
        edges = ", ".join(f"{e}:{c}" for e, c in sorted(co.edges.items()))
        self.emit(
            f"CO {handle} loaded into the client — nodes [{nodes}] edges [{edges}]"
        )

    # -- dot commands ---------------------------------------------------------

    def _co(self, token: str) -> RemoteCO:
        co = self.cos.get(int(token))
        if co is None:
            raise ReproError(f"no CO {token} (TAKE output names it)")
        return co

    def _dot_command(self, stmt: str) -> bool:
        parts = stmt.split()
        cmd = parts[0]
        if cmd in ("\\q", "\\quit"):
            return False
        if cmd == "\\co" and len(parts) >= 3:
            co = self._co(parts[1])
            rows = list(co.cursor(parts[2]))
            if rows:
                columns = list(rows[0].keys())
                self.emit(_render_rows(
                    columns, [tuple(r.get(c) for c in columns) for r in rows]
                ))
            self.emit(f"({len(rows)} tuples)")
        elif cmd == "\\path" and len(parts) >= 4:
            co = self._co(parts[1])
            criteria: Dict[str, Any] = {}
            for extra in parts[4:]:
                key, _, value = extra.partition("=")
                criteria[key] = value
            rows = co.path(parts[2], parts[3], **criteria)
            for row in rows:
                self.emit(f"{row['node']}: {row['values']}")
            self.emit(f"({len(rows)} tuples)")
        elif cmd == "\\close" and len(parts) == 2:
            self._co(parts[1]).close()
            del self.cos[int(parts[1])]
            self.emit("closed")
        elif cmd == "\\timeout" and len(parts) == 2:
            value: Optional[float] = (
                None if parts[1] == "-" else float(parts[1])
            )
            self.client.set_statement_timeout(value)
            self.emit(f"statement_timeout_s = {value}")
        elif cmd == "\\retry" and len(parts) >= 2:
            sql = stmt[len("\\retry"):].strip()
            result = self.client.run_retryable(lambda: self.client.execute(sql))
            self.emit(f"ok ({result.rowcount} rows affected)")
        elif cmd == "\\profile" and len(parts) == 1:
            profile = self.client.profile()
            if profile is None:
                self.emit("no profile yet (run a statement first)")
            else:
                self.emit(render_profile(profile))
        else:
            self.emit(f"unknown command {stmt!r} (\\q quits)")
        return True

    def run(self, stream) -> None:
        interactive = stream is sys.stdin and stream.isatty()
        if interactive:
            info = self.client.server_info
            self.emit(
                f"connected to {info.get('server')} protocol "
                f"{info.get('protocol')} (session {self.client.session_id}) "
                "— \\q quits"
            )
        while True:
            if interactive:
                print("xnf> ", end="", file=self.out, flush=True)
            line = stream.readline()
            if not line:
                break
            if not self.handle(line):
                break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.client",
        description="Interactive REPL for a repro XNF wire server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--auth-token", default=None)
    args = parser.parse_args(argv)
    try:
        client = WireClient(args.host, args.port, auth_token=args.auth_token)
    except (ReproError, OSError) as err:
        print(f"cannot connect to {args.host}:{args.port}: {err}",
              file=sys.stderr)
        return 1
    with client:
        Repl(client).run(sys.stdin)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
