"""``python -m repro.server`` — boot a wire server over a demo database.

The demo instance carries the Fig. 1 company tables (E1), a reports-to
STAFF chain (E6) and the OO1 parts graph, so a REPL or a load client
can exercise every workload the repo measures.  ``--empty`` starts from a
blank database instead (DDL over the wire).
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.relational.engine import Database
from repro.server.bootstrap import demo_database
from repro.server.server import XNFServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over the XNF wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument("--auth-token", default=None,
                        help="require AUTH with this token before queries")
    parser.add_argument("--statement-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-session statement timeout")
    parser.add_argument("--empty", action="store_true",
                        help="start with a blank database (no demo tables)")
    parser.add_argument("--max-concurrent-txns", type=int, default=None,
                        help="database admission-control ceiling")
    return parser


async def serve(args: argparse.Namespace) -> None:
    db_kwargs = {"max_concurrent_txns": args.max_concurrent_txns}
    db = Database(**db_kwargs) if args.empty else demo_database(**db_kwargs)
    server = XNFServer(
        db,
        args.host,
        args.port,
        max_connections=args.max_connections,
        auth_token=args.auth_token,
        statement_timeout_s=args.statement_timeout,
    )
    await server.start()
    print(f"repro-xnf server listening on {server.address} "
          f"(max {args.max_connections} connections)", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            pass
    await stop.wait()
    print("draining connections ...", flush=True)
    await server.stop()
    print("server stopped", flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
