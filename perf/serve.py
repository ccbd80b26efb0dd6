"""Server child of the ``wire.mix`` workload.

Builds the design database from ``--seed``, serves it over the wire
protocol on a free loopback port, prints ``PORT <n>`` and runs until
SIGTERM — or until stdin closes, so an orphaned server never outlives the
benchmark that started it.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.server.server import XNFServer  # noqa: E402
from repro.workloads.design import build_design_database  # noqa: E402



async def serve(seed: int, documents: int, fetch_size: int) -> None:
    db = build_design_database(documents, seed=seed, mvcc=True)
    server = XNFServer(db, "127.0.0.1", 0, fetch_size=fetch_size)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    loop.add_reader(sys.stdin.fileno(), lambda: sys.stdin.buffer.read(1) or stop.set())
    print(f"PORT {server.port}", flush=True)
    await stop.wait()
    await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--documents", type=int, required=True)
    parser.add_argument("--fetch-size", type=int, required=True,
                        help="rows per QUERY/FETCH frame, so a long scan pages")
    args = parser.parse_args()
    asyncio.run(serve(args.seed, args.documents, args.fetch_size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
