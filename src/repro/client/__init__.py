"""Wire-protocol client: blocking API plus an interactive REPL.

:class:`WireClient` mirrors the in-process surface — ``execute`` /
``prepare`` / ``take`` / ``run_retryable`` — over a socket, raising the
same typed exceptions (see :mod:`repro.server.protocol`).  ``python -m
repro.client`` starts the REPL.
"""

from repro.client.client import (
    RemoteCO,
    RemotePrepared,
    WireClient,
    WireResult,
    connect,
)

__all__ = [
    "RemoteCO",
    "RemotePrepared",
    "WireClient",
    "WireResult",
    "connect",
]
