"""The XNF wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON encoding one object.  Requests carry an ``"op"`` field
(AUTH, QUERY, PREPARE, EXECUTE, FETCH, XNF, XNF_EXPLAIN, SET, PING,
PROFILE, CLOSE); responses carry ``"ok": true`` plus op-specific fields, or
``"ok": false`` plus an ``"error"`` object; an unknown op is an error.
Since v2 the ``XNF`` response to a TAKE is the CO itself: its schema header
under ``"co"`` and its heterogeneous stream as result rows, paged through
``FETCH`` (:func:`repro.xnf.stream.encode_stream`).

Distributed tracing (additive in protocol v1): a request may carry a
``"trace"`` object — ``{"id": <trace_id>, "span": <parent span id>,
"sampled": <bool>}``, the wire form of
:class:`repro.obs.trace.TraceContext` — which the server adopts so its
spans for that statement share the client's trace id.  Servers ignore a
malformed trace field (it decodes to a fresh trace, never an error), and
clients that never send one observe the exact v1 behaviour.  ``PROFILE``
returns the structured time breakdown of the connection's last
database-running frame (see :mod:`repro.obs.profile`).

The error object serializes the typed taxonomy of :mod:`repro.errors`
losslessly enough for client-side retry loops to behave exactly like
in-process :meth:`Database.run_retryable`:

========== =========================================================
``type``    exception class name (``SerializationError``, …)
``message`` the server-side message
``retryable`` the taxonomy's retry contract, instance-level overrides
            included (transient vs. persistent :class:`IOFaultError`)
``backoff_s`` the class's suggested initial backoff (None if n/a)
``transient`` / ``line`` / ``column``  optional detail fields
========== =========================================================

:func:`rehydrate_error` reverses :func:`error_payload`: the client raises
an instance of the *same* exception class (``isinstance`` checks and the
``retryable`` / ``backoff_hint_s`` attributes survive the round trip), or
:class:`RemoteServerError` for a type the client build does not know.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Type

from repro.errors import ReproError, SQLError

#: bump when the frame vocabulary changes incompatibly
PROTOCOL_VERSION = 2

#: refuse frames larger than this (a wild length prefix is junk, not a
#: request; reading it would balloon memory before failing anyway)
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(SQLError):
    """Malformed frame: bad length prefix, truncated body, invalid JSON,
    or a body that is not a JSON object.  The stream is unsynchronized
    after one of these, so the connection must close."""


class RemoteServerError(SQLError):
    """An error type reported by the server that this client cannot map
    onto a local exception class (``retryable``/``backoff_hint_s`` still
    carry the server's values)."""


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one frame (length prefix + JSON body)."""
    body = json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_length(header: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    if len(header) != 4:
        raise ProtocolError(f"truncated length prefix ({len(header)} bytes)")
    (length,) = _LENGTH.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body into its JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- error taxonomy over the wire ---------------------------------------------

def _error_types() -> Dict[str, Type[ReproError]]:
    """Every concrete exception class of the taxonomy, by name."""
    out: Dict[str, Type[ReproError]] = {}

    def walk(cls: Type[ReproError]) -> None:
        out[cls.__name__] = cls
        for sub in cls.__subclasses__():
            walk(sub)

    walk(ReproError)
    return out


ERROR_TYPES = _error_types()


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """Serialize *exc* into the wire error object."""
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
        "backoff_s": getattr(exc, "backoff_hint_s", None),
    }
    for attr in ("transient", "line", "column"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    return payload


def rehydrate_error(payload: Dict[str, Any]) -> ReproError:
    """Rebuild the server's exception from its wire error object.

    The instance is created without running the class's ``__init__`` (the
    taxonomy's constructors take heterogeneous arguments), then the retry
    metadata is restored explicitly — so ``retryable`` and
    ``backoff_hint_s`` survive byte-for-byte, including instance-level
    overrides like a persistent :class:`~repro.errors.IOFaultError`.
    """
    cls = ERROR_TYPES.get(payload.get("type", ""))
    message = payload.get("message", "unknown server error")
    if cls is None or not issubclass(cls, ReproError):
        err: ReproError = RemoteServerError(message)
    else:
        err = cls.__new__(cls)
        Exception.__init__(err, message)
    err.retryable = bool(payload.get("retryable", False))
    err.backoff_hint_s = payload.get("backoff_s")
    for attr in ("transient", "line", "column"):
        if attr in payload:
            setattr(err, attr, payload[attr])
    #: marks errors that crossed the wire (diagnostics, tests)
    err.remote = True  # type: ignore[attr-defined]
    return err


def hello_payload(session_id: int) -> Dict[str, Any]:
    return {
        "ok": True,
        "server": "repro-xnf",
        "protocol": PROTOCOL_VERSION,
        "session": session_id,
    }


def ok(**fields: Any) -> Dict[str, Any]:
    fields["ok"] = True
    return fields


def err_frame(exc: BaseException) -> Dict[str, Any]:
    return {"ok": False, "error": error_payload(exc)}


# -- blocking frame IO (client side, fuzz tests) ------------------------------

def read_exact(sock, n: int) -> bytes:
    """Read exactly *n* bytes from a blocking socket (raises on EOF)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> Dict[str, Any]:
    """Read one frame from a blocking socket."""
    length = decode_length(read_exact(sock, 4))
    return decode_body(read_exact(sock, length))


def write_frame(sock, payload: Dict[str, Any]) -> int:
    """Write one frame to a blocking socket; returns bytes sent."""
    data = encode_frame(payload)
    sock.sendall(data)
    return len(data)


__all__ = [
    "ERROR_TYPES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteServerError",
    "decode_body",
    "decode_length",
    "encode_frame",
    "err_frame",
    "error_payload",
    "hello_payload",
    "ok",
    "read_exact",
    "read_frame",
    "rehydrate_error",
    "write_frame",
]
