"""The lock-service wire protocol: framing + message codec.

Every message -- request or response, client-to-server or
router-to-worker -- is one **frame**::

    +----------------+----------------------------------------+
    | length (u32 BE)| payload (length bytes)                 |
    +----------------+----------------------------------------+

and every payload starts with the same fixed header::

    +---------------+---------------+------------------------+
    | msg type (u8) | flags (u8)    | request id (u64 BE)    |
    +---------------+---------------+------------------------+

followed by an operation-specific body.  The request id is chosen by
the sender and echoed verbatim in the response, which is what makes
**pipelining** work: a connection may have any number of requests in
flight, responses come back in completion order, and each side matches
them by id.  The router additionally exploits the fixed header layout
to splice its own ids into relayed frames without re-encoding bodies
(:func:`rewrite_request_id`).

Numbers are big-endian (network order) throughout.  Frames are bounded
by :data:`MAX_FRAME_BYTES`; a peer announcing a larger frame is
protocol-broken (or hostile) and the connection is torn down with a
clean :class:`FrameTooLargeError` rather than an attempt to buffer it.

The error vocabulary is closed: a failed operation travels as
``RESP_ERR`` carrying one of the :data:`ERROR_CODES` plus the message
text, and :func:`exception_for` rebuilds the *same* exception class on
the client side -- so ``except DeadlockError:`` in the load driver
works identically against a socket and against an in-process stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import (
    AdmissionRejectedError,
    AdmissionTimeoutError,
    DeadlockError,
    ReproError,
    RequestCancelledError,
    ServiceClosedError,
    ServiceError,
)
from repro.lockmgr.manager import LockListFullError, LockTimeoutError
from repro.lockmgr.modes import LockMode

#: Stable wire ordinals for lock modes (declaration order; the mode
#: byte on the wire is this ordinal, never the enum's string value).
MODE_TO_WIRE: Dict[LockMode, int] = {
    mode: i for i, mode in enumerate(LockMode)
}
WIRE_TO_MODE: Dict[int, LockMode] = {
    i: mode for mode, i in MODE_TO_WIRE.items()
}


def wire_mode(mode: "LockMode | int") -> int:
    """The u8 wire value for ``mode`` (idempotent on ints)."""
    if isinstance(mode, int):
        return mode
    return MODE_TO_WIRE[mode]


class ProtocolError(ServiceError):
    """The peer sent bytes that do not parse as the wire protocol."""


class FrameTooLargeError(ProtocolError):
    """A length prefix announced a frame beyond MAX_FRAME_BYTES."""


class ConnectionLostError(ServiceError):
    """The transport died with requests still in flight."""


#: Hard bound on one frame's payload.  Far above any legitimate message
#: (the largest is a batch-lock of a few thousand accesses) and far
#: below anything that could pressure memory.
MAX_FRAME_BYTES = 1 << 20

_LEN = struct.Struct("!I")
_HEADER = struct.Struct("!BBQ")
HEADER_BYTES = _HEADER.size

# -- message types ----------------------------------------------------------

OP_OPEN_SESSION = 0x01
OP_CLOSE_SESSION = 0x02
OP_LOCK_ROW = 0x03
OP_LOCK_TABLE = 0x04
OP_BATCH_LOCK = 0x05
OP_UNLOCK_READ = 0x06  # cursor-stability early release
OP_RELEASE_ALL = 0x07  # rollback: release everything, keep the session
OP_ADOPT_SESSION = 0x08  # router -> worker: register an external app id
OP_CANCEL = 0x09  # withdraw a pending wait (best-effort)
OP_STATS = 0x0A
OP_PING = 0x0B

RESP_OK = 0x80
RESP_ERR = 0x81

REQUEST_NAMES = {
    OP_OPEN_SESSION: "open_session",
    OP_CLOSE_SESSION: "close_session",
    OP_LOCK_ROW: "lock_row",
    OP_LOCK_TABLE: "lock_table",
    OP_BATCH_LOCK: "batch_lock",
    OP_UNLOCK_READ: "unlock_read",
    OP_RELEASE_ALL: "release_all",
    OP_ADOPT_SESSION: "adopt_session",
    OP_CANCEL: "cancel",
    OP_STATS: "stats",
    OP_PING: "ping",
}

#: flags bit 0: the request carries an explicit timeout (f64 seconds
#: follows the fixed body); unset means "use the server default".
FLAG_HAS_TIMEOUT = 0x01
#: flags bit 1: fire-and-forget -- the server executes the request but
#: sends no response frame (success or failure).  Only meaningful for
#: ops whose result the caller can discard (session close, rollback):
#: the stream socket still orders the op before everything the client
#: sends next, so "close then open" semantics are preserved without
#: paying a round trip.
FLAG_NO_REPLY = 0x02
#: flags bit 2: the frame carries a trailing 17-byte trace context
#: (trace id u64, span id u64, sampled u8) -- the distributed-tracing
#: extension (see :mod:`repro.obs.tracing`).  The tail sits at the very
#: end of the frame, *after* any timeout tail, and is stripped first
#: during decode.  Because the codec enforces exact body sizes, a peer
#: that predates this flag rejects traced frames cleanly instead of
#: misparsing them -- so the extension is **capability-gated**: a
#: client only attaches trace context when explicitly configured with a
#: tracer (both ends of an in-repo deployment speak the same version),
#: and untraced frames remain byte-identical to the pre-extension
#: format.
FLAG_TRACE = 0x04

#: The trace-context tail: trace id, span id, sampled.
_TRACE_CTX = struct.Struct("!QQB")
TRACE_CTX_BYTES = _TRACE_CTX.size

# -- the closed error-code vocabulary ---------------------------------------

ERROR_CODES: Dict[int, Type[ReproError]] = {
    1: ServiceError,
    2: ServiceClosedError,
    3: RequestCancelledError,
    4: DeadlockError,
    5: LockTimeoutError,
    6: LockListFullError,
    7: AdmissionRejectedError,
    8: AdmissionTimeoutError,
    9: ProtocolError,
}
_CODE_FOR: Dict[Type[ReproError], int] = {
    cls: code for code, cls in ERROR_CODES.items()
}


def code_for_exception(exc: BaseException) -> int:
    """The wire code for ``exc``: the *nearest* registered class.

    Walks the MRO so a subclass maps to its most specific registered
    base (FrameTooLargeError travels as ProtocolError, not as the
    ServiceError it also inherits from).
    """
    for cls in type(exc).__mro__:
        code = _CODE_FOR.get(cls)
        if code is not None:
            return code
    return 1  # generic ServiceError


def exception_for(code: int, message: str) -> ReproError:
    """Rebuild the client-side exception for a RESP_ERR frame."""
    cls = ERROR_CODES.get(code, ServiceError)
    if cls is AdmissionRejectedError:
        return AdmissionRejectedError(message, retry_after_s=0.05)
    return cls(message)


# -- framing ----------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its big-endian u32 length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever the socket produced -- single bytes, torn length
    prefixes, many frames at once -- and iterate complete payloads.
    The decoder never buffers beyond one frame plus unread input, and
    rejects oversized announcements *before* buffering the body.
    """

    __slots__ = ("_buffer", "_need")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._need: Optional[int] = None  # body length once prefix is read

    def feed(self, data: bytes) -> List[bytes]:
        """Append ``data``; return every frame payload now complete."""
        self._buffer.extend(data)
        out: List[bytes] = []
        while True:
            if self._need is None:
                if len(self._buffer) < _LEN.size:
                    return out
                (length,) = _LEN.unpack_from(self._buffer)
                if length > MAX_FRAME_BYTES:
                    raise FrameTooLargeError(
                        f"peer announced a {length}-byte frame "
                        f"(limit {MAX_FRAME_BYTES})"
                    )
                del self._buffer[: _LEN.size]
                self._need = length
            if len(self._buffer) < self._need:
                return out
            out.append(bytes(self._buffer[: self._need]))
            del self._buffer[: self._need]
            self._need = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


def split_frames(data: bytes, decoder: FrameDecoder) -> List[bytes]:
    """Frame payloads in ``data``, skipping the decoder when possible.

    When ``decoder`` holds no partial frame -- the overwhelmingly
    common case for request/response traffic -- complete frames are
    sliced straight out of ``data`` with no bytearray copies; only a
    trailing partial frame (or a pre-existing one) goes through the
    incremental decoder.  Semantically identical to
    ``decoder.feed(data)``, including the oversize rejection.
    """
    if decoder.pending_bytes:
        return decoder.feed(data)
    out: List[bytes] = []
    offset = 0
    total = len(data)
    while total - offset >= _LEN.size:
        (length,) = _LEN.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLargeError(
                f"peer announced a {length}-byte frame "
                f"(limit {MAX_FRAME_BYTES})"
            )
        end = offset + _LEN.size + length
        if end > total:
            break
        out.append(data[offset + _LEN.size : end])
        offset = end
    if offset < total:
        decoder.feed(data[offset:])
    return out


# -- requests ---------------------------------------------------------------


@dataclass
class Request:
    """One decoded request payload."""

    op: int
    request_id: int
    app_id: int = 0
    table_id: int = 0
    row_id: int = 0
    mode: int = 0
    timeout_s: Optional[float] = None
    has_timeout: bool = False
    no_reply: bool = False
    #: BATCH_LOCK only: (table_id, row_id, mode) triples, in order.
    accesses: List[Tuple[int, int, int]] = field(default_factory=list)
    message: str = ""
    #: FLAG_TRACE extension: propagated trace context (0 = untraced).
    trace_id: int = 0
    trace_span: int = 0
    trace_sampled: bool = False

    @property
    def lock_mode(self) -> LockMode:
        try:
            return WIRE_TO_MODE[self.mode]
        except KeyError:
            raise ProtocolError(f"unknown lock mode byte {self.mode}")


_BODY_SESSION = struct.Struct("!Q")  # app_id
_BODY_LOCK_ROW = struct.Struct("!QqqB")  # app, table, row, mode
_BODY_LOCK_TABLE = struct.Struct("!QqB")  # app, table, mode
_BODY_BATCH_HEAD = struct.Struct("!QI")  # app, access count
_BODY_ACCESS = struct.Struct("!qqB")  # table, row, mode
_BODY_UNLOCK = struct.Struct("!Qqq")  # app, table, row
_TIMEOUT = struct.Struct("!d")

#: Batches larger than this are rejected before execution; combined
#: with MAX_FRAME_BYTES it bounds per-request server work.
MAX_BATCH_ACCESSES = 4096


def _header(op: int, request_id: int, flags: int = 0) -> bytes:
    return _HEADER.pack(op, flags, request_id)


def _timeout_tail(timeout_s: Optional[float]) -> Tuple[int, bytes]:
    if timeout_s is None:
        return 0, b""
    return FLAG_HAS_TIMEOUT, _TIMEOUT.pack(timeout_s)


def _trace_tail(
    trace: Optional[Tuple[int, int, bool]]
) -> Tuple[int, bytes]:
    """Flag bit + packed tail for a ``(trace_id, span_id, sampled)``."""
    if trace is None:
        return 0, b""
    trace_id, span_id, sampled = trace
    return FLAG_TRACE, _TRACE_CTX.pack(trace_id, span_id, 1 if sampled else 0)


def encode_open_session(request_id: int) -> bytes:
    return _header(OP_OPEN_SESSION, request_id)


def encode_close_session(
    request_id: int, app_id: int, *, no_reply: bool = False
) -> bytes:
    flags = FLAG_NO_REPLY if no_reply else 0
    return _header(OP_CLOSE_SESSION, request_id, flags) + _BODY_SESSION.pack(
        app_id
    )


def encode_adopt_session(request_id: int, app_id: int) -> bytes:
    return _header(OP_ADOPT_SESSION, request_id) + _BODY_SESSION.pack(app_id)


def encode_release_all(
    request_id: int, app_id: int, *, no_reply: bool = False
) -> bytes:
    flags = FLAG_NO_REPLY if no_reply else 0
    return _header(OP_RELEASE_ALL, request_id, flags) + _BODY_SESSION.pack(
        app_id
    )


def encode_cancel(request_id: int, app_id: int) -> bytes:
    return _header(OP_CANCEL, request_id) + _BODY_SESSION.pack(app_id)


def encode_lock_row(
    request_id: int,
    app_id: int,
    table_id: int,
    row_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    flags, tail = _timeout_tail(timeout_s)
    trace_flag, trace_tail = _trace_tail(trace)
    return (
        _header(OP_LOCK_ROW, request_id, flags | trace_flag)
        + _BODY_LOCK_ROW.pack(app_id, table_id, row_id, mode)
        + tail
        + trace_tail
    )


def encode_lock_table(
    request_id: int,
    app_id: int,
    table_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
) -> bytes:
    flags, tail = _timeout_tail(timeout_s)
    return (
        _header(OP_LOCK_TABLE, request_id, flags)
        + _BODY_LOCK_TABLE.pack(app_id, table_id, mode)
        + tail
    )


def encode_batch_lock(
    request_id: int,
    app_id: int,
    accesses: List[Tuple[int, int, int]],
    timeout_s: Optional[float] = None,
) -> bytes:
    if len(accesses) > MAX_BATCH_ACCESSES:
        raise ProtocolError(
            f"batch of {len(accesses)} accesses exceeds {MAX_BATCH_ACCESSES}"
        )
    flags, tail = _timeout_tail(timeout_s)
    parts = [
        _header(OP_BATCH_LOCK, request_id, flags),
        _BODY_BATCH_HEAD.pack(app_id, len(accesses)),
    ]
    parts.extend(
        _BODY_ACCESS.pack(table, row, mode) for table, row, mode in accesses
    )
    parts.append(tail)
    return b"".join(parts)


def encode_unlock_read(
    request_id: int, app_id: int, table_id: int, row_id: int
) -> bytes:
    return _header(OP_UNLOCK_READ, request_id) + _BODY_UNLOCK.pack(
        app_id, table_id, row_id
    )


def encode_stats(request_id: int) -> bytes:
    return _header(OP_STATS, request_id)


def encode_ping(request_id: int) -> bytes:
    return _header(OP_PING, request_id)


def decode_request(payload: bytes) -> Request:
    """Parse one request payload (raises :class:`ProtocolError`)."""
    if len(payload) < HEADER_BYTES:
        raise ProtocolError(
            f"request payload of {len(payload)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    op, flags, request_id = _HEADER.unpack_from(payload)
    body = memoryview(payload)[HEADER_BYTES:]
    req = Request(op=op, request_id=request_id)
    if flags & FLAG_NO_REPLY:
        req.no_reply = True
    if flags & FLAG_TRACE:
        # The trace tail is always the last thing in the frame; strip
        # it before the per-op parsing (which strips the timeout tail).
        if len(body) < _TRACE_CTX.size:
            raise ProtocolError("trace flag set but no trace context present")
        req.trace_id, req.trace_span, sampled = _TRACE_CTX.unpack(
            body[-_TRACE_CTX.size :]
        )
        req.trace_sampled = bool(sampled)
        body = body[: -_TRACE_CTX.size]
    try:
        if op in (OP_OPEN_SESSION, OP_STATS, OP_PING):
            _expect(body, 0)
        elif op in (
            OP_CLOSE_SESSION,
            OP_RELEASE_ALL,
            OP_ADOPT_SESSION,
            OP_CANCEL,
        ):
            _expect(body, _BODY_SESSION.size)
            (req.app_id,) = _BODY_SESSION.unpack(body)
        elif op == OP_LOCK_ROW:
            body = _split_timeout(req, flags, body)
            _expect(body, _BODY_LOCK_ROW.size)
            req.app_id, req.table_id, req.row_id, req.mode = (
                _BODY_LOCK_ROW.unpack(body)
            )
        elif op == OP_LOCK_TABLE:
            body = _split_timeout(req, flags, body)
            _expect(body, _BODY_LOCK_TABLE.size)
            req.app_id, req.table_id, req.mode = _BODY_LOCK_TABLE.unpack(body)
        elif op == OP_BATCH_LOCK:
            body = _split_timeout(req, flags, body)
            if len(body) < _BODY_BATCH_HEAD.size:
                raise ProtocolError("batch header truncated")
            req.app_id, count = _BODY_BATCH_HEAD.unpack_from(body)
            if count > MAX_BATCH_ACCESSES:
                raise ProtocolError(
                    f"batch of {count} accesses exceeds {MAX_BATCH_ACCESSES}"
                )
            rest = body[_BODY_BATCH_HEAD.size :]
            _expect(rest, count * _BODY_ACCESS.size)
            req.accesses = [
                _BODY_ACCESS.unpack_from(rest, i * _BODY_ACCESS.size)
                for i in range(count)
            ]
        elif op == OP_UNLOCK_READ:
            _expect(body, _BODY_UNLOCK.size)
            req.app_id, req.table_id, req.row_id = _BODY_UNLOCK.unpack(body)
        else:
            raise ProtocolError(f"unknown request op 0x{op:02x}")
    except struct.error as exc:
        raise ProtocolError(f"malformed {REQUEST_NAMES.get(op, op)}: {exc}")
    return req


def _split_timeout(req: Request, flags: int, body: memoryview) -> memoryview:
    """Strip the trailing f64 timeout when FLAG_HAS_TIMEOUT is set."""
    if not flags & FLAG_HAS_TIMEOUT:
        return body
    if len(body) < _TIMEOUT.size:
        raise ProtocolError("timeout flag set but no timeout value present")
    (req.timeout_s,) = _TIMEOUT.unpack(body[-_TIMEOUT.size :])
    req.has_timeout = True
    return body[: -_TIMEOUT.size]


def _expect(body: memoryview, size: int) -> None:
    if len(body) != size:
        raise ProtocolError(
            f"body is {len(body)} bytes, expected exactly {size}"
        )


# -- responses --------------------------------------------------------------


@dataclass
class Response:
    """One decoded response payload."""

    request_id: int
    ok: bool
    #: RESP_OK: operation-dependent integer result (app id for
    #: open_session, freed count for release/close, 0/1 for
    #: unlock_read, granted count for batch_lock, 0 otherwise).
    value: int = 0
    #: RESP_OK with a data payload (stats): UTF-8 JSON text.
    data: bytes = b""
    #: RESP_ERR: wire error code + message.
    error_code: int = 0
    error_message: str = ""

    def raise_if_error(self) -> None:
        if not self.ok:
            raise exception_for(self.error_code, self.error_message)


_RESP_OK_BODY = struct.Struct("!q")
_RESP_ERR_HEAD = struct.Struct("!H")


def encode_ok(request_id: int, value: int = 0, data: bytes = b"") -> bytes:
    return _header(RESP_OK, request_id) + _RESP_OK_BODY.pack(value) + data


def encode_error(request_id: int, exc: BaseException) -> bytes:
    code = code_for_exception(exc)
    message = str(exc).encode("utf-8", "replace")[:4096]
    return (
        _header(RESP_ERR, request_id) + _RESP_ERR_HEAD.pack(code) + message
    )


def decode_response(payload: bytes) -> Response:
    if len(payload) < HEADER_BYTES:
        raise ProtocolError(
            f"response payload of {len(payload)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    op, _flags, request_id = _HEADER.unpack_from(payload)
    body = memoryview(payload)[HEADER_BYTES:]
    if op == RESP_OK:
        if len(body) < _RESP_OK_BODY.size:
            raise ProtocolError("OK response body truncated")
        (value,) = _RESP_OK_BODY.unpack_from(body)
        return Response(
            request_id=request_id,
            ok=True,
            value=value,
            data=bytes(body[_RESP_OK_BODY.size :]),
        )
    if op == RESP_ERR:
        if len(body) < _RESP_ERR_HEAD.size:
            raise ProtocolError("error response body truncated")
        (code,) = _RESP_ERR_HEAD.unpack_from(body)
        message = bytes(body[_RESP_ERR_HEAD.size :]).decode("utf-8", "replace")
        return Response(
            request_id=request_id,
            ok=False,
            error_code=code,
            error_message=message,
        )
    raise ProtocolError(f"unknown response op 0x{op:02x}")


# -- preassembled hot-path frames -------------------------------------------
#
# The request/response codecs above parse into dataclasses -- right for
# every control-plane op, too slow for the one op that dominates every
# wire byte: LOCK_ROW and its OK.  These helpers pack a complete frame
# (length prefix included) in a single struct call each.

_LOCK_ROW_FRAME = struct.Struct("!IBBQQqqB")  # len,op,flags,rid,app,tbl,row,md
_LOCK_ROW_FRAME_T = struct.Struct("!IBBQQqqBd")  # ... + timeout
# Traced variants append the 17-byte trace context (trace id, span id,
# sampled) after the body/timeout, mirroring encode_lock_row's layout.
_LOCK_ROW_FRAME_TR = struct.Struct("!IBBQQqqBQQB")
_LOCK_ROW_FRAME_T_TR = struct.Struct("!IBBQQqqBdQQB")
_OK_FRAME = struct.Struct("!IBBQq")  # len, RESP_OK, 0, rid, value
_LOCK_ROW_BODY = _LOCK_ROW_FRAME.size - _LEN.size
_LOCK_ROW_BODY_T = _LOCK_ROW_FRAME_T.size - _LEN.size
_LOCK_ROW_BODY_TR = _LOCK_ROW_FRAME_TR.size - _LEN.size
_LOCK_ROW_BODY_T_TR = _LOCK_ROW_FRAME_T_TR.size - _LEN.size
_OK_BODY = _OK_FRAME.size - _LEN.size


def pack_lock_row_frame(
    request_id: int,
    app_id: int,
    table_id: int,
    row_id: int,
    mode: int,
    timeout_s: Optional[float] = None,
    trace: Optional[Tuple[int, int, bool]] = None,
) -> bytes:
    """One-pack equivalent of ``encode_frame(encode_lock_row(...))``."""
    if trace is None:
        if timeout_s is None:
            return _LOCK_ROW_FRAME.pack(
                _LOCK_ROW_BODY, OP_LOCK_ROW, 0, request_id,
                app_id, table_id, row_id, mode,
            )
        return _LOCK_ROW_FRAME_T.pack(
            _LOCK_ROW_BODY_T, OP_LOCK_ROW, FLAG_HAS_TIMEOUT, request_id,
            app_id, table_id, row_id, mode, timeout_s,
        )
    trace_id, span_id, sampled = trace
    if timeout_s is None:
        return _LOCK_ROW_FRAME_TR.pack(
            _LOCK_ROW_BODY_TR, OP_LOCK_ROW, FLAG_TRACE, request_id,
            app_id, table_id, row_id, mode,
            trace_id, span_id, 1 if sampled else 0,
        )
    return _LOCK_ROW_FRAME_T_TR.pack(
        _LOCK_ROW_BODY_T_TR, OP_LOCK_ROW,
        FLAG_HAS_TIMEOUT | FLAG_TRACE, request_id,
        app_id, table_id, row_id, mode, timeout_s,
        trace_id, span_id, 1 if sampled else 0,
    )


def pack_ok_frame(request_id: int, value: int = 0) -> bytes:
    """One-pack equivalent of ``encode_frame(encode_ok(...))``."""
    return _OK_FRAME.pack(_OK_BODY, RESP_OK, 0, request_id, value)


# -- server hop report ------------------------------------------------------
#
# A traced LOCK_ROW's OK reply carries the server-side hop durations as
# the response ``data`` payload: dispatch-queue, lock-wait,
# executor-park, reply-encode -- the wire order of
# ``repro.obs.tracing.SERVER_HOPS``.  The client subtracts their sum
# from its observed wall wait to derive the disjoint ``client.net_wait``
# hop, so hop durations sum to the end-to-end latency.

_HOP_REPORT = struct.Struct("!4d")
HOP_REPORT_BYTES = _HOP_REPORT.size


def pack_hop_report(
    dispatch_s: float, lock_wait_s: float, park_s: float, reply_s: float
) -> bytes:
    """Pack the four server-side hop durations for an OK reply."""
    return _HOP_REPORT.pack(dispatch_s, lock_wait_s, park_s, reply_s)


def parse_hop_report(
    data: bytes,
) -> Optional[Tuple[float, float, float, float]]:
    """Inverse of :func:`pack_hop_report`; None on a size mismatch."""
    if len(data) != _HOP_REPORT.size:
        return None
    dispatch_s, lock_wait_s, park_s, reply_s = _HOP_REPORT.unpack(data)
    return dispatch_s, lock_wait_s, park_s, reply_s


_FAST_OK = struct.Struct("!Qq")  # request_id, value (flags byte skipped)


def try_parse_ok(payload: bytes) -> Optional[Tuple[int, int]]:
    """Fast parse of a data-free RESP_OK payload.

    Returns ``(request_id, value)``, or None for anything else (error
    responses, stats payloads) -- callers fall back to
    :func:`decode_response`.
    """
    if payload[0] != RESP_OK or len(payload) != _OK_BODY:
        return None
    request_id, value = _FAST_OK.unpack_from(payload, _FAST_OFF)
    return request_id, value


_FAST_LOCK_ROW = struct.Struct("!QQqqB")  # rid, app, table, row, mode
_FAST_LOCK_ROW_T = struct.Struct("!QQqqBd")  # ... + timeout
_FAST_OFF = 2  # past op + flags


def try_parse_lock_row(
    payload: bytes,
) -> Optional[Tuple[int, int, int, int, int, Optional[float]]]:
    """Fast parse of a LOCK_ROW payload, timeout variant included.

    Returns ``(request_id, app_id, table_id, row_id, mode, timeout_s)``
    (timeout None when absent) or None when the payload is anything
    else -- callers fall back to :func:`decode_request`.
    """
    if payload[0] != OP_LOCK_ROW:
        return None
    flags = payload[1]
    if flags == 0 and len(payload) == _FAST_OFF + _FAST_LOCK_ROW.size:
        rid, app, table, row, mode = _FAST_LOCK_ROW.unpack_from(
            payload, _FAST_OFF
        )
        return rid, app, table, row, mode, None
    if (
        flags == FLAG_HAS_TIMEOUT
        and len(payload) == _FAST_OFF + _FAST_LOCK_ROW_T.size
    ):
        rid, app, table, row, mode, timeout = _FAST_LOCK_ROW_T.unpack_from(
            payload, _FAST_OFF
        )
        return rid, app, table, row, mode, timeout
    return None


# -- router helpers ---------------------------------------------------------

_REQUEST_ID_OFFSET = 2  # after msg type (u8) + flags (u8)
_REQUEST_ID = struct.Struct("!Q")


def rewrite_request_id(payload: bytes, request_id: int) -> bytes:
    """A copy of ``payload`` carrying ``request_id`` in its header.

    The router relays request *bodies* verbatim between client and
    worker connections but must splice in its own id space (many client
    connections multiplex onto one worker link); the fixed header
    layout makes that an 8-byte overwrite instead of a decode/encode
    round trip.
    """
    if len(payload) < HEADER_BYTES:
        raise ProtocolError("payload shorter than the fixed header")
    out = bytearray(payload)
    _REQUEST_ID.pack_into(out, _REQUEST_ID_OFFSET, request_id)
    return bytes(out)


def peek_request_id(payload: bytes) -> int:
    if len(payload) < HEADER_BYTES:
        raise ProtocolError("payload shorter than the fixed header")
    (request_id,) = _REQUEST_ID.unpack_from(payload, _REQUEST_ID_OFFSET)
    return request_id


def iter_frames(data: bytes) -> Iterator[bytes]:
    """Split a byte string of back-to-back frames (tests, tools)."""
    decoder = FrameDecoder()
    for payload in decoder.feed(data):
        yield payload
    if decoder.pending_bytes:
        raise ProtocolError(
            f"{decoder.pending_bytes} trailing bytes do not form a frame"
        )


__all__ = [
    "ConnectionLostError",
    "FrameDecoder",
    "FrameTooLargeError",
    "HOP_REPORT_BYTES",
    "MAX_BATCH_ACCESSES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "code_for_exception",
    "decode_request",
    "decode_response",
    "encode_adopt_session",
    "encode_batch_lock",
    "encode_cancel",
    "encode_close_session",
    "encode_error",
    "encode_frame",
    "encode_lock_row",
    "encode_lock_table",
    "encode_ok",
    "encode_open_session",
    "encode_ping",
    "encode_release_all",
    "encode_stats",
    "encode_unlock_read",
    "iter_frames",
    "pack_hop_report",
    "pack_lock_row_frame",
    "pack_ok_frame",
    "parse_hop_report",
    "peek_request_id",
    "rewrite_request_id",
    "try_parse_lock_row",
    "try_parse_ok",
    "wire_mode",
    "TRACE_CTX_BYTES",
]
