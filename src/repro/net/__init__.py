"""Network front end for the live lock service.

The live stacks (:mod:`repro.service.stack`,
:mod:`repro.service.sharded`) run the paper's tuning algorithm against
in-process callers; this package puts a Unix-domain socket in front of
each worker of the multi-process pool (:mod:`repro.service.workers`),
the one deployment driven over the wire.

* :mod:`repro.net.protocol` -- the length-prefixed binary wire format:
  framing, request/response encoding, and the closed error-code
  vocabulary that maps service exceptions across the wire.
* :mod:`repro.net.server` -- a thread-per-connection socket server
  speaking the protocol in front of a
  :class:`~repro.service.service.LockService`, with request pipelining
  (many requests in flight per connection, responses matched by
  request id).
* :mod:`repro.net.client` -- the client library: a pooled, pipelined
  sync facade routed over the pool's per-worker endpoints (drop-in for
  the surface :class:`LoadDriver` drives).
"""

from repro.net.protocol import (
    FrameDecoder,
    FrameTooLargeError,
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
)

__all__ = [
    "FrameDecoder",
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
]
