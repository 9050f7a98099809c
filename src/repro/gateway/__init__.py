"""Networked streaming detection: the ``repro.wire/1`` gateway.

The serving and ingestion layers are in-process APIs; this subpackage
puts them behind a socket so detection can run as a long-lived service:

* :mod:`repro.gateway.protocol` — the versioned length-prefixed binary
  frame format (JSON control header + raw numpy payload, CRC-checked).
* :mod:`repro.gateway.server` — the asyncio TCP server fronting one
  :class:`~repro.serve.DetectionService`: ingest / admin / watch
  sessions, credit-based flow control mapped onto the serving layer's
  backpressure policies, heartbeats, graceful drain, and replay-free
  reconnect/resume.
* :mod:`repro.gateway.client` — blocking clients for the three session
  kinds, used by the ``repro gateway`` / ``repro push`` /
  ``repro watch`` CLI verbs, the test suite and the benchmarks.

See ``docs/gateway.md`` for the protocol spec and the flow-control and
resume semantics.
"""

from repro.gateway.client import (
    AdminClient,
    GatewayClosed,
    GatewayConnection,
    IngestClient,
    WatchClient,
)
from repro.gateway.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameCorrupt,
    FrameReader,
    FrameTooLarge,
    WIRE_FORMAT,
    decode_frame,
    encode_frame,
)
from repro.gateway.server import GatewayHandle, GatewayServer

__all__ = [
    "AdminClient",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameCorrupt",
    "FrameReader",
    "FrameTooLarge",
    "GatewayClosed",
    "GatewayConnection",
    "GatewayHandle",
    "GatewayServer",
    "IngestClient",
    "WatchClient",
    "WIRE_FORMAT",
    "decode_frame",
    "encode_frame",
]
