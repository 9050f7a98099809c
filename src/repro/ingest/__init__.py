"""Fault-tolerant multi-stream ingestion and scheduling.

The paper monitors one clean stream; a deployment monitors many, each
delivered as a corruptible compressed bitstream. This subpackage is the
resilient many-stream frontend over the single-stream detector stack:

* :mod:`repro.ingest.sources` — where chunked video enters: synthetic
  generation, pre-encoded chunk lists, pre-extracted cell ids, and
  record/replay from disk.
* :mod:`repro.ingest.faults` — deterministic in-flight damage (bit
  flips, truncation, drops, duplicates, stalls) for chaos testing.
* :mod:`repro.ingest.decoder` — damage-tolerant chunk decoding on top
  of the codec's GOP resync scanner; degradation policies decide what
  undecodable frames become.
* :mod:`repro.ingest.session` — one stream's seq-dedupe, decode and
  degradation stage in front of a ``repro.serve`` detection service
  (which owns the window clock, detection and checkpointing).
* :mod:`repro.ingest.scheduler` — round-robin / deficit-weighted
  multiplexing of N sessions with per-stream backpressure.

See ``docs/ingestion.md`` for the fault model, degradation semantics
and the ``ingest.*`` metric reference.
"""

from repro.ingest.decoder import (
    DecodedChunk,
    DegradationPolicy,
    ResilientDecoder,
)
from repro.ingest.faults import FAULT_PRESETS, FaultInjector, FaultPlan
from repro.ingest.scheduler import (
    ScheduledStream,
    SchedulingPolicy,
    StreamScheduler,
)
from repro.ingest.session import StreamSession
from repro.ingest.sources import (
    CellIdSource,
    EncodedChunkSource,
    INGEST_FORMAT,
    ReplaySource,
    StreamChunk,
    StreamSource,
    SyntheticSource,
    record_stream,
)

__all__ = [
    "CellIdSource",
    "DecodedChunk",
    "DegradationPolicy",
    "EncodedChunkSource",
    "FAULT_PRESETS",
    "FaultInjector",
    "FaultPlan",
    "INGEST_FORMAT",
    "ReplaySource",
    "ResilientDecoder",
    "ScheduledStream",
    "SchedulingPolicy",
    "StreamChunk",
    "StreamScheduler",
    "StreamSession",
    "StreamSource",
    "SyntheticSource",
    "record_stream",
]
