"""Per-stream ingest sessions: the stage in front of a detection service.

A :class:`StreamSession` is the unit the scheduler multiplexes and the
gateway binds a remote stream to. It is a pure pre-detection stage —
sequence-number dedupe, :class:`ResilientDecoder` decode and the
degradation policy — in front of a
:class:`~repro.serve.DetectionService`, which owns everything after:
the one window clock (its :class:`~repro.serve.frontend.StreamFrontend`,
gaps included), sharded detection, the canonical match stream, the
archive and the checkpoint. By default a session builds a serial,
one-worker service of its own; the gateway passes its shared one.

The session's own :class:`~repro.obs.registry.MetricsRegistry` holds
the ``ingest.*`` series (sessions never share one); ``engine.*`` lives
in the service's shards. The frame-accounting contract, which the chaos
tests reconcile:

    frames offered by the source
        = frames pushed to the service
        + frames skipped / filled (damage)
        + frames dropped in flight (injector) or behind a seq gap

A session checkpoint is a plain service checkpoint: the service's
``chunks_ingested`` *is* the session's stream position (highest
sequence number seen plus one, lost chunks included).
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Union

import numpy as np

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.errors import IngestError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest.decoder import DegradationPolicy, ResilientDecoder
from repro.ingest.sources import StreamChunk
from repro.obs.registry import MetricsRegistry
from repro.serve.checkpoint import CheckpointManager, ServiceCheckpoint
from repro.serve.service import DetectionService

__all__ = ["StreamSession"]


class StreamSession:
    """One stream's seq-dedupe, decode and degradation stage.

    Parameters
    ----------
    stream_id:
        The stream this session owns.
    config, queries, keyframes_per_second:
        Build the session's own serial, one-worker
        :class:`~repro.serve.DetectionService`; unused when ``service``
        is given.
    extractor:
        Fingerprint pipeline for encoded / raw-frame chunks; optional
        when the stream delivers pre-extracted cell ids.
    policy:
        What to do with undecodable key frames (see
        :class:`~repro.ingest.decoder.DegradationPolicy`).
    fill_cell_id:
        The substitute cell id used by ``ZERO_FILL``.
    chunk_keyframes_hint:
        Expected key frames per chunk. When positive, a sequence-number
        gap (chunks lost in flight) advances the window clock by
        ``gap * hint`` frames; when zero, lost chunks are only counted
        (``ingest.chunks_missing``) and the clock keeps running on
        delivered content.
    service:
        The detection service the surviving cell ids feed (e.g. the
        gateway's shared one). Its stream position must be this
        session's.
    """

    def __init__(
        self,
        stream_id: int,
        config: Optional[DetectorConfig] = None,
        queries: Optional[QuerySet] = None,
        keyframes_per_second: Optional[float] = None,
        extractor: Optional[FingerprintExtractor] = None,
        policy: DegradationPolicy = DegradationPolicy.SKIP_WINDOW,
        fill_cell_id: int = 0,
        chunk_keyframes_hint: int = 0,
        service: Optional[DetectionService] = None,
    ) -> None:
        if service is None:
            needed = (config, queries, keyframes_per_second)
            if any(value is None for value in needed):
                raise IngestError(
                    "a session needs a service, or the config, queries "
                    "and key-frame rate to build one"
                )
            service = DetectionService(
                config, queries, keyframes_per_second, num_workers=1
            )
        self.stream_id = stream_id
        self.service = service
        self.policy = policy
        self.fill_cell_id = int(fill_cell_id)
        self.chunk_keyframes_hint = int(chunk_keyframes_hint)
        self.registry = MetricsRegistry()
        self.decoder = ResilientDecoder(extractor)
        self.failed = False
        for name in (
            "ingest.chunks_processed",
            "ingest.chunks_duplicate",
            "ingest.chunks_missing",
            "ingest.frames_expected",
            "ingest.frames_decoded",
            "ingest.frames_damaged",
            "ingest.frames_filled",
            "ingest.frames_missing",
            "ingest.decode_errors",
            "ingest.resyncs",
            "ingest.header_losses",
            "ingest.matches",
        ):
            self.registry.inc(name, 0)

    # ------------------------------------------------------------------
    # chunk processing
    # ------------------------------------------------------------------

    @property
    def chunks_ingested(self) -> int:
        """Stream position: highest sequence number seen, plus one."""
        return self.service.chunks_ingested

    @property
    def matches(self) -> List[Match]:
        """The service's merged match stream (read, not copied)."""
        return self.service.matches

    def process_chunk(self, chunk: StreamChunk) -> List[Match]:
        """Feed one chunk; returns the matches it produced.

        Out-of-order and duplicate deliveries (sequence number below
        the stream position) are dropped and counted. A sequence gap is
        acknowledged before the chunk is processed so the window clock
        never drifts past real content.
        """
        if chunk.stream_id != self.stream_id:
            raise IngestError(
                f"session for stream {self.stream_id} received a chunk "
                f"of stream {chunk.stream_id}"
            )
        inc = self.registry.inc
        service = self.service
        gap_chunks = chunk.seq - service.chunks_ingested
        if gap_chunks < 0:
            inc("ingest.chunks_duplicate")
            return []
        if gap_chunks:
            inc("ingest.chunks_missing", gap_chunks)
            if self.chunk_keyframes_hint > 0:
                missing = gap_chunks * self.chunk_keyframes_hint
                inc("ingest.frames_missing", missing)
                service.skip_frames(missing)
        inc("ingest.chunks_processed")
        try:
            matches = self._feed(chunk)
        finally:
            # One service chunk or several (one per surviving segment),
            # the stream position moves past this sequence number.
            service.chunks_ingested = chunk.seq + 1
        if matches:
            inc("ingest.matches", len(matches))
        return matches

    def _feed(self, chunk: StreamChunk) -> List[Match]:
        inc = self.registry.inc
        with self.registry.phase("phase.ingest_decode"):
            decoded = self.decoder.decode_chunk(chunk)
        inc("ingest.frames_expected", decoded.expected_keyframes)
        inc("ingest.frames_decoded", decoded.keyframes_decoded)
        inc("ingest.frames_damaged", decoded.keyframes_damaged)
        inc("ingest.decode_errors", decoded.decode_errors)
        inc("ingest.resyncs", decoded.resyncs)
        if decoded.header_lost:
            inc("ingest.header_losses")

        if self.policy is DegradationPolicy.FAIL and not decoded.clean:
            self.failed = True
            raise IngestError(
                f"stream {self.stream_id} chunk {chunk.seq}: "
                f"{decoded.keyframes_damaged} of "
                f"{decoded.expected_keyframes} key frames undecodable "
                f"under the fail policy"
            )

        service = self.service
        if self.policy is DegradationPolicy.ZERO_FILL:
            filled = decoded.expected_keyframes - decoded.keyframes_decoded
            ids = np.full(
                decoded.expected_keyframes, self.fill_cell_id, dtype=np.int64
            )
            for start, segment_ids in decoded.segments:
                ids[start : start + segment_ids.shape[0]] = segment_ids
            if filled:
                inc("ingest.frames_filled", filled)
            return service.run([ids], flush=False)
        # SKIP_WINDOW: each hole in the chunk is a gap on the clock.
        matches: List[Match] = []
        position = 0
        for start, segment_ids in decoded.segments:
            if start > position:
                service.skip_frames(start - position)
            matches.extend(service.run([segment_ids], flush=False))
            position = start + segment_ids.shape[0]
        if position < decoded.expected_keyframes:
            service.skip_frames(decoded.expected_keyframes - position)
        return matches

    def finish(self) -> List[Match]:
        """Flush the trailing partial window at end of stream."""
        matches = self.service.flush()
        if matches:
            self.registry.inc("ingest.matches", len(matches))
        return matches

    # ------------------------------------------------------------------
    # online query maintenance
    # ------------------------------------------------------------------

    def subscribe(self, query) -> None:
        """Add a continuous query at a chunk boundary (the scheduler's
        lifecycle forwarding guarantees one)."""
        self.service.subscribe(query)
        self.registry.inc("ingest.queries_subscribed")

    def unsubscribe(self, qid: int) -> None:
        """Drop a continuous query, purging its in-flight state."""
        self.service.unsubscribe(qid)
        self.registry.inc("ingest.queries_unsubscribed")

    # ------------------------------------------------------------------
    # resume (a session checkpoint is ``service.checkpoint(...)``)
    # ------------------------------------------------------------------

    @classmethod
    def restore(
        cls,
        source: Union[str, pathlib.Path, CheckpointManager, ServiceCheckpoint],
        stream_id: int,
        config: Optional[DetectorConfig] = None,
        extractor: Optional[FingerprintExtractor] = None,
        policy: DegradationPolicy = DegradationPolicy.SKIP_WINDOW,
        fill_cell_id: int = 0,
        chunk_keyframes_hint: int = 0,
    ) -> "StreamSession":
        """Rebuild a session over its restored service.

        ``source`` is anything :meth:`DetectionService.restore
        <repro.serve.DetectionService.restore>` takes; ``config``, when
        given, must equal the recorded one. The caller re-feeds the
        stream from ``session.chunks_ingested``; earlier chunks are
        deduplicated by sequence number, so replaying from chunk 0 is
        safe (if wasteful).
        """
        return cls(
            stream_id,
            extractor=extractor,
            policy=policy,
            fill_cell_id=fill_cell_id,
            chunk_keyframes_hint=chunk_keyframes_hint,
            service=DetectionService.restore(
                source, expected_config=config
            ),
        )
