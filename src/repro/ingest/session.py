"""Per-stream detection sessions.

A :class:`StreamSession` is the unit the scheduler multiplexes: one
stream's :class:`~repro.core.detector.StreamingDetector` +
:class:`~repro.core.live.LiveMonitor` + :class:`ResilientDecoder`, glued
to a degradation policy and an ``ingest.*`` metric namespace in the
session's own :class:`~repro.obs.registry.MetricsRegistry` (sessions
never share a registry — their ``engine.*`` counters describe different
streams and must not merge).

The frame-accounting contract, which the chaos tests reconcile:

    frames offered by the source
        = frames pushed to the detector
        + frames skipped / filled (damage)
        + frames dropped in flight (injector) or behind a seq gap

Sessions checkpoint through :class:`repro.serve.CheckpointManager` — a
one-worker :class:`~repro.serve.checkpoint.ServiceCheckpoint` with
strategy ``"ingest"``, whose front-end fields hold the monitor's
buffer — so the serving layer's atomic-write/restore machinery, format
tag and config verification are reused unchanged.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Union

import numpy as np

from repro.archive import ArchiveTap, SketchArchive
from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.errors import IngestError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest.decoder import DegradationPolicy, ResilientDecoder
from repro.ingest.sources import StreamChunk
from repro.obs.registry import MetricsRegistry
from repro.serve.checkpoint import CheckpointManager, ServiceCheckpoint
from repro.serve.state import restore_worker_state, worker_state

__all__ = ["DetectorSink", "StreamSession"]


class DetectorSink:
    """Interface a :class:`StreamSession` drives when it does not own a
    detector of its own.

    The default session builds a private
    :class:`~repro.core.detector.StreamingDetector` +
    :class:`~repro.core.live.LiveMonitor` pair. A *sink* replaces that
    pair with any object exposing the same five operations — the
    network gateway uses one to route a remote stream's chunks, after
    seq-dedupe and degradation handling, into a shared
    :class:`~repro.serve.DetectionService` instead.
    """

    def push_cell_ids(self, cell_ids) -> List[Match]:
        """Feed decoded key-frame cell ids; return matches produced."""
        raise NotImplementedError

    def skip_frames(self, num_frames: int) -> None:
        """Advance the window clock over undecodable/lost frames."""
        raise NotImplementedError

    def flush(self) -> List[Match]:
        """Process the trailing partial window at end of stream."""
        raise NotImplementedError

    def subscribe(self, query) -> None:
        """Add a continuous query at a chunk boundary."""
        raise NotImplementedError

    def unsubscribe(self, qid: int) -> None:
        """Drop a continuous query at a chunk boundary."""
        raise NotImplementedError


class StreamSession:
    """One stream's detector state behind a degradation policy.

    Parameters
    ----------
    stream_id:
        The stream this session owns.
    config, queries, keyframes_per_second:
        Detector construction parameters (the queries are shared
        read-only across sessions in a scheduler).
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
    cap_hint:
        Candidate-expiry floor forwarded to the detector.
    sink:
        Optional :class:`DetectorSink`. When given, the session owns no
        detector: chunks still pass through its seq-dedupe, decode and
        degradation machinery, but the surviving cell ids go to the
        sink (e.g. a shared :class:`~repro.serve.DetectionService`
        behind the gateway). Sink-backed sessions cannot checkpoint
        themselves — checkpoint the backing service instead.
    archive:
        Optional per-stream :class:`~repro.archive.SketchArchive`. The
        session then archives every basic window its degradation
        machinery lets through, via an
        :class:`~repro.archive.ArchiveTap` that mirrors the monitor's
        window clock exactly: skipped windows become archive *gaps*
        (``ingest.archive_gap_windows``), delivered windows are
        sketched and retained (``ingest.archive_windows``) — so a late
        backfill over this stream probes precisely the windows the
        live detector saw.
    """

    def __init__(
        self,
        stream_id: int,
        config: DetectorConfig,
        queries: QuerySet,
        keyframes_per_second: float,
        extractor: Optional[FingerprintExtractor] = None,
        policy: DegradationPolicy = DegradationPolicy.SKIP_WINDOW,
        fill_cell_id: int = 0,
        chunk_keyframes_hint: int = 0,
        cap_hint: int = 0,
        sink: Optional[DetectorSink] = None,
        archive: Optional[SketchArchive] = None,
    ) -> None:
        self.stream_id = stream_id
        self.config = config
        self.queries = queries
        self.keyframes_per_second = keyframes_per_second
        self.policy = policy
        self.fill_cell_id = int(fill_cell_id)
        self.chunk_keyframes_hint = int(chunk_keyframes_hint)
        self.registry = MetricsRegistry()
        if sink is None:
            self.detector = StreamingDetector(
                config,
                queries,
                keyframes_per_second,
                registry=self.registry,
                cap_hint=cap_hint,
            )
            self.monitor = LiveMonitor(self.detector, extractor)
        else:
            self.detector = None
            self.monitor = sink
        self.decoder = ResilientDecoder(extractor)
        self._tap: Optional[ArchiveTap] = None
        if archive is not None:
            window_frames = (
                self.detector.window_frames
                if self.detector is not None
                else max(
                    1, round(config.window_seconds * keyframes_per_second)
                )
            )
            self._tap = ArchiveTap(
                archive,
                queries.family,
                window_frames,
                registry=self.registry,
            )
        self.matches: List[Match] = []
        self.failed = False
        self._last_seq = -1
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
        return self._last_seq + 1

    def _acknowledge_missing(self, gap_chunks: int) -> None:
        inc = self.registry.inc
        inc("ingest.chunks_missing", gap_chunks)
        if self.chunk_keyframes_hint > 0:
            missing = gap_chunks * self.chunk_keyframes_hint
            inc("ingest.frames_missing", missing)
            self.monitor.skip_frames(missing)
            if self._tap is not None:
                self._tap.skip_frames(missing)

    def process_chunk(self, chunk: StreamChunk) -> List[Match]:
        """Feed one chunk; returns the matches it produced.

        Out-of-order and duplicate deliveries (sequence number at or
        below the last processed one) are dropped and counted. A
        sequence gap is acknowledged before the chunk is processed so
        the window clock never drifts past real content.
        """
        if chunk.stream_id != self.stream_id:
            raise IngestError(
                f"session for stream {self.stream_id} received a chunk "
                f"of stream {chunk.stream_id}"
            )
        inc = self.registry.inc
        if chunk.seq <= self._last_seq:
            inc("ingest.chunks_duplicate")
            return []
        gap_chunks = chunk.seq - self._last_seq - 1
        if gap_chunks > 0:
            self._acknowledge_missing(gap_chunks)
        self._last_seq = chunk.seq
        inc("ingest.chunks_processed")

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

        matches: List[Match] = []
        if self.policy is DegradationPolicy.ZERO_FILL:
            filled = decoded.expected_keyframes - decoded.keyframes_decoded
            ids = np.full(
                decoded.expected_keyframes, self.fill_cell_id, dtype=np.int64
            )
            for start, segment_ids in decoded.segments:
                ids[start : start + segment_ids.shape[0]] = segment_ids
            if filled:
                inc("ingest.frames_filled", filled)
            matches.extend(self.monitor.push_cell_ids(ids))
            if self._tap is not None:
                self._tap.push_cell_ids(ids)
        else:  # SKIP_WINDOW
            tap = self._tap
            position = 0
            for start, segment_ids in decoded.segments:
                if start > position:
                    self.monitor.skip_frames(start - position)
                    if tap is not None:
                        tap.skip_frames(start - position)
                matches.extend(self.monitor.push_cell_ids(segment_ids))
                if tap is not None:
                    tap.push_cell_ids(segment_ids)
                position = start + segment_ids.shape[0]
            if position < decoded.expected_keyframes:
                self.monitor.skip_frames(
                    decoded.expected_keyframes - position
                )
                if tap is not None:
                    tap.skip_frames(
                        decoded.expected_keyframes - position
                    )
        if matches:
            inc("ingest.matches", len(matches))
            self.matches.extend(matches)
        return matches

    def finish(self) -> List[Match]:
        """Flush the trailing partial window at end of stream."""
        if self._tap is not None:
            self._tap.flush()
        matches = self.monitor.flush()
        if matches:
            self.registry.inc("ingest.matches", len(matches))
            self.matches.extend(matches)
        return matches

    # ------------------------------------------------------------------
    # online query maintenance
    # ------------------------------------------------------------------

    def subscribe(self, query) -> None:
        """Add a continuous query to this session's detector mid-stream.

        Must be called at a chunk boundary (never while a pool worker
        is processing one of this session's chunks); the scheduler's
        lifecycle forwarding guarantees that.
        """
        if self.detector is None:
            self.monitor.subscribe(query)
        else:
            self.detector.subscribe(query)
        self.registry.inc("ingest.queries_subscribed")

    def unsubscribe(self, qid: int) -> None:
        """Drop a continuous query, purging its in-flight state."""
        if self.detector is None:
            self.monitor.unsubscribe(qid)
        else:
            self.detector.unsubscribe(qid)
        self.registry.inc("ingest.queries_unsubscribed")

    # ------------------------------------------------------------------
    # checkpointing (via repro.serve)
    # ------------------------------------------------------------------

    def checkpoint(
        self,
        manager: CheckpointManager,
        path: Union[str, pathlib.Path, None] = None,
    ) -> pathlib.Path:
        """Snapshot this session as a one-worker service checkpoint."""
        if self.detector is None:
            raise IngestError(
                f"stream {self.stream_id} session is sink-backed; "
                "checkpoint the backing service, not the session"
            )
        pending, flushed, skip_remaining = self.monitor.buffer_state()
        snapshot = ServiceCheckpoint(
            config=self.config,
            keyframes_per_second=self.keyframes_per_second,
            chunks_ingested=self.chunks_ingested,
            cap_hint=0,
            strategy="ingest",
            worker_queries=[self.queries],
            worker_states=[worker_state(self.detector)],
            matches=list(self.matches),
            frontend_pending=pending,
            frontend_flushed=flushed,
            frontend_windows=self.detector.stats.windows_processed,
            frontend_frames=self.detector.frames_processed,
            frontend_skip=skip_remaining,
        )
        return manager.save(snapshot, path)

    @classmethod
    def restore(
        cls,
        manager: CheckpointManager,
        stream_id: int,
        config: DetectorConfig,
        extractor: Optional[FingerprintExtractor] = None,
        policy: DegradationPolicy = DegradationPolicy.SKIP_WINDOW,
        fill_cell_id: int = 0,
        chunk_keyframes_hint: int = 0,
        path: Union[str, pathlib.Path, None] = None,
    ) -> "StreamSession":
        """Rebuild a session from its latest (or given) checkpoint.

        The caller re-feeds the stream from ``session.chunks_ingested``;
        earlier chunks are deduplicated by sequence number, so replaying
        from chunk 0 is safe (if wasteful).
        """
        snapshot = manager.load(path, expected_config=config)
        if snapshot.num_workers != 1 or snapshot.strategy != "ingest":
            raise IngestError(
                f"checkpoint holds a {snapshot.num_workers}-worker "
                f"{snapshot.strategy!r} service, not an ingest session"
            )
        session = cls(
            stream_id=stream_id,
            config=snapshot.config,
            queries=snapshot.worker_queries[0],
            keyframes_per_second=snapshot.keyframes_per_second,
            extractor=extractor,
            policy=policy,
            fill_cell_id=fill_cell_id,
            chunk_keyframes_hint=chunk_keyframes_hint,
        )
        restore_worker_state(session.detector, snapshot.worker_states[0])
        session.monitor.restore_buffer(
            snapshot.frontend_pending,
            snapshot.frontend_flushed,
            snapshot.frontend_skip,
        )
        session.matches = list(snapshot.matches)
        session._last_seq = snapshot.chunks_ingested - 1
        return session
