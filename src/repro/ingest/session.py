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

:meth:`StreamSession.process_chunks` is the one chunk path: it takes
the chunks a caller already holds (the gateway passes every chunk
queued behind the one it took) and ships their surviving cell ids in
as few service calls as the stream's gaps allow, so a run of small
chunks pays the shards' round trip once. Dedupe, decode, the
degradation policy and every per-chunk result stay per chunk;
:meth:`~StreamSession.process_chunk` is its one-chunk form.

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
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.errors import IngestError, ReproError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest.decoder import DegradationPolicy, ResilientDecoder
from repro.ingest.sources import StreamChunk
from repro.obs.registry import MetricsRegistry
from repro.serve.checkpoint import CheckpointManager, ServiceCheckpoint
from repro.serve.service import DetectionService

__all__ = ["ChunkOutcome", "StreamSession"]


class ChunkOutcome(NamedTuple):
    """What one chunk of :meth:`StreamSession.process_chunks` produced:
    its merged matches, or the error it raised (``matches`` is then
    empty)."""

    matches: List[Match]
    error: Optional[ReproError] = None


class _ServiceRun:
    """Cell-id arrays collected for one service call, each tagged with
    the chunk it came from, plus the per-chunk results."""

    def __init__(self, service: DetectionService, num_chunks: int) -> None:
        self.service = service
        self.matches: List[List[Match]] = [[] for _ in range(num_chunks)]
        self.errors: List[Optional[ReproError]] = [None] * num_chunks
        self._arrays: List[np.ndarray] = []
        self._owners: List[int] = []

    def add(self, owner: int, cell_ids: np.ndarray) -> None:
        self._arrays.append(cell_ids)
        self._owners.append(owner)

    def skip(self, frames: int) -> None:
        """A gap on the window clock: it lands after every array
        collected so far, so they ship first."""
        self.ship()
        self.service.skip_frames(frames)

    def ship(self) -> None:
        """One ``run_chunks`` call for the arrays collected so far; a
        failed call is the error of every chunk it carried."""
        if not self._arrays:
            return
        arrays, owners = self._arrays, self._owners
        self._arrays, self._owners = [], []
        try:
            per_array = self.service.run_chunks(arrays)
        except ReproError as error:
            for owner in owners:
                self.errors[owner] = error
            return
        for owner, matches in zip(owners, per_array):
            self.matches[owner].extend(matches)


class StreamSession:
    """One stream's seq-dedupe, decode and degradation stage.

    Feed it with :meth:`process_chunks` (a list of consecutive chunks,
    one service call for the lot where no gap intervenes) or
    :meth:`process_chunk` (one chunk).

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

        :meth:`process_chunks` of one chunk; the chunk's error, if any,
        is raised.
        """
        outcome = self.process_chunks([chunk])[0]
        if outcome.error is not None:
            raise outcome.error
        return outcome.matches

    def process_chunks(
        self, chunks: Sequence[StreamChunk]
    ) -> List[ChunkOutcome]:
        """Feed consecutive chunks in as few service calls as possible;
        one :class:`ChunkOutcome` per chunk.

        Every per-chunk step stays per chunk: out-of-order and
        duplicate deliveries (sequence number below the stream
        position) are dropped and counted; a sequence gap is
        acknowledged before the chunk is processed, so the window
        clock never drifts past real content; each chunk is decoded
        and put through the degradation policy on its own. The cell
        ids that survive join one run, shipped with one
        :meth:`DetectionService.run_chunks
        <repro.serve.DetectionService.run_chunks>` call; only a gap on
        the clock (a lost chunk under ``chunk_keyframes_hint``, a
        damaged stretch under ``skip_window``) ships the run collected
        so far first. A chunk's :class:`~repro.errors.ReproError`
        becomes its outcome and the next chunk goes on, so the outcomes
        equal those of a loop of :meth:`process_chunk` that catches
        each chunk's error.
        """
        run = _ServiceRun(self.service, len(chunks))
        inc = self.registry.inc
        position = self.service.chunks_ingested
        try:
            for index, chunk in enumerate(chunks):
                if chunk.stream_id != self.stream_id:
                    run.errors[index] = IngestError(
                        f"session for stream {self.stream_id} received a "
                        f"chunk of stream {chunk.stream_id}"
                    )
                    continue
                gap_chunks = chunk.seq - position
                if gap_chunks < 0:
                    inc("ingest.chunks_duplicate")
                    continue
                try:
                    if gap_chunks:
                        inc("ingest.chunks_missing", gap_chunks)
                        if self.chunk_keyframes_hint > 0:
                            missing = gap_chunks * self.chunk_keyframes_hint
                            inc("ingest.frames_missing", missing)
                            run.skip(missing)
                    inc("ingest.chunks_processed")
                    # Fed whole or not, the stream position moves past
                    # this sequence number.
                    position = chunk.seq + 1
                    self._feed(chunk, index, run)
                except ReproError as error:
                    run.errors[index] = error
            run.ship()
        finally:
            self.service.chunks_ingested = position
        outcomes = [
            ChunkOutcome(matches, None) if error is None
            else ChunkOutcome([], error)
            for matches, error in zip(run.matches, run.errors)
        ]
        for outcome in outcomes:
            if outcome.matches:
                inc("ingest.matches", len(outcome.matches))
        return outcomes

    def _feed(
        self, chunk: StreamChunk, index: int, run: _ServiceRun
    ) -> None:
        """Decode one chunk and put its surviving cell ids on ``run``."""
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

        if self.policy is DegradationPolicy.ZERO_FILL:
            filled = decoded.expected_keyframes - decoded.keyframes_decoded
            ids = np.full(
                decoded.expected_keyframes, self.fill_cell_id, dtype=np.int64
            )
            for start, segment_ids in decoded.segments:
                ids[start : start + segment_ids.shape[0]] = segment_ids
            if filled:
                inc("ingest.frames_filled", filled)
            run.add(index, ids)
            return
        # SKIP_WINDOW: each hole in the chunk is a gap on the clock.
        position = 0
        for start, segment_ids in decoded.segments:
            if start > position:
                run.skip(start - position)
            run.add(index, segment_ids)
            position = start + segment_ids.shape[0]
        if position < decoded.expected_keyframes:
            run.skip(decoded.expected_keyframes - position)

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
