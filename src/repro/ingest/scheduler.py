"""Multiplexing N stream sessions on one thread.

:class:`StreamScheduler` pairs each stream's source (possibly
fault-wrapped) with its :class:`~repro.ingest.session.StreamSession` —
and through it that stream's :class:`~repro.serve.DetectionService` —
and drives them to completion under a scheduling policy:

* ``ROUND_ROBIN`` — one chunk per stream per round; every stream makes
  the same chunk-rate progress regardless of chunk size.
* ``DEFICIT`` — deficit round robin: each stream accrues a per-round
  quantum of key-frame credit (scaled by its weight) and processes
  chunks while it has credit to pay their key-frame cost. Streams with
  heavier chunks get proportionally fewer turns, equalising *frame*
  throughput instead of chunk throughput.

Chunks flow source → per-stream :class:`~repro.serve.queues.BoundedChannel`
→ session. The channel is the backpressure surface: when a stream's
queue is full its source is simply not pumped that round (the producer
holds the data, nothing is dropped), and the stall is counted under
``ingest.backpressure_waits``.

Chunks are processed inline on the scheduler thread, in order per
stream, so each stream's match stream is bit-for-bit its independent
single-stream run's. Parallelism belongs to each session's service
(shards on the process backend), not to the scheduler.

Chaos survival: a session raising any :class:`~repro.errors.ReproError`
for a chunk marks that stream failed (counted under
``ingest.chunk_failures``) without touching the scheduler loop — one
poisoned stream can never stall the fleet.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import IngestError, ReproError
from repro.ingest.session import StreamSession
from repro.ingest.sources import StreamChunk, StreamSource
from repro.obs.export import snapshot
from repro.obs.registry import MetricsRegistry
from repro.serve.queues import BackpressurePolicy, BoundedChannel

__all__ = [
    "ScheduledStream",
    "SchedulingPolicy",
    "StreamScheduler",
]

#: Schema tag of the scheduler's nested metrics snapshot.
INGEST_SNAPSHOT_FORMAT = "repro.ingest/2"


class SchedulingPolicy(enum.Enum):
    """How the scheduler divides service among streams."""

    ROUND_ROBIN = "round_robin"
    DEFICIT = "deficit"


@dataclass
class ScheduledStream:
    """One stream's scheduling state inside the scheduler."""

    source: StreamSource
    session: StreamSession
    weight: float = 1.0
    queue: BoundedChannel = field(default_factory=lambda: BoundedChannel(4))
    iterator: Optional[object] = None
    exhausted: bool = False
    finished: bool = False
    failed: bool = False
    deficit: float = 0.0
    lifecycle_applied: int = 0

    @property
    def stream_id(self) -> int:
        return self.source.stream_id


class StreamScheduler:
    """Drive N sessions from N sources under one scheduling policy.

    Parameters
    ----------
    streams:
        ``(source, session)`` pairs (sessions already configured).
        Sources may be fault-wrapped; sessions and sources must agree on
        stream ids.
    policy:
        Service discipline across streams.
    queue_capacity:
        Per-stream chunk queue bound (the backpressure surface).
    quantum:
        DEFICIT only: key frames of credit per stream per round, before
        weight scaling.
    weights:
        DEFICIT only: per-stream-id service weights (default 1.0).
    realtime_stalls:
        Sleep injected stall times instead of only accounting them.
    """

    def __init__(
        self,
        streams: Sequence[tuple],
        policy: SchedulingPolicy = SchedulingPolicy.ROUND_ROBIN,
        queue_capacity: int = 4,
        quantum: float = 0.0,
        weights: Optional[Dict[int, float]] = None,
        realtime_stalls: bool = False,
    ) -> None:
        if not streams:
            raise IngestError("scheduler needs at least one stream")
        if queue_capacity < 1:
            raise IngestError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self.policy = policy
        self.realtime_stalls = realtime_stalls
        self.registry = MetricsRegistry()
        self.streams: List[ScheduledStream] = []
        seen_ids = set()
        for source, session in streams:
            if source.stream_id != session.stream_id:
                raise IngestError(
                    f"source stream {source.stream_id} paired with "
                    f"session for stream {session.stream_id}"
                )
            if source.stream_id in seen_ids:
                raise IngestError(
                    f"duplicate stream id {source.stream_id}"
                )
            seen_ids.add(source.stream_id)
            weight = (weights or {}).get(source.stream_id, 1.0)
            if weight <= 0:
                raise IngestError(
                    f"stream {source.stream_id} weight must be positive, "
                    f"got {weight}"
                )
            self.streams.append(
                ScheduledStream(
                    source=source,
                    session=session,
                    weight=weight,
                    queue=BoundedChannel(queue_capacity),
                )
            )
        # DRR needs a quantum at least as large as the costliest chunk
        # or heavy streams wait many rounds to accrue enough credit.
        # Chunk sizes are unknown up front, so the effective quantum is
        # max(configured, largest head cost seen so far).
        self.quantum = quantum if quantum > 0 else 1.0
        self._max_cost = 1.0
        self.rounds = 0
        self._lifecycle_ops: List[tuple] = []
        self._stop_requested = threading.Event()

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop at the next round boundary.

        Safe to call from any thread (e.g. a signal handler). The loop
        stops pumping new chunks, then flushes each unfinished session's
        window tail — an interrupted run loses no decoded frame that had
        already entered a session.
        """
        self._stop_requested.set()

    # ------------------------------------------------------------------
    # online query maintenance
    # ------------------------------------------------------------------

    def subscribe(self, query) -> None:
        """Register a query subscription for every scheduled stream.

        Ops are forwarded to each session's service at that stream's
        next chunk boundary, exactly once per stream, in registration
        order.
        """
        self._lifecycle_ops.append(("subscribe", query))

    def unsubscribe(self, qid: int) -> None:
        """Register a query removal for every scheduled stream."""
        self._lifecycle_ops.append(("unsubscribe", qid))

    def _apply_lifecycle(self, stream: ScheduledStream) -> None:
        """Forward pending lifecycle ops to one stream's session."""
        if stream.failed:
            return
        while stream.lifecycle_applied < len(self._lifecycle_ops):
            kind, arg = self._lifecycle_ops[stream.lifecycle_applied]
            stream.lifecycle_applied += 1
            try:
                if kind == "subscribe":
                    stream.session.subscribe(arg)
                else:
                    stream.session.unsubscribe(arg)
            except ReproError as error:
                self._record_failure(stream, error)
                return
            self.registry.inc(
                self._metric("lifecycle_ops", stream.stream_id)
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _metric(self, name: str, stream_id: int) -> str:
        return f"ingest.{name}.s{stream_id}"

    def _pump(self, stream: ScheduledStream) -> None:
        """Move chunks source -> queue while there is room.

        A full queue leaves the source untouched: that *is* the
        backpressure (the producer keeps the data), and it is counted.
        """
        if stream.exhausted:
            return
        if stream.iterator is None:
            stream.iterator = iter(stream.source)
        while len(stream.queue) < stream.queue.capacity:
            try:
                chunk = next(stream.iterator)
            except StopIteration:
                stream.exhausted = True
                return
            stream.queue.put(chunk, BackpressurePolicy.BLOCK)
        self.registry.inc(
            self._metric("backpressure_waits", stream.stream_id)
        )

    def _take(self, stream: ScheduledStream) -> Optional[StreamChunk]:
        if len(stream.queue) == 0:
            return None
        return stream.queue.get()

    def _account_stall(self, stream: ScheduledStream, chunk: StreamChunk):
        if chunk.stall_seconds:
            self.registry.inc(
                self._metric("stalled_chunks", stream.stream_id)
            )
            name = self._metric("stall_seconds", stream.stream_id)
            self.registry.set_gauge(
                name, self.registry.gauge(name) + chunk.stall_seconds
            )
            if self.realtime_stalls:
                time.sleep(chunk.stall_seconds)

    def _dispatch(self, stream: ScheduledStream, chunk: StreamChunk) -> None:
        self._account_stall(stream, chunk)
        try:
            stream.session.process_chunk(chunk)
        except ReproError as error:
            self._record_failure(stream, error)

    def _record_failure(self, stream: ScheduledStream, error) -> None:
        self.registry.inc(
            self._metric("chunk_failures", stream.stream_id)
        )
        if stream.session.failed or isinstance(error, IngestError):
            # FAIL-policy sessions are quarantined: drain their source
            # without processing so the fleet keeps moving.
            stream.failed = True

    def _active(self) -> List[ScheduledStream]:
        return [
            stream
            for stream in self.streams
            if not stream.finished
        ]

    def _stream_done(self, stream: ScheduledStream) -> bool:
        return stream.exhausted and len(stream.queue) == 0

    def _finish_stream(self, stream: ScheduledStream) -> None:
        if not stream.failed:
            try:
                stream.session.finish()
            except ReproError as error:
                self._record_failure(stream, error)
        stream.finished = True

    def _drain(self) -> None:
        """Stop-request path: flush every unfinished stream's tail."""
        for stream in self.streams:
            if not stream.finished:
                self._finish_stream(stream)
        self.registry.inc("ingest.stop_drains")

    def _serve_round_robin(self, active: List[ScheduledStream]) -> int:
        served = 0
        for stream in active:
            chunk = self._take(stream)
            if chunk is None:
                continue
            if stream.failed:
                served += 1  # drained, not processed
                continue
            self._dispatch(stream, chunk)
            served += 1
        return served

    def _serve_deficit(self, active: List[ScheduledStream]) -> int:
        served = 0
        for stream in active:
            stream.deficit += max(self.quantum, self._max_cost) * stream.weight
            while True:
                head = stream.queue.peek()
                if head is None:
                    # Nothing waiting: credit does not bank across idle
                    # rounds (classic DRR resets an empty flow).
                    stream.deficit = 0.0
                    break
                head_cost = float(head.expected_keyframes or 1)
                self._max_cost = max(self._max_cost, head_cost)
                if head_cost > stream.deficit:
                    break
                chunk = self._take(stream)
                stream.deficit -= head_cost
                if stream.failed:
                    served += 1
                    continue
                self._dispatch(stream, chunk)
                served += 1
        return served

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> Dict[int, List]:
        """Drive every stream to completion; returns matches by stream.

        The loop survives any per-chunk :class:`~repro.errors.ReproError`
        (counted, stream quarantined under the fail policy) — an
        unhandled exception here is a bug, and the chaos suite asserts
        there are none.
        """
        wait_rounds = self.registry.distribution("ingest.scheduler_wait")
        while True:
            if self._stop_requested.is_set():
                self._drain()
                break
            active = self._active()
            if not active:
                break
            for stream in active:
                self._apply_lifecycle(stream)
                self._pump(stream)
            if self.policy is SchedulingPolicy.DEFICIT:
                served = self._serve_deficit(active)
            else:
                served = self._serve_round_robin(active)
            wait_rounds.add(0.0 if served else 1.0)
            self.rounds += 1
            for stream in active:
                if self._stream_done(stream):
                    self._finish_stream(stream)
        return {
            stream.stream_id: list(stream.session.matches)
            for stream in self.streams
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def reconciliation(self) -> Dict[str, int]:
        """Fleet-wide frame accounting (the chaos-survival invariant).

        ``offered == decoded + damaged + missing + dropped_in_flight``
        whenever every chunk is uniform (``chunk_keyframes_hint`` set)
        and no stream was quarantined mid-flight; quarantined streams
        surface the shortfall under ``unprocessed``.
        """
        offered = decoded = damaged = missing = filled = 0
        expected = 0
        for stream in self.streams:
            counter = stream.session.registry.counter
            offered += stream.source.keyframes_offered
            expected += counter("ingest.frames_expected")
            decoded += counter("ingest.frames_decoded")
            damaged += counter("ingest.frames_damaged")
            missing += counter("ingest.frames_missing")
            filled += counter("ingest.frames_filled")
        dropped = sum(
            getattr(stream.source, "keyframes_dropped", 0)
            for stream in self.streams
        )
        duplicated = sum(
            getattr(stream.source, "chunks_duplicated", 0)
            for stream in self.streams
        )
        return {
            "frames_offered": offered,
            "frames_expected": expected,
            "frames_decoded": decoded,
            "frames_damaged": damaged,
            "frames_missing": missing,
            "frames_filled": filled,
            "frames_dropped_in_flight": dropped,
            "chunks_duplicated_in_flight": duplicated,
            # Every offered frame is either decoded/damaged inside a
            # processed chunk (expected), lost with a dropped chunk, or
            # still unaccounted (quarantined stream, trailing drop).
            "unprocessed": offered - expected - dropped,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Nested ``repro.ingest/2`` snapshot: scheduler + per-stream.

        Each stream's entry is its service's
        :meth:`~repro.serve.DetectionService.metrics_snapshot` with the
        session's ``ingest.*`` series folded in. Streams describe
        *different* streams, so they are nested rather than merged —
        unlike a service's shards, which replicate one stream.
        """
        streams = {}
        for stream in self.streams:
            merged = stream.session.service.metrics_snapshot()
            own = snapshot(stream.session.registry)
            for section in ("counters", "gauges", "distributions", "timers"):
                merged[section].update(own[section])
            streams[str(stream.stream_id)] = merged
        return {
            "schema": INGEST_SNAPSHOT_FORMAT,
            "policy": self.policy.value,
            "rounds": self.rounds,
            "scheduler": snapshot(self.registry),
            "streams": streams,
            "reconciliation": self.reconciliation(),
        }
