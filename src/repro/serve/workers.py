"""Per-shard detection workers and their message protocol.

Each worker owns one detection stack for its query shard: a private
:class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.core.detector.StreamingDetector` constructed with the
*global* candidate cap hint (so candidate lifecycle matches the
single-process detector — see
:meth:`~repro.core.context.EvalContext.set_cap_hint`). A worker never
sees raw frames: the service's
:class:`~repro.serve.frontend.StreamFrontend` cuts and sketches every
basic window once and ships the result.

The protocol is plain tuples (picklable for the process backend); every
request produces exactly one reply, so the service can run workers in
lock step without extra sequencing. Each request kind has exactly one
sender, a :class:`~repro.serve.service.DetectionService` method:

===================================  ======================  ====================
request                              reply                   sent by
===================================  ======================  ====================
``("batch", WindowBatch)``           ``("matches_batch",     ``run`` (serial
                                     wid, base_seq,          backend)
                                     [[Match, ...], ...])``
``("batch_shm", BatchDescriptor)``   same as ``batch``       ``run`` (process
                                                             backend)
``("flush", TailWindow | None)``     ``("flushed", wid,      ``flush``
                                     [Match, ...])``
``("lifecycle", epoch, ops, hint)``  ``("ok", wid)``         ``subscribe`` /
                                                             ``unsubscribe``
``("state",)``                       ``("state", wid,        ``checkpoint``
                                     {...})``
``("snapshot",)``                    ``("snapshot", wid,     ``metrics_snapshot``
                                     {...})``
``("stop",)``                        ``("stopped", wid)``    ``close``
===================================  ======================  ====================

A :class:`~repro.serve.supervisor.ShardSupervisor`, when present, sits
on the channel rather than beside it: it relays every row, replays the
logged ones to a respawned worker (a ``batch_shm`` as its inline
``batch`` shadow) and interleaves ``("state",)`` probes of its own,
whose replies it keeps.

``batch``: the worker first acknowledges the batch's in-band gap
(``windows_skipped`` / ``frames_skipped``, see
:meth:`~repro.serve.frontend.StreamFrontend.skip_frames`) on its
detector's clock, then runs the whole batch through its detector as one
:class:`~repro.minhash.windows.WindowBlock` — one probe (or one plane
slice) and one engine pass, not one per window. It copies the small
``(nw, K)`` sketch matrix once (a shared-memory row must not outlive
its message, so the rows must be worker-owned) and, when
planes were precomputed, takes its shard's plane rows out of the
``(nw, Q, W)`` arrays by qid in one copy. The reply carries one match
list per chunk of the batch so the service can merge per stream
sequence.
``batch_shm`` is the same payload delivered as a shared-memory
descriptor; no view into the segment survives the message. ``flush``
carries the front end's partial tail window (``None`` when the stream
ended on a window boundary).

``lifecycle`` is the epoch barrier of the query-admission control
plane (see ``docs/serving.md``): the service broadcasts one message per
churn event to *every* worker on the same channel as batches, carrying
this worker's (possibly empty) op list — ``("subscribe", Query)`` or
``("unsubscribe", qid)`` tuples — plus the new global ``cap_hint``.
Because it is ordered with the batch stream, every shard applies the
change at the same basic-window boundary, keeping the merged match
stream deterministic. The worker records the epoch number; it rides
along in state snapshots so a resumed service knows exactly which
lifecycle events the checkpoint already contains.

A worker never lets an exception escape: any failure is reported as
``("error", wid, message)`` and the worker keeps serving, so one bad
control message cannot orphan a process worker mid-stream.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.query import QuerySet
from repro.core.results import Match
from repro.minhash.windows import WindowBlock
from repro.obs.export import snapshot
from repro.obs.registry import MetricsRegistry
from repro.serve.frontend import TailWindow, WindowBatch
from repro.serve.state import restore_worker_state, worker_state

__all__ = ["STREAM_KINDS", "ShardWorker", "WorkerSpec"]


@dataclass
class WorkerSpec:
    """Everything needed to build one shard's worker, in any process.

    Attributes
    ----------
    worker_id:
        The shard index (stable across checkpoint/restore).
    config:
        The shared detector configuration.
    queries:
        This shard's query subset.
    keyframes_per_second:
        Stream cadence.
    cap_hint:
        The *global* max candidate horizon (max over every subscribed
        query in every shard) — the equivalence-critical floor on this
        worker's candidate expiry.
    timing_enabled:
        Whether the worker's registry records phase wall-clock.
    state:
        Optional :func:`~repro.serve.state.worker_state` snapshot to
        restore on construction (checkpoint resume).
    epoch:
        The lifecycle epoch this worker starts at (0 for a fresh
        service; the recorded per-shard epoch on checkpoint resume).
    chaos:
        Scheduled :class:`~repro.serve.chaos.ChaosEvent` failures this
        worker executes against itself (testing only); positions are
        1-based over this worker's *stream* messages.
    """

    worker_id: int
    config: DetectorConfig
    queries: QuerySet
    keyframes_per_second: float
    cap_hint: int
    timing_enabled: bool = True
    state: Optional[Dict[str, np.ndarray]] = None
    epoch: int = 0
    chaos: Tuple = ()


class ShardWorker:
    """One shard's detector stack plus the request dispatcher."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.worker_id = spec.worker_id
        self.registry = MetricsRegistry(timing_enabled=spec.timing_enabled)
        self.detector = StreamingDetector(
            config=spec.config,
            queries=spec.queries,
            keyframes_per_second=spec.keyframes_per_second,
            registry=self.registry,
            cap_hint=spec.cap_hint,
        )
        self.epoch = int(spec.epoch)
        self._shm_reader = None
        self._plane_rows_cache: Optional[Tuple[Tuple, np.ndarray]] = None
        if spec.state is not None:
            restore_worker_state(self.detector, spec.state)

    def handle(self, message: Tuple) -> Tuple:
        """Dispatch one request tuple; exceptions become error replies."""
        try:
            return self._dispatch(message)
        except Exception as error:  # noqa: BLE001 — workers must survive
            return ("error", self.worker_id, f"{type(error).__name__}: {error}")

    def _dispatch(self, message: Tuple) -> Tuple:
        kind = message[0]
        if kind == "batch":
            batch = message[1]
            return (
                "matches_batch",
                self.worker_id,
                batch.base_seq,
                self._process_batch(batch),
            )
        if kind == "batch_shm":
            batch = self._decode_shm(message[1])
            return (
                "matches_batch",
                self.worker_id,
                batch.base_seq,
                self._process_batch(batch),
            )
        if kind == "flush":
            tail = message[1]
            matches = [] if tail is None else self._process_tail(tail)
            return ("flushed", self.worker_id, matches)
        if kind == "lifecycle":
            _, epoch, ops, cap_hint = message
            for op in ops:
                if op[0] == "subscribe":
                    self.detector.subscribe(op[1])
                elif op[0] == "unsubscribe":
                    self.detector.unsubscribe(op[1])
                else:
                    raise ValueError(f"unknown lifecycle op {op[0]!r}")
            self.detector.set_cap_hint(int(cap_hint))
            self.epoch = int(epoch)
            return ("ok", self.worker_id)
        if kind == "state":
            state = worker_state(self.detector)
            state["epoch"] = np.asarray([self.epoch], dtype=np.int64)
            return ("state", self.worker_id, state)
        if kind == "snapshot":
            return ("snapshot", self.worker_id, snapshot(self.registry))
        if kind == "stop":
            return ("stopped", self.worker_id)
        return ("error", self.worker_id, f"unknown message kind {kind!r}")

    # ------------------------------------------------------------------
    # sketch-once batch handling
    # ------------------------------------------------------------------

    def _decode_shm(self, descriptor) -> WindowBatch:
        if self._shm_reader is None:
            from repro.serve.shm import ShmBatchReader

            self._shm_reader = ShmBatchReader()
        return self._shm_reader.read(descriptor)

    def _plane_rows(
        self, plane_qids: Optional[Tuple[int, ...]]
    ) -> Optional[np.ndarray]:
        """Map this shard's sorted qids to rows of the batch planes.

        Cached on ``(plane layout, shard layout)`` — either side changes
        only at a lifecycle barrier, so the mapping is computed once per
        epoch, not once per batch.
        """
        if plane_qids is None:
            return None
        shard_qids = self.detector.context.query_columns().qids
        key = (plane_qids, shard_qids)
        if (
            self._plane_rows_cache is not None
            and self._plane_rows_cache[0] == key
        ):
            return self._plane_rows_cache[1]
        position = {qid: row for row, qid in enumerate(plane_qids)}
        try:
            rows = np.asarray(
                [position[qid] for qid in shard_qids], dtype=np.intp
            )
        except KeyError as error:
            raise ValueError(
                f"batch planes are missing query {error}; the front "
                "end's query layout is behind this shard's"
            )
        self._plane_rows_cache = (key, rows)
        return rows

    def _process_batch(self, batch: WindowBatch) -> List[List[Match]]:
        """Run the batch's windows in one engine pass; one match list
        per chunk."""
        detector = self.detector
        if batch.windows_skipped or batch.frames_skipped:
            detector.acknowledge_gap(batch.windows_skipped)
            detector.stats.frames_skipped += batch.frames_skipped
        # Worker-owned copies: a shared-memory row would be overwritten
        # when the producer reuses the slot. ``take`` copies the shard's
        # plane rows out of the batch planes.
        block = replace(
            batch.block,
            sketch_values=np.array(batch.block.sketch_values, dtype=np.int64),
        )
        rows = self._plane_rows(batch.plane_qids)
        planes = None
        if rows is not None:
            planes = (batch.ge.take(rows, axis=1), batch.lt.take(rows, axis=1))
        per_window = detector.process_batch(block, planes=planes)
        per_chunk: List[List[Match]] = []
        position = 0
        for count in batch.chunk_windows.tolist():
            chunk_matches: List[Match] = []
            for matches in per_window[position : position + count]:
                chunk_matches.extend(matches)
            position += count
            per_chunk.append(chunk_matches)
        return per_chunk

    def _process_tail(self, tail: TailWindow) -> List[Match]:
        """Run the front end's final (possibly partial) window."""
        block = WindowBlock.single(
            tail.index, tail.start_frame, tail.num_frames,
            np.array(tail.sketch_values, dtype=np.int64),
        )
        rows = self._plane_rows(tail.plane_qids)
        planes = None
        if rows is not None:
            planes = (tail.ge[rows][np.newaxis], tail.lt[rows][np.newaxis])
        return self.detector.process_batch(block, planes=planes)[0]

    def release_resources(self) -> None:
        """Detach transport attachments (worker shutdown)."""
        if self._shm_reader is not None:
            self._shm_reader.close()
            self._shm_reader = None


#: Request kinds that advance a worker's chaos position — the stream
#: itself, never control traffic (so supervisor probes cannot shift a
#: plan's firing points).
STREAM_KINDS = frozenset({"batch", "batch_shm"})


def _execute_chaos(worker: ShardWorker, event, outbox) -> bool:
    """Run one scheduled failure inside the worker loop.

    Returns True when the loop must abandon the current message
    (poison); a stall falls through to normal handling after sleeping,
    and a kill never returns.
    """
    if event.kind == "stall":
        time.sleep(event.stall_seconds)
        return False
    if event.kind == "poison":
        outbox.put(("chaos-poison", worker.worker_id, event.at_seq))
        return True
    # kill: die the way a crash does — no reply, no cleanup handshake.
    os._exit(1)


def _worker_loop(spec: WorkerSpec, inbox, outbox) -> None:
    """Request/reply loop of one process-backend worker.

    Runs until a ``stop`` request; its reply is sent before returning so
    the parent can join deterministically. When the spec carries chaos
    events, each stream message is checked against the schedule before
    handling — a ``kill`` hard-exits the process without replying, a
    ``poison`` substitutes a malformed reply, a ``stall`` sleeps first.
    """
    worker = ShardWorker(spec)
    chaos = {event.at_seq: event for event in (spec.chaos or ())}
    stream_seen = 0
    while True:
        message = inbox.get()
        if chaos and message[0] in STREAM_KINDS:
            stream_seen += 1
            event = chaos.pop(stream_seen, None)
            if event is not None and _execute_chaos(worker, event, outbox):
                continue
        reply = worker.handle(message)
        outbox.put(reply)
        if reply[0] == "stopped":
            worker.release_resources()
            return
