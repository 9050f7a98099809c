"""The sharded detection service: plan, broadcast, merge, checkpoint.

:class:`DetectionService` runs the paper's detector over a query set
partitioned across N workers. The stream (chunks of key-frame cell ids)
is cut into basic windows and sketched once, in the service
(:mod:`repro.serve.frontend`); every worker receives the same
precomputed window batches and detects only its shard's queries; the
service merges the per-shard match streams back into the single-process
engine's canonical order (:mod:`repro.serve.collector`). Frames that
never arrive (an ingest session's lost chunks and undecodable GOPs) are
acknowledged with :meth:`DetectionService.skip_frames`; the front end
keeps the clock and ships the gap to every shard in-band.

Two executor backends, ``serial`` (in-process, the reference for the
equivalence suite) and ``process`` (one OS process per worker), share
one worker implementation and protocol (:mod:`repro.serve.workers`)
and one executor contract (:mod:`repro.serve.executors`). Supervision
(:mod:`repro.serve.supervisor`) wraps the process executor when a
:class:`SupervisorConfig` is given.

**Equivalence invariant.** A query's matches depend only on its own
sketch/signature state *except* for candidate expiry, which uses the
global ``max(ceil(λL/w))`` over every subscribed query. The service
therefore computes that global cap and broadcasts it to every worker as
a ``cap_hint`` — at construction and again inside the epoch-barrier
``lifecycle`` broadcast that commits every subscribe or unsubscribe
(see :meth:`DetectionService.subscribe`) — ordered with the chunk
stream (control messages only ever travel at chunk barriers). Under the ``block`` backpressure policy the
merged output is then bit-for-bit the single-process detector's; the
lossy policies (``drop_oldest``, ``shed``) trade that guarantee for
bounded ingestion and are fully accounted in the ``serve.*`` metrics.

**One thread of control.** Apart from its workers, the service runs
on its caller's thread: front end, archive, merge and backfill alike.
Backfill (:mod:`repro.archive`) runs only when the caller pumps it at
a chunk barrier (:meth:`DetectionService.pump_backfill`), and
:meth:`DetectionService.flush` finishes every job.
"""

from __future__ import annotations

import pathlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.archive import BackfillEngine, SketchArchive
from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.query import Query, QuerySet
from repro.core.results import Match
from repro.errors import ServeError
from repro.obs.export import snapshot
from repro.obs.merge import merge_snapshots
from repro.obs.registry import MetricsRegistry
from repro.persistence import require_config_match
from repro.serve.chaos import ChaosPlan
from repro.serve.checkpoint import CheckpointManager, ServiceCheckpoint
from repro.serve.collector import MatchCollector
from repro.serve.executors import ProcessExecutor, SerialExecutor
from repro.serve.frontend import StreamFrontend
from repro.serve.planner import ShardPlanner
from repro.serve.queues import BackpressurePolicy, PutOutcome
from repro.serve.shm import ShmBatchRing, shm_available
from repro.serve.supervisor import ShardSupervisor, SupervisorConfig
from repro.serve.workers import WorkerSpec

__all__ = ["BACKENDS", "DetectionService", "QueryInfo"]

BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class QueryInfo:
    """One subscribed query as the admission control plane sees it.

    Attributes
    ----------
    qid:
        The query id.
    shard:
        The worker currently detecting it.
    cap_windows:
        Its candidate cap ``ceil(λL/w)`` — its contribution to the
        global ``cap_hint`` and its weight under the ``load`` strategy.
    num_frames:
        Query length in key frames.
    label:
        The query's human-readable name, if any.
    """

    qid: int
    shard: int
    cap_windows: int
    num_frames: int
    label: str
    #: Backfill progress (``repro.archive``): windows requested for
    #: retrospective probing, windows already probed, retro matches
    #: found. All zero for queries subscribed without backfill (or on
    #: an archiveless service).
    backfill_total: int = 0
    backfill_done: int = 0
    retro_matches: int = 0
    #: ``"active"`` normally; ``"degraded"`` when the query's shard has
    #: been quarantined by the supervisor (flagged, never dropped).
    status: str = "active"


def _require_served(config: DetectorConfig) -> None:
    """Refuse every configuration but the one the service runs."""
    served = (CombinationOrder.SEQUENTIAL, Representation.BIT, True)
    if (config.order, config.representation, config.use_index) != served:
        raise ServeError(
            "the service runs the sequential order, bit representation "
            f"only, with the index; order={config.order.value}, "
            f"representation={config.representation.value}, "
            f"use_index={config.use_index} runs through "
            "repro.evaluation.runner.run_detector"
        )


#: Per-worker bound on shutdown waits — close() must terminate even
#: when a worker is alive but wedged.
_CLOSE_TIMEOUT_SECONDS = 10.0


class DetectionService:
    """A query-sharded, multi-worker streaming copy detector.

    Parameters
    ----------
    config:
        Detector configuration shared by every worker. The service runs
        one configuration, the Sequential order on bit signatures with
        the index: any other raises :class:`~repro.errors.ServeError`
        before any worker starts (it runs through
        :func:`~repro.evaluation.runner.run_detector`).
    queries:
        The full subscription set; the planner partitions it.
    keyframes_per_second:
        Stream cadence.
    num_workers:
        Requested shard count (clamped to the number of queries).
    backend:
        ``"serial"`` or ``"process"`` (:mod:`repro.serve.executors`).
    strategy:
        Shard-planning strategy (``"count"`` or ``"load"``).
    queue_capacity:
        Bound on each worker's ingestion queue (process backend; it
        also sizes the shared-memory ring). Must be at least 1.
    policy:
        Backpressure policy for *chunk* messages; control messages
        always block. Only ``BLOCK`` preserves exact single-process
        equivalence.
    registry:
        Optional service-level registry for the ``serve.*`` metrics.
    timing_enabled:
        Whether worker registries record phase wall-clock.
    batch_chunks:
        How many consecutive chunks share one ``WindowBatch`` (one
        sketch pass, one queue hop per worker; on the process backend
        the batch arrays travel through a shared-memory ring,
        :mod:`repro.serve.shm`). Must be at least 1.
    archive:
        Optional :class:`~repro.archive.SketchArchive`. When given,
        every basic window's sketch is retained as the front end emits
        it, and :meth:`subscribe` accepts
        ``backfill=N`` to retrospectively probe the last N archived
        windows for the new query. Build the archive with the service's
        registry so the ``archive.*`` series lands in
        :meth:`metrics_snapshot`. The archive's hash family must match
        the query set's.
    backfill_async:
        Only ``False`` is accepted (``True`` raises
        :class:`~repro.errors.ServeError`). Backfill jobs sit queued
        until the caller runs them with :meth:`pump_backfill` /
        :meth:`drain_backfill` at a chunk barrier, and :meth:`flush`
        finishes them; the keyword stays for callers that still pass
        ``False``.
    supervisor:
        A :class:`SupervisorConfig` wraps the executor in a
        :class:`ShardSupervisor` (:mod:`repro.serve.supervisor`): dead,
        stalled or poisoned workers are detected, respawned from
        rolling per-shard snapshots and their unacked requests
        replayed, keeping the merged match stream bit-for-bit intact;
        shards that exhaust their restart budget are quarantined and
        the service degrades gracefully. ``None`` (default) runs
        unsupervised. Process backend only.
    chaos:
        Optional :class:`~repro.serve.chaos.ChaosPlan` of scheduled
        worker failures (testing/drills); events execute inside the
        worker loops. Process backend only.
    """

    def __init__(
        self,
        config: DetectorConfig,
        queries: QuerySet,
        keyframes_per_second: float,
        *,
        num_workers: int = 2,
        backend: str = "serial",
        strategy: str = "load",
        queue_capacity: int = 4,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        registry: Optional[MetricsRegistry] = None,
        timing_enabled: bool = True,
        batch_chunks: int = 4,
        archive: Optional[SketchArchive] = None,
        backfill_async: bool = False,
        supervisor: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
        _checkpoint: Optional[ServiceCheckpoint] = None,
    ) -> None:
        if backfill_async:
            raise ServeError(
                "backfill runs only when its caller pumps it: call "
                "pump_backfill()/drain_backfill() at chunk barriers "
                "(flush() finishes it), not backfill_async=True"
            )
        if backend not in BACKENDS:
            raise ServeError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if batch_chunks < 1:
            raise ServeError(f"batch_chunks must be >= 1, got {batch_chunks}")
        _require_served(config)
        if supervisor is not None and backend == "serial":
            raise ServeError(
                "supervision needs workers that can die independently; "
                "the serial backend has none (use process)"
            )
        if chaos is not None and chaos and backend == "serial":
            raise ServeError(
                "chaos injection targets process workers; the serial "
                "backend runs them in the service process"
            )
        self.config = config
        self.keyframes_per_second = float(keyframes_per_second)
        self.backend = backend
        self.policy = policy
        self.strategy = strategy
        self.window_frames = max(
            1, round(config.window_seconds * keyframes_per_second)
        )
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.collector = MatchCollector()
        self.chunks_ingested = 0
        self.epoch = 0
        self._closed = False
        # Validates the strategy before any checkpoint field is read.
        self._planner = ShardPlanner(num_workers, strategy)

        if _checkpoint is None:
            plan = self._planner.plan(
                queries, self.window_frames, config.tempo_scale
            )
            shard_queries = [
                QuerySet(
                    [queries.get(qid) for qid in shard], queries.family
                )
                for shard in plan.shards
            ]
            states: List[Optional[Dict[str, np.ndarray]]] = [None] * len(
                shard_queries
            )
        else:
            shard_queries = list(_checkpoint.worker_queries)
            states = list(_checkpoint.worker_states)
            self.chunks_ingested = _checkpoint.chunks_ingested
            self.epoch = _checkpoint.epoch
            self.collector.restore(_checkpoint.matches)

        self._shard_qids: List[Set[int]] = [
            set(qs.query_ids) for qs in shard_queries
        ]
        self._family = shard_queries[0].family
        self._queries: Dict[int, Query] = {
            qid: shard.get(qid)
            for shard in shard_queries
            for qid in shard.query_ids
        }
        self._caps: Dict[int, int] = {}
        for shard in shard_queries:
            self._caps.update(
                shard.max_windows_map(self.window_frames, config.tempo_scale)
            )
        self.cap_hint = max(self._caps.values())
        if _checkpoint is not None and _checkpoint.cap_hint > self.cap_hint:
            # A previously subscribed (since dropped) query raised the
            # horizon; keep it so restored candidate ages stay legal.
            self.cap_hint = _checkpoint.cap_hint

        self.batch_chunks = int(batch_chunks)
        self.frontend = StreamFrontend(
            family=self._family,
            window_frames=self.window_frames,
            registry=self.registry,
        )
        if _checkpoint is not None:
            self.frontend.restore(
                _checkpoint.frontend_pending,
                _checkpoint.frontend_flushed,
                _checkpoint.frontend_windows,
                _checkpoint.frontend_frames,
                _checkpoint.frontend_skip,
            )
        self._ring: Optional[ShmBatchRing] = None

        self._archive = archive
        self._backfill: Optional[BackfillEngine] = None
        if archive is not None:
            if archive.family_fingerprint != self._family.fingerprint:
                raise ServeError(
                    "the archive was recorded under a different hash "
                    f"family ({archive.family_fingerprint}) than this "
                    f"service's query set ({self._family.fingerprint})"
                )
            self._backfill = BackfillEngine(
                config,
                self._family,
                self.keyframes_per_second,
                archive,
                emit=self.collector.add_retro,
                registry=self.registry,
            )
            if _checkpoint is not None:
                self._restore_archive(_checkpoint)

        worker_epochs = (
            [self.epoch] * len(shard_queries)
            if _checkpoint is None
            else _checkpoint.worker_epochs()
        )
        chaos_plan = chaos if chaos is not None else ChaosPlan()
        chaos_plan.validate_workers(len(shard_queries))
        specs = [
            WorkerSpec(
                worker_id=index,
                config=config,
                queries=shard,
                keyframes_per_second=self.keyframes_per_second,
                cap_hint=self.cap_hint,
                timing_enabled=timing_enabled,
                state=states[index],
                epoch=worker_epochs[index],
                chaos=chaos_plan.for_worker(index),
            )
            for index, shard in enumerate(shard_queries)
        ]
        if backend == "serial":
            self._executor = SerialExecutor(specs)
        else:
            self._executor = ProcessExecutor(specs, queue_capacity)
        self._supervisor: Optional[ShardSupervisor] = None
        if supervisor is not None:
            self._supervisor = ShardSupervisor(
                self._executor,
                specs,
                config=supervisor,
                registry=self.registry,
            )
            self._executor = self._supervisor
        self.num_workers = len(specs)
        if backend == "process" and shm_available():
            # Enough slots for every batch that can be in flight at
            # once: queue_capacity queued + one in processing + one
            # being published.
            self._ring = ShmBatchRing(queue_capacity + 2)
        self._update_query_gauges()

    def _restore_archive(self, checkpoint: ServiceCheckpoint) -> None:
        """Reinstate archive ring/watermark, retro matches and
        unfinished backfill jobs from a snapshot.

        A snapshot taken without an archive carries no archive state;
        the watermark is then fast-forwarded to the stream clock — the
        windows already streamed were simply never archived, not lost.
        """
        archive = self._archive
        if checkpoint.has_archive:
            archive.restore(
                checkpoint.archive_next,
                checkpoint.archive_ring_indices,
                checkpoint.archive_ring_starts,
                checkpoint.archive_ring_frames,
                checkpoint.archive_ring_sketches,
            )
        else:
            archive.fast_forward(self._stream_windows())
        self.collector.restore_retro(checkpoint.retro_matches)
        dropped = 0
        for row in checkpoint.backfill_jobs:
            job = self._backfill.restore_job(
                tuple(int(v) for v in row), self._queries
            )
            if job is None:
                dropped += 1
        if dropped:
            self.registry.inc("archive.backfill_jobs_dropped", dropped)

    def _stream_windows(self) -> int:
        """The live stream clock: basic windows emitted so far."""
        return self.frontend.windows_emitted

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def restore(
        cls,
        source: Union[str, pathlib.Path, CheckpointManager, ServiceCheckpoint],
        *,
        expected_config: Optional[DetectorConfig] = None,
        backend: str = "serial",
        queue_capacity: int = 4,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        registry: Optional[MetricsRegistry] = None,
        timing_enabled: bool = True,
        batch_chunks: int = 4,
        archive: Optional[SketchArchive] = None,
        supervisor: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> "DetectionService":
        """Rebuild a service from a checkpoint and continue mid-stream.

        ``source`` may be a :class:`ServiceCheckpoint`, a checkpoint
        file path, or a :class:`CheckpointManager` (whose latest
        snapshot is used). The resumed service keeps the recorded shard
        assignment, counters, candidate state and collected matches:
        re-feeding the stream from ``chunks_ingested`` yields exactly
        the match stream an uninterrupted run would have produced.

        A checkpoint of a configuration the service does not run (an
        older build served the Geometric order and no-index) raises
        :class:`~repro.errors.ServeError` before any worker starts;
        otherwise an ``expected_config`` that differs from the recorded
        one raises :class:`~repro.errors.PersistenceError`.
        """
        if isinstance(source, ServiceCheckpoint):
            checkpoint, path = source, None
        elif isinstance(source, CheckpointManager):
            path = source.latest()
            checkpoint = source.load(path)
        else:
            path = pathlib.Path(source)
            checkpoint = CheckpointManager(path.parent).load(path)
        _require_served(checkpoint.config)
        if expected_config is not None:
            require_config_match(
                checkpoint.config, expected_config, source=f"checkpoint {path}"
            )
        merged: List[Query] = []
        for shard in checkpoint.worker_queries:
            merged.extend(shard.get(qid) for qid in shard.query_ids)
        union = QuerySet(merged, checkpoint.worker_queries[0].family)
        return cls(
            checkpoint.config,
            union,
            checkpoint.keyframes_per_second,
            num_workers=checkpoint.num_workers,
            backend=backend,
            strategy=checkpoint.strategy,
            queue_capacity=queue_capacity,
            policy=policy,
            registry=registry,
            timing_enabled=timing_enabled,
            batch_chunks=batch_chunks,
            archive=archive,
            supervisor=supervisor,
            chaos=chaos,
            _checkpoint=checkpoint,
        )

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServeError("the service has been closed")

    def _expect(self, worker_id: int, *kinds: str) -> Tuple:
        reply = self._executor.recv(worker_id)
        if reply[0] == "error":
            raise ServeError(f"worker {reply[1]} failed: {reply[2]}")
        if reply[0] not in kinds:
            raise ServeError(
                f"worker {worker_id} replied {reply[0]!r}, "
                f"expected one of {kinds}"
            )
        return reply

    def _record_put(
        self, worker_id: int, outcome: PutOutcome, num_chunks: int
    ) -> None:
        registry = self.registry
        if outcome.delivered:
            registry.inc(f"serve.chunks_delivered.w{worker_id}", num_chunks)
        else:
            registry.inc(f"serve.chunks_shed.w{worker_id}", num_chunks)
        if outcome.blocked_seconds:
            registry.inc(f"serve.backpressure_blocks.w{worker_id}")
            timer = registry.timer(f"serve.blocked.w{worker_id}")
            timer.calls += 1
            timer.seconds += outcome.blocked_seconds
        depth = self._executor.depth(worker_id)
        if depth is not None:
            registry.set_gauge(f"serve.queue_depth.w{worker_id}", depth)

    def _account_batch(
        self, worker_id: int, outcome: PutOutcome, num_chunks: int
    ) -> List[Tuple[int, Optional[int]]]:
        """Record one batch put; return stolen ``(base_seq, slot)``."""
        self._record_put(worker_id, outcome, num_chunks)
        stolen: List[Tuple[int, Optional[int]]] = []
        for item in outcome.dropped:
            if not (isinstance(item, tuple) and item):
                continue
            if item[0] == "batch":
                batch = item[1]
                self.registry.inc(
                    f"serve.chunks_dropped.w{worker_id}", batch.num_chunks
                )
                stolen.append((batch.base_seq, None))
            elif item[0] == "batch_shm":
                descriptor = item[1]
                self.registry.inc(
                    f"serve.chunks_dropped.w{worker_id}",
                    descriptor.num_chunks,
                )
                stolen.append((descriptor.base_seq, descriptor.slot))
        return stolen

    # ------------------------------------------------------------------
    # stream ingestion
    # ------------------------------------------------------------------

    def process_chunk(self, cell_ids: np.ndarray) -> List[Match]:
        """Feed one chunk to every worker; return its merged matches.

        Lock-step: one :meth:`run` of one chunk, a barrier that waits
        for every shard's reply. A caller holding several chunks saves
        a round trip per chunk by passing them to :meth:`run` (or
        :meth:`run_chunks`) together.
        """
        return self.run([cell_ids], flush=False)

    def run(
        self,
        chunks: Sequence[np.ndarray],
        flush: bool = True,
    ) -> List[Match]:
        """Pipelined ingestion of a chunk sequence; the merged matches.

        :meth:`run_chunks` with its per-chunk lists flattened, so the
        returned stream — and :attr:`matches` — is in canonical
        single-process order. With ``flush=True`` the final partial
        window is processed too and the stream is closed.
        """
        merged = [
            match
            for matches in self.run_chunks(chunks)
            for match in matches
        ]
        if flush:
            merged.extend(self.flush())
        return merged

    def run_chunks(self, chunks: Sequence[np.ndarray]) -> List[List[Match]]:
        """Ingest consecutive chunks in one call; one match list each.

        Chunks are cut into batches of ``batch_chunks`` and broadcast as
        fast as the backpressure policy admits (workers run up to
        ``queue_capacity`` batches behind the producer); replies are
        then drained and merged chunk by chunk in canonical order. The
        whole call is one barrier, however many chunks it carries: a
        list of chunks costs the shard round trip once, not per chunk,
        and its per-chunk lists equal those of one call per chunk.
        """
        self._require_open()
        if self.frontend.flushed:
            raise ServeError("the stream has already been flushed")
        chunk_arrays = [
            np.asarray(chunk, dtype=np.int64) for chunk in chunks
        ]
        per_chunk = self._run_sketch_once(chunk_arrays)
        self.chunks_ingested += len(chunk_arrays)
        return per_chunk

    def skip_frames(self, count: int) -> None:
        """Acknowledge ``count`` stream frames that will never arrive.

        Call at a chunk barrier. The front end sacrifices every basic
        window the gap touches, exactly like the single-process oracle
        (:meth:`~repro.serve.frontend.StreamFrontend.skip_frames`); the
        gap reaches every shard in-band on the next batch, and the
        archive, if any, records the sacrificed windows as a gap.
        """
        self._require_open()
        windows = self.frontend.skip_frames(count)
        if windows and self._archive is not None:
            self._archive.note_gap(windows)

    def _deliver_gap(self) -> None:
        """Ship a gap that no chunk has carried yet, on an empty batch:
        a flush or a checkpoint must not leave it in the front end."""
        if self.frontend.gap_pending:
            self._run_sketch_once([])

    def _run_sketch_once(
        self, chunk_arrays: List[np.ndarray]
    ) -> List[List[Match]]:
        """Sketch-once protocol: build each batch once, fan out payloads.

        The front end cuts and sketches the windows of ``batch_chunks``
        consecutive chunks in one pass; the resulting ``WindowBatch``
        travels to every worker (through the shared-memory ring on the
        process backend). Replies arrive in order per worker, so the
        oldest outstanding batch is always the next drainable one —
        which is also how ring slots are freed under pressure.

        A batch that completes no window and carries no gap (its
        chunks' frames only filled the front end's buffer) has nothing
        for a shard to do: it is counted but neither published nor
        sent, and its chunks merge as empty lists. Returns one merged
        match list per chunk.
        """
        num_workers = self.num_workers
        registry = self.registry
        # Per worker: FIFO of (base_seq, slot) batches awaiting replies.
        outstanding: List[Deque[Tuple[int, Optional[int]]]] = [
            deque() for _ in range(num_workers)
        ]
        results: List[Dict[int, List[Match]]] = [
            {} for _ in range(num_workers)
        ]

        def drain_one(worker_id: int) -> None:
            reply = self._expect(worker_id, "matches_batch")
            base_seq, match_lists = reply[2], reply[3]
            head_seq, slot = outstanding[worker_id].popleft()
            if head_seq != base_seq:
                raise ServeError(
                    f"worker {worker_id} replied for batch {base_seq}, "
                    f"expected {head_seq}"
                )
            for offset, matches in enumerate(match_lists):
                results[worker_id][base_seq + offset] = matches
            if slot is not None:
                self._ring.release(slot, worker_id)

        def drain_oldest() -> None:
            # Free a ring slot by consuming the reply for the oldest
            # in-flight batch; workers reply into unbounded outboxes,
            # so this always makes progress.
            candidates = [
                (pending[0][0], worker_id)
                for worker_id, pending in enumerate(outstanding)
                if pending
            ]
            if not candidates:
                raise ServeError(
                    "shared-memory ring exhausted with no outstanding "
                    "batches to drain"
                )
            registry.inc("serve.transport.shm_waits")
            drain_one(min(candidates)[1])

        # An empty chunk list still sends one (empty) batch: the carrier
        # of a pending gap.
        for base in range(0, max(1, len(chunk_arrays)), self.batch_chunks):
            group = chunk_arrays[base : base + self.batch_chunks]
            batch = self.frontend.build(group, base)
            registry.inc("serve.chunks_ingested", len(group))
            registry.inc("serve.transport.chunks", len(group))
            if not (
                batch.num_windows
                or batch.windows_skipped
                or batch.frames_skipped
            ):
                # Counted as delivered, so a chunk's per-worker
                # accounting does not depend on how it was batched.
                for worker_id in range(num_workers):
                    registry.inc(
                        f"serve.chunks_delivered.w{worker_id}", len(group)
                    )
                continue
            if self._archive is not None:
                self._archive_batch(batch)
            registry.inc("serve.transport.batches")
            registry.inc("serve.transport.windows", batch.num_windows)
            slot: Optional[int] = None
            if self._ring is not None:
                descriptor = self._ring.publish(
                    batch,
                    readers=range(num_workers),
                    wait_for_slot=drain_oldest,
                )
                slot = descriptor.slot
                message: Tuple = ("batch_shm", descriptor)
                registry.inc(
                    "serve.transport.shm_bytes", descriptor.total_bytes
                )
            else:
                message = ("batch", batch)
                registry.inc("serve.transport.inline_bytes", batch.nbytes)
            for worker_id in range(num_workers):
                if self._supervisor is not None and slot is not None:
                    # The supervisor's replay buffer must outlive the
                    # ring slot, so it logs the inline batch instead of
                    # the descriptor.
                    outcome = self._supervisor.send(
                        worker_id,
                        message,
                        self.policy,
                        shadow=("batch", batch),
                    )
                else:
                    outcome = self._executor.send(
                        worker_id, message, self.policy
                    )
                if outcome.delivered:
                    outstanding[worker_id].append((base, slot))
                elif slot is not None:
                    self._ring.release(slot, worker_id)
                stolen = self._account_batch(
                    worker_id, outcome, len(group)
                )
                for stolen_seq, stolen_slot in stolen:
                    outstanding[worker_id].remove(
                        (stolen_seq, stolen_slot)
                    )
                    if stolen_slot is not None:
                        self._ring.release(stolen_slot, worker_id)
        for worker_id in range(num_workers):
            while outstanding[worker_id]:
                drain_one(worker_id)
        return self._merge_results(results, len(chunk_arrays))

    def _merge_results(
        self,
        results: List[Dict[int, List[Match]]],
        num_chunks: int,
    ) -> List[List[Match]]:
        """One canonical merge per chunk, in stream order (a chunk no
        shard replied for merges as an empty list)."""
        return [
            self.collector.merge(
                [
                    self._drop_phantoms(results[w].get(seq, []))
                    for w in range(self.num_workers)
                ]
            )
            for seq in range(num_chunks)
        ]

    def _drop_phantoms(self, matches: List[Match]) -> List[Match]:
        """Suppress a backfilled query's live matches whose candidate
        started before its subscription barrier: the live engine
        evaluated those candidates with empty pre-barrier signatures,
        and the backfill replay emits the true versions as retro
        matches."""
        if self._backfill is None or not matches:
            return matches
        bounds = self._backfill.suppress_bounds()
        if not bounds:
            return matches
        return [
            match for match in matches
            if match.start_frame >= bounds.get(match.qid, 0)
        ]

    def flush(self) -> List[Match]:
        """Process the final partial window in every shard; merge it."""
        self._require_open()
        if self.frontend.flushed:
            # The front end is the one record of "stream over" (it is
            # what a checkpoint restores), so a repeated flush sends
            # nothing and re-seals nothing.
            return []
        self._deliver_gap()
        # The tail is sketched once, service side; it is small, so it
        # travels inline on any backend.
        tail = self.frontend.flush_tail()
        self._archive_tail(tail)
        message = ("flush", tail)
        for worker_id in range(self.num_workers):
            self._executor.send(
                worker_id, message, BackpressurePolicy.BLOCK
            )
        batches = []
        for worker_id in range(self.num_workers):
            batches.append(self._expect(worker_id, "flushed")[2])
        merged = self.collector.merge(
            [self._drop_phantoms(batch) for batch in batches]
        )
        if self._backfill is not None:
            # The stream is over: shadow windows a backfill job was
            # still waiting for will never arrive. Close every horizon
            # at the archived tail and run each job to its end, so no
            # call order can leave the tail window unprobed. The live
            # tail is merged first: a job the archive fails raises
            # ArchiveError here with the tail already collected.
            self._backfill.finalize()
        return merged

    def _archive_batch(self, batch) -> None:
        """Retain one ``WindowBatch``'s windows in the sketch archive."""
        block = batch.block
        if len(block):
            self._archive.append(
                block.indices, block.starts, block.frames, block.sketch_values
            )

    def _archive_tail(self, tail) -> None:
        """Retain the flush tail and seal the archive's open run (the
        stream is over; nothing further will extend it)."""
        if self._archive is None:
            return
        if tail is not None:
            self._archive.append(
                np.asarray([tail.index], dtype=np.int64),
                np.asarray([tail.start_frame], dtype=np.int64),
                np.asarray([tail.num_frames], dtype=np.int64),
                np.asarray(tail.sketch_values, dtype=np.int64)[
                    np.newaxis, :
                ],
            )
        self._archive.seal_open_run()

    @property
    def matches(self) -> List[Match]:
        """The full merged match stream collected so far."""
        return self.collector.matches

    @property
    def retro_matches(self) -> List[Match]:
        """Backfill's retrospective matches (empty without an archive)."""
        return list(self.collector.retro)

    def all_matches(self) -> List[Match]:
        """Live + retro matches in one canonically ordered stream."""
        return self.collector.combined()

    @property
    def family(self):
        """The min-hash family the subscribed queries were sketched
        under — new subscriptions (e.g. admitted over the gateway) must
        sketch against the same family."""
        return self._family

    # ------------------------------------------------------------------
    # query admission (subscription churn)
    # ------------------------------------------------------------------

    def shard_of(self, qid: int) -> int:
        """The worker currently detecting query ``qid``."""
        for worker_id, qids in enumerate(self._shard_qids):
            if qid in qids:
                return worker_id
        raise ServeError(f"query {qid} is not subscribed")

    def shard_sizes(self) -> List[int]:
        """Current per-worker query counts."""
        return [len(qids) for qids in self._shard_qids]

    def shard_loads(self) -> List[int]:
        """Current per-worker loads under the planning strategy."""
        weights = (
            {qid: 1 for qid in self._caps}
            if self.strategy == "count"
            else self._caps
        )
        return [
            sum(weights[qid] for qid in qids) for qids in self._shard_qids
        ]

    def degraded_shards(self) -> List[int]:
        """Quarantined shard ids (empty without supervision)."""
        if self._supervisor is None:
            return []
        return self._supervisor.quarantined_workers()

    @property
    def partial(self) -> bool:
        """True when at least one shard is quarantined — the merged
        match stream is then missing that shard's contribution."""
        return bool(self.degraded_shards())

    def list_queries(self) -> List[QueryInfo]:
        """Every subscribed query with its placement, in qid order.

        Queries on a quarantined shard are reported with status
        ``"degraded"`` — still subscribed, but their shard stopped
        contributing matches when its recovery budget ran out.
        """
        self._require_open()
        progress = self.backfill_progress()
        degraded = set(self.degraded_shards())
        return sorted(
            (
                QueryInfo(
                    qid=qid,
                    shard=worker_id,
                    cap_windows=self._caps[qid],
                    num_frames=self._queries[qid].num_frames,
                    label=self._queries[qid].label,
                    backfill_total=progress.get(qid, (0, 0, 0))[0],
                    backfill_done=progress.get(qid, (0, 0, 0))[1],
                    retro_matches=progress.get(qid, (0, 0, 0))[2],
                    status=(
                        "degraded" if worker_id in degraded else "active"
                    ),
                )
                for worker_id, qids in enumerate(self._shard_qids)
                for qid in qids
            ),
            key=lambda info: info.qid,
        )

    def subscribe(self, query: Query, backfill: int = 0) -> int:
        """Add a query mid-stream; returns the shard that received it.

        Placement goes through the :class:`ShardPlanner`'s online rule
        (least-loaded under the service's strategy, deterministic tie
        break). The op is delivered as one epoch-barrier ``lifecycle``
        broadcast: every worker — not just the target — acknowledges
        the same epoch and the recomputed global ``cap_hint`` before
        any further chunk is ingested, so candidate expiry stays
        globally consistent (the equivalence invariant) and the merged
        match stream stays deterministic.

        ``backfill=N`` additionally queues a retrospective probe of the
        last N archived windows (clamped to what the archive retains)
        through the :class:`~repro.archive.BackfillEngine`; its matches
        arrive tagged ``retro`` in :attr:`retro_matches`. Requires the
        service to have been built with an archive.
        """
        self._require_open()
        if backfill < 0:
            raise ServeError(f"backfill must be >= 0, got {backfill}")
        if backfill and self._backfill is None:
            raise ServeError(
                f"query {query.qid} requested backfill={backfill} but "
                "the service has no sketch archive"
            )
        if query.qid in self._queries:
            raise ServeError(f"query {query.qid} is already subscribed")
        if query.sketch.family != self._family.fingerprint:
            raise ServeError(
                f"query {query.qid} was sketched under a different hash "
                "family than this service's query set"
            )
        cap = query.max_candidate_windows(
            self.window_frames, self.config.tempo_scale
        )
        loads = self.shard_loads()
        degraded = self.degraded_shards()
        if degraded and len(degraded) < self.num_workers:
            # Steer new queries away from quarantined shards — they
            # would only ever be reported degraded there.
            penalty = sum(loads) + max(loads) + 1
            for worker_id in degraded:
                loads[worker_id] += penalty
        target = self._planner.place(loads)
        self._lifecycle(
            {target: (("subscribe", query),)},
            max(max(self._caps.values()), cap),
        )
        self._shard_qids[target].add(query.qid)
        self._queries[query.qid] = query
        self._caps[query.qid] = cap
        if backfill and self._backfill is not None:
            # live_start: every window below the stream clock was
            # processed live *without* this query (the lifecycle
            # barrier above ordered the subscribe after them), every
            # later one *with* it — retro and live partition cleanly.
            self._backfill.request(
                query, backfill, self._stream_windows(), self.cap_hint
            )
        self.registry.inc("serve.queries.subscribed")
        self._update_query_gauges()
        return target

    def unsubscribe(self, qid: int) -> None:
        """Drop a query mid-stream (epoch-barrier broadcast).

        The global ``cap_hint`` is recomputed over the surviving
        queries — it may shrink, exactly as a single detector's global
        horizon shrinks, so over-horizon candidates expire on the next
        window in every shard at once.
        """
        self._require_open()
        worker_id = self.shard_of(qid)
        if len(self._shard_qids[worker_id]) < 2:
            raise ServeError(
                f"cannot unsubscribe query {qid}: it is the last query "
                f"of shard {worker_id} (a worker cannot run empty; "
                "subscribe a replacement first)"
            )
        surviving = max(
            cap for other, cap in self._caps.items() if other != qid
        )
        self._lifecycle({worker_id: (("unsubscribe", qid),)}, surviving)
        self._shard_qids[worker_id].discard(qid)
        del self._queries[qid]
        del self._caps[qid]
        if self._backfill is not None:
            self._backfill.cancel(qid)
        self.registry.inc("serve.queries.unsubscribed")
        self._update_query_gauges()

    # ------------------------------------------------------------------
    # backfill control
    # ------------------------------------------------------------------

    def backfill_progress(self) -> Dict[int, Tuple[int, int, int]]:
        """qid → ``(total, done, retro_found)`` backfill windows."""
        if self._backfill is None:
            return {}
        return self._backfill.progress()

    def pump_backfill(self, max_windows: Optional[int] = None) -> int:
        """Probe up to ``max_windows`` archived windows (every window
        ready when ``None``) on the caller's thread; returns windows
        probed. Call it at a chunk barrier."""
        if self._backfill is None:
            return 0
        return self._backfill.pump(max_windows)

    def drain_backfill(self) -> bool:
        """Pump backfill as far as the archive allows; returns True
        when no job is left. A job still waiting for windows the
        stream has not reached stays queued; :meth:`flush` finishes
        it."""
        if self._backfill is None:
            return True
        return self._backfill.drain()

    def _lifecycle(
        self, ops_by_worker: Dict[int, Tuple], cap_hint: int
    ) -> None:
        """Commit one churn event as an epoch barrier on every worker.

        The message travels on the same channels as chunks, so each
        shard applies its ops (and the new cap hint) at the same
        basic-window boundary relative to the stream.
        """
        epoch = self.epoch + 1
        for worker_id in range(self.num_workers):
            message = (
                "lifecycle",
                epoch,
                ops_by_worker.get(worker_id, ()),
                cap_hint,
            )
            self._executor.send(
                worker_id, message, BackpressurePolicy.BLOCK
            )
        for worker_id in range(self.num_workers):
            self._expect(worker_id, "ok")
        self.epoch = epoch
        if cap_hint != self.cap_hint:
            self.registry.inc("serve.queries.cap_rebroadcasts")
        self.cap_hint = cap_hint

    def _update_query_gauges(self) -> None:
        self.registry.set_gauge("serve.queries.active", len(self._queries))
        self.registry.set_gauge("serve.queries.epoch", self.epoch)
        self.registry.set_gauge("serve.queries.cap_hint", self.cap_hint)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregated cross-worker metrics (``repro.obs/1`` + merge).

        Worker snapshots are merged under the replicated/additive
        counter semantics of :func:`repro.obs.merge.merge_snapshots`;
        the service's own ``serve.*`` metrics ride along (their names
        are unique, so they pass through). A ``serve`` section reports
        topology: backend, policy, shard membership, stream position.
        """
        self._require_open()
        snapshots = []
        for worker_id in range(self.num_workers):
            self._executor.send(
                worker_id, ("snapshot",), BackpressurePolicy.BLOCK
            )
        for worker_id in range(self.num_workers):
            snapshots.append(self._expect(worker_id, "snapshot")[2])
        snapshots.append(snapshot(self.registry))
        merged = merge_snapshots(snapshots)
        merged["serve"] = {
            "backend": self.backend,
            "policy": self.policy.value,
            "strategy": self.strategy,
            "num_workers": self.num_workers,
            "cap_hint": self.cap_hint,
            "epoch": self.epoch,
            "num_queries": len(self._queries),
            "chunks_ingested": self.chunks_ingested,
            "matches_collected": len(self.collector),
            "shards": [sorted(qids) for qids in self._shard_qids],
            "batch_chunks": self.batch_chunks,
            "transport": (
                "shm_ring" if self._ring is not None else "batch_inline"
            ),
            "supervised": self._supervisor is not None,
            "quarantined_shards": self.degraded_shards(),
            "shm_outstanding_refs": (
                self._ring.total_outstanding_refs()
                if self._ring is not None
                else 0
            ),
        }
        if self._archive is not None:
            lo, hi = self._archive.available()
            merged["archive"] = {
                "windows_retained": self._archive.windows_retained(),
                "ring_windows": self._archive.ring_windows,
                "bytes_on_disk": self._archive.bytes_on_disk(),
                "available_lo": lo,
                "next_index": hi,
                "segments": (
                    len(self._archive.store.segments)
                    if self._archive.store is not None
                    else 0
                ),
                "backfill": {
                    qid: {
                        "total": total,
                        "done": done,
                        "retro_matches": found,
                    }
                    for qid, (total, done, found)
                    in self.backfill_progress().items()
                },
            }
        return merged

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(
        self,
        target: Union[str, pathlib.Path, CheckpointManager],
    ) -> pathlib.Path:
        """Snapshot the whole service to disk (atomic write).

        ``target`` is a :class:`CheckpointManager` or a directory path
        for one. Must be called at a chunk barrier (any point between
        :meth:`run` calls); the snapshot records the stream position so
        the resuming caller knows where to re-feed from.
        """
        self._require_open()
        manager = (
            target
            if isinstance(target, CheckpointManager)
            else CheckpointManager(target)
        )
        self._deliver_gap()
        states: List[Dict[str, np.ndarray]] = []
        queries: List[QuerySet] = []
        for worker_id in range(self.num_workers):
            self._executor.send(
                worker_id, ("state",), BackpressurePolicy.BLOCK
            )
        for worker_id in range(self.num_workers):
            states.append(self._expect(worker_id, "state")[2])
            override = (
                self._supervisor.shard_queries_override(worker_id)
                if self._supervisor is not None
                else None
            )
            if override is not None:
                # A quarantined shard checkpoints its last good state,
                # which covers the queries *as of that snapshot* — not
                # whatever the control plane has since changed.
                queries.append(override)
                continue
            shard_qids = sorted(self._shard_qids[worker_id])
            queries.append(
                QuerySet(
                    [self._queries[qid] for qid in shard_qids], self._family
                )
            )
        pending, flushed, windows, frames, skip = self.frontend.state()
        archive_fields: Dict[str, object] = {}
        if self._archive is not None:
            # Backfill runs only between calls, so the jobs'
            # emitted_through watermarks match the retro matches here.
            (
                archive_next,
                ring_indices,
                ring_starts,
                ring_frames,
                ring_sketches,
            ) = self._archive.state()
            archive_fields = {
                "archive_next": archive_next,
                "archive_ring_indices": ring_indices,
                "archive_ring_starts": ring_starts,
                "archive_ring_frames": ring_frames,
                "archive_ring_sketches": ring_sketches,
                "backfill_jobs": self._backfill.checkpoint_rows(),
                "retro_matches": list(self.collector.retro),
            }
        return manager.save(
            ServiceCheckpoint(
                config=self.config,
                keyframes_per_second=self.keyframes_per_second,
                chunks_ingested=self.chunks_ingested,
                cap_hint=self.cap_hint,
                strategy=self.strategy,
                worker_queries=queries,
                worker_states=states,
                matches=list(self.collector.matches),
                frontend_pending=pending,
                frontend_flushed=flushed,
                frontend_windows=windows,
                frontend_frames=frames,
                frontend_skip=skip,
                epoch=self.epoch,
                **archive_fields,
            )
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release executor resources.

        Idempotent (a second close is a no-op) and dead-worker
        tolerant: a crashed child is skipped instead of turning
        shutdown into a deadlock or a traceback, and whatever
        shared-memory references it pinned are swept before the ring
        is unlinked.
        """
        if self._closed:
            return
        self._closed = True
        if self._archive is not None:
            # Graceful shutdown: make the unsealed ring durable (a
            # resumed service reconciles its checkpoint against disk).
            try:
                self._archive.seal_open_run()
            except Exception:
                pass
        if self._supervisor is not None:
            self._supervisor.begin_shutdown()
        # A bare process executor's put raises on a dead worker with a
        # full inbox, or past the timeout, instead of hanging shutdown;
        # a supervisor synthesizes delivery for a dead shard, and the
        # serial executor never waits.
        bound = (
            {"timeout": _CLOSE_TIMEOUT_SECONDS}
            if isinstance(self._executor, ProcessExecutor)
            else {}
        )
        for worker_id in range(self.num_workers):
            try:
                self._executor.send(
                    worker_id, ("stop",), BackpressurePolicy.BLOCK, **bound
                )
            except Exception:
                continue
        for worker_id in range(self.num_workers):
            try:
                reply = self._executor.recv(
                    worker_id, timeout=_CLOSE_TIMEOUT_SECONDS
                )
                while reply[0] != "stopped":
                    reply = self._executor.recv(
                        worker_id, timeout=_CLOSE_TIMEOUT_SECONDS
                    )
            except Exception:
                continue
        self._executor.join()
        if self._ring is not None:
            swept = self._ring.sweep_all()
            if swept:
                self.registry.inc("serve.transport.shm_swept", swept)
            self._ring.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
