"""Sharded multi-worker serving of the streaming copy detector.

The single-process :class:`~repro.core.detector.StreamingDetector`
scales with the number of subscribed queries; this package scales it
*out*: the query set is partitioned into balanced shards
(:mod:`~repro.serve.planner`), the stream is cut into basic windows
and sketched once (:mod:`~repro.serve.frontend` — the tree's one window
clock, gaps from lossy ingest included), each shard runs a
detector in its own worker (serial or process backend) fed the
same window batches over bounded queues (:mod:`~repro.serve.queues`),
and the per-shard match streams merge back into the single-process
engine's canonical order (:mod:`~repro.serve.collector`). The merged
output under the blocking backpressure policy is bit-for-bit the
single-process detector's — same matches, same order, and per-shard
counters that sum (or replicate, for stream-scoped ones) to the serial
values.

:class:`~repro.serve.service.DetectionService` is the façade;
:class:`~repro.serve.checkpoint.CheckpointManager` snapshots a running
service to one atomic ``.npz`` and restores it mid-stream with zero
match loss. ``repro serve`` exposes the whole stack on the command
line. See ``docs/serving.md`` for the architecture.
"""

from repro.errors import WorkerDeadError, WorkerStallError
from repro.serve.chaos import ChaosEvent, ChaosPlan
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointManager,
    ServiceCheckpoint,
)
from repro.serve.collector import MatchCollector, canonical_sort_key
from repro.serve.frontend import StreamFrontend, TailWindow, WindowBatch
from repro.serve.planner import ShardPlan, ShardPlanner
from repro.serve.queues import (
    BackpressurePolicy,
    BoundedChannel,
    PutOutcome,
    put_with_policy,
    queue_depth,
)
from repro.serve.service import BACKENDS, DetectionService, QueryInfo
from repro.serve.shm import (
    BatchDescriptor,
    ShmBatchReader,
    ShmBatchRing,
    shm_available,
)
from repro.serve.state import restore_worker_state, worker_state
from repro.serve.supervisor import ShardSupervisor, SupervisorConfig
from repro.serve.workers import ShardWorker, WorkerSpec

__all__ = [
    "BACKENDS",
    "BackpressurePolicy",
    "BatchDescriptor",
    "BoundedChannel",
    "CHECKPOINT_FORMAT",
    "ChaosEvent",
    "ChaosPlan",
    "CheckpointManager",
    "DetectionService",
    "MatchCollector",
    "PutOutcome",
    "QueryInfo",
    "ServiceCheckpoint",
    "ShardPlan",
    "ShardPlanner",
    "ShardSupervisor",
    "ShardWorker",
    "ShmBatchReader",
    "ShmBatchRing",
    "StreamFrontend",
    "SupervisorConfig",
    "TailWindow",
    "WindowBatch",
    "WorkerDeadError",
    "WorkerSpec",
    "WorkerStallError",
    "canonical_sort_key",
    "put_with_policy",
    "queue_depth",
    "restore_worker_state",
    "shm_available",
    "worker_state",
]
