"""``sharded_churn``: 256 queries on two process shards, with churn.

Closed loop, one caller: one ``run(group, flush=False)`` per 4-chunk
group (one ``WindowBatch`` through the shm ring per call). Every tenth
call is preceded by ``unsubscribe(oldest)`` + ``subscribe(new,
backfill=64)``; ``checkpoint(dir)`` runs at one third, two thirds and
the end; backfill is pumped synchronously after each call, so the
replay is timed on its own and never races the stream. The reference is
the same schedule on ``backend="serial", num_workers=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.archive import SketchArchive
from repro.config import DetectorConfig
from repro.core.query import Query, QuerySet
from repro.minhash.family import MinHashFamily
from repro.obs.registry import MetricsRegistry
from repro.serve import CheckpointManager, DetectionService

from benchmarks.ledger import spec
from benchmarks.ledger.common import (
    PassResult, match_key, peak_rss_kb, percentile, work_dir,
)
from benchmarks.ledger.fanin import (
    CELL_ID_SPACE, CHUNK_FRAMES, WINDOW_FRAMES, chunked, detector_config,
    random_queries,
)

NAME = "sharded_churn"
GROUP_CHUNKS = 4
CHURN_EVERY_CALLS = 10
BACKFILL_WINDOWS = 64
#: 8 calls per sealed segment: sealing (an npz write) then lands in one
#: call in eight, clear of both the p50 and the p95 of the call times.
SEGMENT_WINDOWS = 256
COPY_EVERY_FRAMES = 3200

GROUP_FRAMES = GROUP_CHUNKS * CHUNK_FRAMES


@dataclass
class Inputs:
    seed: int
    config: DetectorConfig
    family: MinHashFamily
    resident: Dict[int, np.ndarray]
    #: queries subscribed mid-stream, in subscription order.
    arrivals: Dict[int, np.ndarray]
    groups: List[List[np.ndarray]]


def make_inputs(seed: int, seconds: float, scale: spec.Scale) -> Inputs:
    rng = np.random.default_rng([seed, 4])
    num_groups = max(
        3 * CHURN_EVERY_CALLS,
        round(seconds * spec.CHURN_FRAMES_PER_SECOND / GROUP_FRAMES),
    )
    resident = random_queries(rng, scale.churn_queries)
    arrivals = random_queries(
        rng, num_groups // CHURN_EVERY_CALLS, first_qid=scale.churn_queries
    )
    stream = rng.integers(0, CELL_ID_SPACE, size=num_groups * GROUP_FRAMES)

    def plant(copy: np.ndarray, at: int) -> None:
        at = max(0, min(at, stream.shape[0] - copy.shape[0]))
        stream[at : at + copy.shape[0]] = copy

    for _ in range(max(1, stream.shape[0] // COPY_EVERY_FRAMES)):
        copy = resident[int(rng.integers(0, scale.churn_queries))]
        plant(copy, int(rng.integers(0, stream.shape[0])))
    for position, copy in enumerate(arrivals.values()):
        # One copy just before the query subscribes (only the backfill
        # replay can find it) and one a few calls after (found live).
        barrier = (
            (position + 1) * CHURN_EVERY_CALLS - 1
        ) * GROUP_FRAMES
        plant(copy, barrier - 10 * WINDOW_FRAMES - copy.shape[0])
        plant(copy, barrier + 3 * GROUP_FRAMES)
    chunks = chunked(stream, CHUNK_FRAMES)
    return Inputs(
        seed=seed,
        config=detector_config(),
        family=MinHashFamily(num_hashes=spec.NUM_HASHES, seed=seed),
        resident=resident,
        arrivals=arrivals,
        groups=[
            chunks[offset : offset + GROUP_CHUNKS]
            for offset in range(0, len(chunks), GROUP_CHUNKS)
        ],
    )


def size(inputs: Inputs) -> int:
    return len(inputs.groups)


def _query(inputs: Inputs, qid: int) -> Query:
    cells = inputs.arrivals[qid]
    distinct = np.unique(np.asarray(cells, dtype=np.int64))
    return Query(
        qid=qid, cell_ids=distinct, num_frames=int(cells.shape[0]),
        sketch=inputs.family.sketch(distinct),
    )


def run_pass(
    inputs: Inputs,
    limit: Optional[int] = None,
    trace_dir: Optional[Path] = None,
    backend: str = "process",
    num_workers: int = 2,
) -> PassResult:
    groups = inputs.groups[:limit]
    with work_dir(NAME) as scratch:
        return _run(
            inputs, groups, scratch, backend, num_workers,
            traced=trace_dir is not None,
        )


def _run(
    inputs, groups, scratch: Path, backend, num_workers, traced
) -> PassResult:
    clock = time.perf_counter
    started = clock()
    queries = QuerySet.from_cell_ids(
        inputs.resident,
        {qid: int(ids.shape[0]) for qid, ids in inputs.resident.items()},
        inputs.family,
    )
    registry = MetricsRegistry()
    archive = SketchArchive(
        inputs.family.fingerprint, spec.NUM_HASHES,
        directory=scratch / "archive", segment_windows=SEGMENT_WINDOWS,
        registry=registry,
    )
    service = DetectionService(
        inputs.config, queries, spec.KEYFRAMES_PER_SECOND,
        num_workers=num_workers, backend=backend, registry=registry,
        archive=archive, backfill_async=False,
    )
    setup_s = clock() - started

    checkpoint_after = {
        len(groups) // 3 - 1, 2 * len(groups) // 3 - 1, len(groups) - 1
    }
    arrivals = iter(inputs.arrivals)
    departures = iter(sorted(inputs.resident))
    steady_ms: List[float] = []
    churn_ms: List[float] = []
    checkpoint_s: List[float] = []
    backfill_s = 0.0
    backfill_windows = 0
    churn_ops = 0
    matches = []
    checkpoint_path = None
    try:
        begin = clock()
        progress = [(begin, 0)]
        group_frames = [
            sum(chunk.shape[0] for chunk in group) for group in groups
        ]
        for index, group in enumerate(groups):
            t0 = clock()
            if index % CHURN_EVERY_CALLS == CHURN_EVERY_CALLS - 1:
                service.unsubscribe(next(departures))
                service.subscribe(
                    _query(inputs, next(arrivals)),
                    backfill=BACKFILL_WINDOWS,
                )
                churn_ops += 2
                matches.extend(service.run(group, flush=False))
                churn_ms.append(1e3 * (clock() - t0))
            else:
                matches.extend(service.run(group, flush=False))
                steady_ms.append(1e3 * (clock() - t0))
            t0 = clock()
            backfill_windows += service.pump_backfill()
            backfill_s += clock() - t0
            if index in checkpoint_after:
                t0 = clock()
                checkpoint_path = service.checkpoint(scratch / "ckpt")
                checkpoint_s.append(clock() - t0)
            progress.append((clock(), progress[-1][1] + group_frames[index]))
        t0 = clock()
        if not service.drain_backfill():
            raise RuntimeError("backfill did not drain")
        backfill_s += clock() - t0
        matches.extend(service.flush())
        progress[-1] = (clock(), progress[-1][1])
        rss = peak_rss_kb()
        snapshot = service.metrics_snapshot()
        retro = [match_key(match) for match in service.retro_matches]
        backfill = service.backfill_progress()
        bytes_on_disk = archive.bytes_on_disk()
    finally:
        service.close()
    if traced:
        # Restores are not on the measured path; a traced pass loads the
        # last snapshot once so the ledger has a load figure beside save.
        CheckpointManager(scratch / "ckpt").load(
            checkpoint_path, expected_config=inputs.config
        )

    frames = sum(group_frames)
    extra = {
        "serve.checkpoint.call_s": percentile(checkpoint_s, 50.0),
        "serve.checkpoint.bytes": float(checkpoint_path.stat().st_size),
        "archive.bytes_on_disk": float(bytes_on_disk),
    }
    if churn_ms:
        extra["serve.churn_call_ms_p50"] = percentile(churn_ms, 50.0)
    if backfill_windows:
        extra["archive.backfill_windows_per_s"] = (
            backfill_windows / backfill_s
        )
    unfinished = [
        qid for qid, (total, done, _) in backfill.items() if done < total
    ]
    return PassResult(
        setup_samples=[setup_s],
        frames=frames,
        windows=-(-frames // WINDOW_FRAMES),
        timed=(begin, progress[-1][0]),
        progress=progress,
        latencies_ms=steady_ms,
        matches=[match_key(match) for match in matches],
        retro=retro,
        ops_attempted=sum(len(group) for group in groups) + churn_ops,
        ops_failed=len(unfinished),
        peak_rss_kb=rss,
        snapshot=snapshot,
        extra=extra,
        notes={
            "churn_ops": churn_ops,
            "checkpoints": len(checkpoint_s),
            "backfill_windows": backfill_windows,
            "retro_matches": len(retro),
            "last_checkpoint": str(checkpoint_path),
        },
        chunks=sum(len(group) for group in groups),
        batches=len(groups),
    )


def reference(inputs: Inputs) -> PassResult:
    return run_pass(inputs, backend="serial", num_workers=1)
