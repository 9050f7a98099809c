"""``fanin_queries``: 1024 queries on one serial in-process shard.

Closed loop, one caller: one ``run([chunk], flush=False)`` per 8-window
chunk, then ``flush()``. One chunk per call rather than a 4-chunk group,
so a run of a few seconds still yields 200 call samples for the p95.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.minhash.family import MinHashFamily
from repro.serve import DetectionService

from benchmarks.ledger import spec
from benchmarks.ledger.common import PassResult, match_key, peak_rss_kb

NAME = "fanin_queries"
WINDOW_SECONDS = 5.0
THRESHOLD = 0.7
TEMPO_SCALE = 2.0
CELL_ID_SPACE = 40_960  # 2 d u^d with d=5, u=4
QUERY_SECONDS = (40.0, 60.0)
CHUNK_WINDOWS = 8
#: one planted copy per this many stream frames.
COPY_EVERY_FRAMES = 1600

WINDOW_FRAMES = round(WINDOW_SECONDS * spec.KEYFRAMES_PER_SECOND)
CHUNK_FRAMES = CHUNK_WINDOWS * WINDOW_FRAMES


def detector_config() -> DetectorConfig:
    return DetectorConfig(
        num_hashes=spec.NUM_HASHES,
        threshold=THRESHOLD,
        window_seconds=WINDOW_SECONDS,
        tempo_scale=TEMPO_SCALE,
    )


def random_queries(rng: np.random.Generator, count: int, first_qid: int = 0):
    """``count`` queries of 40-60 s of uniformly random cell ids."""
    lo = int(QUERY_SECONDS[0] * spec.KEYFRAMES_PER_SECOND)
    hi = int(QUERY_SECONDS[1] * spec.KEYFRAMES_PER_SECOND)
    cells: Dict[int, np.ndarray] = {}
    for qid in range(first_qid, first_qid + count):
        cells[qid] = rng.integers(
            0, CELL_ID_SPACE, size=int(rng.integers(lo, hi + 1))
        )
    return cells


def chunked(stream: np.ndarray, chunk_frames: int) -> List[np.ndarray]:
    return [
        stream[offset : offset + chunk_frames]
        for offset in range(0, stream.shape[0], chunk_frames)
    ]


@dataclass
class Inputs:
    seed: int
    config: DetectorConfig
    family: MinHashFamily
    cells: Dict[int, np.ndarray]
    chunks: List[np.ndarray]


def make_inputs(seed: int, seconds: float, scale: spec.Scale) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    cells = random_queries(rng, scale.fanin_queries)
    num_chunks = max(
        8, round(seconds * spec.FANIN_FRAMES_PER_SECOND / CHUNK_FRAMES)
    )
    stream = rng.integers(0, CELL_ID_SPACE, size=num_chunks * CHUNK_FRAMES)
    for _ in range(max(1, stream.shape[0] // COPY_EVERY_FRAMES)):
        copy = cells[int(rng.integers(0, scale.fanin_queries))]
        at = int(rng.integers(0, stream.shape[0] - copy.shape[0]))
        stream[at : at + copy.shape[0]] = copy
    return Inputs(
        seed=seed,
        config=detector_config(),
        family=MinHashFamily(num_hashes=spec.NUM_HASHES, seed=seed),
        cells=cells,
        chunks=chunked(stream, CHUNK_FRAMES),
    )


def size(inputs: Inputs) -> int:
    """How many calls a full pass makes (``run_pass``'s ``limit`` unit)."""
    return len(inputs.chunks)


def build_queries(inputs: Inputs) -> QuerySet:
    return QuerySet.from_cell_ids(
        inputs.cells,
        {qid: int(ids.shape[0]) for qid, ids in inputs.cells.items()},
        inputs.family,
    )


def run_pass(
    inputs: Inputs,
    limit: Optional[int] = None,
    trace_dir: Optional[Path] = None,
) -> PassResult:
    chunks = inputs.chunks[:limit]
    started = time.perf_counter()
    service = DetectionService(
        inputs.config, build_queries(inputs), spec.KEYFRAMES_PER_SECOND,
        num_workers=1, backend="serial",
    )
    setup_s = time.perf_counter() - started
    latencies: List[float] = []
    matches = []
    try:
        clock = time.perf_counter
        begin = clock()
        progress = [(begin, 0)]
        for chunk in chunks:
            t0 = clock()
            matches.extend(service.run([chunk], flush=False))
            t1 = clock()
            latencies.append(1e3 * (t1 - t0))
            progress.append((t1, progress[-1][1] + chunk.shape[0]))
        matches.extend(service.flush())
        progress[-1] = (clock(), progress[-1][1])
        rss = peak_rss_kb()
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
    frames = sum(chunk.shape[0] for chunk in chunks)
    return PassResult(
        setup_samples=[setup_s],
        frames=frames,
        windows=-(-frames // WINDOW_FRAMES),
        timed=(begin, progress[-1][0]),
        progress=progress,
        latencies_ms=latencies,
        matches=[match_key(match) for match in matches],
        ops_attempted=len(chunks),
        peak_rss_kb=rss,
        snapshot=snapshot,
        chunks=len(chunks),
        batches=len(chunks),
    )


def cell_id_reference(config, queries, chunks) -> PassResult:
    """Single-process ``StreamingDetector`` + ``LiveMonitor`` over
    cell-id chunks: the correctness reference and the baseline rate."""
    detector = StreamingDetector(config, queries, spec.KEYFRAMES_PER_SECOND)
    monitor = LiveMonitor(detector)
    matches = []
    begin = time.perf_counter()
    for chunk in chunks:
        matches.extend(monitor.push_cell_ids(chunk))
    matches.extend(monitor.flush())
    elapsed = time.perf_counter() - begin
    frames = sum(chunk.shape[0] for chunk in chunks)
    return PassResult(
        frames=frames,
        timed=(begin, begin + elapsed),
        matches=[match_key(match) for match in matches],
    )


def reference(inputs: Inputs) -> PassResult:
    return cell_id_reference(
        inputs.config, build_queries(inputs), inputs.chunks
    )
