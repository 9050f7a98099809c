"""``encoded_ingest``: toy-MPEG chunks under light faults, one session.

Closed loop, one stream: a pool of pre-encoded 2-second chunks is
cycled with fresh sequence numbers through a ``FaultInjector`` (``light``
preset: one chunk in ten gets a flipped bit), and every delivered chunk
goes through one ``StreamSession.process_chunk`` call (``zero_fill``),
then ``finish()``. The eight queries are runs of three pool chunks, so
every cycle of the pool replays each query once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.codec.gop import EncodedVideo
from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    FAULT_PRESETS, DegradationPolicy, EncodedChunkSource, FaultInjector,
    ResilientDecoder, StreamChunk, StreamSession, SyntheticSource,
)
from repro.minhash.family import MinHashFamily

from benchmarks.ledger import spec
from benchmarks.ledger.common import PassResult, match_key, peak_rss_kb

NAME = "encoded_ingest"
NUM_QUERIES = 8
QUERY_CHUNKS = 3
CHUNK_SECONDS = 2.0
WINDOW_SECONDS = 2.0
THRESHOLD = 0.7
FILL_CELL_ID = 0


@dataclass
class Inputs:
    seed: int
    config: DetectorConfig
    family: MinHashFamily
    keyframes_per_second: float
    cells: Dict[int, np.ndarray]
    #: the chunks as delivered, faults already applied.
    chunks: List[StreamChunk]


def make_inputs(seed: int, seconds: float, scale: spec.Scale) -> Inputs:
    pool_size = scale.encoded_pool_chunks
    synthetic = SyntheticSource(
        0, seed, pool_size, chunk_seconds=CHUNK_SECONDS
    )
    pool: List[EncodedVideo] = [
        synthetic.encode_chunk(index) for index in range(pool_size)
    ]
    extractor = FingerprintExtractor()
    pool_cells = [extractor.cell_ids_from_encoded(video) for video in pool]
    stride = max(1, pool_size // NUM_QUERIES)
    cells = {
        qid: np.concatenate([
            pool_cells[(qid * stride + step) % pool_size]
            for step in range(QUERY_CHUNKS)
        ])
        for qid in range(NUM_QUERIES)
    }
    keyframes_per_chunk = pool[0].num_keyframes
    num_chunks = max(
        2 * pool_size,
        round(seconds * spec.ENCODED_KEYFRAMES_PER_SECOND
              / keyframes_per_chunk),
    )
    source = EncodedChunkSource(
        0, [pool[index % pool_size] for index in range(num_chunks)]
    )
    chunks = list(FaultInjector(source, FAULT_PRESETS["light"], seed=seed))
    return Inputs(
        seed=seed,
        config=DetectorConfig(
            num_hashes=spec.NUM_HASHES,
            threshold=THRESHOLD,
            window_seconds=WINDOW_SECONDS,
        ),
        family=MinHashFamily(num_hashes=spec.NUM_HASHES, seed=seed),
        keyframes_per_second=synthetic.keyframes_per_second,
        cells=cells,
        chunks=chunks,
    )


def size(inputs: Inputs) -> int:
    return len(inputs.chunks)


def build_queries(inputs: Inputs) -> QuerySet:
    return QuerySet.from_cell_ids(
        inputs.cells,
        {qid: int(ids.shape[0]) for qid, ids in inputs.cells.items()},
        inputs.family,
    )


def _window_frames(inputs: Inputs) -> int:
    return max(1, round(WINDOW_SECONDS * inputs.keyframes_per_second))


def run_pass(
    inputs: Inputs,
    limit: Optional[int] = None,
    trace_dir: Optional[Path] = None,
) -> PassResult:
    chunks = inputs.chunks[:limit]
    clock = time.perf_counter
    started = clock()
    session = StreamSession(
        0, inputs.config, build_queries(inputs),
        inputs.keyframes_per_second,
        extractor=FingerprintExtractor(),
        policy=DegradationPolicy.ZERO_FILL,
        fill_cell_id=FILL_CELL_ID,
    )
    setup_s = clock() - started
    latencies: List[float] = []
    matches = []
    begin = clock()
    progress = [(begin, 0)]
    for chunk in chunks:
        t0 = clock()
        matches.extend(session.process_chunk(chunk))
        t1 = clock()
        latencies.append(1e3 * (t1 - t0))
        progress.append((t1, progress[-1][1] + chunk.expected_keyframes))
    matches.extend(session.finish())
    progress[-1] = (clock(), progress[-1][1])
    rss = peak_rss_kb()

    count = session.registry.counter
    expected = sum(chunk.expected_keyframes for chunk in chunks)
    # The ingest reconciliation identities: every offered key frame is
    # either decoded or filled, and every chunk was processed once.
    broken = [
        name for name, holds in (
            ("frames_expected == offered",
             count("ingest.frames_expected") == expected),
            ("expected == decoded + damaged",
             count("ingest.frames_expected")
             == count("ingest.frames_decoded")
             + count("ingest.frames_damaged")),
            ("filled == damaged",
             count("ingest.frames_filled")
             == count("ingest.frames_damaged")),
            ("chunks_processed == delivered",
             count("ingest.chunks_processed") == len(chunks)),
        ) if not holds
    ]
    return PassResult(
        setup_samples=[setup_s],
        frames=expected,
        windows=-(-expected // _window_frames(inputs)),
        timed=(begin, progress[-1][0]),
        progress=progress,
        latencies_ms=latencies,
        matches=[match_key(match) for match in matches],
        ops_attempted=len(chunks),
        ops_failed=len(chunks) if broken else 0,
        peak_rss_kb=rss,
        snapshot={
            "counters": dict(session.registry.counters()),
            "timers": {
                name: {"calls": timer.calls, "seconds": timer.seconds}
                for name, timer in session.registry.timers()
            },
        },
        extra={
            "codec.bytes_per_keyframe": (
                sum(chunk.payload.size_bytes for chunk in chunks)
                / expected
            ),
        },
        notes={
            "identities_broken": broken,
            "frames_damaged": count("ingest.frames_damaged"),
        },
        chunks=len(chunks),
        batches=len(chunks),
    )


def reference(inputs: Inputs) -> PassResult:
    """The same faulted chunks decoded by the harness and fed, zero
    filled, to a single-process detector. Only the detector is timed."""
    decoder = ResilientDecoder(FingerprintExtractor())
    detector = StreamingDetector(
        inputs.config, build_queries(inputs), inputs.keyframes_per_second
    )
    monitor = LiveMonitor(detector)
    matches = []
    detect_s = 0.0
    frames = 0
    for chunk in inputs.chunks:
        decoded = decoder.decode_chunk(chunk)
        ids = np.full(
            decoded.expected_keyframes, FILL_CELL_ID, dtype=np.int64
        )
        for start, segment in decoded.segments:
            ids[start : start + segment.shape[0]] = segment
        frames += ids.shape[0]
        t0 = time.perf_counter()
        matches.extend(monitor.push_cell_ids(ids))
        detect_s += time.perf_counter() - t0
    t0 = time.perf_counter()
    matches.extend(monitor.flush())
    detect_s += time.perf_counter() - t0
    return PassResult(
        frames=frames,
        timed=(0.0, detect_s),
        matches=[match_key(match) for match in matches],
    )
