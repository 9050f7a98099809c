"""Scheduler equivalence and chaos-survival tests.

The acceptance bar for the ingestion layer:

* a clean N-stream scheduler run is bit-for-bit identical, per stream
  and including order, to N independent single-stream runs — for both
  scheduling policies and with a real detector pool;
* under single-bit corruption, every intact GOP after resync is still
  decoded and matched at its true stream position;
* under aggressive fault injection no exception reaches the scheduler
  loop, and the frame accounting reconciles exactly with what the
  sources offered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.errors import IngestError
from repro.features.pipeline import FingerprintExtractor
from repro.ingest import (
    CellIdSource,
    DegradationPolicy,
    EncodedChunkSource,
    FAULT_PRESETS,
    FaultInjector,
    SchedulingPolicy,
    StreamScheduler,
    StreamSession,
    SyntheticSource,
)
from repro.minhash.family import MinHashFamily
from repro.serve.checkpoint import CheckpointManager
from repro.utils.rng import derive_seed

CELL_SPACE = 500
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames


def _match_key(match):
    return (
        match.qid,
        match.window_index,
        match.start_frame,
        match.end_frame,
        match.similarity,
    )


def _query_set(queries, frames, family_seed):
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    return QuerySet.from_cell_ids(queries, frames, family)


def _single_stream_matches(config, queries, frames, family_seed, chunks):
    detector = StreamingDetector(
        config, _query_set(queries, frames, family_seed),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    matches = []
    for chunk in chunks:
        matches.extend(monitor.push_cell_ids(chunk))
    matches.extend(monitor.flush())
    return matches


@st.composite
def fleets(draw):
    """N cell-id streams with occasional planted query copies."""
    family_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_queries = draw(st.integers(2, 4))
    queries = {}
    frames = {}
    for qid in range(num_queries):
        n = draw(st.integers(8, 30))
        queries[qid] = rng.integers(0, CELL_SPACE, size=n)
        frames[qid] = n
    threshold = draw(st.sampled_from([0.05, 0.3, 0.6, 0.9]))
    num_streams = draw(st.integers(1, 3))
    streams = []
    for _ in range(num_streams):
        num_chunks = draw(st.integers(1, 4))
        chunks = []
        for _ in range(num_chunks):
            length = draw(st.integers(3, 30))
            chunk = rng.integers(0, CELL_SPACE, size=length)
            if draw(st.booleans()):
                victim = draw(st.sampled_from(sorted(queries)))
                copy = np.asarray(queries[victim])[:length]
                at = draw(st.integers(0, length - copy.size))
                chunk[at : at + copy.size] = copy
            chunks.append(chunk)
        streams.append(chunks)
    return family_seed, queries, frames, threshold, streams


def _build_scheduler(config, queries, frames, family_seed, streams,
                     policy, pool_size):
    pairs = []
    for stream_id, chunks in enumerate(streams):
        session = StreamSession(
            stream_id, config,
            _query_set(queries, frames, family_seed),
            KEYFRAMES_PER_SECOND,
        )
        pairs.append((CellIdSource(stream_id, chunks), session))
    return StreamScheduler(
        pairs, policy=policy, pool_size=pool_size, queue_capacity=2
    )


@pytest.mark.parametrize(
    "policy,pool_size",
    [
        (SchedulingPolicy.ROUND_ROBIN, 0),
        (SchedulingPolicy.ROUND_ROBIN, 2),
        (SchedulingPolicy.DEFICIT, 0),
        (SchedulingPolicy.DEFICIT, 2),
    ],
    ids=["rr-inline", "rr-pool", "drr-inline", "drr-pool"],
)
@settings(max_examples=10, deadline=None)
@given(fleet=fleets())
def test_scheduler_equals_independent_runs(policy, pool_size, fleet):
    """Multiplexing is transparent: per-stream output is bit-for-bit the
    single-stream detector's, including order."""
    family_seed, queries, frames, threshold, streams = fleet
    config = DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
    )
    scheduler = _build_scheduler(
        config, queries, frames, family_seed, streams, policy, pool_size
    )
    by_stream = scheduler.run()
    for stream_id, chunks in enumerate(streams):
        expected = _single_stream_matches(
            config, queries, frames, family_seed, chunks
        )
        assert [_match_key(m) for m in by_stream[stream_id]] == [
            _match_key(m) for m in expected
        ], f"stream {stream_id} diverged"
    recon = scheduler.reconciliation()
    assert recon["unprocessed"] == 0
    assert recon["frames_offered"] == sum(
        sum(len(c) for c in chunks) for chunks in streams
    )


def _encoded_stream(stream_id, seed, num_chunks, copy_chunk, query_clip):
    source = SyntheticSource(
        stream_id, seed, num_chunks, copies={copy_chunk: query_clip}
    )
    return [source.encode_chunk(index) for index in range(num_chunks)]


def _corrupt_keyframe_bit(encoded, keyframe_index):
    """Flip ONE bit in the type byte of the given I record, making it an
    invalid frame type (structural single-bit corruption)."""
    import dataclasses

    from repro.codec.bitstream import BitstreamReader
    from repro.codec.gop import _read_header, walk_dc_record

    reader = BitstreamReader(encoded.data)
    width, height, block_size, _q, _g, _n, _fps, entropy = _read_header(
        reader, len(encoded.data)
    )
    num_blocks = (-(-width // block_size)) * (-(-height // block_size))
    seen = 0
    for _ in range(encoded.num_frames):
        position = reader.position
        frame_type, _levels = walk_dc_record(reader, num_blocks, entropy)
        if frame_type == b"I":
            if seen == keyframe_index:
                data = bytearray(encoded.data)
                # Bit 1: b'I' (0x49) becomes 0x4B, an invalid frame
                # type (bit 2 would yield b'M', which still parses).
                data[position] ^= 0x02
                return dataclasses.replace(encoded, data=bytes(data))
            seen += 1
    raise AssertionError("keyframe not found")


def test_single_bit_corruption_intact_gops_still_match():
    """One flipped bit destroys one GOP; the planted copy in a later,
    intact chunk is still detected at its true stream position."""
    extractor = FingerprintExtractor()
    seed = 314
    from repro.ingest import INGEST_FORMAT
    from repro.video.synth import ClipSynthesizer, SynthesisConfig

    synth = ClipSynthesizer(
        SynthesisConfig(video_format=INGEST_FORMAT),
        seed=derive_seed(seed, "query"),
    )
    query_clip = synth.generate_clip(2.0, "query")
    chunks = _encoded_stream(0, seed, 5, copy_chunk=3,
                             query_clip=query_clip)
    query_ids = extractor.cell_ids_from_encoded(chunks[3])
    family = MinHashFamily(num_hashes=64, seed=0)
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family
    )
    config = DetectorConfig(
        num_hashes=64, threshold=0.6, window_seconds=2.0
    )

    def run(payloads):
        session = StreamSession(
            0, config, queries, KEYFRAMES_PER_SECOND,
            extractor=extractor,
            policy=DegradationPolicy.SKIP_WINDOW,
            chunk_keyframes_hint=4,
        )
        scheduler = StreamScheduler(
            [(EncodedChunkSource(0, payloads), session)]
        )
        return scheduler.run()[0], session

    clean_matches, _clean = run(chunks)
    damaged = list(chunks)
    damaged[1] = _corrupt_keyframe_bit(chunks[1], 1)  # kill chunk 1 GOP 1
    damaged_matches, session = run(damaged)

    assert session.registry.counter("ingest.decode_errors") >= 1
    assert session.registry.counter("ingest.frames_damaged") >= 1
    # The copy lives in chunk 3 (frames 12..15): every clean-run match
    # there must survive the corruption with identical coordinates.
    clean_keys = {_match_key(m) for m in clean_matches}
    damaged_keys = {_match_key(m) for m in damaged_matches}
    copy_matches = {k for k in clean_keys if k[2] >= 12}
    assert copy_matches  # the planted copy was detected at all
    assert copy_matches <= damaged_keys


@pytest.mark.parametrize(
    "policy", [SchedulingPolicy.ROUND_ROBIN, SchedulingPolicy.DEFICIT]
)
def test_chaos_survival_and_reconciliation(policy):
    """Heavy faults, four streams: zero unhandled exceptions, exact
    frame accounting, populated nested metrics."""
    extractor = FingerprintExtractor()
    seed = 99
    config = DetectorConfig(
        num_hashes=32, threshold=0.7, window_seconds=2.0
    )
    family = MinHashFamily(num_hashes=32, seed=0)
    reference = SyntheticSource(0, seed, 1)
    query_ids = extractor.cell_ids_from_encoded(reference.encode_chunk(0))
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family
    )
    pairs = []
    for stream_id in range(4):
        source = SyntheticSource(stream_id, seed, 6)
        injector = FaultInjector(
            source, FAULT_PRESETS["heavy"],
            seed=derive_seed(seed, f"faults-{stream_id}"),
        )
        session = StreamSession(
            stream_id, config, queries, KEYFRAMES_PER_SECOND,
            extractor=extractor,
            policy=DegradationPolicy.SKIP_WINDOW,
            chunk_keyframes_hint=4,
        )
        pairs.append((injector, session))
    scheduler = StreamScheduler(
        pairs, policy=policy, pool_size=2, queue_capacity=2
    )
    scheduler.run()  # must not raise

    recon = scheduler.reconciliation()
    assert recon["unprocessed"] == 0
    assert recon["frames_offered"] == 4 * 6 * 4
    assert recon["frames_offered"] == (
        recon["frames_expected"] + recon["frames_dropped_in_flight"]
    )
    assert recon["frames_expected"] == (
        recon["frames_decoded"] + recon["frames_damaged"]
    )
    # Every dropped chunk was noticed as a sequence gap (trailing drops
    # excepted — they leave no gap to observe).
    assert recon["frames_missing"] <= recon["frames_dropped_in_flight"]

    snapshot = scheduler.metrics_snapshot()
    assert snapshot["schema"] == "repro.ingest/1"
    assert len(snapshot["streams"]) == 4
    for stream_metrics in snapshot["streams"].values():
        assert stream_metrics["counters"]["ingest.chunks_processed"] >= 0


def test_fail_policy_quarantines_without_stopping_the_fleet():
    extractor = FingerprintExtractor()
    seed = 7
    config = DetectorConfig(
        num_hashes=32, threshold=0.7, window_seconds=2.0
    )
    family = MinHashFamily(num_hashes=32, seed=0)
    reference = SyntheticSource(0, seed, 1)
    query_ids = extractor.cell_ids_from_encoded(reference.encode_chunk(0))
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family
    )
    pairs = []
    for stream_id in range(2):
        source = SyntheticSource(stream_id, seed, 5)
        payloads = [source.encode_chunk(index) for index in range(5)]
        if stream_id == 0:
            # Deterministic structural damage in chunk 1.
            payloads[1] = _corrupt_keyframe_bit(payloads[1], 1)
        feed = EncodedChunkSource(stream_id, payloads)
        session = StreamSession(
            stream_id, config, queries, KEYFRAMES_PER_SECOND,
            extractor=extractor, policy=DegradationPolicy.FAIL,
        )
        pairs.append((feed, session))
    scheduler = StreamScheduler(pairs)
    matches = scheduler.run()
    failed = [s for _, s in pairs if s.failed]
    intact = [s for _, s in pairs if not s.failed]
    assert failed and intact  # stream 0 quarantined, stream 1 completed
    assert intact[0].registry.counter("ingest.chunks_processed") == 5
    assert isinstance(matches, dict)


def test_checkpoint_restore_resumes_identically(tmp_path):
    extractor = FingerprintExtractor()
    seed = 55
    config = DetectorConfig(
        num_hashes=64, threshold=0.6, window_seconds=2.0
    )
    family = MinHashFamily(num_hashes=64, seed=0)
    source = SyntheticSource(0, seed, 6)
    query_ids = extractor.cell_ids_from_encoded(source.encode_chunk(4))
    queries = QuerySet.from_cell_ids(
        {1: query_ids}, {1: int(query_ids.shape[0])}, family
    )

    def chunk(seq):
        from repro.ingest import StreamChunk

        return StreamChunk(0, seq, source.encode_chunk(seq))

    uninterrupted = StreamSession(
        0, config, queries, KEYFRAMES_PER_SECOND, extractor=extractor
    )
    for seq in range(6):
        uninterrupted.process_chunk(chunk(seq))
    uninterrupted.finish()

    first = StreamSession(
        0, config, queries, KEYFRAMES_PER_SECOND, extractor=extractor
    )
    for seq in range(3):
        first.process_chunk(chunk(seq))
    manager = CheckpointManager(tmp_path)
    path = first.checkpoint(manager)

    resumed = StreamSession.restore(
        manager, 0, config, extractor=extractor, path=path
    )
    assert resumed.chunks_ingested == 3
    for seq in range(3, 6):
        resumed.process_chunk(chunk(seq))
    resumed.finish()

    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in uninterrupted.matches
    ]
    assert (
        resumed.detector.frames_processed
        == uninterrupted.detector.frames_processed
    )


def test_checkpoint_carries_a_gap_in_flight(tmp_path):
    """A snapshot taken while the monitor is still dropping frames to
    re-align after a lost chunk resumes dropping exactly those frames."""
    from repro.ingest import StreamChunk

    family = MinHashFamily(num_hashes=16, seed=0)
    cells = np.arange(40)
    queries = QuerySet.from_cell_ids({1: cells[12:20]}, {1: 8}, family)
    config = DetectorConfig(
        num_hashes=16, threshold=0.5, window_seconds=2.0  # w = 4
    )
    # seq 1 is lost (5 frames by the hint) and seq 2 is a single frame,
    # so the barrier after it still owes the gap's window one frame.
    chunks = [
        StreamChunk(0, 0, cells[0:5]),
        StreamChunk(0, 2, cells[10:11]),
        StreamChunk(0, 3, cells[11:24]),
    ]

    def session():
        return StreamSession(
            0, config, queries, KEYFRAMES_PER_SECOND, chunk_keyframes_hint=5
        )

    uninterrupted = session()
    for chunk in chunks:
        uninterrupted.process_chunk(chunk)
    uninterrupted.finish()
    assert uninterrupted.matches

    first = session()
    for chunk in chunks[:2]:
        first.process_chunk(chunk)
    assert first.monitor.skip_remaining == 1
    manager = CheckpointManager(tmp_path)
    first.checkpoint(manager)
    resumed = StreamSession.restore(
        manager, 0, config, chunk_keyframes_hint=5
    )
    assert resumed.monitor.skip_remaining == 1
    resumed.process_chunk(chunks[2])
    resumed.finish()
    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in uninterrupted.matches
    ]
    for name in ("stream.frames_processed", "stream.frames_skipped"):
        assert resumed.registry.counter(name) == (
            uninterrupted.registry.counter(name)
        ), name


class TestSchedulerValidation:
    def _session(self, stream_id):
        family = MinHashFamily(num_hashes=16, seed=0)
        queries = QuerySet.from_cell_ids(
            {1: np.arange(8)}, {1: 8}, family
        )
        config = DetectorConfig(
            num_hashes=16, threshold=0.5, window_seconds=2.0
        )
        return StreamSession(
            stream_id, config, queries, KEYFRAMES_PER_SECOND
        )

    def test_empty_fleet_rejected(self):
        with pytest.raises(IngestError):
            StreamScheduler([])

    def test_mismatched_pair_rejected(self):
        with pytest.raises(IngestError):
            StreamScheduler(
                [(CellIdSource(0, [np.arange(4)]), self._session(1))]
            )

    def test_duplicate_stream_ids_rejected(self):
        pairs = [
            (CellIdSource(0, [np.arange(4)]), self._session(0)),
            (CellIdSource(0, [np.arange(4)]), self._session(0)),
        ]
        with pytest.raises(IngestError):
            StreamScheduler(pairs)

    def test_nonpositive_weight_rejected(self):
        pairs = [(CellIdSource(0, [np.arange(4)]), self._session(0))]
        with pytest.raises(IngestError):
            StreamScheduler(
                pairs, policy=SchedulingPolicy.DEFICIT, weights={0: 0.0}
            )
