"""Scheduler equivalence and chaos-survival tests.

The acceptance bar for the ingestion layer:

* an N-stream scheduler run, chunks lost in flight included, is
  bit-for-bit identical, per stream and including order and the clock
  counters, to N independent single-process oracle runs — for both
  scheduling policies;
* under single-bit corruption, every intact GOP after resync is still
  decoded and matched at its true stream position;
* under aggressive fault injection no exception reaches the scheduler
  loop, and the frame accounting reconciles exactly with what the
  sources offered.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.errors import IngestError, ServeError
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
from repro.serve import CheckpointManager, ServiceCheckpoint
from repro.utils.rng import derive_seed

CELL_SPACE = 500
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames
CLOCK = ("engine.windows_processed", "stream.frames_processed",
         "stream.windows_skipped", "stream.frames_skipped")


def _query_set(queries, frames, family_seed):
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    return QuerySet.from_cell_ids(queries, frames, family)


def _single_stream_run(config, queries, frames, family_seed, chunks, lost):
    """The oracle: one detector behind a LiveMonitor, replaying
    ``skip_frames`` for every lost chunk a later delivery reveals."""
    detector = StreamingDetector(
        config, _query_set(queries, frames, family_seed),
        KEYFRAMES_PER_SECOND,
    )
    monitor = LiveMonitor(detector)
    delivered = [seq for seq in range(len(chunks)) if seq not in lost]
    matches = []
    for seq, chunk in enumerate(chunks):
        if seq not in lost:
            matches.extend(monitor.push_cell_ids(chunk))
        elif delivered and seq < delivered[-1]:
            monitor.skip_frames(len(chunk))
    matches.extend(monitor.flush())
    return matches, {name: detector.registry.counter(name) for name in CLOCK}


class _LossySource(CellIdSource):
    """Offers every chunk but loses the ``lost`` seqs in flight."""

    def __init__(self, stream_id, chunks, lost):
        super().__init__(stream_id, chunks)
        self.lost = lost
        self.keyframes_dropped = 0

    def __iter__(self):
        for chunk in super().__iter__():
            if chunk.seq in self.lost:
                self.keyframes_dropped += chunk.expected_keyframes
            else:
                yield chunk


@st.composite
def fleets(draw):
    """N cell-id streams with occasional planted query copies; a lossy
    stream has uniform chunks, some lost in flight."""
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
        uniform = draw(st.integers(3, 30))
        lost = set()
        if draw(st.booleans()):
            lost = draw(st.sets(st.integers(0, num_chunks - 1)))
        chunks = []
        for _ in range(num_chunks):
            length = uniform if lost else draw(st.integers(3, 30))
            chunk = rng.integers(0, CELL_SPACE, size=length)
            if draw(st.booleans()):
                victim = draw(st.sampled_from(sorted(queries)))
                copy = np.asarray(queries[victim])[:length]
                at = draw(st.integers(0, length - copy.size))
                chunk[at : at + copy.size] = copy
            chunks.append(chunk)
        streams.append((chunks, lost))
    return family_seed, queries, frames, threshold, streams


@pytest.mark.parametrize(
    "policy",
    [SchedulingPolicy.ROUND_ROBIN, SchedulingPolicy.DEFICIT],
    ids=["rr-inline", "drr-inline"],
)
@settings(max_examples=10, deadline=None)
@given(fleet=fleets())
def test_scheduler_equals_independent_runs(policy, fleet):
    """Multiplexing is transparent and the service's front end keeps
    the oracle's gap discipline: per-stream output is bit-for-bit the
    single-process run's, including order and the clock counters."""
    family_seed, queries, frames, threshold, streams = fleet
    config = DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
    )
    pairs = [
        (
            _LossySource(stream_id, chunks, lost),
            StreamSession(
                stream_id, config,
                _query_set(queries, frames, family_seed),
                KEYFRAMES_PER_SECOND,
                chunk_keyframes_hint=len(chunks[0]) if lost else 0,
            ),
        )
        for stream_id, (chunks, lost) in enumerate(streams)
    ]
    scheduler = StreamScheduler(pairs, policy=policy, queue_capacity=2)
    by_stream = scheduler.run()
    snapshot = scheduler.metrics_snapshot()
    for stream_id, (chunks, lost) in enumerate(streams):
        expected, clock = _single_stream_run(
            config, queries, frames, family_seed, chunks, lost
        )
        assert [_match_key(m) for m in by_stream[stream_id]] == [
            _match_key(m) for m in expected
        ], f"stream {stream_id} diverged"
        counters = snapshot["streams"][str(stream_id)]["counters"]
        assert {name: counters[name] for name in CLOCK} == clock
    recon = scheduler.reconciliation()
    assert recon["unprocessed"] == 0
    assert recon["frames_offered"] == sum(
        sum(len(c) for c in chunks) for chunks, _ in streams
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

    from tests.test_codec_resync import _record_offsets

    offsets = [at for at, kind in _record_offsets(encoded) if kind == b"I"]
    data = bytearray(encoded.data)
    # Bit 1: b'I' (0x49) becomes 0x4B, an invalid frame type (bit 2
    # would yield b'M', which still parses).
    data[offsets[keyframe_index]] ^= 0x02
    return dataclasses.replace(encoded, data=bytes(data))


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
    scheduler = StreamScheduler(pairs, policy=policy, queue_capacity=2)
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
    assert snapshot["schema"] == "repro.ingest/2"
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
    path = first.service.checkpoint(CheckpointManager(tmp_path))

    resumed = StreamSession.restore(path, 0, config, extractor=extractor)
    assert resumed.chunks_ingested == 3
    for seq in range(3, 6):
        resumed.process_chunk(chunk(seq))
    resumed.finish()

    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in uninterrupted.matches
    ]
    assert (
        resumed.service.frontend.frames_emitted
        == uninterrupted.service.frontend.frames_emitted
    )


def test_checkpoint_carries_a_gap_in_flight(tmp_path):
    """A snapshot taken while the front end is still dropping frames to
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
    assert first.service.frontend.skip_remaining == 1
    manager = CheckpointManager(tmp_path)
    first.service.checkpoint(manager)
    resumed = StreamSession.restore(
        manager, 0, config, chunk_keyframes_hint=5
    )
    assert resumed.chunks_ingested == 3  # the lost seq 1 counts
    assert resumed.service.frontend.skip_remaining == 1
    resumed.process_chunk(chunks[2])
    resumed.finish()
    assert [_match_key(m) for m in resumed.matches] == [
        _match_key(m) for m in uninterrupted.matches
    ]
    counters = resumed.service.metrics_snapshot()["counters"]
    expected = uninterrupted.service.metrics_snapshot()["counters"]
    for name in CLOCK:
        assert counters[name] == expected[name], name


def test_parent_ingest_checkpoint_is_refused(tmp_path):
    """A session checkpoint from before sessions were service-backed
    (strategy ``"ingest"``) is refused by name, not half-restored."""
    family = MinHashFamily(num_hashes=16, seed=0)
    queries = QuerySet.from_cell_ids({1: np.arange(8)}, {1: 8}, family)
    config = DetectorConfig(num_hashes=16, window_seconds=2.0)
    path = CheckpointManager(tmp_path).save(ServiceCheckpoint(
        config=config, keyframes_per_second=KEYFRAMES_PER_SECOND,
        chunks_ingested=1, cap_hint=0, strategy="ingest",
        worker_queries=[queries], worker_states=[{}], matches=[],
        frontend_pending=np.arange(3), frontend_flushed=False,
        frontend_windows=0, frontend_frames=0, frontend_skip=0,
    ))
    with pytest.raises(ServeError, match="'ingest'"):
        StreamSession.restore(path, 0, config)


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
