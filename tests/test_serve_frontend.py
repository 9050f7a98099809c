"""Units for the sketch-once front end and the shared-memory transport.

The golden-equivalence suite (``test_serve_equivalence.py``) proves the
sketch-once service end-to-end; this file pins the pieces it is built
from: :class:`StreamFrontend`'s window cut, absolute stream clock and
plane layout, the :class:`WindowBatch` shape invariants, the worker's
batch protocol, and the :class:`ShmBatchRing` slot lifecycle
(publish / read / release / growth / exhaustion).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.errors import ServeError
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import iter_basic_windows
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    ShmBatchReader,
    ShmBatchRing,
    StreamFrontend,
    shm_available,
)
from repro.serve.workers import ShardWorker, WorkerSpec
from repro.signature.bitsig import encode_planes

CELL_SPACE = 300
NUM_HASHES = 16
WINDOW_FRAMES = 5


def _family(seed=3):
    return MinHashFamily(num_hashes=NUM_HASHES, seed=seed)


def _config(**overrides):
    merged = dict(
        num_hashes=NUM_HASHES,
        threshold=0.3,
        window_seconds=2.5,  # w = 5 at 2 key frames / second
        representation=Representation.BIT,
        use_index=False,
    )
    merged.update(overrides)
    return DetectorConfig(**merged)


def _queries(family, num=4, seed=7, size=20):
    rng = np.random.default_rng(seed)
    cells = {qid: rng.integers(0, CELL_SPACE, size=size) for qid in range(num)}
    frames = {qid: size for qid in cells}
    return QuerySet.from_cell_ids(cells, frames, family)


def _frontend(config=None, family=None, queries=None):
    config = config or _config()
    family = family or _family()
    frontend = StreamFrontend(
        config=config,
        family=family,
        window_frames=WINDOW_FRAMES,
        registry=MetricsRegistry(),
    )
    qs = queries or _queries(family)
    frontend.set_queries({qid: qs.get(qid) for qid in qs.query_ids})
    return frontend, family, qs


# ----------------------------------------------------------------------
# StreamFrontend: window cut, stream clock, plane layout
# ----------------------------------------------------------------------


def test_build_cuts_windows_like_the_monitor():
    """Ragged chunks produce the same windows (same sketches, same
    absolute coordinates) as one offline pass over the concatenation."""
    frontend, family, _ = _frontend()
    rng = np.random.default_rng(0)
    chunks = [rng.integers(0, CELL_SPACE, size=n) for n in (7, 4, 9, 10)]
    batch_a = frontend.build(chunks[:2], base_seq=0)
    batch_b = frontend.build(chunks[2:], base_seq=2)

    # 7 -> 1 window (2 buffered); +4 -> 1 window (1 buffered);
    # +9 -> 2 windows (0 buffered); +10 -> 2 windows.
    assert batch_a.chunk_windows.tolist() == [1, 1]
    assert batch_b.chunk_windows.tolist() == [2, 2]
    assert frontend.pending_frames == 0

    stream = np.concatenate(chunks)
    reference = list(iter_basic_windows(stream, WINDOW_FRAMES, family))
    produced = list(batch_a.block.sketch_values) + list(batch_b.block.sketch_values)
    assert len(reference) == len(produced) == 6
    for window, values in zip(reference, produced):
        assert np.array_equal(window.sketch.values, values)
    assert batch_a.block.indices.tolist() == [0, 1]
    assert batch_b.block.indices.tolist() == [2, 3, 4, 5]
    assert batch_b.block.starts.tolist() == [10, 15, 20, 25]
    assert set(batch_a.block.frames.tolist()) == {WINDOW_FRAMES}


def test_planes_match_per_window_encoder():
    """The broadcasted plane kernel equals per-window encode_planes for
    every window x sorted-qid row."""
    frontend, family, qs = _frontend()
    rng = np.random.default_rng(1)
    batch = frontend.build(
        [rng.integers(0, CELL_SPACE, size=15)], base_seq=0
    )
    assert batch.plane_qids == tuple(sorted(qs.query_ids))
    matrix = np.stack(
        [qs.get(qid).sketch.values for qid in batch.plane_qids]
    )
    for row in range(batch.num_windows):
        ge, lt = encode_planes(batch.block.sketch_values[row], matrix)
        assert np.array_equal(batch.ge[row], ge)
        assert np.array_equal(batch.lt[row], lt)


def test_no_planes_in_index_mode():
    frontend, _, _ = _frontend(config=_config(use_index=True))
    batch = frontend.build(
        [np.arange(WINDOW_FRAMES, dtype=np.int64)], base_seq=0
    )
    assert batch.plane_qids is None
    assert batch.ge is None and batch.lt is None


def test_empty_batch_keeps_shapes():
    """A chunk too short to complete a window yields a well-formed
    zero-window batch (the shm writer and workers rely on the shapes)."""
    frontend, _, qs = _frontend()
    batch = frontend.build([np.arange(3, dtype=np.int64)], base_seq=0)
    assert batch.num_windows == 0
    assert batch.chunk_windows.tolist() == [0]
    assert batch.block.sketch_values.shape == (0, NUM_HASHES)
    assert batch.ge.shape[:2] == (0, len(qs))
    assert frontend.pending_frames == 3


def test_flush_tail_and_terminal_state():
    frontend, family, qs = _frontend()
    frontend.build([np.arange(8, dtype=np.int64)], base_seq=0)
    tail = frontend.flush_tail()
    assert tail is not None
    assert tail.index == 1 and tail.start_frame == WINDOW_FRAMES
    assert tail.num_frames == 3
    expected = family.sketch(np.unique(np.arange(5, 8))).values
    assert np.array_equal(tail.sketch_values, expected)
    matrix = np.stack(
        [qs.get(qid).sketch.values for qid in tail.plane_qids]
    )
    ge, lt = encode_planes(tail.sketch_values, matrix)
    assert np.array_equal(tail.ge, ge) and np.array_equal(tail.lt, lt)
    assert frontend.flushed
    assert frontend.flush_tail() is None  # idempotent
    with pytest.raises(ServeError):
        frontend.build([np.arange(5)], base_seq=2)


def test_flush_on_boundary_returns_none():
    frontend, _, _ = _frontend()
    frontend.build([np.arange(WINDOW_FRAMES, dtype=np.int64)], base_seq=0)
    assert frontend.flush_tail() is None
    assert frontend.flushed


def test_state_restore_roundtrip():
    frontend, _, _ = _frontend()
    frontend.build([np.arange(13, dtype=np.int64)], base_seq=0)
    pending, flushed, windows, frames, skip = frontend.state()
    assert pending.tolist() == [10, 11, 12]
    assert (flushed, windows, frames, skip) == (False, 2, 10, 0)

    other, _, _ = _frontend()
    other.restore(pending, flushed, windows, frames, skip)
    batch = other.build([np.arange(2, dtype=np.int64)], base_seq=2)
    assert batch.block.indices.tolist() == [2]
    assert batch.block.starts.tolist() == [10]
    with pytest.raises(ServeError):
        other.restore(pending, False, -1, 0)
    with pytest.raises(ServeError):  # a gap owes frames: nothing pending
        other.restore(pending, False, 2, 10, skip_remaining=1)


# ----------------------------------------------------------------------
# worker batch protocol
# ----------------------------------------------------------------------


def _worker(config, queries):
    cap = max(
        queries.max_windows_map(WINDOW_FRAMES, config.tempo_scale).values()
    )
    return ShardWorker(
        WorkerSpec(
            worker_id=0,
            config=config,
            queries=queries,
            keyframes_per_second=2.0,
            cap_hint=cap,
            timing_enabled=False,
            state=None,
            epoch=0,
        )
    )


def _reference_monitor(config, queries):
    """The single-process oracle: one detector behind a LiveMonitor."""
    return LiveMonitor(StreamingDetector(config, queries, 2.0))


def test_batch_reply_splits_per_chunk():
    """One batch covering several chunks replies one match list per
    chunk, equal to what the single-process monitor yields per push."""
    config = _config()
    family = _family()
    rng = np.random.default_rng(5)
    qs = _queries(family)
    chunks = [rng.integers(0, CELL_SPACE, size=10) for _ in range(3)]
    chunks[1][2:7] = qs.get(1).cell_ids[:5]

    reference = _reference_monitor(config, _queries(family))
    per_chunk = [reference.push_cell_ids(chunk) for chunk in chunks]

    frontend, _, _ = _frontend(config=config, family=family)
    batch = frontend.build(chunks, base_seq=0)
    worker = _worker(config, _queries(family))
    kind, _, base_seq, match_lists = worker.handle(("batch", batch))
    assert (kind, base_seq) == ("matches_batch", 0)
    assert len(match_lists) == 3
    assert match_lists == per_chunk


def test_batch_with_unknown_plane_qid_fails_loudly():
    config = _config()
    family = _family()
    frontend = StreamFrontend(
        config=config,
        family=family,
        window_frames=WINDOW_FRAMES,
        registry=MetricsRegistry(),
    )
    other = _queries(family, num=2, seed=99)
    frontend.set_queries({qid: other.get(qid) for qid in other.query_ids})
    batch = frontend.build(
        [np.arange(WINDOW_FRAMES, dtype=np.int64)], base_seq=0
    )
    shard = _queries(family, num=6)  # qids 0..5; layout only has 0..1
    worker = _worker(config, shard)
    reply = worker.handle(("batch", batch))
    assert reply[0] == "error"
    assert "missing query" in reply[2]


def test_extended_flush_carries_the_tail():
    """``("flush", TailWindow)`` processes the partial tail window the
    way the single-process monitor's flush does."""
    config = _config()
    family = _family()
    # 13 frames of a query's own cells: two whole windows, then a
    # 3-frame tail that still matches.
    stream = _queries(family).get(2).cell_ids[:13]

    reference = _reference_monitor(config, _queries(family))
    reference.push_cell_ids(stream)
    ref_matches = reference.flush()
    assert ref_matches

    frontend, _, _ = _frontend(config=config, family=family)
    batch = frontend.build([stream], base_seq=0)
    worker = _worker(config, _queries(family))
    worker.handle(("batch", batch))
    reply = worker.handle(("flush", frontend.flush_tail()))
    assert reply[0] == "flushed"
    assert [
        (m.qid, m.window_index, m.start_frame, m.end_frame, m.similarity)
        for m in reply[2]
    ] == [
        (m.qid, m.window_index, m.start_frame, m.end_frame, m.similarity)
        for m in ref_matches
    ]


# ----------------------------------------------------------------------
# shared-memory ring
# ----------------------------------------------------------------------

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def _batch(num_chunks=2, seed=11):
    frontend, _, _ = _frontend()
    rng = np.random.default_rng(seed)
    return frontend.build(
        [rng.integers(0, CELL_SPACE, size=12) for _ in range(num_chunks)],
        base_seq=0,
    )


def _assert_batches_equal(a, b):
    assert a.base_seq == b.base_seq
    assert a.plane_qids == b.plane_qids
    pairs = [(a, b, field) for field in ("chunk_windows", "ge", "lt")] + [
        (a.block, b.block, field)
        for field in ("indices", "starts", "frames", "sketch_values")
    ]
    for one, other, field in pairs:
        left, right = getattr(one, field), getattr(other, field)
        if left is None:
            assert right is None
        else:
            assert np.array_equal(left, right), field


@needs_shm
def test_ring_roundtrip_and_release():
    ring = ShmBatchRing(2)
    reader = ShmBatchReader()
    try:
        batch = _batch()
        descriptor = ring.publish(
            batch, readers=[0, 1], wait_for_slot=lambda: None
        )
        assert descriptor.total_bytes == batch.nbytes
        _assert_batches_equal(reader.read(descriptor), batch)
        ring.release(descriptor.slot, 0)
        ring.release(descriptor.slot, 1)
        with pytest.raises(ServeError):
            ring.release(descriptor.slot, 0)
    finally:
        reader.close()
        ring.close()


@needs_shm
def test_ring_exhaustion_calls_wait_hook():
    ring = ShmBatchRing(1)
    try:
        batch = _batch()
        first = ring.publish(batch, readers=[0], wait_for_slot=lambda: None)
        waits = []

        def drain():
            waits.append(first.slot)
            ring.release(first.slot, 0)

        second = ring.publish(batch, readers=[0], wait_for_slot=drain)
        assert waits == [first.slot]
        assert second.slot == first.slot
        ring.release(second.slot, 0)
    finally:
        ring.close()


@needs_shm
def test_slot_growth_changes_name_and_reader_reattaches():
    ring = ShmBatchRing(1)
    reader = ShmBatchReader()
    try:
        small = _batch(num_chunks=1)
        descriptor = ring.publish(small, readers=[], wait_for_slot=lambda: None)
        _assert_batches_equal(reader.read(descriptor), small)
        big = _batch(num_chunks=6, seed=13)
        assert big.nbytes > small.nbytes
        grown = ring.publish(big, readers=[], wait_for_slot=lambda: None)
        assert grown.slot == descriptor.slot
        assert grown.name != descriptor.name  # fresh segment, no aliasing
        _assert_batches_equal(reader.read(grown), big)
    finally:
        reader.close()
        ring.close()
