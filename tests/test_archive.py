"""Unit coverage for the sketch archive: atomic writes, the segment
store (CRC, torn-tail recovery, quarantine, compaction), the spillable
ring (dedupe, gaps, retention, pins, checkpoint reconcile) and the
service's gap-aware archive tap. Backfill equivalence lives in
test_backfill.py.
"""

from __future__ import annotations

import zipfile
import zlib

import numpy as np
import pytest

from repro.archive import ARCHIVE_FORMAT, SegmentStore, SketchArchive
from repro.config import DetectorConfig
from repro.core.query import QuerySet
from repro.errors import ArchiveError, ServeError
from repro.minhash.family import MinHashFamily
from repro.obs.registry import MetricsRegistry
from repro.serve import CheckpointManager, DetectionService
from repro.serve.checkpoint import ServiceCheckpoint
from repro.utils.atomic import TMP_SUFFIX, atomic_savez, atomic_write_bytes

K = 8
FAMILY = MinHashFamily(num_hashes=K, seed=3)
FP = FAMILY.fingerprint


def _rows(first, num, seed=0):
    """(indices, starts, frames, values) for windows [first, first+num)."""
    rng = np.random.default_rng(seed + first)
    indices = np.arange(first, first + num, dtype=np.int64)
    starts = indices * 5
    frames = np.full(num, 5, dtype=np.int64)
    values = rng.integers(0, 2**31, size=(num, K), dtype=np.int64)
    return indices, starts, frames, values


# ----------------------------------------------------------------------
# atomic write helpers
# ----------------------------------------------------------------------


def test_atomic_write_bytes_round_trip(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    atomic_write_bytes(path, b"replaced")
    assert path.read_bytes() == b"replaced"
    assert not list(tmp_path.glob(f"*{TMP_SUFFIX}"))


def test_atomic_savez_round_trip(tmp_path):
    path = tmp_path / "arrays.npz"
    payload = {"a": np.arange(4), "b": np.eye(2)}
    atomic_savez(path, payload)
    with np.load(path) as archive:
        np.testing.assert_array_equal(archive["a"], payload["a"])
        np.testing.assert_array_equal(archive["b"], payload["b"])
    assert not list(tmp_path.glob(f"*{TMP_SUFFIX}"))


# ----------------------------------------------------------------------
# SegmentStore
# ----------------------------------------------------------------------


def test_store_seal_load_round_trip(tmp_path):
    store = SegmentStore(tmp_path)
    _, starts, frames, values = _rows(0, 6)
    info = store.seal(0, starts, frames, values, FP)
    assert info.first_index == 0 and info.num_windows == 6
    assert info.end_index == 6
    got_starts, got_frames, got_values = store.load(info)
    np.testing.assert_array_equal(got_starts, starts)
    np.testing.assert_array_equal(got_frames, frames)
    np.testing.assert_array_equal(got_values, values)
    assert store.family_fingerprint(info) == FP
    assert store.windows_on_disk() == 6
    assert store.bytes_on_disk() == info.nbytes > 0


def test_store_rejects_overlapping_seal(tmp_path):
    store = SegmentStore(tmp_path)
    _, starts, frames, values = _rows(0, 6)
    store.seal(0, starts, frames, values, FP)
    with pytest.raises(ArchiveError, match="overlap"):
        store.seal(4, starts, frames, values, FP)
    # Non-overlapping (even out of order) is fine.
    store.seal(10, starts, frames, values, FP)
    assert [seg.first_index for seg in store.segments] == [0, 10]


def test_store_recover_sweeps_tmp_and_quarantines_torn_tail(tmp_path):
    store = SegmentStore(tmp_path)
    for first in (0, 6):
        _, starts, frames, values = _rows(first, 6)
        store.seal(first, starts, frames, values, FP)
    tail = store.segments[-1].path
    tail.write_bytes(tail.read_bytes()[:100])  # torn by a crash
    (tmp_path / ("junk.npz" + TMP_SUFFIX)).write_bytes(b"half")

    recovered = SegmentStore(tmp_path).recover()
    assert [seg.first_index for seg in recovered] == [0]
    assert not list(tmp_path.glob(f"*{TMP_SUFFIX}"))
    quarantined = list(tmp_path.glob("*.corrupt"))
    assert len(quarantined) == 1 and tail.name in quarantined[0].name


def test_store_recover_refuses_corrupt_before_valid(tmp_path):
    store = SegmentStore(tmp_path)
    for first in (0, 6):
        _, starts, frames, values = _rows(first, 6)
        store.seal(first, starts, frames, values, FP)
    head = store.segments[0].path
    head.write_bytes(b"not an npz")
    with pytest.raises(ArchiveError, match="not a torn tail"):
        SegmentStore(tmp_path).recover()


def test_store_load_detects_payload_corruption(tmp_path):
    store = SegmentStore(tmp_path)
    _, starts, frames, values = _rows(0, 4)
    info = store.seal(0, starts, frames, values, FP)
    # Rewrite the payload without refreshing the stored CRC.
    with np.load(info.path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["starts"] = members["starts"] + 1
    np.savez(info.path, **members)
    with pytest.raises(ArchiveError, match="CRC"):
        store.load(info)
    # recover() treats the same damage as a torn tail.
    assert SegmentStore(tmp_path).recover() == []


def test_store_compact_merges_contiguous_runts(tmp_path):
    store = SegmentStore(tmp_path)
    for first, num in ((0, 3), (3, 3), (6, 2), (10, 2)):
        _, starts, frames, values = _rows(first, num)
        store.seal(first, starts, frames, values, FP)
    merged = store.compact(8, FP)
    assert merged >= 1
    spans = [(seg.first_index, seg.end_index) for seg in store.segments]
    assert spans == [(0, 8), (10, 12)]  # gap at [8, 10) never bridged
    assert store.windows_on_disk() == 10
    # The merged file round-trips with a fresh CRC.
    starts, frames, values = store.load(store.segments[0])
    np.testing.assert_array_equal(starts, np.arange(8) * 5)


def _stored_crc(info):
    with np.load(info.path) as archive:
        return int(archive["crc"][0])


def test_store_reads_deflated_int64_segments(tmp_path):
    """Segments written before seals were stored narrow (deflated, int64
    sketch values) recover and load unchanged; their CRC is the one a
    seal of the same windows records today."""
    _, starts, frames, values = _rows(0, 5)
    crc = 0
    for array in (starts, frames, values):
        crc = zlib.crc32(array.tobytes(), crc)
    (tmp_path / "old").mkdir()
    atomic_savez(tmp_path / "old" / "seg-0000000000-000005.npz", {
        "format": np.asarray([ARCHIVE_FORMAT]),
        "first_index": np.asarray([0], dtype=np.int64),
        "starts": starts,
        "frames": frames,
        "sketch_values": values,
        "family": np.asarray(FP, dtype=np.int64),
        "sealed_at": np.asarray([1.0]),
        "crc": np.asarray([crc & 0xFFFFFFFF], dtype=np.int64),
    })
    old = SegmentStore(tmp_path / "old")
    [info] = old.recover()
    assert info.num_windows == 5 and info.sealed_at == 1.0
    got_starts, got_frames, got_values = old.load(info)
    np.testing.assert_array_equal(got_starts, starts)
    np.testing.assert_array_equal(got_frames, frames)
    np.testing.assert_array_equal(got_values, values)
    assert got_values.dtype == np.int64
    fresh = SegmentStore(tmp_path / "new").seal(0, starts, frames, values, FP)
    assert _stored_crc(fresh) == _stored_crc(info) == crc & 0xFFFFFFFF


def test_default_family_seal_is_stored_uint32(tmp_path):
    _, starts, frames, values = _rows(0, 4)
    values[0, 0] = FAMILY.prime  # the empty-set sentinel fits
    info = SegmentStore(tmp_path).seal(0, starts, frames, values, FP)
    with zipfile.ZipFile(info.path) as archive:
        assert {m.compress_type for m in archive.infolist()} == {
            zipfile.ZIP_STORED
        }
    with np.load(info.path) as archive:
        assert archive["sketch_values"].dtype == np.uint32
    np.testing.assert_array_equal(SegmentStore(tmp_path).load(info)[2], values)


@pytest.mark.parametrize("bad", [-1, FAMILY.prime + 1])
def test_seal_refuses_values_outside_the_family(tmp_path, bad):
    _, starts, frames, values = _rows(0, 3)
    values[1, 2] = bad
    with pytest.raises(ArchiveError, match="outside"):
        SegmentStore(tmp_path).seal(0, starts, frames, values, FP)
    assert not list(tmp_path.iterdir())


def test_wide_prime_family_round_trips(tmp_path):
    prime = (1 << 61) - 1
    fingerprint = (K, 3, prime)
    _, starts, frames, _ = _rows(0, 4)
    values = np.random.default_rng(9).integers(
        0, prime, size=(4, K), dtype=np.int64
    )
    values[3, 0] = prime
    store = SegmentStore(tmp_path)
    info = store.seal(0, starts, frames, values, fingerprint)
    with np.load(info.path) as archive:
        assert archive["sketch_values"].dtype == np.uint64
    [recovered] = SegmentStore(tmp_path).recover()
    np.testing.assert_array_equal(store.load(recovered)[2], values)
    assert store.family_fingerprint(recovered) == fingerprint


# ----------------------------------------------------------------------
# SketchArchive (ring + spill)
# ----------------------------------------------------------------------


def test_ring_memory_only_retention():
    archive = SketchArchive(FP, K, retain_windows=4)
    archive.append(*_rows(0, 10))
    assert archive.windows_retained() == 4
    assert archive.available() == (6, 10)
    assert archive.registry.counter("archive.windows_dropped") == 6


def test_ring_seals_full_segments_and_dedupes(tmp_path):
    registry = MetricsRegistry(timing_enabled=False)
    archive = SketchArchive(
        FP, K, directory=tmp_path, segment_windows=4, registry=registry
    )
    rows = _rows(0, 10)
    archive.append(*rows)
    assert archive.next_index == 10
    # 2 full segments sealed, 2 windows still in the ring.
    assert [seg.end_index for seg in archive.store.segments] == [4, 8]
    assert archive.ring_windows == 2
    # A checkpoint-resume replay of the same rows is fully deduplicated.
    assert archive.append(*rows) == 0
    assert registry.counter("archive.windows_deduped") == 10
    assert archive.windows_retained() == 10


def test_ring_gap_seals_open_run(tmp_path):
    archive = SketchArchive(FP, K, directory=tmp_path, segment_windows=64)
    archive.append(*_rows(0, 3))
    archive.note_gap(2)
    assert archive.next_index == 5
    # The pre-gap run sealed even though it is under segment_windows.
    assert [
        (seg.first_index, seg.end_index) for seg in archive.store.segments
    ] == [(0, 3)]
    archive.append(*_rows(5, 2))
    blocks = archive.iter_blocks(0, 10)
    seen = np.concatenate([block[0] for block in blocks])
    np.testing.assert_array_equal(seen, [0, 1, 2, 5, 6])


def test_ring_append_rejects_non_ascending():
    archive = SketchArchive(FP, K)
    archive.append(*_rows(0, 3))
    indices = np.asarray([5, 4], dtype=np.int64)
    starts = indices * 5
    frames = np.full(2, 5, dtype=np.int64)
    values = np.zeros((2, K), dtype=np.int64)
    with pytest.raises(ArchiveError, match="ascending"):
        archive.append(indices, starts, frames, values)


def test_ring_iter_blocks_clips_to_range(tmp_path):
    archive = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    reference = _rows(0, 10)
    archive.append(*reference)
    blocks = archive.iter_blocks(2, 9)
    indices = np.concatenate([block[0] for block in blocks])
    values = np.concatenate([block[3] for block in blocks])
    np.testing.assert_array_equal(indices, np.arange(2, 9))
    np.testing.assert_array_equal(values, reference[3][2:9])


def test_ring_pin_blocks_retention(tmp_path):
    archive = SketchArchive(
        FP, K, directory=tmp_path, segment_windows=2, retain_windows=4
    )
    token = archive.pin(0, 6)
    archive.append(*_rows(0, 10))
    # The pinned prefix survived even though the bound is exceeded.
    assert archive.available()[0] == 0
    archive.unpin(token)
    assert archive.windows_retained() <= 4
    assert archive.available()[0] >= 6


def test_ring_retain_bytes(tmp_path):
    archive = SketchArchive(
        FP, K, directory=tmp_path, segment_windows=2, retain_bytes=1
    )
    archive.append(*_rows(0, 8))
    # Every sealed segment except the ring remainder was dropped.
    assert archive.store.windows_on_disk() <= 2
    assert archive.next_index == 8  # the watermark never rewinds


def test_ring_state_restore_reconciles_with_disk(tmp_path):
    archive = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    archive.append(*_rows(0, 6))
    state = archive.state()  # ring holds [4, 6)
    # After the snapshot, more progress seals [4, 8) to disk.
    archive.append(*_rows(6, 2))
    archive.seal_open_run()

    revived = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    revived.restore(*state)
    # Disk won: the ring copies of [4, 6) were reconciled away and the
    # watermark kept the later disk progress.
    assert revived.ring_windows == 0
    assert revived.next_index == 8
    assert revived.windows_retained() == 8
    assert (
        revived.registry.counter("archive.windows_reconciled") == 2
    )


def test_ring_restore_keeps_ring_rows_past_disk(tmp_path):
    archive = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    archive.append(*_rows(0, 6))
    state = archive.state()
    revived = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    revived.restore(*state)
    assert revived.ring_windows == 2  # [4, 6) survive in the ring
    assert revived.next_index == 6
    blocks = revived.iter_blocks(0, 6)
    np.testing.assert_array_equal(
        np.concatenate([block[0] for block in blocks]), np.arange(6)
    )


def test_ring_fast_forward_never_rewinds():
    archive = SketchArchive(FP, K)
    archive.append(*_rows(0, 4))
    archive.fast_forward(9)
    assert archive.next_index == 9
    archive.fast_forward(2)
    assert archive.next_index == 9


def test_archive_rejects_bad_bounds():
    with pytest.raises(ArchiveError):
        SketchArchive(FP, K, segment_windows=0)
    with pytest.raises(ArchiveError):
        SketchArchive(FP, K, retain_windows=0)


def test_archive_recovers_catalogue_on_construction(tmp_path):
    first = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    first.append(*_rows(0, 8))
    second = SketchArchive(FP, K, directory=tmp_path, segment_windows=4)
    assert second.next_index == 8  # resumes past the sealed segments
    assert second.windows_retained() == 8


# ----------------------------------------------------------------------
# the service's archive tap (lossy ingest accounting)
# ----------------------------------------------------------------------


def _tapped_service(archive, family=FAMILY):
    """A one-worker service with w = 5 archiving into ``archive``."""
    queries = QuerySet.from_cell_ids({1: np.arange(10)}, {1: 10}, family)
    config = DetectorConfig(num_hashes=K, window_seconds=2.5)
    return DetectionService(
        config, queries, 2.0, num_workers=1, archive=archive
    )


def test_tap_mirrors_monitor_clock_under_gaps():
    archive = SketchArchive(FP, K)
    service = _tapped_service(archive)
    rng = np.random.default_rng(11)
    service.run([rng.integers(0, 100, size=12)], flush=False)
    assert archive.next_index == 2
    # Lose 6 frames mid-window: the partial window dies, and the gap
    # runs to the next boundary (frames 10..20 → windows 2 and 3).
    service.skip_frames(6)
    assert service.frontend.skip_remaining == 2  # swallow the window tail
    assert archive.next_index == 4
    service.run([rng.integers(0, 100, size=7)], flush=True)  # no tail
    lo, hi = archive.available()
    assert (lo, hi) == (0, 5)
    seen = np.concatenate(
        [block[0] for block in archive.iter_blocks(lo, hi)]
    )
    np.testing.assert_array_equal(seen, [0, 1, 4])


def test_tap_flush_archives_partial_tail():
    archive = SketchArchive(FP, K)
    service = _tapped_service(archive)
    ids = np.arange(8)
    service.run([ids], flush=True)
    blocks = archive.iter_blocks(0, 2)
    indices, starts, frames, values = blocks[0]
    np.testing.assert_array_equal(frames, [5, 3])
    # The tail sketch matches sketching its distinct cells directly.
    expected = FAMILY.sketch(np.unique(ids[5:])).values
    np.testing.assert_array_equal(values[1], expected)
    with pytest.raises(ServeError):
        service.run([ids])


def test_tap_rejects_foreign_family():
    archive = SketchArchive(FP, K)
    other = MinHashFamily(num_hashes=K, seed=99)
    with pytest.raises(ServeError, match="family"):
        _tapped_service(archive, family=other)


# ----------------------------------------------------------------------
# CheckpointManager keep_last retention
# ----------------------------------------------------------------------


def _snapshot(chunks):
    from repro.core.query import Query

    cells = np.arange(4, dtype=np.int64)
    query = Query(
        qid=1, cell_ids=cells, num_frames=4, sketch=FAMILY.sketch(cells)
    )
    return ServiceCheckpoint(
        config=DetectorConfig(num_hashes=K),
        keyframes_per_second=2.0,
        chunks_ingested=chunks,
        cap_hint=1,
        strategy="load",
        worker_queries=[QuerySet([query], FAMILY)],
        worker_states=[{}],
        matches=[],
        frontend_pending=np.empty(0, dtype=np.int64),
        frontend_flushed=False,
        frontend_windows=0,
        frontend_frames=0,
    )


def test_manager_keep_last_prunes_oldest(tmp_path):
    manager = CheckpointManager(tmp_path, keep_last=2)
    for chunks in (1, 2, 3, 4):
        manager.save(_snapshot(chunks))
    kept = [path.name for path in manager.snapshots()]
    assert kept == ["ckpt-0000000003.npz", "ckpt-0000000004.npz"]


def test_manager_never_orphans_corrupt_newest(tmp_path):
    manager = CheckpointManager(tmp_path, keep_last=1)
    manager.save(_snapshot(1))
    # A corrupt file lands at the newest position, bypassing save().
    bad = manager.path_for(2)
    bad.write_bytes(b"torn")
    assert manager.prune() == []  # the only loadable snapshot survives
    assert manager.path_for(1).exists()
    # Once a loadable newer snapshot exists, pruning proceeds.
    manager.save(_snapshot(3))
    names = {path.name for path in manager.snapshots()}
    assert names == {"ckpt-0000000003.npz"}


def test_manager_rejects_bad_keep_last(tmp_path):
    from repro.errors import ServeError

    with pytest.raises(ServeError):
        CheckpointManager(tmp_path, keep_last=0)


def test_segment_format_tag_is_checked(tmp_path, tripwire):
    """A foreign tag is refused by ``load`` and quarantined by
    ``recover`` — and so is a tag held as an object array (as segments
    sealed by older builds were): a segment is a file from outside the
    program, and nothing in it is ever unpickled."""
    for name, tag, message in (
        ("alien", np.asarray(["alien/9"]), "foreign format tag 'alien/9'"),
        ("object", np.asarray([tripwire()], dtype=object), "Object arrays"),
    ):
        directory = tmp_path / name
        directory.mkdir()
        store = SegmentStore(directory)
        _, starts, frames, values = _rows(0, 2)
        info = store.seal(0, starts, frames, values, FP)
        with np.load(info.path) as archive:
            assert archive["format"].dtype.kind == "U"
            members = {name: archive[name] for name in archive.files}
        members["format"] = tag
        np.savez(info.path, **members)
        with pytest.raises(ArchiveError, match=message):
            store.load(info)
        assert SegmentStore(directory).recover() == []
        assert [p.name for p in directory.iterdir()] == [
            info.path.name + ".corrupt"
        ]
    assert not tripwire.fired
    assert ARCHIVE_FORMAT == "repro.arch/1"
