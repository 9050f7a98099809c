"""Tests for the LiveMonitor incremental front end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.gop import encode_video
from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.errors import DetectionError
from repro.features.pipeline import FingerprintExtractor
from repro.minhash.family import MinHashFamily
from repro.video.synth import ClipSynthesizer

KF_RATE = 1.0


def _detector(query_ids, num_frames, threshold=0.7):
    family = MinHashFamily(num_hashes=128, seed=5)
    queries = QuerySet.from_cell_ids(
        {0: np.asarray(query_ids)}, {0: num_frames}, family
    )
    config = DetectorConfig(
        num_hashes=128, threshold=threshold, window_seconds=10.0
    )
    return StreamingDetector(config, queries, KF_RATE)


def _monitor(query_ids, num_frames, **kwargs):
    return LiveMonitor(
        _detector(query_ids, num_frames, **kwargs), FingerprintExtractor()
    )


class TestBuffering:
    def test_partial_pushes_buffer(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        assert monitor.push_cell_ids(rng.integers(0, 500, size=7)) == []
        assert monitor.pending_frames == 7
        monitor.push_cell_ids(rng.integers(0, 500, size=7))
        assert monitor.pending_frames == 4  # one full window consumed
        assert monitor.frames_consumed == 10

    def test_chunked_equals_oneshot(self, rng):
        copy = np.arange(1000, 1040)
        stream = np.concatenate(
            [rng.integers(100_000, 500_000, size=53), copy,
             rng.integers(100_000, 500_000, size=47)]
        )

        oneshot = _detector(copy, 40)
        expected = {
            (m.qid, m.start_frame, m.end_frame)
            for m in oneshot.process_cell_ids(stream)
        }

        monitor = _monitor(copy, 40)
        got = []
        cursor = 0
        chunk_sizes = [7, 13, 31, 9, 22, 50]
        while cursor < len(stream):
            size = chunk_sizes[len(got) % len(chunk_sizes)]
            got.extend(monitor.push_cell_ids(stream[cursor : cursor + size]))
            cursor += size
        got.extend(monitor.flush())
        assert {(m.qid, m.start_frame, m.end_frame) for m in got} == expected

    def test_flush_processes_tail(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=15))
        assert monitor.pending_frames == 5
        monitor.flush()
        assert monitor.pending_frames == 0

    def test_push_after_flush_rejected(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.flush()
        with pytest.raises(DetectionError):
            monitor.push_cell_ids(rng.integers(0, 500, size=5))

    def test_double_flush_is_noop(self):
        monitor = _monitor(np.arange(1000, 1040), 40)
        assert monitor.flush() == []
        assert monitor.flush() == []

    def test_rejects_bad_shape(self):
        monitor = _monitor(np.arange(1000, 1040), 40)
        with pytest.raises(DetectionError):
            monitor.push_cell_ids(np.zeros((2, 2)))


class TestFrameAccounting:
    def test_frames_consumed_exact_after_flush(self, rng):
        """Regression: a flushed partial tail window must count its true
        frame contribution, not a full ``window_frames``.

        With w=10, a 15-frame stream flushes a 5-frame tail; the old
        ``windows_processed * window_frames`` derivation reported 20.
        """
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=15))
        assert monitor.frames_consumed == 10
        monitor.flush()
        assert monitor.detector.stats.windows_processed == 2
        assert monitor.frames_consumed == 15  # not 2 * 10 == 20

    def test_frames_consumed_plus_pending_is_total(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        total = 0
        for size in (3, 17, 8, 25, 4):
            monitor.push_cell_ids(rng.integers(0, 500, size=size))
            total += size
            assert monitor.frames_consumed + monitor.pending_frames == total
        monitor.flush()
        assert monitor.frames_consumed == total
        assert monitor.pending_frames == 0

    def test_partial_windows_counter_set_by_flush(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=12))
        assert monitor.detector.stats.partial_windows == 0
        monitor.flush()
        assert monitor.detector.stats.partial_windows == 1


class TestInputAdapters:
    def test_push_frames_detects_copy(self):
        synth = ClipSynthesizer(seed=31)
        clip = synth.generate_clip(30.0, label="content", fps=2.0)
        extractor = FingerprintExtractor()
        query_ids = extractor.cell_ids_from_clip(clip)

        detector = _detector(query_ids, clip.num_frames, threshold=0.6)
        monitor = LiveMonitor(detector, extractor)
        filler = synth.generate_clip(40.0, label="filler", fps=2.0)
        matches = []
        matches += monitor.push_frames(filler)
        matches += monitor.push_frames(clip)
        matches += monitor.push_frames(
            synth.generate_clip(40.0, label="tail", fps=2.0)
        )
        matches += monitor.flush()
        assert matches

    def test_push_encoded_detects_copy(self):
        synth = ClipSynthesizer(seed=32)
        clip = synth.generate_clip(20.0, label="content", fps=2.0)
        extractor = FingerprintExtractor()
        encoded_query = encode_video(
            clip.frames, fps=clip.fps, quality=90, gop_size=1
        )
        query_ids = extractor.cell_ids_from_encoded(encoded_query)

        detector = _detector(query_ids, clip.num_frames, threshold=0.6)
        monitor = LiveMonitor(detector, extractor)
        filler = synth.generate_clip(30.0, label="filler", fps=2.0)
        matches = []
        matches += monitor.push_encoded(
            encode_video(filler.frames, fps=filler.fps, quality=80, gop_size=1)
        )
        # The copy arrives re-compressed at a different quality.
        matches += monitor.push_encoded(
            encode_video(clip.frames, fps=clip.fps, quality=70, gop_size=1)
        )
        matches += monitor.flush()
        assert matches

    def test_push_clip_object(self):
        synth = ClipSynthesizer(seed=33)
        clip = synth.generate_clip(10.0, label="c", fps=2.0)
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_frames(clip)  # accepted, no crash
        assert monitor.frames_consumed + monitor.pending_frames == clip.num_frames


class TestSkipFrames:
    """skip_frames keeps the window clock honest across decode gaps."""

    def test_whole_window_gap_on_boundary(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=10))
        monitor.skip_frames(20)  # exactly two windows
        stats = monitor.detector.stats
        assert stats.windows_skipped == 2
        assert stats.frames_skipped == 20
        assert monitor.skip_remaining == 0
        assert monitor.frames_consumed == 30  # clock includes the gap
        monitor.push_cell_ids(rng.integers(0, 500, size=10))
        assert stats.windows_processed == 4
        assert monitor.frames_consumed == 40

    def test_gap_ending_mid_window_drops_arrivals(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=7))  # pending 7
        monitor.skip_frames(4)  # gap covers frames 7..10
        stats = monitor.detector.stats
        # The partial window (7 pending) is sacrificed with the gap's
        # window: clock jumps to the next boundary past frame 11.
        assert monitor.pending_frames == 0
        assert stats.windows_skipped == 2
        assert stats.frames_skipped == 11  # 4 gap + 7 sacrificed pending
        assert monitor.skip_remaining == 9  # frames 11..19 drop on arrival
        monitor.push_cell_ids(rng.integers(0, 500, size=12))
        assert monitor.skip_remaining == 0
        assert monitor.pending_frames == 3
        assert stats.frames_skipped == 20

    def test_consecutive_gaps_merge(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=7))
        monitor.skip_frames(4)
        assert monitor.skip_remaining == 9
        monitor.skip_frames(2)  # still inside the sacrificed window
        assert monitor.skip_remaining == 7
        assert monitor.detector.stats.windows_skipped == 2  # no new window

    def test_zero_is_noop_and_negative_rejected(self):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.skip_frames(0)
        assert monitor.detector.stats.frames_skipped == 0
        with pytest.raises(DetectionError):
            monitor.skip_frames(-1)

    def test_skip_after_flush_rejected(self):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.flush()
        with pytest.raises(DetectionError):
            monitor.skip_frames(3)

    def test_flush_with_gap_pending_is_legal(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=10))
        monitor.skip_frames(5)
        assert monitor.skip_remaining == 5
        assert monitor.flush() == []
        assert monitor.skip_remaining == 0

    def test_gap_preserves_later_match_positions(self, rng):
        """A stream with an acknowledged gap produces the same matches,
        at the same absolute frame positions, as the full stream — minus
        any matches inside the sacrificed windows."""
        copy = np.arange(1000, 1010)
        head = rng.integers(100_000, 500_000, size=10)
        lost = rng.integers(100_000, 500_000, size=10)
        tail = rng.integers(100_000, 500_000, size=10)

        full = _monitor(copy, 10, threshold=0.6)
        complete = []
        complete += full.push_cell_ids(np.concatenate([head, lost, copy]))
        complete += full.push_cell_ids(tail)
        complete += full.flush()

        gapped = _monitor(copy, 10, threshold=0.6)
        observed = []
        observed += gapped.push_cell_ids(head)
        gapped.skip_frames(10)  # the 'lost' window never arrives
        observed += gapped.push_cell_ids(copy)
        observed += gapped.push_cell_ids(tail)
        observed += gapped.flush()

        keyed = lambda ms: {(m.qid, m.start_frame, m.end_frame) for m in ms}
        assert keyed(complete) & keyed(observed) == keyed(observed)
        # The copy window itself (frames 20..29) must survive the gap.
        assert any(m.start_frame == 20 for m in observed)

    def test_acknowledge_gap_rejected_after_partial_window(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=5))
        monitor.flush()  # processes a 5-frame partial window
        with pytest.raises(DetectionError):
            monitor.detector.acknowledge_gap(1)


class TestBufferRoundTrip:
    """buffer_state()/restore_buffer() must reproduce the monitor exactly
    (the oracle's own snapshot API)."""

    def _clone(self, monitor, query_ids=(0,), num_frames=40):
        fresh = _monitor(np.arange(1000, 1040), 40)
        pending, flushed, skip = monitor.buffer_state()
        fresh.restore_buffer(pending, flushed, skip)
        return fresh

    def test_pending_round_trip(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        chunk = rng.integers(0, 500, size=7)
        monitor.push_cell_ids(chunk)
        pending, flushed, skip = monitor.buffer_state()
        np.testing.assert_array_equal(pending, chunk)
        assert not flushed and skip == 0

    def test_skip_remaining_round_trip(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=7))
        monitor.skip_frames(4)
        restored = self._clone(monitor)
        assert restored.skip_remaining == monitor.skip_remaining
        assert restored.pending_frames == 0

    def test_flushed_round_trip_rejects_pushes(self, rng):
        monitor = _monitor(np.arange(1000, 1040), 40)
        monitor.push_cell_ids(rng.integers(0, 500, size=3))
        monitor.flush()
        restored = self._clone(monitor)
        with pytest.raises(DetectionError):
            restored.push_cell_ids(rng.integers(0, 500, size=3))
        assert restored.flush() == []  # idempotent after restore too

    def test_corrupt_snapshot_rejected(self):
        monitor = _monitor(np.arange(1000, 1040), 40)
        with pytest.raises(DetectionError):
            monitor.restore_buffer(np.arange(3), False, skip_remaining=2)
        with pytest.raises(DetectionError):
            monitor.restore_buffer(np.empty(0), False, skip_remaining=-1)

    def test_restored_monitor_continues_identically(self, rng):
        copy = np.arange(1000, 1010)
        stream = np.concatenate(
            [rng.integers(100_000, 500_000, size=17), copy,
             rng.integers(100_000, 500_000, size=13)]
        )
        reference = _monitor(copy, 10, threshold=0.6)
        expected = list(reference.push_cell_ids(stream))
        expected += reference.flush()

        first = _monitor(copy, 10, threshold=0.6)
        collected = list(first.push_cell_ids(stream[:17]))
        # Rebuild a monitor around a detector that replays the same
        # prefix, then splice in the buffered tail.
        second = _monitor(copy, 10, threshold=0.6)
        second.detector.process_cell_ids(stream[:10])
        pending, flushed, skip = first.buffer_state()
        second.restore_buffer(pending, flushed, skip)
        collected += second.push_cell_ids(stream[17:])
        collected += second.flush()
        keyed = lambda ms: [(m.qid, m.start_frame, m.end_frame) for m in ms]
        assert keyed(collected) == keyed(expected)
