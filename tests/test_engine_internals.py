"""White-box tests of the engine internals (ladder structure, stats).

The Geometric ladder is the oracle's (``repro.reference``): production
runs the Sequential order only."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.monitor import EngineStats
from repro.core.query import QuerySet
from repro.minhash.family import MinHashFamily
from repro.reference import GeometricEngine, ReferenceDetector

KF_RATE = 1.0


def _detector(order=CombinationOrder.GEOMETRIC, representation=Representation.BIT,
              window_seconds=10.0, num_query_frames=200,
              detector_cls=ReferenceDetector, use_index=False):
    family = MinHashFamily(num_hashes=64, seed=2)
    queries = QuerySet.from_cell_ids(
        {0: np.arange(1000, 1100)}, {0: num_query_frames}, family
    )
    config = DetectorConfig(
        num_hashes=64,
        order=order,
        representation=representation,
        window_seconds=window_seconds,
        use_index=use_index,
    )
    return detector_cls(config, queries, KF_RATE)


class TestGeometricLadder:
    def test_binary_counter_sizes(self, rng):
        """After n windows the ladder sizes are the binary decomposition
        of n (while under the expiry cap)."""
        detector = _detector()
        engine = detector.engine
        assert type(engine) is GeometricEngine
        for n in range(1, 14):
            detector.process_cell_ids(rng.integers(0, 500, size=10))
            sizes = [segment.size for segment in engine.segments]
            expected = [
                1 << bit for bit in range(n.bit_length()) if n & (1 << bit)
            ]
            assert sorted(sizes) == sorted(expected), (n, sizes)

    def test_reference_ladder_has_the_same_shape(self, rng):
        """The whole ladder after every window: binary-counter sizes,
        strictly decreasing toward the tail, contiguous in frames."""
        detector = _detector()
        engine = detector.engine
        for n in range(1, 14):
            detector.process_cell_ids(rng.integers(0, 500, size=10))
            sizes = [segment.size for segment in engine.segments]
            assert sizes == [
                1 << bit
                for bit in reversed(range(n.bit_length()))
                if n & (1 << bit)
            ], (n, sizes)
            cursor = engine.segments[0].start_frame
            for segment in engine.segments:
                assert segment.start_frame == cursor
                cursor = segment.end_frame

    def test_sizes_strictly_decreasing_toward_tail(self, rng):
        detector = _detector()
        engine = detector.engine
        detector.process_cell_ids(rng.integers(0, 500, size=11 * 10))
        sizes = [segment.size for segment in engine.segments]
        assert all(a > b for a, b in zip(sizes, sizes[1:])), sizes

    def test_segments_are_contiguous(self, rng):
        detector = _detector()
        engine = detector.engine
        detector.process_cell_ids(rng.integers(0, 500, size=13 * 10))
        cursor = engine.segments[0].start_frame
        for segment in engine.segments:
            assert segment.start_frame == cursor
            cursor = segment.end_frame

    def test_expiry_drops_oldest(self, rng):
        # Query 200 frames -> cap = ceil(2*200/10) = 40 windows.
        detector = _detector()
        engine = detector.engine
        detector.process_cell_ids(rng.integers(0, 500, size=100 * 10))
        total = sum(segment.size for segment in engine.segments)
        assert total <= detector.context.global_max_windows
        assert detector.stats.expired_candidates > 0


class TestEngineStatsAccounting:
    def test_probe_count_matches_windows(self, rng):
        family = MinHashFamily(num_hashes=64, seed=2)
        queries = QuerySet.from_cell_ids(
            {0: np.arange(1000, 1100)}, {0: 50}, family
        )
        detector = StreamingDetector(
            DetectorConfig(num_hashes=64, window_seconds=10.0, use_index=True),
            queries,
            KF_RATE,
        )
        detector.process_cell_ids(rng.integers(0, 500, size=70))
        assert detector.stats.index_probes == detector.stats.windows_processed == 7

    def test_bit_mode_never_combines_sketches(self, rng):
        """Production (with the index) and the oracle without it."""
        for detector_cls, use_index in (
            (StreamingDetector, True), (ReferenceDetector, False)
        ):
            detector = _detector(
                order=CombinationOrder.SEQUENTIAL,
                representation=Representation.BIT,
                detector_cls=detector_cls, use_index=use_index,
            )
            detector.process_cell_ids(rng.integers(0, 500, size=200))
            assert detector.stats.sketch_combines == 0
            assert detector.stats.sketch_comparisons == 0

    def test_sketch_mode_never_uses_signatures(self, rng):
        detector = _detector(
            order=CombinationOrder.SEQUENTIAL,
            representation=Representation.SKETCH,
        )
        detector.process_cell_ids(rng.integers(0, 500, size=200))
        assert detector.stats.signature_combines == 0
        assert detector.stats.signature_encodes == 0

    def test_signature_memory_bytes(self):
        stats = EngineStats()
        stats.signatures_maintained.extend([10.0, 20.0])
        assert stats.signature_memory_bytes(num_hashes=400) == pytest.approx(
            15.0 * 800 / 8
        )

    def test_summary_format(self):
        stats = EngineStats()
        stats.windows_processed = 5
        text = stats.summary()
        assert "windows=5" in text and "matches=0" in text


class TestWindowSeconds:
    def test_window_frames_rounding(self):
        detector = _detector(window_seconds=7.4)
        assert detector.window_frames == 7
        detector = _detector(window_seconds=7.6)
        assert detector.window_frames == 8

    def test_subsecond_window_clamps_to_one_frame(self):
        detector = _detector(window_seconds=0.2)
        assert detector.window_frames == 1
