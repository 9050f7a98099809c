"""Tests for fingerprint extraction: block means, Eq. (1), selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.gop import decode_dc_coefficients, encode_video
from repro.config import FingerprintConfig
from repro.errors import FeatureError
from repro.features.dc_extract import (
    block_means_from_dc_grids,
    block_means_from_encoded,
    block_means_from_frames,
    region_mean_grid,
)
from repro.features.normalize import normalize_features
from repro.features.pipeline import FingerprintExtractor
from repro.features.select import CoefficientSelector
from repro.video.synth import ClipSynthesizer


class TestBlockMeansFromFrames:
    def test_shape(self):
        frames = np.zeros((5, 12, 18))
        assert block_means_from_frames(frames, 3, 3).shape == (5, 9)

    def test_constant_frame(self):
        frames = np.full((2, 12, 12), 7.0)
        assert np.allclose(block_means_from_frames(frames), 7.0)

    def test_quadrant_values(self):
        frame = np.zeros((8, 8))
        frame[:4, :4] = 100.0
        frame[:4, 4:] = 20.0
        frame[4:, :4] = 60.0
        frame[4:, 4:] = 40.0
        means = block_means_from_frames(frame[np.newaxis], 2, 2)[0]
        assert np.allclose(means, [100.0, 20.0, 60.0, 40.0])

    def test_fractional_regions_unaligned(self):
        # 5 rows split in 3: regions of 5/3 rows each; the overall mean of
        # the region means must equal the frame mean for any frame.
        rng = np.random.default_rng(0)
        frame = rng.uniform(0, 255, size=(5, 7))
        means = block_means_from_frames(frame[np.newaxis], 3, 3)[0]
        assert means.mean() == pytest.approx(frame.mean())

    def test_global_mean_preserved(self):
        rng = np.random.default_rng(1)
        frames = rng.uniform(0, 255, size=(4, 30, 44))
        means = block_means_from_frames(frames, 3, 3)
        assert np.allclose(means.mean(axis=1), frames.mean(axis=(1, 2)))

    def test_resolution_invariance(self):
        # A frame and its nearest 2x upsampling share block means.
        rng = np.random.default_rng(2)
        small = rng.uniform(0, 255, size=(6, 9))
        big = np.kron(small, np.ones((2, 2)))
        a = block_means_from_frames(small[np.newaxis], 3, 3)
        b = block_means_from_frames(big[np.newaxis], 3, 3)
        assert np.allclose(a, b)

    def test_rejects_bad_ndim(self):
        with pytest.raises(FeatureError):
            block_means_from_frames(np.zeros((4, 4)))

    def test_rejects_too_many_blocks(self):
        with pytest.raises(FeatureError):
            block_means_from_frames(np.zeros((1, 2, 9)), 3, 3)

    def test_region_mean_grid_matches(self):
        rng = np.random.default_rng(3)
        frame = rng.uniform(0, 255, size=(12, 18))
        grid = region_mean_grid(frame, 3, 3)
        flat = block_means_from_frames(frame[np.newaxis], 3, 3)[0]
        assert np.allclose(grid.reshape(-1), flat)


class TestBlockMeansFromEncoded:
    def test_compressed_matches_pixel_path(self):
        clip = ClipSynthesizer(seed=4).generate_clip(4.0, label="c", fps=2.0)
        encoded = encode_video(clip.frames, fps=clip.fps, quality=95, gop_size=1)
        compressed = block_means_from_encoded(encoded)
        pixel = block_means_from_frames(clip.frames)
        # The compressed path treats each 8x8 block as uniform, so region
        # boundaries that cut through a block differ by up to the
        # intra-block gradient.
        errors = np.abs(compressed - pixel)
        assert errors.mean() < 1.5
        assert errors.max() < 5.0

    def test_keyframes_only(self):
        clip = ClipSynthesizer(seed=4).generate_clip(4.0, label="c", fps=2.0)
        encoded = encode_video(clip.frames, fps=clip.fps, quality=90, gop_size=3)
        means = block_means_from_encoded(encoded)
        assert means.shape[0] == encoded.num_keyframes


class TestBlockMeansFromDcGrids:
    @pytest.mark.parametrize("shape", [(6, 8), (5, 7), (3, 3), (9, 4)])
    def test_stacked_pass_is_byte_identical_to_per_frame(self, shape):
        rng = np.random.default_rng(8)
        grids = [rng.normal(0, 400, size=shape) for _ in range(5)]
        per_frame = np.vstack([
            region_mean_grid(grid / 8 + 128.0, 3, 3).reshape(-1)
            for grid in grids
        ])
        stacked = block_means_from_dc_grids(grids, 8)
        assert stacked.shape == (5, 9)
        assert stacked.tobytes() == per_frame.tobytes()
        # ... however the grids are grouped or held.
        assert block_means_from_dc_grids(np.stack(grids), 8).tobytes() == (
            stacked.tobytes()
        )
        assert block_means_from_dc_grids(grids[2:3], 8).tobytes() == (
            stacked[2:3].tobytes()
        )

    def test_encoded_path_is_the_same_body(self):
        clip = ClipSynthesizer(seed=4).generate_clip(4.0, label="c", fps=2.0)
        encoded = encode_video(clip.frames, fps=clip.fps, gop_size=3)
        grids = [grid for _, grid in decode_dc_coefficients(encoded)]
        assert block_means_from_encoded(encoded).tobytes() == (
            block_means_from_dc_grids(grids, encoded.block_size).tobytes()
        )

    def test_no_grids_rejected(self):
        with pytest.raises(FeatureError):
            block_means_from_dc_grids([], 8)


class TestNormalize:
    def test_unit_range(self):
        rng = np.random.default_rng(5)
        means = rng.uniform(0, 255, size=(10, 9))
        normalized = normalize_features(means)
        assert np.allclose(normalized.min(axis=1), 0.0)
        assert np.allclose(normalized.max(axis=1), 1.0)

    def test_gain_invariance(self):
        rng = np.random.default_rng(6)
        means = rng.uniform(10, 200, size=(5, 9))
        assert np.allclose(
            normalize_features(means), normalize_features(means * 1.7)
        )

    def test_offset_invariance(self):
        rng = np.random.default_rng(7)
        means = rng.uniform(10, 200, size=(5, 9))
        assert np.allclose(
            normalize_features(means), normalize_features(means + 30.0)
        )

    def test_flat_frame_maps_to_half(self):
        means = np.full((2, 9), 42.0)
        assert np.allclose(normalize_features(means), 0.5)

    def test_mixed_flat_and_normal(self):
        means = np.vstack([np.full(9, 1.0), np.arange(9.0)])
        normalized = normalize_features(means)
        assert np.allclose(normalized[0], 0.5)
        assert normalized[1, 0] == 0.0 and normalized[1, -1] == 1.0

    def test_rejects_bad_ndim(self):
        with pytest.raises(FeatureError):
            normalize_features(np.zeros(9))

    @settings(max_examples=30)
    @given(
        arrays(
            np.float64,
            (3, 9),
            elements=st.floats(0, 255, allow_nan=False),
        )
    )
    def test_output_always_in_unit_interval(self, means):
        normalized = normalize_features(means)
        assert (normalized >= 0.0).all() and (normalized <= 1.0).all()


class TestSelector:
    def test_spread_default_indices(self):
        selector = CoefficientSelector(d=5, num_blocks=9)
        assert list(selector.indices) == [0, 2, 4, 6, 8]

    def test_spread_all(self):
        selector = CoefficientSelector(d=9, num_blocks=9)
        assert list(selector.indices) == list(range(9))

    def test_first(self):
        selector = CoefficientSelector(d=3, num_blocks=9, strategy="first")
        assert list(selector.indices) == [0, 1, 2]

    def test_center_out(self):
        selector = CoefficientSelector(d=1, num_blocks=9, strategy="center_out")
        assert list(selector.indices) == [4]  # centre of a 3x3 grid

    def test_center_out_five(self):
        selector = CoefficientSelector(d=5, num_blocks=9, strategy="center_out")
        picked = set(selector.indices.tolist())
        assert 4 in picked  # centre always included
        assert len(picked) == 5

    @pytest.mark.parametrize("strategy", ["spread", "first", "center_out"])
    def test_indices_computed_once_and_read_only(self, strategy):
        selector = CoefficientSelector(d=4, num_blocks=9, strategy=strategy)
        assert selector.indices is selector.indices
        with pytest.raises(ValueError):
            selector.indices[0] = 8
        assert selector == CoefficientSelector(
            d=4, num_blocks=9, strategy=strategy
        )

    def test_indices_always_distinct(self):
        for d in range(1, 10):
            selector = CoefficientSelector(d=d, num_blocks=9)
            assert len(set(selector.indices.tolist())) == d

    def test_apply(self):
        features = np.arange(18.0).reshape(2, 9)
        selector = CoefficientSelector(d=3, num_blocks=9, strategy="first")
        assert np.array_equal(selector.apply(features), features[:, :3])

    def test_apply_rejects_wrong_width(self):
        selector = CoefficientSelector(d=3, num_blocks=9)
        with pytest.raises(FeatureError):
            selector.apply(np.zeros((2, 8)))

    def test_rejects_bad_d(self):
        with pytest.raises(FeatureError):
            CoefficientSelector(d=0, num_blocks=9)
        with pytest.raises(FeatureError):
            CoefficientSelector(d=10, num_blocks=9)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(FeatureError):
            CoefficientSelector(d=3, num_blocks=9, strategy="magic")


class TestFingerprintExtractor:
    def test_feature_shape(self, extractor):
        clip = ClipSynthesizer(seed=8).generate_clip(5.0, label="c", fps=2.0)
        features = extractor.features_from_clip(clip)
        assert features.shape == (clip.num_frames, extractor.config.d)

    def test_cell_ids_in_range(self, extractor):
        clip = ClipSynthesizer(seed=8).generate_clip(5.0, label="c", fps=2.0)
        ids = extractor.cell_ids_from_clip(clip)
        assert ids.shape == (clip.num_frames,)
        assert (ids >= 0).all()
        assert (ids < extractor.config.num_cells).all()

    def test_compressed_and_pixel_paths_agree(self, extractor):
        clip = ClipSynthesizer(seed=8).generate_clip(4.0, label="c", fps=2.0)
        encoded = encode_video(clip.frames, fps=clip.fps, quality=95, gop_size=1)
        pixel_ids = extractor.cell_ids_from_clip(clip)
        compressed_ids = extractor.cell_ids_from_encoded(encoded)
        agreement = (pixel_ids == compressed_ids).mean()
        assert agreement > 0.85

    def test_brightness_invariance_of_cells(self, extractor):
        clip = ClipSynthesizer(seed=8).generate_clip(10.0, label="c", fps=2.0)
        dimmed = clip.with_frames(clip.frames * 0.8)
        a = extractor.cell_ids_from_clip(clip)
        b = extractor.cell_ids_from_clip(dimmed)
        assert np.array_equal(a, b)

    def test_custom_config(self):
        extractor = FingerprintExtractor(config=FingerprintConfig(d=3, u=2))
        clip = ClipSynthesizer(seed=8).generate_clip(5.0, label="c", fps=2.0)
        ids = extractor.cell_ids_from_clip(clip)
        assert (ids < 2 * 3 * 2**3).all()
