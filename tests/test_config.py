"""Tests for the configuration dataclasses."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    CombinationOrder,
    DetectorConfig,
    FingerprintConfig,
    Representation,
    ScaleProfile,
    TABLE1_DEFAULTS,
)
from repro.errors import ConfigError


class TestFingerprintConfig:
    def test_defaults_match_table1(self):
        config = FingerprintConfig()
        assert config.d == TABLE1_DEFAULTS["d"]
        assert config.u == TABLE1_DEFAULTS["u"]
        assert config.num_blocks == 9

    def test_num_cells(self):
        assert FingerprintConfig(d=5, u=4).num_cells == 2 * 5 * 4**5
        assert FingerprintConfig(d=3, u=2).num_cells == 48

    def test_rejects_d_exceeding_blocks(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(block_rows=2, block_cols=2, d=5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            FingerprintConfig(d=0)
        with pytest.raises(ConfigError):
            FingerprintConfig(u=0)


class TestDetectorConfig:
    def test_defaults_match_table1(self):
        config = DetectorConfig()
        assert config.num_hashes == TABLE1_DEFAULTS["num_hashes"]
        assert config.threshold == TABLE1_DEFAULTS["threshold"]
        assert config.window_seconds == TABLE1_DEFAULTS["window_seconds"]
        assert config.order is CombinationOrder.SEQUENTIAL
        assert config.representation is Representation.BIT
        assert config.use_index and config.prune

    def test_max_windows_for(self):
        config = DetectorConfig(window_seconds=5.0, tempo_scale=2.0)
        assert config.max_windows_for(30.0) == 12
        assert config.max_windows_for(1.0) == 1

    def test_max_windows_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DetectorConfig().max_windows_for(0.0)

    def test_replace(self):
        config = DetectorConfig().replace(num_hashes=100)
        assert config.num_hashes == 100
        assert config.threshold == 0.7

    def test_engine_implementation_is_not_configurable(self):
        """The paper's eight parameters and no ninth: which kernels run
        is not a setting (the scalar oracle lives in repro.reference)."""
        assert len(dataclasses.fields(DetectorConfig)) == 8
        with pytest.raises(TypeError):
            DetectorConfig(vectorized=False)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            DetectorConfig(num_hashes=0)
        with pytest.raises(ConfigError):
            DetectorConfig(threshold=1.5)
        with pytest.raises(ConfigError):
            DetectorConfig(window_seconds=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(tempo_scale=0.5)


class TestScaleProfile:
    def test_seconds_to_keyframes(self):
        profile = ScaleProfile(keyframes_per_second=2.0)
        assert profile.seconds_to_keyframes(10.0) == 20
        assert profile.seconds_to_keyframes(0.1) == 1

    def test_paper_scale(self):
        paper = ScaleProfile.paper_scale()
        assert paper.stream_seconds == 12 * 3600.0
        assert paper.num_queries == 200
        assert paper.query_max_seconds == 300.0

    def test_smoke_scale_is_small(self):
        smoke = ScaleProfile.smoke_scale()
        assert smoke.stream_seconds < 600
        assert smoke.num_queries <= 5

    def test_replace(self):
        profile = ScaleProfile().replace(num_queries=3)
        assert profile.num_queries == 3

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            ScaleProfile(query_min_seconds=50.0, query_max_seconds=10.0)
        with pytest.raises(ConfigError):
            ScaleProfile(stream_seconds=0.0)
        with pytest.raises(ConfigError):
            ScaleProfile(keyframes_per_second=0.0)
