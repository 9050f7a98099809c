"""Unit tests for repro.utils (rng, bitops, timing, stats, validation)."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.utils.bitops import (
    bit_length_words,
    count_ones,
    count_zeros_in_low_bits,
    low_mask,
)
from repro.utils.rng import derive_seed, make_rng
from repro.utils.stats import RunningStats, mean, percentile
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    require,
    require_in_range,
    require_positive,
    require_type,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_purpose_separates(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_parent_separates(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_negative_parent_allowed(self):
        assert derive_seed(-5, "x") >= 0

    def test_63_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "p") < (1 << 63)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(3, "x").integers(0, 1000, size=10)
        b = make_rng(3, "x").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_purpose_different_stream(self):
        a = make_rng(3, "x").integers(0, 1000, size=10)
        b = make_rng(3, "y").integers(0, 1000, size=10)
        assert not np.array_equal(a, b)

    def test_no_purpose_uses_raw_seed(self):
        a = make_rng(3).integers(0, 1000, size=10)
        b = np.random.default_rng(3).integers(0, 1000, size=10)
        assert np.array_equal(a, b)


class TestBitops:
    def test_count_ones_zero(self):
        assert count_ones(0) == 0

    def test_count_ones_all(self):
        assert count_ones((1 << 100) - 1) == 100

    def test_count_ones_sparse(self):
        assert count_ones((1 << 5) | (1 << 77)) == 2

    def test_count_ones_rejects_negative(self):
        with pytest.raises(ValueError):
            count_ones(-1)

    def test_low_mask(self):
        assert low_mask(0) == 0
        assert low_mask(3) == 0b111

    def test_low_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            low_mask(-1)

    def test_count_zeros_in_low_bits(self):
        # 0b101 in width 4 has zeros at positions 1 and 3.
        assert count_zeros_in_low_bits(0b101, 4) == 2

    def test_count_zeros_ignores_high_bits(self):
        assert count_zeros_in_low_bits(0b11110000, 4) == 4

    def test_bit_length_words(self):
        assert bit_length_words(0) == 0
        assert bit_length_words(1) == 1
        assert bit_length_words(64) == 1
        assert bit_length_words(65) == 2

    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    def test_count_ones_matches_bin(self, value):
        assert count_ones(value) == bin(value).count("1")

    @given(
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.integers(min_value=0, max_value=128),
    )
    def test_zeros_plus_ones_is_width(self, value, width):
        masked = value & low_mask(width)
        assert count_zeros_in_low_bits(value, width) + count_ones(masked) == width


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        assert first >= 0.01
        with sw:
            time.sleep(0.01)
        assert sw.elapsed >= first + 0.01

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0

    def test_reset_running_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.reset()

    def test_running_property(self):
        sw = Stopwatch()
        assert not sw.running
        sw.start()
        assert sw.running
        sw.stop()
        assert not sw.running


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_generator_input(self):
        assert mean(x for x in (2.0, 4.0)) == 3.0


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([42.0], 75) == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRunningStats:
    def test_mean_and_count(self):
        rs = RunningStats()
        rs.extend([1.0, 2.0, 3.0])
        assert rs.count == 3
        assert rs.mean == pytest.approx(2.0)

    def test_min_max(self):
        rs = RunningStats()
        rs.extend([5.0, -1.0, 3.0])
        assert rs.minimum == -1.0
        assert rs.maximum == 5.0

    def test_variance_matches_numpy(self):
        values = [1.5, 2.5, 9.0, -4.0, 0.0]
        rs = RunningStats()
        rs.extend(values)
        assert rs.variance == pytest.approx(np.var(values, ddof=1))
        assert rs.stddev == pytest.approx(np.std(values, ddof=1))

    def test_empty_defaults(self):
        rs = RunningStats()
        assert rs.mean == 0.0
        assert rs.variance == 0.0

    def test_single_value_variance_zero(self):
        rs = RunningStats()
        rs.add(7.0)
        assert rs.variance == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_matches_numpy(self, values):
        rs = RunningStats()
        rs.extend(values)
        assert rs.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)

    def test_repr_mentions_count(self):
        rs = RunningStats()
        rs.add(1.0)
        assert "count=1" in repr(rs)


class TestValidation:
    def test_require_passes(self):
        require(True, "never")

    def test_require_raises(self):
        with pytest.raises(ConfigError, match="boom"):
            require(False, "boom")

    def test_require_positive(self):
        require_positive("x", 1)
        with pytest.raises(ConfigError):
            require_positive("x", 0)
        with pytest.raises(ConfigError):
            require_positive("x", -1)

    def test_require_in_range_inclusive(self):
        require_in_range("x", 0.5, 0.0, 1.0)
        require_in_range("x", 0.0, 0.0, 1.0)
        require_in_range("x", 1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            require_in_range("x", 1.01, 0.0, 1.0)

    def test_require_type(self):
        require_type("x", 3, int)
        with pytest.raises(ConfigError):
            require_type("x", "3", int)
