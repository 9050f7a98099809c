"""Tests for the min-hash family, sketches and basic windows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.membership import jaccard_similarity
from repro.errors import SketchError
from repro.core.query import QuerySet
from repro.minhash.family import MERSENNE_PRIME_31, MinHashFamily, _mix_bits
from repro.persistence import query_set_from_mapping, query_set_payload
from repro.minhash.sketch import Sketch
from repro.minhash.windows import iter_basic_windows


class TestMinHashFamily:
    def test_deterministic(self):
        a = MinHashFamily(num_hashes=16, seed=1)
        b = MinHashFamily(num_hashes=16, seed=1)
        assert np.array_equal(
            a.sketch([1, 2, 3]).values, b.sketch([1, 2, 3]).values
        )

    def test_seed_changes_values(self):
        a = MinHashFamily(num_hashes=16, seed=1).sketch([1, 2, 3])
        b = MinHashFamily(num_hashes=16, seed=2).sketch([1, 2, 3])
        assert not np.array_equal(a.values, b.values)

    def test_fingerprint(self):
        family = MinHashFamily(num_hashes=16, seed=1)
        assert family.fingerprint == (16, 1, MERSENNE_PRIME_31)

    def test_hash_values_shape_and_range(self):
        family = MinHashFamily(num_hashes=8, seed=0)
        values = family.hash_values(np.array([0, 5, 100]))
        assert values.shape == (8, 3)
        assert (values >= 0).all() and (values < family.prime).all()

    def test_rejects_out_of_domain(self):
        family = MinHashFamily(num_hashes=4, seed=0)
        with pytest.raises(SketchError):
            family.hash_values(np.array([-1]))
        with pytest.raises(SketchError):
            family.hash_values(np.array([family.prime]))

    def test_rejects_bad_construction(self):
        with pytest.raises(SketchError):
            MinHashFamily(num_hashes=0)
        with pytest.raises(SketchError):
            MinHashFamily(num_hashes=4, prime=1)

    def test_rejects_a_prime_whose_hashes_overflow_int64(self):
        """``a·m(x) + b`` is int64 arithmetic: with p = 2**61 − 1 it wraps
        and the values stop being ``(a·m(x) + b) mod p``. Such a family
        is refused, built or loaded back; the largest prime below 2**32
        hashes exactly."""
        for prime in ((1 << 61) - 1, 1 << 32):
            with pytest.raises(SketchError, match="below 2"):
                MinHashFamily(num_hashes=4, prime=prime)
        family = MinHashFamily(num_hashes=8, seed=3, prime=(1 << 32) - 5)
        ids = np.array([0, 1, 977, 123456789], dtype=np.int64)
        mixed = _mix_bits(ids).tolist()
        want = [
            [(int(a) * m + int(b)) % family.prime for m in mixed]
            for a, b in zip(family._a, family._b)
        ]
        assert family.hash_values(ids).tolist() == want
        payload = query_set_payload(
            QuerySet.from_cell_ids({1: ids}, {1: 4}, family)
        )
        payload["family_prime"] = np.array([(1 << 61) - 1])
        with pytest.raises(SketchError):
            query_set_from_mapping(payload)

    def test_sketch_duplicates_ignored(self):
        family = MinHashFamily(num_hashes=16, seed=1)
        assert np.array_equal(
            family.sketch([3, 3, 3, 7]).values, family.sketch([3, 7]).values
        )

    def test_empty_sketch(self):
        family = MinHashFamily(num_hashes=16, seed=1)
        empty = family.sketch([])
        assert empty.is_empty()
        assert (empty.values == family.prime).all()

    def test_sketch_accepts_ndarray(self):
        family = MinHashFamily(num_hashes=8, seed=1)
        assert np.array_equal(
            family.sketch(np.array([1, 5])).values, family.sketch([1, 5]).values
        )


class TestSketch:
    def test_combine_is_elementwise_min(self, family):
        a = family.sketch([1, 2])
        b = family.sketch([3, 4])
        combined = a.combine(b)
        assert np.array_equal(combined.values, np.minimum(a.values, b.values))

    def test_combine_equals_union_sketch(self, family):
        """Property 1: sketch(A ∪ B) == combine(sketch(A), sketch(B))."""
        a = family.sketch([1, 2, 9])
        b = family.sketch([2, 7, 40])
        union = family.sketch([1, 2, 7, 9, 40])
        assert np.array_equal(a.combine(b).values, union.values)

    def test_combine_associative_commutative_idempotent(self, family):
        a, b, c = (family.sketch(s) for s in ([1, 2], [3], [4, 5, 6]))
        assert np.array_equal(
            a.combine(b).combine(c).values, a.combine(b.combine(c)).values
        )
        assert np.array_equal(a.combine(b).values, b.combine(a).values)
        assert np.array_equal(a.combine(a).values, a.values)

    def test_empty_is_identity(self, family):
        a = family.sketch([1, 2, 3])
        assert np.array_equal(a.combine(family.empty_sketch()).values, a.values)

    def test_self_similarity_is_one(self, family):
        a = family.sketch([1, 2, 3])
        assert a.similarity(a) == 1.0

    def test_disjoint_similarity_near_zero(self):
        family = MinHashFamily(num_hashes=256, seed=9)
        a = family.sketch(range(0, 50))
        b = family.sketch(range(1000, 1050))
        assert a.similarity(b) < 0.05

    def test_cross_family_rejected(self):
        a = MinHashFamily(num_hashes=8, seed=1).sketch([1])
        b = MinHashFamily(num_hashes=8, seed=2).sketch([1])
        with pytest.raises(SketchError):
            a.combine(b)
        with pytest.raises(SketchError):
            a.similarity(b)

    def test_width_mismatch_rejected(self):
        with pytest.raises(SketchError):
            Sketch(values=np.zeros(4, dtype=np.int64), family=(8, 0, 31))

    def test_equal_count(self, family):
        a = family.sketch([1, 2, 3])
        assert a.equal_count(a) == family.num_hashes

    def test_copy_is_independent(self, family):
        a = family.sketch([1, 2])
        b = a.copy()
        b.values[0] = -1
        assert a.values[0] != -1


class TestJaccardEstimation:
    """The statistical heart: sketch similarity estimates Jaccard."""

    @pytest.mark.parametrize("overlap", [0.2, 0.5, 0.8])
    def test_estimator_tracks_jaccard(self, overlap):
        family = MinHashFamily(num_hashes=2048, seed=42)
        shared = int(100 * overlap / (2 - overlap))  # |A∩B| for target J
        only = 100 - shared
        a = list(range(shared)) + list(range(1000, 1000 + only))
        b = list(range(shared)) + list(range(2000, 2000 + only))
        true_jaccard = jaccard_similarity(a, b)
        estimate = family.sketch(a).similarity(family.sketch(b))
        assert estimate == pytest.approx(true_jaccard, abs=0.05)

    def test_estimator_unbiased_across_seeds(self):
        a = list(range(30))
        b = list(range(15, 45))
        true_jaccard = jaccard_similarity(a, b)
        estimates = [
            MinHashFamily(num_hashes=128, seed=s).sketch(a).similarity(
                MinHashFamily(num_hashes=128, seed=s).sketch(b)
            )
            for s in range(20)
        ]
        assert np.mean(estimates) == pytest.approx(true_jaccard, abs=0.03)

    def test_more_hashes_less_variance(self):
        a = list(range(40))
        b = list(range(20, 60))
        def spread(num_hashes):
            estimates = [
                MinHashFamily(num_hashes=num_hashes, seed=s)
                .sketch(a)
                .similarity(MinHashFamily(num_hashes=num_hashes, seed=s).sketch(b))
                for s in range(15)
            ]
            return np.std(estimates)
        assert spread(512) < spread(32)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 500), min_size=1, max_size=60),
        st.sets(st.integers(0, 500), min_size=1, max_size=60),
    )
    def test_estimate_within_sampling_error(self, set_a, set_b):
        family = MinHashFamily(num_hashes=1024, seed=7)
        true_jaccard = jaccard_similarity(list(set_a), list(set_b))
        estimate = family.sketch(list(set_a)).similarity(
            family.sketch(list(set_b))
        )
        # 1024 hashes -> sampling std <= 0.016; allow 5 sigma.
        assert abs(estimate - true_jaccard) < 0.08


class TestBasicWindows:
    def test_window_count_and_indices(self, family):
        ids = np.arange(25)
        windows = list(iter_basic_windows(ids, 10, family))
        assert [w.index for w in windows] == [0, 1, 2]
        assert [w.num_frames for w in windows] == [10, 10, 5]

    def test_drop_partial(self, family):
        ids = np.arange(25)
        windows = list(iter_basic_windows(ids, 10, family, drop_partial=True))
        assert len(windows) == 2

    def test_frame_spans(self, family):
        windows = list(iter_basic_windows(np.arange(20), 10, family))
        assert windows[0].start_frame == 0 and windows[0].end_frame == 10
        assert windows[1].start_frame == 10 and windows[1].end_frame == 20

    def test_cell_ids_distinct_sorted(self, family):
        ids = np.array([5, 3, 5, 3, 1])
        window = next(iter(iter_basic_windows(ids, 5, family)))
        assert window.cell_ids.tolist() == [1, 3, 5]

    def test_sketch_matches_family(self, family):
        ids = np.array([5, 3, 5])
        window = next(iter(iter_basic_windows(ids, 3, family)))
        assert np.array_equal(window.sketch.values, family.sketch([3, 5]).values)

    def test_combined_windows_equal_whole(self, family):
        """Property 1 at the window level."""
        ids = np.arange(30)
        windows = list(iter_basic_windows(ids, 10, family))
        combined = windows[0].sketch.combine(windows[1].sketch).combine(
            windows[2].sketch
        )
        whole = family.sketch(ids)
        assert np.array_equal(combined.values, whole.values)

    def test_rejects_bad_window(self, family):
        with pytest.raises(SketchError):
            list(iter_basic_windows(np.arange(5), 0, family))

    def test_rejects_bad_ndim(self, family):
        with pytest.raises(SketchError):
            list(iter_basic_windows(np.zeros((2, 2)), 2, family))
