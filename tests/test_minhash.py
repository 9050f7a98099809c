"""Tests for the min-hash family, sketches and basic windows."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.membership import jaccard_similarity
from repro.errors import SketchError
from repro.core.query import QuerySet
from repro.minhash.family import (
    MERSENNE_PRIME_31,
    MinHashFamily,
    _mix_bits,
    _reduce_mod_prime,
)
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
        with pytest.raises(TypeError):  # the prime is not an option
            MinHashFamily(num_hashes=4, prime=MERSENNE_PRIME_31)

    def test_rejects_a_prime_whose_hashes_overflow_int64(self):
        """Every family hashes modulo 2**31 - 1, so a query-set payload
        recording any other prime is refused on load, with its source
        and the value named."""
        family = MinHashFamily(num_hashes=8, seed=3)
        ids = np.array([0, 1, 977, 123456789], dtype=np.int64)
        payload = query_set_payload(
            QuerySet.from_cell_ids({1: ids}, {1: 4}, family)
        )
        for prime in ((1 << 61) - 1, 1 << 32, (1 << 32) - 5, 1):
            payload["family_prime"] = np.array([prime])
            with pytest.raises(SketchError, match=f"queries.npz.*{prime}"):
                query_set_from_mapping(payload, source="queries.npz")
        payload["family_prime"] = np.array([MERSENNE_PRIME_31])
        loaded = query_set_from_mapping(payload)
        assert np.array_equal(
            loaded.get(1).sketch.values, family.sketch(ids).values
        )

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


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<i8").tobytes()
    ).hexdigest()


#: Sketches and hashes of ``GOLDEN_IDS`` recorded before the hash moved
#: from an integer ``%`` to the shift-and-add reduction: archives and
#: checkpoints hold values the stream must keep reproducing, so the
#: family's output is pinned, not just self-consistent. Each entry is
#: the leading values and a SHA-256 over all of them as little-endian
#: int64 (row-major).
GOLDEN_IDS = [0, 1, 977, 40959, 11529601]
GOLDEN = {
    0: {
        "sketch": (
            [568417369, 317383238, 8140291, 282433621],
            "9bee8cec4565c70becc62e60568a9b344eaf27caac027b279d71e5df375f65de",
        ),
        "hash_values": (
            [1846674249, 784459827, 733835639, 568417369, 896187488],
            "2dedc477e3e19dc37b43367d1d134fd3191088e347fdb03bda640eb73a021700",
        ),
    },
    7: {
        "sketch": (
            [495030645, 737248730, 607299332, 62427157],
            "304c6db0d17243d7d06716e81f1e2c2233149b05277de34d92917363c7d6cf7c",
        ),
        "hash_values": (
            [813841223, 1809131203, 1087044932, 1963030138, 495030645],
            "9ec52d2f4deb31059120d3ff85b9fdfef9529633efa3d6515cabadc94e62a141",
        ),
    },
}
#: One ``sketch_many`` block of three sets, seed 7, K = 256: each row's
#: leading values and the digest of the whole ``(3, 256)`` block.
GOLDEN_BLOCK = (
    [0, 1, 977, 40959, 11529601, 977, 5],
    [0, 3, 4],
    [
        [813841223, 737248730, 1041234159],
        [1963030138, 1414951962, 607299332],
        [495030645, 1283179415, 925718859],
    ],
    "af1268fcfdb3dae966ef0c8cd6ce10ad6440ffa5c059ad1410f5640e691eaf44",
)


class TestHashKernel:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_values(self, seed):
        family = MinHashFamily(num_hashes=256, seed=seed)
        sketch = family.sketch(np.array(GOLDEN_IDS)).values
        head, digest = GOLDEN[seed]["sketch"]
        assert sketch.dtype == np.int64
        assert sketch[:4].tolist() == head and _digest(sketch) == digest
        hashed = family.hash_values(np.array(GOLDEN_IDS))
        head, digest = GOLDEN[seed]["hash_values"]
        assert hashed.shape == (256, len(GOLDEN_IDS))
        assert hashed[0].tolist() == head and _digest(hashed) == digest

    def test_golden_block(self):
        elements, starts, heads, digest = GOLDEN_BLOCK
        block = MinHashFamily(num_hashes=256, seed=7).sketch_many(
            np.array(elements), np.array(starts)
        ).values
        assert block.shape == (3, 256) and block.dtype == np.int64
        assert block[:, :3].tolist() == heads and _digest(block) == digest

    @pytest.mark.parametrize(
        "h",
        [
            0,
            MERSENNE_PRIME_31 - 1,
            MERSENNE_PRIME_31,
            2 * MERSENNE_PRIME_31 - 1,
            # the largest reachable: a = p - 1, m(x) = 2**31 - 2, b = p - 1
            (MERSENNE_PRIME_31 - 1) * ((1 << 31) - 2) + MERSENNE_PRIME_31 - 1,
        ],
    )
    def test_reduction_is_exact_at_the_edges(self, h):
        values = np.array([h], dtype=np.uint64)
        _reduce_mod_prime(values, np.empty_like(values))
        assert int(values[0]) == h % MERSENNE_PRIME_31

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, MERSENNE_PRIME_31 - 1),
                st.integers(0, (1 << 31) - 2),
                st.integers(0, MERSENNE_PRIME_31 - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_reduction_equals_big_int_mod(self, triples):
        """``(a m + b) mod p`` for every ``(a, m, b)`` a family can
        meet, against Python's arbitrary-precision ``%``."""
        values = np.array([a * m + b for a, m, b in triples], dtype=np.uint64)
        _reduce_mod_prime(values, np.empty_like(values))
        assert values.tolist() == [
            (a * m + b) % MERSENNE_PRIME_31 for a, m, b in triples
        ]

    def test_hash_values_equal_big_int_arithmetic_across_blocks(self):
        family = MinHashFamily(num_hashes=8, seed=3)
        ids = np.random.default_rng(0).integers(0, 1 << 24, size=130)
        mixed = _mix_bits(ids).tolist()
        want = [
            [(int(a) * m + int(b)) % MERSENNE_PRIME_31 for m in mixed]
            for a, b in zip(family._a, family._b)
        ]
        assert family.hash_values(ids).tolist() == want

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 1000])
    def test_sketch_many_of_one_set_equals_sketch(self, size):
        family = MinHashFamily(num_hashes=32, seed=5)
        ids = np.random.default_rng(size).choice(1 << 20, size, replace=False)
        block = family.sketch_many(ids, np.array([0])).values
        assert np.array_equal(block[0], family.sketch(ids).values)

    @pytest.mark.parametrize(
        "sizes",
        [
            [1] * 70,  # one-element sets across a block edge
            [60, 10, 1, 65, 64, 63, 200],  # sets straddling block edges
            [64, 64, 1],
        ],
    )
    def test_sketch_many_equals_per_set_sketch(self, sizes):
        family = MinHashFamily(num_hashes=32, seed=5)
        rng = np.random.default_rng(len(sizes))
        sets = [rng.choice(1 << 20, size, replace=False) for size in sizes]
        starts = np.cumsum([0] + sizes[:-1])
        block = family.sketch_many(np.concatenate(sets), starts).values
        assert block.shape == (len(sizes), 32)
        for row, elements in zip(block, sets):
            assert np.array_equal(row, family.sketch(elements).values)


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
