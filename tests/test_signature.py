"""Tests for bit-vector signatures (Definition 3, Lemmas 1 and 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureError
from repro.minhash.family import MinHashFamily
from repro.minhash.sketch import Sketch
from repro.signature.bitsig import BitSignature, pack_bool_planes, popcount_planes
from repro.signature.pruning import lemma2_bound, violates_lemma2


def _sketch(values, family=(None,)):
    array = np.asarray(values, dtype=np.int64)
    return Sketch(values=array, family=(len(array), 0, 1 << 31))


class TestEncode:
    def test_relations(self):
        candidate = _sketch([5, 3, 3])
        query = _sketch([3, 3, 5])
        signature = BitSignature.encode(candidate, query)
        assert signature.relation(0) == ">"
        assert signature.relation(1) == "="
        assert signature.relation(2) == "<"

    def test_counts(self):
        candidate = _sketch([5, 3, 3, 1])
        query = _sketch([3, 3, 5, 9])
        signature = BitSignature.encode(candidate, query)
        assert signature.n0 == 1  # one ">"
        assert signature.n1 == 2  # two "<"
        assert signature.equal_count == 1

    def test_lemma1_similarity(self):
        candidate = _sketch([1, 2, 3, 4])
        query = _sketch([1, 2, 9, 0])
        signature = BitSignature.encode(candidate, query)
        # 2 equal of 4 -> 0.5; n0=1 (4>0), n1=1 (3<9).
        assert signature.similarity == pytest.approx(0.5)

    def test_lemma1_matches_sketch_similarity(self):
        family = MinHashFamily(num_hashes=128, seed=3)
        a = family.sketch(range(0, 40))
        b = family.sketch(range(20, 60))
        signature = BitSignature.encode(a, b)
        assert signature.similarity == pytest.approx(a.similarity(b))

    def test_cross_family_rejected(self):
        a = MinHashFamily(num_hashes=8, seed=1).sketch([1])
        b = MinHashFamily(num_hashes=8, seed=2).sketch([1])
        with pytest.raises(SignatureError):
            BitSignature.encode(a, b)

    def test_definition3_pairs(self):
        candidate = _sketch([5, 3, 1])
        query = _sketch([3, 3, 3])
        vector = BitSignature.encode(candidate, query).interleaved()
        # ">" -> 00, "=" -> 01, "<" -> 11; pairs at (2r, 2r+1).
        assert (vector >> 0) & 0b11 == 0b00
        assert (vector >> 2) & 0b11 == 0b01
        assert (vector >> 4) & 0b11 == 0b11


class TestPackedPlanes:
    def test_zero_rows_pack_and_count(self):
        """An empty block (every pair pruned) packs to ``(0, W)``."""
        planes = pack_bool_planes(np.zeros((0, 256), dtype=bool))
        assert planes.shape == (0, 4) and planes.dtype == np.uint64
        assert popcount_planes(planes).shape == (0,)

    def test_popcount_counts_every_word(self):
        flags = np.random.default_rng(3).random((5, 3, 130)) < 0.5
        counts = popcount_planes(pack_bool_planes(flags))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, flags.sum(axis=-1))


class TestCombine:
    def test_or_matches_min_merge(self):
        """The six-case table of Section V-A, exhaustively."""
        query = _sketch([5])
        cases = [3, 5, 7]  # <, =, > relative to the query value
        for left in cases:
            for right in cases:
                sig_left = BitSignature.encode(_sketch([left]), query)
                sig_right = BitSignature.encode(_sketch([right]), query)
                merged_sketch = _sketch([min(left, right)])
                expected = BitSignature.encode(merged_sketch, query)
                combined = sig_left.combine(sig_right)
                assert combined.ge == expected.ge
                assert combined.lt == expected.lt

    def test_combine_wide_sketches(self):
        family = MinHashFamily(num_hashes=64, seed=4)
        query = family.sketch(range(30))
        part_a = family.sketch(range(0, 10))
        part_b = family.sketch(range(10, 40))
        whole = part_a.combine(part_b)
        combined = BitSignature.encode(part_a, query).combine(
            BitSignature.encode(part_b, query)
        )
        direct = BitSignature.encode(whole, query)
        assert combined.ge == direct.ge and combined.lt == direct.lt

    def test_combine_width_mismatch_rejected(self):
        a = BitSignature(ge=0, lt=0, num_hashes=4)
        b = BitSignature(ge=0, lt=0, num_hashes=8)
        with pytest.raises(SignatureError):
            a.combine(b)

    def test_similarity_monotone_under_combination(self):
        # Combining can only keep or lower the equal count for positions
        # that were ">", and can lose "=" positions; n1 never shrinks.
        family = MinHashFamily(num_hashes=64, seed=5)
        query = family.sketch(range(50))
        sig = BitSignature.encode(family.sketch(range(0, 25)), query)
        grown = sig.combine(
            BitSignature.encode(family.sketch(range(100, 160)), query)
        )
        assert grown.n1 >= sig.n1


class TestValidation:
    def test_rejects_invalid_plane_pair(self):
        # lt bit set without ge bit is the impossible pair "10".
        with pytest.raises(SignatureError):
            BitSignature(ge=0b00, lt=0b01, num_hashes=2)

    def test_rejects_overwide_planes(self):
        with pytest.raises(SignatureError):
            BitSignature(ge=0b1000, lt=0, num_hashes=3)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(SignatureError):
            BitSignature(ge=0, lt=0, num_hashes=0)

    def test_relation_bounds(self):
        signature = BitSignature(ge=0, lt=0, num_hashes=2)
        with pytest.raises(SignatureError):
            signature.relation(2)


class TestLemma2:
    def test_bound_values(self):
        assert lemma2_bound(100, 0.7) == 30
        assert lemma2_bound(800, 0.7) == 240
        assert lemma2_bound(10, 1.0) == 0

    def test_bound_rejects_bad_inputs(self):
        with pytest.raises(SignatureError):
            lemma2_bound(0, 0.5)
        with pytest.raises(SignatureError):
            lemma2_bound(10, 1.5)

    def test_violation_detection(self):
        # 3 of 4 positions are "<" -> n1 = 3 > 4 * (1 - 0.7) = 1.2.
        signature = BitSignature.encode(_sketch([1, 1, 1, 9]), _sketch([5, 5, 5, 5]))
        assert violates_lemma2(signature, 0.7)
        assert not violates_lemma2(signature, 0.2)

    def test_matching_signature_never_pruned(self):
        """A candidate at or above δ similarity always survives Lemma 2."""
        family = MinHashFamily(num_hashes=256, seed=6)
        query = family.sketch(range(100))
        candidate = family.sketch(range(0, 110))  # superset: high overlap
        signature = BitSignature.encode(candidate, query)
        if signature.similarity >= 0.7:
            assert not violates_lemma2(signature, 0.7)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 20), min_size=4, max_size=16),
        st.lists(st.integers(0, 20), min_size=4, max_size=16),
    )
    def test_lemma2_soundness(self, left, right):
        """If sim >= δ then the signature must pass the Lemma 2 filter."""
        size = min(len(left), len(right))
        candidate = _sketch(left[:size])
        query = _sketch(right[:size])
        signature = BitSignature.encode(candidate, query)
        for threshold in (0.5, 0.7, 0.9):
            if signature.similarity >= threshold:
                assert not violates_lemma2(signature, threshold)

    def test_pruning_cascades(self):
        """Once violated, any further combination still violates."""
        query = _sketch([5, 5, 5, 5])
        bad = BitSignature.encode(_sketch([1, 1, 1, 9]), query)
        assert violates_lemma2(bad, 0.7)
        extra = BitSignature.encode(_sketch([9, 9, 9, 9]), query)
        assert violates_lemma2(bad.combine(extra), 0.7)
