"""Tests for the Hash-Query index and the Figure 5 probe."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.index.probe import probe_index
from repro.minhash.family import MinHashFamily
from repro.reference import probe_index_reference
from repro.signature.bitsig import BitSignature


def _family(num_hashes=32, seed=1):
    return MinHashFamily(num_hashes=num_hashes, seed=seed)


def _query_population(family, num_queries=8, seed=2):
    rng = np.random.default_rng(seed)
    sketches = {}
    lengths = {}
    for qid in range(num_queries):
        elements = rng.choice(5000, size=rng.integers(10, 40), replace=False)
        sketches[qid] = family.sketch(elements)
        lengths[qid] = int(rng.integers(2, 12))
    return sketches, lengths


class TestBuild:
    def test_invariants_after_build(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        index.check_invariants()
        assert index.num_queries == len(sketches)
        assert sorted(index.query_ids) == sorted(sketches)

    def test_rows_sorted(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        for row in index.rows:
            values = [entry.value for entry in row]
            assert values == sorted(values)

    def test_down_walk_recovers_sketch(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        for qid, sketch in sketches.items():
            assert np.array_equal(index.sketch_values_of(qid), sketch.values)

    def test_up_walk_identifies_query(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        for column in range(index.num_queries):
            # Follow query at row-0 column down to the last row, then the
            # up-walk from there must return to the same query.
            qid = index.rows[0][column].qid
            position = column
            for i in range(index.num_hashes - 1):
                position = index.rows[i][position].down
            root = index.query_of_column(index.num_hashes - 1, position)
            assert root.qid == qid

    def test_build_rejects_empty(self):
        with pytest.raises(IndexError_):
            HashQueryIndex.build({}, {})

    def test_build_rejects_missing_length(self):
        family = _family()
        with pytest.raises(IndexError_):
            HashQueryIndex.build({0: family.sketch([1])}, {})

    def test_build_rejects_mixed_widths(self):
        a = _family(num_hashes=8).sketch([1])
        b = _family(num_hashes=16).sketch([1])
        with pytest.raises(IndexError_):
            HashQueryIndex.build({0: a, 1: b}, {0: 1, 1: 1})


class TestOnlineMaintenance:
    def test_insert_matches_bulk_build(self):
        family = _family()
        sketches, lengths = _query_population(family, num_queries=6)
        bulk = HashQueryIndex.build(sketches, lengths)
        incremental = HashQueryIndex(family.num_hashes)
        for qid in sorted(sketches):
            incremental.insert(qid, sketches[qid], lengths[qid])
        incremental.check_invariants()
        for qid in sketches:
            assert np.array_equal(
                incremental.sketch_values_of(qid), bulk.sketch_values_of(qid)
            )

    def test_remove_restores_invariants(self):
        family = _family()
        sketches, lengths = _query_population(family, num_queries=6)
        index = HashQueryIndex.build(sketches, lengths)
        index.remove(3)
        index.check_invariants()
        assert index.num_queries == 5
        assert 3 not in index.query_ids
        for qid in index.query_ids:
            assert np.array_equal(
                index.sketch_values_of(qid), sketches[qid].values
            )

    def test_remove_then_insert_roundtrip(self):
        family = _family()
        sketches, lengths = _query_population(family, num_queries=5)
        index = HashQueryIndex.build(sketches, lengths)
        index.remove(2)
        index.insert(2, sketches[2], lengths[2])
        index.check_invariants()
        assert np.array_equal(index.sketch_values_of(2), sketches[2].values)

    def test_duplicate_insert_rejected(self):
        family = _family()
        sketches, lengths = _query_population(family, num_queries=3)
        index = HashQueryIndex.build(sketches, lengths)
        with pytest.raises(IndexError_):
            index.insert(0, sketches[0], lengths[0])

    def test_remove_unknown_rejected(self):
        family = _family()
        sketches, lengths = _query_population(family, num_queries=3)
        index = HashQueryIndex.build(sketches, lengths)
        with pytest.raises(IndexError_):
            index.remove(99)

    def test_insert_wrong_width_rejected(self):
        index = HashQueryIndex(8)
        with pytest.raises(IndexError_):
            index.insert(0, _family(num_hashes=16).sketch([1]), 1)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    def test_random_remove_sequences_keep_invariants(self, removals):
        family = _family(num_hashes=16)
        sketches, lengths = _query_population(family, num_queries=5, seed=9)
        index = HashQueryIndex.build(sketches, lengths)
        removed = set()
        for qid in removals:
            if qid in removed or len(removed) == 4:
                continue
            index.remove(qid)
            removed.add(qid)
            index.check_invariants()


class TestEqualPositions:
    def test_finds_run(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        row = 0
        target = index.rows[row][2].value
        positions = index.equal_positions(row, target)
        assert all(index.rows[row][p].value == target for p in positions)
        assert 2 in positions

    def test_missing_value_empty(self):
        family = _family()
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        absent = max(e.value for e in index.rows[0]) + 1
        assert len(index.equal_positions(0, absent)) == 0

    def test_row_bounds(self):
        index = HashQueryIndex(4)
        with pytest.raises(IndexError_):
            index.equal_positions(4, 0)


class TestProbe:
    def test_probe_finds_self(self):
        family = _family(num_hashes=64)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        related = probe_index(sketches[3], index, threshold=0.7)
        qids = {element.qid for element in related}
        assert 3 in qids
        for element in related:
            if element.qid == 3:
                assert element.signature(64).similarity == 1.0

    def test_probe_signatures_match_direct_encoding(self):
        """R_L signatures equal BitSignature.encode for every member."""
        family = _family(num_hashes=64)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        rng = np.random.default_rng(5)
        window = family.sketch(rng.choice(5000, size=25, replace=False))
        related = probe_index(window, index, threshold=0.0, prune=False)
        for element in related:
            direct = BitSignature.encode(window, sketches[element.qid])
            assert element.ge == direct.ge
            assert element.lt == direct.lt

    def test_probe_completeness_without_pruning(self):
        """Every query sharing >= 1 equal min-hash value must be in R_L."""
        family = _family(num_hashes=64)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        rng = np.random.default_rng(6)
        for trial in range(5):
            window = family.sketch(rng.choice(5000, size=30, replace=False))
            related = {e.qid for e in probe_index(window, index, 0.0, prune=False)}
            for qid, sketch in sketches.items():
                shares = bool((window.values == sketch.values).any())
                assert (qid in related) == shares

    def test_probe_prunes_hopeless(self):
        family = _family(num_hashes=64)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        rng = np.random.default_rng(7)
        window = family.sketch(rng.choice(5000, size=30, replace=False))
        pruned = probe_index(window, index, threshold=0.9, prune=True)
        unpruned = probe_index(window, index, threshold=0.9, prune=False)
        assert len(pruned) <= len(unpruned)
        for element in pruned:
            assert element.signature(64).n1 <= 64 * (1 - 0.9) + 1e-9

    def test_probe_carries_lengths(self):
        family = _family(num_hashes=32)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        related = probe_index(sketches[1], index, threshold=0.5)
        for element in related:
            assert element.length_windows == lengths[element.qid]

    def test_probe_width_mismatch_rejected(self):
        family = _family(num_hashes=32)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        with pytest.raises(IndexError_):
            probe_index(_family(num_hashes=16).sketch([1]), index, 0.5)

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7, 0.9])
    def test_fast_probe_equals_reference(self, prune, threshold):
        """The batched probe must reproduce the Figure 5 walk exactly."""
        family = _family(num_hashes=48)
        sketches, lengths = _query_population(family, num_queries=10, seed=3)
        index = HashQueryIndex.build(sketches, lengths)
        rng = np.random.default_rng(8)
        for trial in range(8):
            # Mix pure-random windows with windows overlapping a query's
            # elements so equal values actually occur.
            elements = rng.choice(5000, size=25, replace=False)
            if trial % 2 == 0:
                qid = trial % len(sketches)
                elements = np.concatenate(
                    [elements[:10], rng.choice(5000, size=5, replace=False)]
                )
            window = family.sketch(elements)
            fast = probe_index(window, index, threshold, prune=prune)
            reference = probe_index_reference(window, index, threshold, prune=prune)
            fast_view = {(e.qid, e.ge, e.lt, e.lp) for e in fast}
            reference_view = {(e.qid, e.ge, e.lt, e.lp) for e in reference}
            assert fast_view == reference_view

    def test_returned_lp_is_last_row_cursor(self):
        """Contract: a returned RelatedQuery's ``lp`` is the query's
        column in row K-1 (where the Figure 5 walk's cursor ends), for
        the batched and reference probes alike.

        Regression: the batched probe used to freeze ``lp`` at the
        first-equal row's column, disagreeing with the reference.
        """
        family = _family(num_hashes=48)
        sketches, lengths = _query_population(family, num_queries=10, seed=3)
        index = HashQueryIndex.build(sketches, lengths)
        rng = np.random.default_rng(21)
        last_row = index.num_hashes - 1
        for _ in range(6):
            window = family.sketch(rng.choice(5000, size=25, replace=False))
            for probe in (probe_index, probe_index_reference):
                for element in probe(window, index, 0.0, prune=False):
                    walk = index.walk_up_to_root(last_row, element.lp)
                    assert index.rows[0][walk[0]].qid == element.qid

    def test_fast_probe_after_online_maintenance(self):
        """Cache invalidation: probes stay correct across insert/remove."""
        family = _family(num_hashes=32)
        sketches, lengths = _query_population(family, num_queries=6, seed=4)
        index = HashQueryIndex.build(sketches, lengths)
        probe_index(sketches[0], index, 0.5)  # populate caches
        index.remove(0)
        index.insert(0, sketches[0], lengths[0])
        fast = probe_index(sketches[0], index, 0.5)
        reference = probe_index_reference(sketches[0], index, 0.5)
        assert {(e.qid, e.ge, e.lt) for e in fast} == {
            (e.qid, e.ge, e.lt) for e in reference
        }

    def test_disjoint_window_yields_empty(self):
        family = _family(num_hashes=32)
        sketches, lengths = _query_population(family)
        index = HashQueryIndex.build(sketches, lengths)
        # Values strictly below every index value can never be equal.
        lonely = family.empty_sketch()
        related = probe_index(lonely, index, threshold=0.5)
        assert related == []
