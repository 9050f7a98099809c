"""Tests for the Hash-Query index and the Figure 5 probe."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.index.probe import RelatedQueries, probe_index
from repro.minhash.family import MinHashFamily
from repro.minhash.sketch import Sketch, SketchBlock
from repro.reference import probe_index_reference, related_view
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


def _built(num_hashes=32, **population):
    family = _family(num_hashes=num_hashes)
    sketches, lengths = _query_population(family, **population)
    return family, sketches, lengths, HashQueryIndex.build(sketches, lengths)


def _view(window, index, sketches, threshold, prune=True):
    matrix = np.stack([sketches[q].values for q in index.sorted_qids.tolist()])
    return related_view(index, probe_index(window, index, matrix, threshold, prune))


class TestBuild:
    def test_invariants_after_build(self):
        family, sketches, lengths, index = _built()
        index.check_invariants()
        assert index.num_queries == len(sketches)
        assert sorted(index.query_ids) == sorted(sketches)

    def test_rows_sorted(self):
        family, sketches, lengths, index = _built()
        for row in index.rows:
            values = [entry.value for entry in row]
            assert values == sorted(values)

    def test_down_walk_recovers_sketch(self):
        family, sketches, lengths, index = _built()
        for qid, sketch in sketches.items():
            assert np.array_equal(index.sketch_values_of(qid), sketch.values)

    def test_up_walk_identifies_query(self):
        family, sketches, lengths, index = _built()
        for column in range(index.num_queries):
            # Follow query at row-0 column down to the last row, then the
            # up-walk from there must return to the same query.
            qid = index.rows[0][column].qid
            position = column
            for i in range(index.num_hashes - 1):
                position = index.rows[i][position].down
            root = index.query_of_column(index.num_hashes - 1, position)
            assert root.qid == qid

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_equals_the_axis_zero_sort_it_replaced(self, seed):
        """``build`` sorts a ``(K, m)`` copy along axis 1 and keeps that
        order as :attr:`key_columns`. Its arrays must equal the former
        build's: a stable argsort of the ``(m, K)`` stack along axis 0,
        then a ``searchsorted`` for the columns. Values from a tiny
        range tie on every row, so the tie order (by qid) is checked;
        qids are sparse and inserted unsorted."""
        rng = np.random.default_rng(seed)
        num_hashes, num_queries = 16, 50
        qids = rng.choice(10_000, size=num_queries, replace=False).tolist()
        family = (num_hashes, 0, MinHashFamily.prime)
        sketches = {
            qid: Sketch(rng.integers(0, 3, size=num_hashes), family)
            for qid in qids
        }
        index = HashQueryIndex.build(sketches, {qid: 2 for qid in qids})

        sorted_qids = np.sort(qids)
        stacked = np.stack([sketches[qid].values for qid in sorted_qids])
        orders = np.argsort(stacked, axis=0, kind="stable")
        want_qids = sorted_qids[orders.T]
        assert np.array_equal(
            index.values, np.take_along_axis(stacked, orders, axis=0).T
        )
        assert np.array_equal(index.qid_matrix, want_qids)
        assert index.key_columns.dtype == np.int32
        assert np.array_equal(
            index.key_columns, sorted_qids.searchsorted(want_qids.ravel())
        )
        index.check_invariants()

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
        family, sketches, lengths, index = _built(num_queries=6)
        index.remove(3)
        index.check_invariants()
        assert index.num_queries == 5
        assert 3 not in index.query_ids
        for qid in index.query_ids:
            assert np.array_equal(
                index.sketch_values_of(qid), sketches[qid].values
            )

    def test_remove_then_insert_roundtrip(self):
        family, sketches, lengths, index = _built(num_queries=5)
        index.remove(2)
        index.insert(2, sketches[2], lengths[2])
        index.check_invariants()
        assert np.array_equal(index.sketch_values_of(2), sketches[2].values)

    def test_duplicate_insert_rejected(self):
        family, sketches, lengths, index = _built(num_queries=3)
        with pytest.raises(IndexError_):
            index.insert(0, sketches[0], lengths[0])

    def test_remove_unknown_rejected(self):
        family, sketches, lengths, index = _built(num_queries=3)
        with pytest.raises(IndexError_):
            index.remove(99)

    def test_insert_wrong_width_rejected(self):
        index = HashQueryIndex(8)
        with pytest.raises(IndexError_):
            index.insert(0, _family(num_hashes=16).sketch([1]), 1)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    def test_random_remove_sequences_keep_invariants(self, removals):
        family, sketches, lengths, index = _built(num_hashes=16, num_queries=5, seed=9)
        removed = set()
        for qid in removals:
            if qid in removed or len(removed) == 4:
                continue
            index.remove(qid)
            removed.add(qid)
            index.check_invariants()


class TestEqualPositions:
    def test_finds_run(self):
        family, sketches, lengths, index = _built()
        row = 0
        target = index.rows[row][2].value
        positions = index.equal_positions(row, target)
        assert all(index.rows[row][p].value == target for p in positions)
        assert 2 in positions

    def test_missing_value_empty(self):
        family, sketches, lengths, index = _built()
        absent = max(e.value for e in index.rows[0]) + 1
        assert len(index.equal_positions(0, absent)) == 0

    def test_row_bounds(self):
        index = HashQueryIndex(4)
        with pytest.raises(IndexError_):
            index.equal_positions(4, 0)


class TestProbe:
    def test_probe_finds_self(self):
        family, sketches, lengths, index = _built(num_hashes=64)
        related = _view(sketches[3], index, sketches, threshold=0.7)
        signatures = {qid: BitSignature(ge, lt, 64) for qid, ge, lt in related}
        assert signatures[3].similarity == 1.0

    def test_probe_signatures_match_direct_encoding(self):
        """R_L signatures equal BitSignature.encode for every member."""
        family, sketches, lengths, index = _built(num_hashes=64)
        rng = np.random.default_rng(5)
        window = family.sketch(rng.choice(5000, size=25, replace=False))
        for qid, ge, lt in _view(window, index, sketches, 0.0, False):
            direct = BitSignature.encode(window, sketches[qid])
            assert (ge, lt) == (direct.ge, direct.lt)

    def test_probe_completeness_without_pruning(self):
        """Every query sharing >= 1 equal min-hash value must be in R_L."""
        family, sketches, lengths, index = _built(num_hashes=64)
        rng = np.random.default_rng(6)
        for trial in range(5):
            window = family.sketch(rng.choice(5000, size=30, replace=False))
            related = {q for q, _, _ in _view(window, index, sketches, 0.0, False)}
            for qid, sketch in sketches.items():
                shares = bool((window.values == sketch.values).any())
                assert (qid in related) == shares

    def test_probe_prunes_hopeless(self):
        family, sketches, lengths, index = _built(num_hashes=64)
        rng = np.random.default_rng(7)
        window = family.sketch(rng.choice(5000, size=30, replace=False))
        pruned = _view(window, index, sketches, threshold=0.9, prune=True)
        unpruned = _view(window, index, sketches, threshold=0.9, prune=False)
        assert pruned <= unpruned
        for _, ge, lt in pruned:
            assert BitSignature(ge, lt, 64).n1 <= 64 * (1 - 0.9) + 1e-9

    def test_probe_carries_lengths(self):
        """The walk's elements carry the row-0 query length."""
        family, sketches, lengths, index = _built(num_hashes=32)
        for element in probe_index_reference(sketches[1], index, 0.5):
            assert element.length_windows == lengths[element.qid]

    def test_probe_width_mismatch_rejected(self):
        family, sketches, lengths, index = _built(num_hashes=32)
        with pytest.raises(IndexError_):
            _view(_family(num_hashes=16).sketch([1]), index, sketches, 0.5)

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.7, 0.9])
    def test_fast_probe_equals_reference(self, prune, threshold):
        """The array probe must reproduce the Figure 5 walk's
        ``(qid, ge, lt)`` set exactly — one window at a time, and every
        window of a block probed in one call."""
        family, sketches, lengths, index = _built(num_hashes=48, num_queries=10, seed=3)
        rng = np.random.default_rng(8)
        windows, references = [], []
        for trial in range(8):
            # Mix pure-random windows with windows overlapping a query's
            # elements so equal values actually occur.
            elements = rng.choice(5000, size=25, replace=False)
            if trial % 2 == 0:
                elements = np.concatenate(
                    [elements[:10], rng.choice(5000, size=5, replace=False)]
                )
            window = family.sketch(elements)
            reference = related_view(
                index, probe_index_reference(window, index, threshold, prune))
            assert _view(window, index, sketches, threshold, prune) == reference
            windows.append(window.values)
            references.append(reference)
        block = SketchBlock(np.stack(windows), family.fingerprint)
        matrix = np.stack([sketches[q].values for q in index.sorted_qids.tolist()])
        result = probe_index(block, index, matrix, threshold, prune)
        for row, reference in enumerate(references):
            mine = result.windows == row
            assert related_view(index, RelatedQueries(
                result.windows[mine], result.columns[mine],
                result.ge[mine], result.lt[mine])) == reference

    def test_returned_lp_is_last_row_cursor(self):
        """Contract: a returned RelatedQuery's ``lp`` is the query's
        column in row K-1, where the Figure 5 walk's cursor ends."""
        family, sketches, lengths, index = _built(num_hashes=48, num_queries=10, seed=3)
        rng = np.random.default_rng(21)
        last_row = index.num_hashes - 1
        for _ in range(6):
            window = family.sketch(rng.choice(5000, size=25, replace=False))
            for element in probe_index_reference(window, index, 0.0, False):
                walk = index.walk_up_to_root(last_row, element.lp)
                assert index.rows[0][walk[0]].qid == element.qid

    def test_fast_probe_after_online_maintenance(self):
        """Cache invalidation: probes stay correct across insert/remove."""
        family, sketches, lengths, index = _built(num_hashes=32, num_queries=6, seed=4)
        _view(sketches[0], index, sketches, 0.5)  # populate caches
        index.remove(0)
        index.insert(0, sketches[0], lengths[0])
        assert _view(sketches[0], index, sketches, 0.5) == (
            related_view(index, probe_index_reference(sketches[0], index, 0.5)))

    def test_disjoint_window_yields_empty(self):
        family, sketches, lengths, index = _built(num_hashes=32)
        matrix = np.stack([sketches[q].values for q in index.sorted_qids.tolist()])
        # Values strictly below every index value can never be equal.
        assert len(probe_index(family.empty_sketch(), index, matrix, 0.5)) == 0
