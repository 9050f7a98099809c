"""Engine tests on controlled synthetic cell-id streams.

These tests bypass the video substrate entirely: queries and streams are
hand-built integer sequences, so detection behaviour can be asserted
exactly — including the strong invariant that all four engine variants
(Sketch/Bit x Index/NoIndex) report the *identical* match set for a given
combination order, because the bit signature is a lossless encoding of
the sketch comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.query import QuerySet
from repro.errors import DetectionError
from repro.minhash.family import MinHashFamily
from repro.reference import ReferenceDetector

KF_RATE = 1.0  # one key frame per second: window_seconds == window_frames


def _make_queries(family, specs):
    """specs: {qid: (id_low, id_high, num_frames)}."""
    cell_ids = {
        qid: np.arange(low, high) for qid, (low, high, _frames) in specs.items()
    }
    frames = {qid: frames for qid, (_l, _h, frames) in specs.items()}
    return QuerySet.from_cell_ids(cell_ids, frames, family)


def _filler(rng, length, low=100_000, high=500_000):
    """Filler ids far away from any query's id range."""
    return rng.integers(low, high, size=length)


def _stream_with_copy(rng, query_ids, before=60, after=60):
    """Filler + the query's id sequence + filler; returns (ids, begin, end)."""
    head = _filler(rng, before)
    tail = _filler(rng, after)
    ids = np.concatenate([head, query_ids, tail])
    return ids, before, before + len(query_ids)


def _config(**overrides):
    defaults = dict(
        num_hashes=128,
        threshold=0.7,
        window_seconds=10.0,
        tempo_scale=2.0,
        order=CombinationOrder.SEQUENTIAL,
        representation=Representation.BIT,
        use_index=True,
        prune=True,
    )
    defaults.update(overrides)
    return DetectorConfig(**defaults)


@pytest.fixture()
def wide_family():
    return MinHashFamily(num_hashes=128, seed=11)


class TestDetectionBasics:
    def test_detects_exact_copy(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        ids, begin, end = _stream_with_copy(rng, np.arange(1000, 1040))
        detector = StreamingDetector(_config(), queries, KF_RATE)
        matches = detector.process_cell_ids(ids)
        assert matches, "an exact copy must be detected"
        positions = [m.position_frame for m in matches]
        w = detector.window_frames
        assert any(begin + w <= p <= end + w for p in positions)

    def test_no_false_positives_on_pure_filler(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        matches = detector.process_cell_ids(_filler(rng, 300))
        assert matches == []

    def test_detects_reordered_copy(self, wide_family, rng):
        """The headline robustness: shuffled frames still match."""
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        shuffled = rng.permutation(np.arange(1000, 1040))
        ids, begin, end = _stream_with_copy(rng, shuffled)
        detector = StreamingDetector(_config(), queries, KF_RATE)
        matches = detector.process_cell_ids(ids)
        assert matches
        w = detector.window_frames
        assert any(begin + w <= m.position_frame <= end + w for m in matches)

    def test_detects_partially_corrupted_copy(self, wide_family, rng):
        """~85 % of ids intact clears δ=0.7 (Jaccard ≈ 0.74)."""
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        corrupted = np.arange(1000, 1040)
        corrupted[::7] = rng.integers(700_000, 800_000, size=len(corrupted[::7]))
        ids, _b, _e = _stream_with_copy(rng, corrupted)
        detector = StreamingDetector(_config(threshold=0.6), queries, KF_RATE)
        assert detector.process_cell_ids(ids)

    def test_misses_mostly_different_sequence(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        decoy = np.arange(1000, 1040)
        decoy[::2] = rng.integers(700_000, 800_000, size=len(decoy[::2]))
        ids, _b, _e = _stream_with_copy(rng, decoy)
        detector = StreamingDetector(_config(), queries, KF_RATE)
        # Jaccard ~ 0.33 << 0.7.
        assert detector.process_cell_ids(ids) == []

    def test_multiple_queries_independent(self, wide_family, rng):
        queries = _make_queries(
            wide_family, {0: (1000, 1040, 40), 1: (2000, 2030, 30), 2: (3000, 3050, 50)}
        )
        ids0, b0, e0 = _stream_with_copy(rng, np.arange(2000, 2030), before=40, after=0)
        tail = _filler(rng, 50)
        ids = np.concatenate([ids0, tail])
        detector = StreamingDetector(_config(), queries, KF_RATE)
        matches = detector.process_cell_ids(ids)
        matched_qids = {m.qid for m in matches}
        assert matched_qids == {1}

    def test_two_copies_both_found(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        copy = np.arange(1000, 1040)
        ids = np.concatenate(
            [_filler(rng, 50), copy, _filler(rng, 80), copy, _filler(rng, 50)]
        )
        detector = StreamingDetector(_config(), queries, KF_RATE)
        matches = detector.process_cell_ids(ids)
        w = detector.window_frames
        first_span = (50 + w, 90 + w)
        second_span = (170 + w, 210 + w)
        assert any(first_span[0] <= m.position_frame <= first_span[1] for m in matches)
        assert any(second_span[0] <= m.position_frame <= second_span[1] for m in matches)


class TestVariantEquivalence:
    """Agreement guarantees across the four engine variants.

    Without the index the bit signature is a *lossless* re-encoding of
    the sketch comparison, so Bit-NoIndex reports exactly the Sketch
    match set. With the index, a candidate adopts a query at its first
    *related* window (Section V-B), which re-bases some signatures onto
    the matching suffix — every reported (query, end-position) pair is
    still shared with the suffix candidates the other variants score, so
    the scored outcome is identical; under the Sequential order the
    report-position sets coincide exactly for all variants.
    """

    def _run(self, ids, order, representation, use_index, prune=True):
        family = MinHashFamily(num_hashes=128, seed=11)
        queries = _make_queries(
            family, {0: (1000, 1080, 80), 1: (2000, 2035, 35)}
        )
        config = _config(
            order=order,
            representation=representation,
            use_index=use_index,
            prune=prune,
            threshold=0.55,
        )
        # Production runs Sequential on bit signatures with the index;
        # the oracle the rest.
        production = (order, representation, use_index) == (
            CombinationOrder.SEQUENTIAL, Representation.BIT, True
        )
        detector_class = StreamingDetector if production else ReferenceDetector
        detector = detector_class(config, queries, KF_RATE)
        return detector.process_cell_ids(ids)

    def test_sequential_positions_identical(self, rng):
        copy = np.arange(1000, 1080)
        ids = np.concatenate([_filler(rng, 60), copy, _filler(rng, 60)])
        outcomes = {}
        for representation in Representation:
            for use_index in (True, False):
                matches = self._run(
                    ids, CombinationOrder.SEQUENTIAL, representation, use_index
                )
                outcomes[(representation, use_index)] = {
                    (m.qid, m.end_frame) for m in matches
                }
        baseline = outcomes[(Representation.BIT, True)]
        assert baseline, "sanity: the copy must be detected"
        for key, positions in outcomes.items():
            assert positions == baseline, f"variant {key} diverged"

    def test_bit_noindex_is_lossless(self, rng):
        """Without the index, Bit and Sketch agree match-for-match."""
        copy = np.arange(1000, 1080)
        ids = np.concatenate([_filler(rng, 60), copy, _filler(rng, 60)])
        for order in CombinationOrder:
            bit = self._run(ids, order, Representation.BIT, False, prune=False)
            sketch = self._run(ids, order, Representation.SKETCH, False)
            view = lambda ms: {
                (m.qid, m.start_frame, m.end_frame, round(m.similarity, 9))
                for m in ms
            }
            assert view(bit) == view(sketch)

    def test_geometric_index_positions_superset(self, rng):
        """Geometric Bit-Index may add suffix-rebased positions but never
        loses one the other variants report."""
        copy = np.arange(1000, 1080)
        ids = np.concatenate([_filler(rng, 60), copy, _filler(rng, 60)])
        positions = {}
        for representation in Representation:
            for use_index in (True, False):
                matches = self._run(
                    ids, CombinationOrder.GEOMETRIC, representation, use_index
                )
                positions[(representation, use_index)] = {
                    (m.qid, m.end_frame) for m in matches
                }
        base = positions[(Representation.SKETCH, True)]
        assert base, "sanity: the copy must be detected"
        assert positions[(Representation.SKETCH, False)] == base
        assert positions[(Representation.BIT, False)] == base
        assert positions[(Representation.BIT, True)] >= base

    def test_geometric_matches_subset_of_sequential(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        copy = np.arange(1000, 1040)
        ids = np.concatenate([_filler(rng, 50), copy, _filler(rng, 50)])

        def run(order):
            family = MinHashFamily(num_hashes=128, seed=11)
            qs = _make_queries(family, {0: (1000, 1040, 40)})
            detector_class = (
                StreamingDetector if order is CombinationOrder.SEQUENTIAL
                else ReferenceDetector
            )
            detector = detector_class(_config(order=order), qs, KF_RATE)
            return {
                (m.qid, m.start_frame, m.end_frame)
                for m in detector.process_cell_ids(ids)
            }

        sequential = run(CombinationOrder.SEQUENTIAL)
        geometric = run(CombinationOrder.GEOMETRIC)
        assert geometric <= sequential


class TestPruning:
    def test_pruning_preserves_matches(self, wide_family, rng):
        """Lemma 2 soundness: pruning never loses a report position —
        any window inside a δ-matching candidate satisfies the bound
        itself, so it is never dropped from the payload. Without the
        index every query is compared, which only the oracle runs."""
        copy = np.arange(1000, 1040)
        ids = np.concatenate([_filler(rng, 50), copy, _filler(rng, 50)])

        def run(prune):
            family = MinHashFamily(num_hashes=128, seed=11)
            queries = _make_queries(family, {0: (1000, 1040, 40)})
            detector = ReferenceDetector(
                _config(prune=prune, use_index=False), queries, KF_RATE
            )
            matches = detector.process_cell_ids(ids)
            return (
                {(m.qid, m.end_frame) for m in matches},
                detector.stats.avg_signatures,
            )

        pruned_matches, pruned_sigs = run(True)
        unpruned_matches, unpruned_sigs = run(False)
        assert pruned_matches == unpruned_matches
        assert pruned_sigs < unpruned_sigs

    def test_pruning_counts_recorded(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = ReferenceDetector(
            _config(use_index=False), queries, KF_RATE
        )
        detector.process_cell_ids(_filler(rng, 200))
        assert detector.stats.signature_prunes > 0


class TestExpiry:
    def test_candidates_bounded_by_lambda_l(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 500))
        cap = detector.context.global_max_windows
        engine = detector.engine
        last_window = detector.stats.windows_processed - 1
        assert 0 < engine.num_candidates <= cap
        assert engine.start_window.shape == (engine.num_candidates,)
        assert np.all(last_window - engine.start_window + 1 <= cap)
        assert detector.stats.expired_candidates > 0

    def test_reference_candidates_bounded_by_lambda_l(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = ReferenceDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 500))
        cap = detector.context.global_max_windows
        candidates = detector.engine.candidates
        assert 0 < len(candidates) <= cap
        assert all(c.num_windows <= cap for c in candidates)
        assert detector.stats.expired_candidates > 0

    def test_geometric_total_size_bounded(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = ReferenceDetector(
            _config(order=CombinationOrder.GEOMETRIC), queries, KF_RATE
        )
        detector.process_cell_ids(_filler(rng, 500))
        total = sum(s.size for s in detector.engine.segments)
        assert total <= detector.context.global_max_windows


class TestCostModel:
    """Eq. (4): combinations per window scale with the order's model."""

    def test_sequential_combines_linear_in_cap(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = ReferenceDetector(
            _config(representation=Representation.SKETCH), queries, KF_RATE
        )
        detector.process_cell_ids(_filler(rng, 400))
        per_window = (
            detector.stats.sketch_combines / detector.stats.windows_processed
        )
        cap = detector.context.global_max_windows
        assert cap - 2 <= per_window <= cap

    def test_geometric_combines_logarithmic(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = ReferenceDetector(
            _config(
                order=CombinationOrder.GEOMETRIC,
                representation=Representation.SKETCH,
            ),
            queries,
            KF_RATE,
        )
        detector.process_cell_ids(_filler(rng, 400))
        per_window = (
            detector.stats.sketch_combines / detector.stats.windows_processed
        )
        cap = detector.context.global_max_windows
        assert per_window < cap / 2
        assert per_window <= 2 * (np.log2(cap) + 2)

    def test_window_count(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 95))
        assert detector.stats.windows_processed == 10  # ceil(95/10)


class TestOnlineMaintenance:
    def test_subscribe_mid_stream(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (9000, 9030, 30)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 100))

        from repro.core.query import Query

        new_ids = np.arange(1000, 1040)
        new_query = Query(
            qid=5,
            cell_ids=new_ids,
            num_frames=40,
            sketch=wide_family.sketch(new_ids),
        )
        detector.subscribe(new_query)
        copy_stream = np.concatenate([new_ids, _filler(rng, 60)])
        matches = detector.process_cell_ids(copy_stream)
        assert any(m.qid == 5 for m in matches)

    def test_unsubscribe_stops_matching(self, wide_family, rng):
        queries = _make_queries(
            wide_family, {0: (1000, 1040, 40), 1: (2000, 2030, 30)}
        )
        detector = StreamingDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 50))
        detector.unsubscribe(0)
        copy_stream = np.concatenate([np.arange(1000, 1040), _filler(rng, 60)])
        matches = detector.process_cell_ids(copy_stream)
        assert not any(m.qid == 0 for m in matches)

    def test_unsubscribe_unknown_rejected(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        with pytest.raises(DetectionError):
            detector.unsubscribe(42)


class TestDetectorValidation:
    def test_rejects_bad_kf_rate(self, wide_family):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        with pytest.raises(DetectionError):
            StreamingDetector(_config(), queries, 0.0)

    def test_stats_accessible(self, wide_family, rng):
        queries = _make_queries(wide_family, {0: (1000, 1040, 40)})
        detector = StreamingDetector(_config(), queries, KF_RATE)
        detector.process_cell_ids(_filler(rng, 30))
        summary = detector.stats.summary()
        assert "windows=3" in summary

    def test_chunked_processing_equals_single_pass(self, wide_family, rng):
        copy = np.arange(1000, 1040)
        ids = np.concatenate([_filler(rng, 60), copy, _filler(rng, 60)])

        def run(chunks):
            family = MinHashFamily(num_hashes=128, seed=11)
            queries = _make_queries(family, {0: (1000, 1040, 40)})
            detector = StreamingDetector(_config(), queries, KF_RATE)
            matches = []
            for chunk in chunks:
                matches.extend(detector.process_cell_ids(chunk))
            return {(m.qid, m.start_frame, m.end_frame) for m in matches}

        whole = run([ids])
        # Chunk boundary aligned to whole windows (window_frames = 10).
        halves = run([ids[:80], ids[80:]])
        assert whole == halves
