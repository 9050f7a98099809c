"""Hypothesis property tests over the end-to-end detection engine.

These run the full detector on randomly generated cell-id streams and
assert the invariants the design guarantees:

* an exact copy of a query is detected at the paper's rule-compliant
  position whenever the best window-aligned candidate's exact Jaccard
  clears δ by the estimator's Hoeffding margin (a copy straddling
  window boundaries may have no candidate that close to the query,
  and then a K-hash estimate may fall under δ);
* match records are structurally sane (spans inside the stream,
  similarities in [0, 1], positions monotone per candidate length cap);
* the exact Jaccard similarity and the bit-signature estimate agree for
  the same hash family (Lemma 1 end-to-end).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.membership import jaccard_similarity
from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.query import QuerySet
from repro.core.results import merge_matches
from repro.minhash.family import MinHashFamily
from repro.minhash.theory import false_negative_probability
from repro.reference import ReferenceDetector
from repro.signature.bitsig import BitSignature


def _detector(query_ids, num_frames, threshold=0.7, **config_overrides):
    family = MinHashFamily(num_hashes=128, seed=5)
    queries = QuerySet.from_cell_ids(
        {0: np.asarray(query_ids)}, {0: num_frames}, family
    )
    defaults = dict(
        num_hashes=128,
        threshold=threshold,
        window_seconds=10.0,
        order=CombinationOrder.SEQUENTIAL,
        representation=Representation.BIT,
        use_index=True,
    )
    defaults.update(config_overrides)
    config = DetectorConfig(**defaults)
    # Production runs Sequential on bit signatures; the oracle the rest.
    if (config.order, config.representation) != (
        CombinationOrder.SEQUENTIAL, Representation.BIT
    ):
        return ReferenceDetector(config, queries, 1.0)
    return StreamingDetector(config, queries, 1.0)


#: Tolerated chance that a copy whose best candidate clears δ by the
#: Hoeffding margin is still missed (theory.false_negative_probability).
MISS_PROBABILITY = 1e-3


def _best_candidate_jaccard(stream, copy_ids, window_frames, max_windows):
    """Exact Jaccard of the query with its closest candidate: a run of
    at most ``max_windows`` whole basic windows."""
    query = set(copy_ids.tolist())
    num_windows = len(stream) // window_frames
    best = 0.0
    for first in range(num_windows):
        for last in range(first + 1, min(num_windows, first + max_windows) + 1):
            cells = set(stream[first * window_frames : last * window_frames]
                        .tolist())
            best = max(best, len(query & cells) / len(query | cells))
    return best


@settings(max_examples=20, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=120),
    copy_frames=st.integers(min_value=30, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
)
# A 30-frame copy straddling three 10-frame windows: its best candidate
# has Jaccard 0.76, within the margin, and K = 128 misses it.
@example(offset=94, copy_frames=30, seed=2166)
def test_exact_copy_detected_within_the_estimators_error(
    offset, copy_frames, seed
):
    """A verbatim copy is found at a rule-compliant position whenever
    its best window-aligned candidate clears δ by the Hoeffding margin
    (miss bound ``MISS_PROBABILITY``); any match it does get obeys the
    position rule."""
    rng = np.random.default_rng(seed)
    copy_ids = np.arange(1000, 1000 + copy_frames)
    head = rng.integers(100_000, 900_000, size=offset)
    tail = rng.integers(100_000, 900_000, size=60)
    stream = np.concatenate([head, copy_ids, tail])

    detector = _detector(copy_ids, copy_frames)
    matches = detector.process_cell_ids(stream)
    w = detector.window_frames
    config = detector.config
    jaccard = _best_candidate_jaccard(
        stream, copy_ids, w, detector.context.global_max_windows
    )
    miss_bound = false_negative_probability(
        jaccard, config.threshold, config.num_hashes
    )
    if miss_bound <= MISS_PROBABILITY:
        assert matches, (
            f"exact copy missed although its best candidate's Jaccard "
            f"{jaccard:.3f} bounds a miss at {miss_bound:.2g}"
        )
    begin, end = offset, offset + copy_frames
    assert not matches or any(
        begin + w <= m.position_frame <= end + w for m in matches
    ), "at least one match must satisfy the paper's position rule"


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    order=st.sampled_from(list(CombinationOrder)),
    representation=st.sampled_from(list(Representation)),
)
def test_match_records_are_sane(seed, order, representation):
    rng = np.random.default_rng(seed)
    copy_ids = np.arange(1000, 1060)
    stream = np.concatenate(
        [
            rng.integers(100_000, 900_000, size=50),
            copy_ids,
            rng.integers(100_000, 900_000, size=50),
        ]
    )
    detector = _detector(
        copy_ids, 60, threshold=0.5, order=order, representation=representation
    )
    matches = detector.process_cell_ids(stream)
    cap_frames = detector.context.global_max_windows * detector.window_frames
    for match in matches:
        assert 0.0 <= match.similarity <= 1.0
        assert 0 <= match.start_frame < match.end_frame <= len(stream)
        assert match.end_frame - match.start_frame <= cap_frames
        assert match.qid == 0


@settings(max_examples=15, deadline=None)
@given(
    left=st.sets(st.integers(0, 2000), min_size=5, max_size=80),
    right=st.sets(st.integers(0, 2000), min_size=5, max_size=80),
)
def test_lemma1_estimates_jaccard_end_to_end(left, right):
    """BitSignature similarity == sketch estimate ≈ exact Jaccard."""
    family = MinHashFamily(num_hashes=1024, seed=9)
    sketch_left = family.sketch(sorted(left))
    sketch_right = family.sketch(sorted(right))
    signature = BitSignature.encode(sketch_left, sketch_right)
    assert signature.similarity == pytest.approx(
        sketch_left.similarity(sketch_right)
    )
    exact = jaccard_similarity(sorted(left), sorted(right))
    assert abs(signature.similarity - exact) < 0.1  # 1024 hashes, 5+ sigma


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_detections_cover_matches(seed):
    rng = np.random.default_rng(seed)
    copy_ids = np.arange(1000, 1060)
    stream = np.concatenate(
        [
            rng.integers(100_000, 900_000, size=40),
            copy_ids,
            rng.integers(100_000, 900_000, size=40),
        ]
    )
    detector = _detector(copy_ids, 60, threshold=0.5)
    matches = detector.process_cell_ids(stream)
    detections = merge_matches(matches, gap_frames=detector.window_frames)
    for match in matches:
        assert any(
            d.qid == match.qid
            and d.start_frame <= match.start_frame
            and d.end_frame >= match.end_frame
            for d in detections
        ), "every match must be covered by a detection"
    assert sum(d.num_matches for d in detections) == len(matches)
