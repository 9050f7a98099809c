"""Golden equivalence: production vs reference.

The production (columnar) engines promise bit-for-bit identical
behaviour to the scalar oracle in ``repro.reference``: the same Match
stream (same similarities, computed through the same float operations),
the same counters — including ``signature_prunes`` and
``expired_candidates`` — and the same maintained-state distributions.
This suite drives a :class:`StreamingDetector` and a
:class:`ReferenceDetector` through the same randomized workloads
(hypothesis) covering mid-stream subscribe/unsubscribe, partial tail
windows and threshold edge cases, for both combination orders, both
representations, and with the Hash-Query index on and off.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core.detector import StreamingDetector
from repro.core.query import Query, QuerySet
from repro.minhash.family import MinHashFamily
from repro.reference import ReferenceDetector

CELL_SPACE = 500  # small id space -> plenty of sketch collisions
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames

ALL_MODES = [
    pytest.param(order, representation, use_index,
                 id=f"{order.value}-{representation.value}-"
                    f"{'idx' if use_index else 'noidx'}")
    for order in CombinationOrder
    for representation in Representation
    for use_index in (False, True)
]


def _distribution_summary(registry, name):
    dist = registry.distribution(name)
    return (dist.mean, dist.minimum, dist.maximum)


@st.composite
def workloads(draw):
    """A full detector session: queries, stream chunks, churn actions."""
    family_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Up to 12 queries, sometimes over a tiny id space: many pairs emit.
    num_queries = draw(st.integers(1, 12))
    cell_space = draw(st.sampled_from([60, CELL_SPACE]))
    queries = {}
    frames = {}
    for qid in range(num_queries):
        n = draw(st.integers(8, 40))
        queries[qid] = rng.integers(0, cell_space, size=n)
        frames[qid] = n

    threshold = draw(
        st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.9, 1.0])
    )

    # Stream chunks with churn actions in between. Only the last chunk
    # may end mid-window (the detector rejects frames after a partial
    # tail), so every non-final chunk is a whole number of windows.
    window_frames = round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND)
    num_chunks = draw(st.integers(1, 3))
    chunks = []
    actions = []
    next_qid = num_queries
    alive = set(queries)
    for position in range(num_chunks):
        final = position == num_chunks - 1
        num_windows = draw(st.integers(1, 12))
        length = num_windows * window_frames
        if final and draw(st.booleans()):
            length += draw(st.integers(1, window_frames - 1))  # partial
        chunk = rng.integers(0, cell_space, size=length)
        # Sometimes splice a query copy in, so matches actually happen.
        if alive and draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(alive)))
            copy = np.asarray(queries[victim])[: length]
            at = draw(st.integers(0, length - copy.size))
            chunk[at : at + copy.size] = copy
        chunks.append(chunk)
        if final:
            break
        action = draw(st.sampled_from(["none", "subscribe", "unsubscribe"]))
        if action == "subscribe":
            n = draw(st.integers(8, 40))
            queries[next_qid] = rng.integers(0, cell_space, size=n)
            frames[next_qid] = n
            alive.add(next_qid)
            actions.append(("subscribe", next_qid))
            next_qid += 1
        elif action == "unsubscribe" and len(alive) >= 2:
            # QuerySet refuses to drop its last query.
            victim = draw(st.sampled_from(sorted(alive)))
            alive.discard(victim)
            actions.append(("unsubscribe", victim))
        else:
            actions.append(("none", -1))
    return family_seed, queries, frames, threshold, chunks, actions


def _run_session(
    detector_cls, config, family, queries, frames, chunks, actions
):
    # Only the originally numbered queries are subscribed up front; the
    # rest arrive through subscribe actions.
    subscribed_first = [
        qid for qid in queries if ("subscribe", qid) not in actions
    ]
    query_set = QuerySet.from_cell_ids(
        {qid: queries[qid] for qid in subscribed_first},
        {qid: frames[qid] for qid in subscribed_first},
        family,
    )
    detector = detector_cls(config, query_set, KEYFRAMES_PER_SECOND)
    for position, chunk in enumerate(chunks):
        detector.process_cell_ids(chunk)
        if position < len(actions):
            kind, qid = actions[position]
            if kind == "subscribe":
                distinct = np.unique(np.asarray(queries[qid], dtype=np.int64))
                detector.subscribe(
                    Query(
                        qid=qid,
                        cell_ids=distinct,
                        num_frames=frames[qid],
                        sketch=family.sketch(distinct),
                    )
                )
            elif kind == "unsubscribe":
                detector.unsubscribe(qid)
    return detector


def _run_both(mode, threshold, family, queries, frames, chunks, actions):
    """The same session through the oracle and through production."""
    order, representation, use_index = mode
    config = DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
        order=order,
        representation=representation,
        use_index=use_index,
    )
    return tuple(
        _run_session(cls, config, family, queries, frames, chunks, actions)
        for cls in (ReferenceDetector, StreamingDetector)
    )


def _assert_equivalent(reference, columnar):
    assert sorted(map(_match_key, reference.matches)) == sorted(
        map(_match_key, columnar.matches)
    )
    ref_counters = dict(reference.registry.counters())
    col_counters = dict(columnar.registry.counters())
    assert ref_counters == col_counters
    # The ISSUE-critical counters, named for a readable failure:
    assert reference.stats.signature_prunes == columnar.stats.signature_prunes
    assert (
        reference.stats.expired_candidates
        == columnar.stats.expired_candidates
    )
    for name in (
        "engine.signatures_maintained",
        "engine.candidates_maintained",
    ):
        assert _distribution_summary(
            reference.registry, name
        ) == _distribution_summary(columnar.registry, name)


@pytest.mark.parametrize("order,representation,use_index", ALL_MODES)
@settings(max_examples=25, deadline=None)
@given(workload=workloads())
def test_columnar_matches_reference(order, representation, use_index, workload):
    family_seed, queries, frames, threshold, chunks, actions = workload
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=family_seed)
    reference, columnar = _run_both(
        (order, representation, use_index), threshold,
        family, queries, frames, chunks, actions,
    )
    _assert_equivalent(reference, columnar)


@pytest.mark.parametrize("order,representation,use_index", ALL_MODES)
def test_columnar_exact_threshold_tie(order, representation, use_index):
    """A candidate whose similarity lands exactly on δ emits in both."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=11)
    rng = np.random.default_rng(5)
    queries = {0: rng.integers(0, CELL_SPACE, size=30),
               1: rng.integers(0, CELL_SPACE, size=24)}
    frames = {0: 30, 1: 24}
    stream = rng.integers(0, CELL_SPACE, size=60)
    stream[10:40] = np.asarray(queries[0])
    # Sweep thresholds across every attainable similarity level i/K so
    # some run ties exactly (similarities are multiples of 1/K).
    for level in range(0, NUM_HASHES + 1, 4):
        reference, columnar = _run_both(
            (order, representation, use_index), max(level, 1) / NUM_HASHES,
            family, queries, frames, [stream], [],
        )
        _assert_equivalent(reference, columnar)


@pytest.mark.parametrize("order,representation,use_index", [
    mode for mode in ALL_MODES if mode.values[0] is CombinationOrder.SEQUENTIAL
])
def test_columnar_emission_order(order, representation, use_index):
    """Within a window, Sequential matches come in the oracle's order —
    candidate start, then query column — on a stream where windows emit
    many (start, column) pairs, not just as the same multiset."""
    rng = np.random.default_rng(12)
    queries = {qid: rng.integers(0, 40, size=30) for qid in range(12)}
    reference, columnar = _run_both(
        (order, representation, use_index), 0.3,
        MinHashFamily(num_hashes=NUM_HASHES, seed=4), queries,
        {qid: 30 for qid in queries}, [rng.integers(0, 40, size=90)], [],
    )
    keys = [(m.window_index, m.start_frame, m.qid) for m in columnar.matches]
    assert keys == sorted(keys) and len(keys) > 4 * len({k[0] for k in keys})
    assert [*map(_match_key, columnar.matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar)


@pytest.mark.parametrize("order,representation", [
    pytest.param(order, representation,
                 id=f"{order.value}-{representation.value}")
    for order in CombinationOrder
    for representation in Representation
])
def test_columnar_partial_tail_window(order, representation):
    """A stream ending mid-window produces identical state and matches."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=23)
    rng = np.random.default_rng(9)
    queries = {0: rng.integers(0, CELL_SPACE, size=20)}
    frames = {0: 20}
    stream = rng.integers(0, CELL_SPACE, size=23)  # 4 windows + 3 frames
    reference, columnar = _run_both(
        (order, representation, False), 0.3,
        family, queries, frames, [stream], [],
    )
    assert reference.stats.partial_windows == 1
    assert columnar.stats.partial_windows == 1
    _assert_equivalent(reference, columnar)
