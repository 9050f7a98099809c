"""Golden equivalence: production vs reference.

The production (columnar) engines promise bit-for-bit identical
behaviour to the scalar oracle in ``repro.reference``: the same Match
stream (same similarities, computed through the same float operations),
the same counters — including ``signature_prunes`` and
``expired_candidates`` — and the same maintained-state distributions.
This suite drives a :class:`StreamingDetector` and a
:class:`ReferenceDetector` through the same randomized workloads
(hypothesis) covering mid-stream subscribe/unsubscribe, partial tail
windows and threshold edge cases, with the Hash-Query index on and off,
in the Sequential order and the bit representation: production runs no
other. The Geometric order and the sketch representation are the
oracle's alone; the refusal matrix at the end pins down which layer
runs what.
"""

from __future__ import annotations

from dataclasses import astuple as _match_key
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CombinationOrder, DetectorConfig, Representation
from repro.core import engine_sequential
from repro.core.detector import StreamingDetector
from repro.core.query import Query, QuerySet
from repro.core.results import Match
from repro.errors import DetectionError, ServeError
from repro.evaluation.runner import PreparedWorkload, run_detector
from repro.minhash.family import MinHashFamily
from repro.minhash.windows import WindowBlock, build_window_block
from repro.reference import ReferenceDetector
from repro.serve import DetectionService
from repro.workloads.groundtruth import GroundTruth

CELL_SPACE = 500  # small id space -> plenty of sketch collisions
NUM_HASHES = 32
WINDOW_SECONDS = 2.5
KEYFRAMES_PER_SECOND = 2.0  # w = 5 key frames

ALL_MODES = [
    pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT, use_index,
                 id=f"sequential-bit-{'idx' if use_index else 'noidx'}")
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
    matches = []
    for position, chunk in enumerate(chunks):
        matches += detector.process_cell_ids(chunk)
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
    return detector, matches


def _run_both(mode, threshold, family, queries, frames, chunks, actions):
    """The same session through the oracle and through production;
    returns both detectors and the matches production's calls
    returned (production keeps none)."""
    order, representation, use_index = mode
    config = DetectorConfig(
        num_hashes=NUM_HASHES,
        threshold=threshold,
        window_seconds=WINDOW_SECONDS,
        order=order,
        representation=representation,
        use_index=use_index,
    )
    (reference, _), (columnar, matches) = (
        _run_session(cls, config, family, queries, frames, chunks, actions)
        for cls in (ReferenceDetector, StreamingDetector)
    )
    return reference, columnar, matches


def _assert_equivalent(reference, columnar, matches):
    """``matches``: what production's calls returned, in order."""
    assert sorted(map(_match_key, reference.matches)) == sorted(
        map(_match_key, matches)
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
    reference, columnar, matches = _run_both(
        (order, representation, use_index), threshold,
        family, queries, frames, chunks, actions,
    )
    _assert_equivalent(reference, columnar, matches)


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
        reference, columnar, matches = _run_both(
            (order, representation, use_index), max(level, 1) / NUM_HASHES,
            family, queries, frames, [stream], [],
        )
        _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("order,representation,use_index", ALL_MODES)
def test_columnar_emission_order(order, representation, use_index):
    """Within a window, Sequential matches come in the oracle's order —
    candidate start, then query column — on a stream where windows emit
    many (start, column) pairs, not just as the same multiset."""
    rng = np.random.default_rng(12)
    queries = {qid: rng.integers(0, 40, size=30) for qid in range(12)}
    reference, columnar, matches = _run_both(
        (order, representation, use_index), 0.3,
        MinHashFamily(num_hashes=NUM_HASHES, seed=4), queries,
        {qid: 30 for qid in queries}, [rng.integers(0, 40, size=90)], [],
    )
    keys = [(m.window_index, m.start_frame, m.qid) for m in matches]
    assert keys == sorted(keys) and len(keys) > 4 * len({k[0] for k in keys})
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("order,representation,use_index", ALL_MODES)
def test_block_cuts_match_reference(order, representation, use_index, monkeypatch):
    """One engine pass per block: any cut of the stream into blocks —
    single windows, a gap between two blocks, a subscribe between two, a
    block relating no query while pairs are live, blocks longer than one
    pass — gives the oracle's matches (in its order) and counters."""
    monkeypatch.setattr("repro.core.detector.MAX_BLOCK_WINDOWS", 7)
    rng = np.random.default_rng(31)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=6)
    queries = {q: rng.integers(0, 60, size=int(rng.integers(8, 30))) for q in range(6)}
    frames = {q: len(cells) for q, cells in queries.items()}
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.3, window_seconds=WINDOW_SECONDS,
        order=order, representation=representation, use_index=use_index,
    )
    detectors = [
        cls(config, QuerySet.from_cell_ids(
            {q: queries[q] for q in range(5)}, frames, family
        ), KEYFRAMES_PER_SECOND)
        for cls in (ReferenceDetector, StreamingDetector)
    ]
    cells = rng.integers(0, 60, size=200)
    cells[65:125] = rng.integers(1000, 2000, size=60)  # windows 13-24
    block = build_window_block(cells, 5, family)
    gap = 0
    matches = []
    for a, b in zip([0, 1, 4, 5, 12, 13, 25], [1, 4, 5, 12, 13, 25, 40]):
        if a == 25:
            gap = 3
            for detector in detectors:
                detector.acknowledge_gap(gap)
        part = WindowBlock(block.indices[a:b] + gap, block.starts[a:b] + 5 * gap,
                           block.frames[a:b], block.sketch_values[a:b])
        for detector in detectors:
            per_window = detector.process_batch(part)
            if detector is detectors[1]:
                matches += [m for window in per_window for m in window]
            if b == 5:
                distinct = np.unique(queries[5])
                detector.subscribe(Query(qid=5, cell_ids=distinct, num_frames=frames[5],
                                         sketch=family.sketch(distinct)))
    reference, columnar = detectors
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("order,representation", [
    pytest.param(CombinationOrder.SEQUENTIAL, Representation.BIT,
                 id="sequential-bit")
])
def test_columnar_partial_tail_window(order, representation):
    """A stream ending mid-window produces identical state and matches."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=23)
    rng = np.random.default_rng(9)
    queries = {0: rng.integers(0, CELL_SPACE, size=20)}
    frames = {0: 20}
    stream = rng.integers(0, CELL_SPACE, size=23)  # 4 windows + 3 frames
    reference, columnar, matches = _run_both(
        (order, representation, False), 0.3,
        family, queries, frames, [stream], [],
    )
    assert reference.stats.partial_windows == 1
    assert columnar.stats.partial_windows == 1
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index", [True, False], ids=["idx", "noidx"])
@pytest.mark.parametrize("representation", list(Representation),
                         ids=lambda r: r.value)
@pytest.mark.parametrize("order", list(CombinationOrder),
                         ids=lambda o: o.value)
def test_refusal_matrix(order, representation, use_index):
    """Production detects Sequential on bit signatures, with the index or
    without; the service runs it with the index only; ``run_detector``
    runs all eight, on the oracle where production has no engine, with
    the oracle's matches and counters."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    rng = np.random.default_rng(8)
    query = rng.integers(0, 60, size=20)
    stream = np.concatenate([rng.integers(0, 60, size=40), query])
    config = DetectorConfig(
        num_hashes=NUM_HASHES, window_seconds=WINDOW_SECONDS, order=order,
        representation=representation, use_index=use_index, threshold=0.5,
    )
    queries = QuerySet.from_cell_ids({0: query}, {0: 20}, family)
    production = (order, representation) == (
        CombinationOrder.SEQUENTIAL, Representation.BIT
    )
    if not production:
        with pytest.raises(DetectionError, match="runs on the oracle"):
            StreamingDetector(config, queries, KEYFRAMES_PER_SECOND)
    if not (production and use_index):
        with pytest.raises(ServeError, match="run_detector"):
            DetectionService(config, queries, KEYFRAMES_PER_SECOND)
    oracle = ReferenceDetector(config, queries, KEYFRAMES_PER_SECOND)
    oracle.process_cell_ids(stream)
    result = run_detector(PreparedWorkload(
        stream_cell_ids=stream, query_cell_ids={0: query},
        query_frames={0: 20}, ground_truth=GroundTruth([], len(stream)),
        keyframes_per_second=KEYFRAMES_PER_SECOND, fingerprint=None,
        prepare_seconds=0.0,
    ), config, family_seed=3)
    assert oracle.matches
    assert [*map(_match_key, result.matches)] == [
        *map(_match_key, oracle.matches)
    ]
    assert result.metrics["counters"] == dict(oracle.registry.counters())


# ----------------------------------------------------------------------
# the Sequential class table: the shapes its pass must get right
# ----------------------------------------------------------------------


def _class_table_shapes(engine, before):
    """Per class, its live pairs after a block, and which hard shapes
    the production class table holds: a class whose members are not one
    run of candidate rows (its column re-adopted after an older class
    was pruned while a newer one lived on), a class that lost members to
    its λL cap and lives on, and member rows past its first 64-bit
    member word."""
    rows, classes = engine.live_pairs()
    live = {}
    split = False
    for number, (col, adopt) in enumerate(
        zip(engine.class_col.tolist(), engine.class_adopt.tolist())
    ):
        mine = rows[classes == number]
        live[(col, adopt)] = mine.size
        split |= bool(mine.size) and mine[-1] - mine[0] + 1 != mine.size
    shrunk = any(0 < n < before.get(key, 0) for key, n in live.items())
    # Member words: bit i of word j is candidate row 64 j + i.
    wide = bool(engine.class_members[:, 1:].any())
    return live, {"split": split, "shrunk": shrunk, "wide": wide}


def _run_class_table(config, plan, window_frames, seed=1, actions=()):
    """Oracle and production over one stream cut into ``plan``'s blocks,
    with ``actions`` (block number, subscribe/unsubscribe, qid) applied
    after their block; returns both, the matches production's calls
    returned and the shapes production held."""
    rng = np.random.default_rng(seed)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=seed)
    span = (36, 48) if window_frames == 1 else (20, 40)
    queries = {q: rng.integers(0, 60, size=int(rng.integers(*span)))
               for q in range(9)}
    frames = {q: len(cells) for q, cells in queries.items()}
    stream = rng.integers(0, 60, size=window_frames * sum(plan))
    stream[window_frames * 3:][: frames[2]] = queries[2]  # a planted copy
    block = build_window_block(stream, window_frames, family)
    kps = window_frames / config.window_seconds
    detectors = [
        cls(config, QuerySet.from_cell_ids(
            {q: queries[q] for q in range(8)}, frames, family
        ), kps)
        for cls in (ReferenceDetector, StreamingDetector)
    ]
    seen = dict.fromkeys(("split", "shrunk", "wide"), False)
    live = {}
    first = 0
    matches = []
    for number, size in enumerate(plan):
        for detector in detectors:
            per_window = detector.process_batch(block[first:first + size])
        matches += [m for window in per_window for m in window]
        first += size
        live, shapes = _class_table_shapes(detectors[1].engine, live)
        seen = {k: seen[k] or shapes[k] for k in seen}
        for at, kind, qid in actions:
            if at != number:
                continue
            for detector in detectors:
                if kind == "subscribe":
                    distinct = np.unique(queries[qid])
                    detector.subscribe(Query(
                        qid=qid, cell_ids=distinct, num_frames=frames[qid],
                        sketch=family.sketch(distinct),
                    ))
                else:
                    detector.unsubscribe(qid)
    return detectors[0], detectors[1], matches, seen


PRUNE_INDEX_MODES = [
    pytest.param(use_index, prune,
                 id=f"{'idx' if use_index else 'noidx'}-"
                    f"{'prune' if prune else 'noprune'}")
    for use_index in (True, False)
    for prune in (True, False)
]


@pytest.mark.parametrize("use_index,prune", PRUNE_INDEX_MODES)
@pytest.mark.parametrize("plan", [
    pytest.param([1] * 60, id="B1"),
    pytest.param([8] * 8, id="B8"),
    pytest.param([70, 5], id="B70"),  # cut at MAX_BLOCK_WINDOWS
])
def test_class_table_matches_reference(use_index, prune, plan):
    """Split classes (a column re-adopted after its older class was
    pruned while a newer class of it lives on, so two free row ranges
    join one class) and cap expiry inside a living class, for every
    block size, with and without the index and Lemma 2, in the oracle's
    order. Only pruning frees rows for a split; without the index and
    Lemma 2 every window relates every query, so each class holds its
    fresh row alone and nothing is left to expire inside one."""
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.5, window_seconds=WINDOW_SECONDS,
        use_index=use_index, prune=prune,
    )
    reference, columnar, matches, seen = _run_class_table(
        config, plan, window_frames=5, seed=2
    )
    assert seen["split"] == prune
    assert seen["shrunk"] == (use_index or prune)
    assert [*map(_match_key, matches)] == [
        *map(_match_key, reference.matches)
    ]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index,prune", PRUNE_INDEX_MODES)
def test_class_table_wider_than_a_word(use_index, prune):
    """A λL cap of over 64 windows: candidate rows — and so member
    bitsets — wider than one machine word."""
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.75, window_seconds=0.5,
        use_index=use_index, prune=prune,
    )
    reference, columnar, matches, seen = _run_class_table(
        config, [8] * 13 + [6], window_frames=1
    )
    assert seen["wide"] and columnar.engine.num_candidates > 64
    assert [*map(_match_key, matches)] == [
        *map(_match_key, reference.matches)
    ]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index", [True, False])
def test_class_table_churn_and_exact_tie(use_index):
    """A subscribe and an unsubscribe between blocks, at a threshold the
    similarity hits exactly (every similarity is a multiple of 1/K)."""
    threshold = 16 / NUM_HASHES
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=threshold,
        window_seconds=WINDOW_SECONDS, use_index=use_index,
    )
    reference, columnar, matches, _ = _run_class_table(
        config, [3, 1, 6, 8, 2, 8], window_frames=5, seed=2,
        actions=[(1, "subscribe", 8), (3, "unsubscribe", 2),
                 (4, "unsubscribe", 8)],
    )
    assert any(m.similarity == threshold for m in matches)
    assert [*map(_match_key, matches)] == [
        *map(_match_key, reference.matches)
    ]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index,prune", PRUNE_INDEX_MODES)
def test_class_table_halves_blocks_past_the_grid_bound(
    monkeypatch, use_index, prune
):
    """A block whose ``(window, class)`` grid would pass ``GRID_WORDS``
    is cut in halves, down to one window, and still folds exactly as
    the oracle does (24 cells of one plane word and one member word)."""
    monkeypatch.setattr(engine_sequential, "GRID_WORDS", 24 * 4)
    passes = []
    original = engine_sequential.ColumnarSequentialEngine._pass

    def counted(self, payload, *args):
        passes.append(len(payload.block))
        return original(self, payload, *args)

    monkeypatch.setattr(
        engine_sequential.ColumnarSequentialEngine, "_pass", counted
    )
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.5, window_seconds=WINDOW_SECONDS,
        use_index=use_index, prune=prune,
    )
    reference, columnar, matches, _ = _run_class_table(
        config, [16, 16, 8], window_frames=5, seed=2
    )
    assert sum(passes) == 40 and len(passes) > 3 and 1 in passes
    assert [*map(_match_key, matches)] == [
        *map(_match_key, reference.matches)
    ]
    _assert_equivalent(reference, columnar, matches)


class _PassSpy:
    """Per pass of the production engine: how many classes it carried
    in, every class's prune window (the block's length if none), which
    ``(window, class)`` entries it encoded lazily, and how many it
    encoded in the second round."""

    def __init__(self, monkeypatch):
        self.passes = []
        engine = engine_sequential.ColumnarSequentialEngine
        context = engine_sequential.EvalContext
        original_pass, original_ends = engine._pass, engine._prune_windows
        original_planes, original_encode = context.cell_planes, engine._encode
        spy = self

        def run_pass(self, payload, *args):
            spy.passes.append({"carried": self.class_col.shape[0],
                               "windows": len(payload), "second": 0})
            return original_pass(self, payload, *args)

        def prune_windows(self, lt_counts):
            # The last call of a pass gives its prune windows.
            ends = original_ends(self, lt_counts)
            spy.passes[-1]["ends"] = ends.copy()
            return ends

        def cell_planes(self, payload, cols, entries):
            planes = original_planes(self, payload, cols, entries)
            spy.passes[-1]["lazy"] = planes[2]
            return planes

        def encode(self, payload, grid, col, cells, fold):
            done = original_encode(self, payload, grid, col, cells, fold)
            if fold:
                spy.passes[-1]["second"] += done
            return done

        monkeypatch.setattr(engine, "_pass", run_pass)
        monkeypatch.setattr(engine, "_prune_windows", prune_windows)
        monkeypatch.setattr(context, "cell_planes", cell_planes)
        monkeypatch.setattr(engine, "_encode", encode)


def test_production_detector_keeps_no_matches():
    """A production detector hands each call's matches back and holds
    none itself, however long the stream; the oracle keeps them all."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    rng = np.random.default_rng(8)
    query = rng.integers(0, 60, size=20)
    stream = np.concatenate([rng.integers(0, 60, size=40), query, query])
    config = DetectorConfig(
        num_hashes=NUM_HASHES, window_seconds=WINDOW_SECONDS, threshold=0.5,
    )
    detectors = [
        cls(config, QuerySet.from_cell_ids({0: query}, {0: 20}, family),
            KEYFRAMES_PER_SECOND)
        for cls in (ReferenceDetector, StreamingDetector)
    ]
    oracle, production = detectors
    returned = [detector.process_cell_ids(stream) for detector in detectors]
    assert returned[1] and [*map(_match_key, returned[1])] == [
        *map(_match_key, oracle.matches)
    ]

    def holds_a_match(value, depth=0):
        if isinstance(value, Match):
            return True
        if depth > 3 or isinstance(value, (str, bytes, np.ndarray)):
            return False
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(holds_a_match(item, depth + 1) for item in value)
        return False

    for owner in (production, production.engine, production.context):
        held = [name for name, value in vars(owner).items()
                if holds_a_match(value)]
        assert not held, f"{type(owner).__name__} holds matches in {held}"


@pytest.mark.parametrize("use_index", [True, False], ids=["idx", "noidx"])
def test_class_table_carried_class_dies_at_the_first_window(
    monkeypatch, use_index
):
    """A class carried into a block and pruned at the block's first
    window: its last entry is that window, and nothing after it is
    encoded or counted."""
    spy = _PassSpy(monkeypatch)
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.5, window_seconds=WINDOW_SECONDS,
        use_index=use_index,
    )
    reference, columnar, matches, _ = _run_class_table(
        config, [8] * 8, window_frames=5, seed=2
    )
    assert any(
        (p["ends"][:p["carried"]] == 0).any() for p in spy.passes
    )
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)


def test_class_table_every_class_dies_at_its_first_unrelated_entry(
    monkeypatch,
):
    """At δ = 1 Lemma 2 allows no ``<`` position, so a window the probe
    does not relate prunes every class it reaches: each class with a
    lazily encoded entry is pruned at its first, the second encode round
    has nothing to do, and the counters — ``signature_encodes`` among
    them — still match."""
    spy = _PassSpy(monkeypatch)
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=1.0, window_seconds=WINDOW_SECONDS,
    )
    reference, columnar, matches, _ = _run_class_table(
        config, [8] * 8, window_frames=5, seed=2
    )
    checked = 0
    for record in spy.passes:
        lazy = record["lazy"]
        tracked = lazy.any(axis=0)
        first = lazy.argmax(axis=0)[tracked]
        assert (record["ends"][tracked] == first).all()
        assert record["second"] == 0
        checked += int(tracked.sum())
    assert checked
    assert reference.stats.signature_encodes == columnar.stats.signature_encodes
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index", [True, False], ids=["idx", "noidx"])
def test_class_table_rows_freed_by_a_prune_readopt_later_in_the_block(
    use_index,
):
    """A block whose only related window is not its first: the class
    carried into it is pruned at its first window, so at the related one
    its rows are free again and the column's new class takes them — the
    candidate from before the block re-adopts and matches."""
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=5)
    shots = np.arange(5)  # the query's cells, each held for four frames
    others = np.arange(100, 110)  # cells the query never shows
    stream = np.concatenate([shots, others, shots])  # windows 0 .. 3
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=1.0, window_seconds=WINDOW_SECONDS,
        use_index=use_index,
    )
    detectors = [
        cls(config, QuerySet.from_cell_ids(
            {0: np.repeat(shots, 4)}, {0: 20}, family
        ), KEYFRAMES_PER_SECOND)
        for cls in (ReferenceDetector, StreamingDetector)
    ]
    block = build_window_block(stream, 5, family)
    matches = []
    for cut in (block[:1], block[1:]):  # carried in, then windows 1 .. 3
        for detector in detectors:
            per_window = detector.process_batch(cut)
        matches += [m for window in per_window for m in window]
    reference, columnar = detectors
    assert (0, 3, 0) in {
        (m.qid, m.window_index, m.start_frame) for m in reference.matches
    }
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)


@pytest.mark.parametrize("use_index", [True, False], ids=["idx", "noidx"])
def test_class_table_without_pruning_no_class_ends_early(
    monkeypatch, use_index
):
    """Without Lemma 2 no class ends before its block does: every lazy
    entry is encoded, in the second round as much as the first."""
    spy = _PassSpy(monkeypatch)
    config = DetectorConfig(
        num_hashes=NUM_HASHES, threshold=0.5, window_seconds=WINDOW_SECONDS,
        use_index=use_index, prune=False,
    )
    reference, columnar, matches, _ = _run_class_table(
        config, [8] * 8, window_frames=5, seed=2
    )
    for record in spy.passes:
        assert (record["ends"] == record["windows"]).all()
    if use_index:
        assert sum(record["second"] for record in spy.passes)
    assert [*map(_match_key, matches)] == [*map(_match_key, reference.matches)]
    _assert_equivalent(reference, columnar, matches)
