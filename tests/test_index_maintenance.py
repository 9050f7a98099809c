"""Online HQ-index maintenance: interleaved insert/remove fuzzing.

The paper's Hash-Query index supports online subscription (§V-C): rows
of ⟨value, up, down⟩ triples that are patched in place on insert and
remove. These tests interleave inserts and removes — with colliding
sketch values, duplicate-value columns, and remove-then-reinsert of the
same qid — and require the incrementally maintained index to stay
(a) structurally valid (``check_invariants``) and (b) semantically
identical to an index rebuilt from scratch over the surviving queries
(``canonical_state``: per-qid sketch down-walks and lengths), with
every up/down walk resolving to the right query. The flat views the
production probe reads (``keys``, ``values``, ``qid_matrix``) are
checked after every op too, and the probe over them must answer as it
does over a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.index.probe import probe_index
from repro.minhash.family import MinHashFamily

NUM_HASHES = 8
CELL_SPACE = 30  # tiny id space => frequent min-hash value collisions


def _sketch(family, rng):
    cells = np.unique(rng.integers(0, CELL_SPACE, size=rng.integers(3, 12)))
    return family.sketch(cells)


def _rebuilt(family, live):
    return HashQueryIndex.build(
        {qid: sketch for qid, (sketch, _) in live.items()},
        {qid: length for qid, (_, length) in live.items()},
    )


def _probe(index, live, window):
    matrix = np.stack(
        [live[qid][0].values for qid in index.sorted_qids.tolist()]
    )
    return probe_index(window, index, matrix, threshold=0.0, prune=False)


def _assert_flat_views(index, rebuilt, family, live, rng):
    """The arrays the production probe reads, against the live sketches
    and against the probe over a fresh build."""
    assert (np.diff(index.keys) >= 0).all()
    for (i, c), qid in np.ndenumerate(index.qid_matrix):
        assert live[qid][0].values[i] == index.values[i, c]
    for _ in range(3):
        window = _sketch(family, rng)
        mine, fresh = _probe(index, live, window), _probe(rebuilt, live, window)
        for name in ("windows", "columns", "ge", "lt"):
            assert np.array_equal(getattr(mine, name), getattr(fresh, name))


def _assert_equivalent(index, family, live, windows_rng=None):
    index.check_invariants()
    if not live:
        return
    rebuilt = _rebuilt(family, live)
    rebuilt.check_invariants()
    assert index.canonical_state() == rebuilt.canonical_state()
    # Every bottom-row column walks up to the query its down chain reached.
    last_row = index.qid_matrix[NUM_HASHES - 1].tolist()
    assert sorted(last_row) == sorted(live)
    for column, qid in enumerate(last_row):
        assert index.query_of_column(NUM_HASHES - 1, column).qid == qid
    if windows_rng is not None:
        _assert_flat_views(index, rebuilt, family, live, windows_rng)


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_interleaved_insert_remove(seed):
    rng = np.random.default_rng(seed)
    windows_rng = np.random.default_rng([seed, 1])  # probes only
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=seed % 5)
    live = {}
    removed = {}
    next_qid = 0
    for _ in range(6):
        sketch = _sketch(family, rng)
        live[next_qid] = (sketch, int(rng.integers(1, 12)))
        next_qid += 1
    index = _rebuilt(family, live)

    for _ in range(60):
        op = rng.integers(0, 3)
        if op == 0 or len(live) < 2:
            sketch = _sketch(family, rng)
            length = int(rng.integers(1, 12))
            index.insert(next_qid, sketch, length)
            live[next_qid] = (sketch, length)
            next_qid += 1
        elif op == 1:
            victim = int(rng.choice(sorted(live)))
            index.remove(victim)
            removed[victim] = live.pop(victim)
        elif removed:
            # Remove-then-reinsert of the same qid, same sketch — the
            # historically bug-prone pointer-patching path.
            qid = int(rng.choice(sorted(removed)))
            sketch, length = removed.pop(qid)
            index.insert(qid, sketch, length)
            live[qid] = (sketch, length)
        _assert_equivalent(index, family, live, windows_rng)


def test_remove_reinsert_same_qid_round_trips():
    rng = np.random.default_rng(2008)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=1)
    live = {qid: (_sketch(family, rng), qid + 1) for qid in range(5)}
    index = _rebuilt(family, live)
    before = index.canonical_state()
    for qid in (2, 0, 4):
        sketch, length = live[qid]
        index.remove(qid)
        index.check_invariants()
        index.insert(qid, sketch, length)
        _assert_equivalent(index, family, live)
    assert index.canonical_state() == before


def test_duplicate_qid_insert_rejected():
    rng = np.random.default_rng(3)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=0)
    live = {0: (_sketch(family, rng), 4)}
    index = _rebuilt(family, live)
    with pytest.raises(IndexError_):
        index.insert(0, _sketch(family, rng), 4)


def test_remove_unknown_qid_rejected():
    rng = np.random.default_rng(4)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=0)
    index = _rebuilt(family, {0: (_sketch(family, rng), 4)})
    with pytest.raises(IndexError_):
        index.remove(99)


def test_derived_rows_follow_every_change():
    """The triples are a cached view: reading them, then changing the
    index, must not leave a walk on the old layout."""
    rng = np.random.default_rng(5)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=2)
    live = {qid: (_sketch(family, rng), qid + 1) for qid in range(5)}
    index = _rebuilt(family, live)
    last = NUM_HASHES - 1
    for qid in (10, 11, 12):
        _ = index.rows
        sketch, length = _sketch(family, rng), 3
        index.insert(qid, sketch, length)
        live[qid] = (sketch, length)
        column = index.qid_matrix[last].tolist().index(qid)
        assert index.query_of_column(last, column).qid == qid
        assert np.array_equal(index.sketch_values_of(qid), sketch.values)
    _ = index.rows
    index.remove(11)
    del live[11]
    for column, qid in enumerate(index.qid_matrix[last].tolist()):
        assert index.query_of_column(last, column).qid == qid
    _assert_equivalent(index, family, live)


def test_key_columns_follow_inserts_and_removes():
    """Insert and remove carry the probe's qid → column map along rather
    than dropping it: across a run of changes whose qids fall below,
    between and above every subscribed one — with no fresh derivation in
    between — ``key_columns`` equals the fresh derivation after each
    step, and the probe's related pairs equal the literal walk's."""
    from repro.reference import probe_index_reference, related_view

    rng = np.random.default_rng(48)
    family = MinHashFamily(num_hashes=NUM_HASHES, seed=3)
    live = {qid: (_sketch(family, rng), 4) for qid in (10, 20, 30)}
    index = _rebuilt(family, live)
    index.warm_caches()
    steps = [("insert", 5), ("insert", 40), ("insert", 25), ("remove", 5),
             ("insert", 1), ("remove", 40), ("remove", 20), ("insert", 99),
             ("remove", 1), ("insert", 0)]
    for op, qid in steps:
        if op == "insert":
            live[qid] = (_sketch(family, rng), int(rng.integers(1, 12)))
            index.insert(qid, *live[qid])
        else:
            index.remove(qid)
            del live[qid]
        kept = index.key_columns
        fresh = np.sort(index.qid_matrix[0]).searchsorted(
            index.qid_matrix.ravel())
        assert kept.dtype == np.int32 and np.array_equal(kept, fresh), op
        assert index.sorted_qids.tolist() == sorted(live)
        matrix = np.stack([live[q][0].values for q in sorted(live)])
        for _ in range(3):
            window = _sketch(family, rng)
            for threshold, prune in ((0.0, False), (0.5, True)):
                fast = probe_index(window, index, matrix, threshold, prune)
                walk = probe_index_reference(window, index, threshold, prune)
                assert related_view(index, fast) == related_view(index, walk)
    index.check_invariants()
