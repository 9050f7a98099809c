"""Online HQ-index maintenance: interleaved insert/remove fuzzing.

The paper's Hash-Query index supports online subscription (§V-C): rows
of ⟨value, up, down⟩ triples that are patched in place on insert and
remove. These tests interleave inserts and removes — with colliding
sketch values, duplicate-value columns, and remove-then-reinsert of the
same qid — and require the incrementally maintained index to stay
(a) structurally valid (``check_invariants``) and (b) semantically
identical to an index rebuilt from scratch over the surviving queries
(``canonical_state``: per-qid sketch down-walks and lengths), with
every up/down walk resolving to the right query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
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


def _assert_equivalent(index, family, live):
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


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_interleaved_insert_remove(seed):
    rng = np.random.default_rng(seed)
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
        _assert_equivalent(index, family, live)


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
