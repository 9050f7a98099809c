"""Stress tests: online index maintenance equals bulk construction.

After any sequence of inserts and removes, the Hash-Query structure must
be indistinguishable (values, pointers, probe results) from an index
bulk-built over the surviving query set — the property that makes online
subscription trustworthy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.hq import HashQueryIndex
from repro.index.probe import probe_index
from repro.minhash.family import MinHashFamily
from repro.reference import probe_index_reference, related_view


def _population(family, count, seed):
    rng = np.random.default_rng(seed)
    sketches = {}
    lengths = {}
    for qid in range(count):
        elements = rng.choice(8000, size=int(rng.integers(8, 40)), replace=False)
        sketches[qid] = family.sketch(elements)
        lengths[qid] = int(rng.integers(2, 15))
    return sketches, lengths


def _view(window, index, sketches, threshold, prune=True):
    matrix = np.stack([sketches[q].values for q in index.sorted_qids.tolist()])
    return related_view(index, probe_index(window, index, matrix, threshold, prune))


def _same_structure(left: HashQueryIndex, right: HashQueryIndex) -> None:
    # Same qids, sketch down-walks and lengths, then the same row values.
    assert left.canonical_state() == right.canonical_state()
    for row_left, row_right in zip(left.rows, right.rows):
        assert [e.value for e in row_left] == [e.value for e in row_right]


@settings(max_examples=10, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 11)),
        min_size=1,
        max_size=20,
    )
)
def test_online_maintenance_equals_bulk_build(operations):
    family = MinHashFamily(num_hashes=24, seed=7)
    sketches, lengths = _population(family, 12, seed=3)

    # Start with half the population subscribed.
    live = set(range(6))
    online = HashQueryIndex.build(
        {qid: sketches[qid] for qid in live},
        {qid: lengths[qid] for qid in live},
    )
    for action, qid in operations:
        if action == "insert" and qid not in live:
            online.insert(qid, sketches[qid], lengths[qid])
            live.add(qid)
        elif action == "remove" and qid in live and len(live) > 1:
            online.remove(qid)
            live.discard(qid)
    online.check_invariants()

    bulk = HashQueryIndex.build(
        {qid: sketches[qid] for qid in live},
        {qid: lengths[qid] for qid in live},
    )
    _same_structure(online, bulk)

    # Probes through both indexes agree, fast and reference alike.
    rng = np.random.default_rng(11)
    for _ in range(3):
        window = family.sketch(rng.choice(8000, size=20, replace=False))
        fast = _view(window, online, sketches, 0.5)
        assert fast == _view(window, bulk, sketches, 0.5)
        assert fast == related_view(online, probe_index_reference(window, online, 0.5))


def test_interleaved_churn_visits_every_size():
    """Grow to 20 queries one by one, then shrink to 1, checking
    invariants at every step."""
    family = MinHashFamily(num_hashes=16, seed=9)
    sketches, lengths = _population(family, 20, seed=5)
    index = HashQueryIndex.build({0: sketches[0]}, {0: lengths[0]})
    for qid in range(1, 20):
        index.insert(qid, sketches[qid], lengths[qid])
        index.check_invariants()
        assert index.num_queries == qid + 1
    for qid in range(19, 0, -1):
        index.remove(qid)
        index.check_invariants()
        assert index.num_queries == qid
    assert np.array_equal(index.sketch_values_of(0), sketches[0].values)


def test_randomized_interleaving_probe_equivalence():
    """Randomised subscribe/unsubscribe/probe interleaving.

    After *every* mutation the structure must satisfy its invariants and
    the array probe must agree with the Figure 5 reference walk on qid
    and both signature planes, exercising the online pointer maintenance
    of ``insert``/``remove`` together with every probe-side cache.
    """
    family = MinHashFamily(num_hashes=32, seed=13)
    sketches, lengths = _population(family, 16, seed=17)
    rng = np.random.default_rng(20080407)

    def check_probes(index):
        for _ in range(2):
            if rng.integers(2):
                size = int(rng.integers(10, 30))
                window = family.sketch(rng.choice(8000, size=size, replace=False))
            else:  # probe with a subscribed sketch so equal runs occur
                window = sketches[int(rng.choice(sorted(live)))]
            threshold = float(rng.choice([0.0, 0.5, 0.8]))
            prune = bool(rng.integers(2))
            reference = probe_index_reference(window, index, threshold, prune)
            assert _view(window, index, sketches, threshold, prune) == (
                related_view(index, reference))

    live = set(range(8))
    index = HashQueryIndex.build(
        {qid: sketches[qid] for qid in live},
        {qid: lengths[qid] for qid in live},
    )
    for _step in range(60):
        subscribed = sorted(live)
        unsubscribed = sorted(set(sketches) - live)
        if unsubscribed and (len(live) <= 1 or rng.integers(2)):
            qid = int(rng.choice(unsubscribed))
            index.insert(qid, sketches[qid], lengths[qid])
            live.add(qid)
        else:
            qid = int(rng.choice(subscribed))
            index.remove(qid)
            live.discard(qid)
        index.check_invariants()
        assert sorted(index.query_ids) == sorted(live)
        check_probes(index)
