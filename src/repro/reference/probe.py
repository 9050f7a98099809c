"""ProbeIndex as Figure 5 writes it: the literal row-by-row walk.

:func:`repro.index.probe.probe_index` computes the same related-query
list with batched numpy operations; ``tests/test_index.py`` and
``tests/test_index_stress.py`` assert the equivalence. This version is
the executable specification.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.index.probe import RelatedQuery
from repro.minhash.sketch import Sketch
from repro.signature.pruning import lemma2_bound
from repro.utils.bitops import count_ones

__all__ = ["probe_index_reference"]


def probe_index_reference(
    sketch: Sketch,
    index: HashQueryIndex,
    threshold: float,
    prune: bool = True,
) -> List[RelatedQuery]:
    """The literal row-by-row walk of Figure 5 (reference implementation).

    :func:`probe_index` computes the same result with batched numpy
    operations; the equivalence is asserted by the test suite. This
    version exists as the executable specification.

    Parameters
    ----------
    sketch:
        The basic window's K-min-hash sketch.
    index:
        The Hash-Query structure over the subscribed queries.
    threshold:
        δ, used by the in-probe Lemma 2 pruning.
    prune:
        Disable to keep even hopeless queries in ``R_L`` (used by the
        pruning ablation benchmark).

    Returns
    -------
    list of RelatedQuery
        Complete signatures (all K relations set) for every query sharing
        at least one min-hash value with the window and, when pruning is
        on, not yet excluded by Lemma 2.
    """
    if sketch.num_hashes != index.num_hashes:
        raise IndexError_(
            f"sketch width {sketch.num_hashes} does not match index "
            f"K={index.num_hashes}"
        )
    values = sketch.values
    num_hashes = index.num_hashes
    bound = lemma2_bound(num_hashes, threshold)

    related: List[RelatedQuery] = []
    for i in range(num_hashes):
        probe_value = int(values[i])
        row = index.rows[i]
        survivors: List[RelatedQuery] = []
        occupied_columns: Dict[int, bool] = {}
        # (1) advance existing elements and set their bit at hash i.
        for element in related:
            if i > 0:
                element.lp = index.rows[i - 1][element.lp].down
            entry_value = row[element.lp].value
            if probe_value <= entry_value:
                element.ge |= 1 << i
                if probe_value < entry_value:
                    element.lt |= 1 << i
            # (2) prune hopeless elements as early as possible.
            if prune and count_ones(element.lt) > bound:
                continue
            survivors.append(element)
            occupied_columns[element.lp] = True
        related = survivors

        # (3) find queries newly relevant at hash i (equal values).
        for column in index.equal_positions(i, probe_value):
            if column in occupied_columns:
                continue
            chain = index.walk_up_to_root(i, column)
            root = index.rows[0][chain[0]]
            assert root.qid is not None
            element = RelatedQuery(
                qid=root.qid, length_windows=root.length_windows, lp=column
            )
            for j in range(i):
                earlier_value = index.rows[j][chain[j]].value
                if int(values[j]) <= earlier_value:
                    element.ge |= 1 << j
                    if int(values[j]) < earlier_value:
                        element.lt |= 1 << j
            element.ge |= 1 << i  # relation at hash i is "=" by construction
            if prune and count_ones(element.lt) > bound:
                continue
            related.append(element)

    return related
