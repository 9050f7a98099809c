"""ProbeIndex as Figure 5 writes it: the literal row-by-row walk.

:func:`repro.index.probe.probe_index` computes the same related-query
set with flat array passes; ``tests/test_index.py`` and
``tests/test_index_stress.py`` assert the equivalence. This version is
the executable specification, and the probe of the oracle
(:class:`~repro.reference.ReferenceDetector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple, Union

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.index.probe import RelatedQueries
from repro.minhash.sketch import Sketch
from repro.signature.bitsig import BitSignature
from repro.signature.pruning import lemma2_bound
from repro.utils.bitops import count_ones

__all__ = ["RelatedQuery", "probe_index_reference", "related_view"]


@dataclass
class RelatedQuery:
    """An ``R_L`` element: ⟨qid, bitsig, lp⟩ plus the query length.

    Attributes
    ----------
    qid:
        The related query's id.
    length_windows:
        The query's length in basic windows (drives per-query expiry).
    ge, lt:
        The two planes of the window-vs-query bit signature (see
        :class:`~repro.signature.bitsig.BitSignature`).
    lp:
        Probe cursor: the column of this query's current-row entry (the
        ``lp`` of Figure 5). In a *returned* element the walk has
        advanced through all K rows, so ``lp`` is the query's column in
        row ``K-1``.
    """

    qid: int
    length_windows: int
    ge: int = 0
    lt: int = 0
    lp: int = -1

    def signature(self, num_hashes: int) -> BitSignature:
        """Materialise the accumulated planes as a checked signature."""
        return BitSignature(ge=self.ge, lt=self.lt, num_hashes=num_hashes)


def probe_index_reference(
    sketch: Sketch,
    index: HashQueryIndex,
    threshold: float,
    prune: bool = True,
) -> List[RelatedQuery]:
    """The literal row-by-row walk of Figure 5 (reference implementation).

    :func:`~repro.index.probe.probe_index` computes the same set with
    flat array passes; the equivalence is asserted by the test suite.
    This version exists as the executable specification.

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


def related_view(
    index: HashQueryIndex,
    related: Union[RelatedQueries, List[RelatedQuery]],
) -> Set[Tuple[int, int, int]]:
    """``{(qid, ge, lt)}`` with int planes: the form in which a
    :func:`~repro.index.probe.probe_index` result and a walk over
    ``index`` compare (the index's ``sorted_qids`` name the result's
    columns)."""
    if isinstance(related, list):
        return {(e.qid, e.ge, e.lt) for e in related}
    qids = index.sorted_qids[related.columns].tolist()
    return {
        (qid, int.from_bytes(ge.tobytes(), "little"),
         int.from_bytes(lt.tobytes(), "little"))
        for qid, ge, lt in zip(qids, related.ge, related.lt)
    }
