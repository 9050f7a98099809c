"""ProbeIndex — Figure 5 of the paper.

Given a basic-window sketch ``sk`` and the Hash-Query index, return the
*related query list* ``R_L``: one element per query sharing at least one
min-hash value with the window, each carrying the full 2K-bit signature of
the window against that query. The walk proceeds hash function by hash
function:

1. **Bit signature setting** — every element already in ``R_L`` advances
   its ``lp`` pointer down one row and records the relation between the
   query's value there and ``sk[i]``.
2. **Pruning** — elements whose partial signature already violates
   Lemma 2 are dropped immediately (their ``<`` count can only grow).
3. **Relevant-query search** — binary search row ``i`` for values equal
   to ``sk[i]``; positions belonging to queries not yet in ``R_L`` spawn
   new elements, whose earlier relations (hashes ``0..i−1``) are filled
   by walking the ``up`` chain and whose query id comes from the row-0
   entry that walk ends on.

A query with *zero* equal min-hash values never enters ``R_L`` — its
estimated similarity is 0, so it cannot satisfy any threshold δ > 0.

:func:`probe_index` produces the same set in a few flat array passes
over the index's :attr:`~repro.index.hq.HashQueryIndex.keys` (all K
binary searches at once) and returns it as :class:`RelatedQueries`
arrays; the literal walk, element by element, is the test-only
executable specification in ``repro.reference.probe``, and
``tests/test_index.py`` asserts the two agree as ``(qid, ge, lt)`` sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.minhash.sketch import Sketch
from repro.signature.bitsig import pack_bool_planes, popcount_planes
from repro.signature.pruning import lemma2_bound

__all__ = ["RelatedQueries", "probe_index"]


@dataclass(frozen=True)
class RelatedQueries:
    """``R_L`` as arrays, one row per related query in column order.

    ``columns`` are positions in the index's
    :attr:`~repro.index.hq.HashQueryIndex.sorted_qids` — the engines'
    query columns — ascending (``sorted_qids[columns]`` are their query
    ids); ``ge``/``lt`` are the window-vs-query signature planes packed
    as ``(R, W)`` uint64 words (see
    :func:`~repro.signature.bitsig.pack_bool_planes`).
    """

    columns: np.ndarray  #: ``(R,)`` int64
    ge: np.ndarray  #: ``(R, W)`` uint64
    lt: np.ndarray  #: ``(R, W)`` uint64

    def __len__(self) -> int:
        return int(self.columns.shape[0])


def probe_index(
    sketch: Sketch,
    index: HashQueryIndex,
    query_matrix: np.ndarray,
    threshold: float,
    prune: bool = True,
) -> RelatedQueries:
    """Array-at-a-time probe — the same set as the literal Figure 5 walk.

    1. One ``np.searchsorted`` over the flat key array finds where every
       row's target (:meth:`~repro.index.hq.HashQueryIndex.targets`)
       would sit, at once (the K BinarySearch steps); a second, over the
       targets that occur only, finds their equal runs' ends
       (EqualSearch).
    2. The runs' query ids (``qid_matrix.ravel()``) map to columns
       through the sorted-qid table; a column mask de-duplicates queries
       equal on several rows.
    3. One compare + pack of the window against the related queries'
       rows of ``query_matrix`` gives both planes.

    Pruning by Lemma 2 on the *complete* ``<`` count keeps exactly the
    queries the reference walk keeps, because that count is monotone
    over prefix rows: it crosses the bound at some row if and only if the
    full count exceeds it. ``prune=False`` keeps even hopeless queries
    (the pruning ablation).

    ``query_matrix`` is the ``(m, K)`` subscribed sketches in sorted-qid
    order — the engines pass their ``QueryColumns.matrix``, so the index
    keeps no second copy.
    """
    targets = index.targets(sketch)
    values = sketch.values
    keys = index.keys
    if not keys.size:
        targets = targets[:0]  # an empty index relates to nothing
    left = keys.searchsorted(targets, "left")
    # Only the rows whose target occurs pay for their run's right end.
    found = (keys[np.minimum(left, keys.size - 1)] == targets).nonzero()[0]
    left = left[found]
    counts = keys.searchsorted(targets[found], "right") - left
    # Flat position of every equal entry: each run's offset, repeated
    # over the run, plus a running count.
    ends = np.cumsum(counts)
    positions = np.repeat(left - (ends - counts), counts) + np.arange(
        counts.sum()
    )
    sorted_qids = index.sorted_qids
    hit = np.zeros(sorted_qids.shape[0], dtype=bool)
    hit[sorted_qids.searchsorted(index.qid_matrix.ravel()[positions])] = True
    columns = hit.nonzero()[0]

    if query_matrix.shape[0] != sorted_qids.shape[0]:
        raise IndexError_(
            f"query matrix has {query_matrix.shape[0]} rows for "
            f"{sorted_qids.shape[0]} indexed queries"
        )
    related = query_matrix.take(columns, axis=0)
    lt = pack_bool_planes(values < related)
    if prune:
        keep = popcount_planes(lt) <= lemma2_bound(index.num_hashes, threshold)
        columns = columns[keep]
        related = related.compress(keep, axis=0)
        lt = lt.compress(keep, axis=0)
    return RelatedQueries(
        columns=columns,
        ge=pack_bool_planes(values <= related),
        lt=lt,
    )
