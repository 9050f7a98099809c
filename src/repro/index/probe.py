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

:func:`probe_index` produces the same sets in a few flat array passes
over the index's :attr:`~repro.index.hq.HashQueryIndex.keys` (all K
binary searches of every window of a block at once) and returns them as
one :class:`RelatedQueries`; the literal walk, element by element, is
the executable specification in ``repro.reference.probe``,
and ``tests/test_index.py`` asserts the two agree as ``(qid, ge, lt)``
sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.minhash.sketch import Sketch, SketchBlock
from repro.signature.bitsig import (
    pack_bool_planes,
    plane_words,
    popcount_planes,
)
from repro.signature.pruning import lemma2_bound

__all__ = ["RelatedQueries", "probe_index"]


@dataclass(frozen=True)
class RelatedQueries:
    """``R_L`` of each probed window as arrays, one row per related pair.

    Row ``r`` relates window ``windows[r]`` of the probed block (always
    0 for a single sketch) to query column ``columns[r]`` — a position in
    the index's :attr:`~repro.index.hq.HashQueryIndex.sorted_qids`, the
    engines' query columns (``sorted_qids[columns]`` are the query ids).
    Rows ascend by window, then column. ``ge``/``lt`` are the
    window-vs-query signature planes packed as ``(R, W)`` uint64 words
    (see :func:`~repro.signature.bitsig.pack_bool_planes`).
    """

    windows: np.ndarray  #: ``(R,)`` int64
    columns: np.ndarray  #: ``(R,)`` int64
    ge: np.ndarray  #: ``(R, W)`` uint64
    lt: np.ndarray  #: ``(R, W)`` uint64

    def __len__(self) -> int:
        return int(self.columns.shape[0])


def probe_index(
    sketches: Union[Sketch, SketchBlock],
    index: HashQueryIndex,
    query_matrix: np.ndarray,
    threshold: float,
    prune: bool = True,
) -> RelatedQueries:
    """Array-at-a-time probe — every window's literal Figure 5 walk.

    ``sketches`` is one window's :class:`~repro.minhash.sketch.Sketch`
    or the ``(B, K)`` :class:`~repro.minhash.sketch.SketchBlock` of a
    block of windows; one call probes them all:

    1. One ``np.searchsorted`` over the flat key array finds where every
       window's row targets (:meth:`~repro.index.hq.HashQueryIndex.targets`)
       would sit, at once (the K BinarySearch steps, B times); a second,
       over the targets that occur only, finds their equal runs' ends
       (EqualSearch).
    2. The runs' query ids (``qid_matrix.ravel()``) map to columns
       through the sorted-qid table; a (window, column) mask
       de-duplicates queries equal on several rows.
    3. One compare + pack of each window against its related queries'
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
    targets = index.targets(sketches)
    # In the matrix's dtype (``targets`` has checked that the family's
    # values fit below 2**32), so the compares promote nothing.
    values = np.atleast_2d(sketches.values).astype(
        query_matrix.dtype, copy=False
    )
    num_hashes = values.shape[1]
    keys = index.keys
    sorted_qids = index.sorted_qids
    if query_matrix.shape[0] != sorted_qids.shape[0]:
        raise IndexError_(
            f"query matrix has {query_matrix.shape[0]} rows for "
            f"{sorted_qids.shape[0]} indexed queries"
        )
    if not keys.size:
        targets = targets[:0]  # an empty index relates to nothing
    left = keys.searchsorted(targets, "left")
    # Only the targets that occur pay for their run's right end.
    found = (keys[np.minimum(left, keys.size - 1)] == targets).nonzero()[0]
    if not found.size:
        none = np.empty(0, dtype=np.int64)
        planes = np.empty((0, plane_words(num_hashes)), dtype=np.uint64)
        return RelatedQueries(windows=none, columns=none, ge=planes, lt=planes)
    left = left[found]
    counts = keys.searchsorted(targets[found], "right") - left
    # Flat position of every equal entry: each run's offset, repeated
    # over the run, plus a running count.
    ends = np.cumsum(counts)
    positions = np.repeat(left - (ends - counts), counts) + np.arange(
        counts.sum()
    )
    hit = np.zeros((values.shape[0], sorted_qids.shape[0]), dtype=bool)
    hit[
        np.repeat(found // num_hashes, counts),
        sorted_qids.searchsorted(index.qid_matrix.ravel()[positions]),
    ] = True
    windows, columns = hit.nonzero()
    probed = values.take(windows, axis=0)
    related = query_matrix.take(columns, axis=0)
    lt = pack_bool_planes(probed < related)
    if prune:
        keep = popcount_planes(lt) <= lemma2_bound(index.num_hashes, threshold)
        windows = windows[keep]
        columns = columns[keep]
        probed = probed.compress(keep, axis=0)
        related = related.compress(keep, axis=0)
        lt = lt.compress(keep, axis=0)
    return RelatedQueries(
        windows=windows,
        columns=columns,
        ge=pack_bool_planes(probed <= related),
        lt=lt,
    )
