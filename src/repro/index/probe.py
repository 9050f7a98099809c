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

:func:`probe_index` produces that list with batched numpy operations
rather than row by row; the literal walk is the test-only executable
specification in ``repro.reference.probe``, and ``tests/test_index.py``
asserts the two agree element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import IndexError_
from repro.index.hq import HashQueryIndex
from repro.minhash.sketch import Sketch
from repro.signature.bitsig import BitSignature
from repro.signature.pruning import lemma2_bound
from repro.utils.bitops import count_ones

__all__ = ["RelatedQuery", "probe_index"]


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
        row ``K-1``; both probe implementations honour this contract
        (asserted by ``tests/test_index.py``).
    """

    qid: int
    length_windows: int
    ge: int = 0
    lt: int = 0
    lp: int = -1

    def signature(self, num_hashes: int) -> BitSignature:
        """Materialise the accumulated planes as a checked signature."""
        return BitSignature(ge=self.ge, lt=self.lt, num_hashes=num_hashes)


def _batched_bisect(
    matrix: np.ndarray, targets: np.ndarray, side: str
) -> np.ndarray:
    """Row-wise ``bisect_left``/``bisect_right`` over a row-sorted matrix."""
    num_rows, num_columns = matrix.shape
    row_indices = np.arange(num_rows)
    steps = max(1, num_columns).bit_length() + 1
    lo = np.zeros(num_rows, dtype=np.int64)
    hi = np.full(num_rows, num_columns, dtype=np.int64)
    for _ in range(steps):
        active = lo < hi
        mid = (lo + hi) // 2
        safe = np.minimum(mid, num_columns - 1)
        if side == "left":
            descend = matrix[row_indices, safe] < targets
        else:
            descend = matrix[row_indices, safe] <= targets
        lo = np.where(active & descend, mid + 1, lo)
        hi = np.where(active & ~descend, mid, hi)
    return lo


def _equal_ranges(matrix: np.ndarray, targets: np.ndarray) -> tuple:
    """Batched per-row equal-run bounds over a row-sorted matrix.

    For every row ``i`` of the ``(K, m)`` matrix, returns ``left[i]`` and
    ``right[i]`` such that ``matrix[i, left:right] == targets[i]`` — the
    vectorised form of the probe's BinarySearch/EqualSearch primitive.
    """
    left = _batched_bisect(matrix, targets, "left")
    right = _batched_bisect(matrix, targets, "right")
    return left, right


def probe_index(
    sketch: Sketch,
    index: HashQueryIndex,
    threshold: float,
    prune: bool = True,
) -> List[RelatedQuery]:
    """Batched probe — same output as the literal Figure 5 walk.

    The per-row binary searches of Figure 5 run as one vectorised search
    over the index's ``(K, m)`` value matrix; each related query's full
    relation vector is then materialised in one shot from its (pointer-
    recovered) sketch column. Pruning by Lemma 2 on the *complete*
    signature yields exactly the rows the reference walk keeps, because
    the ``<`` count is monotone over prefix rows: it crosses the bound at
    some row if and only if the full count exceeds it. ``prune=False``
    keeps even hopeless queries in ``R_L`` (the pruning ablation).
    """
    if sketch.num_hashes != index.num_hashes:
        raise IndexError_(
            f"sketch width {sketch.num_hashes} does not match index "
            f"K={index.num_hashes}"
        )
    if index.num_queries == 0:
        return []
    values = sketch.values
    bound = lemma2_bound(index.num_hashes, threshold)

    matrix = index.values_matrix
    qids = index.qid_matrix
    left, right = _equal_ranges(matrix, values)
    rows_with_equals = np.flatnonzero(right > left)
    if rows_with_equals.size == 0:
        return []

    # First equal row per query, preserving the reference discovery order
    # (row-major, then column order inside the equal run).
    related: List[RelatedQuery] = []
    seen = set()
    for i in rows_with_equals:
        for column in range(int(left[i]), int(right[i])):
            qid = int(qids[i, column])
            if qid in seen:
                continue
            seen.add(qid)
            query_values = index.cached_sketch_values(qid)
            lt = _pack_bits(values < query_values)
            if prune and count_ones(lt) > bound:
                continue
            related.append(
                RelatedQuery(
                    qid=qid,
                    length_windows=index.length_of(qid),
                    ge=_pack_bits(values <= query_values),
                    lt=lt,
                    # The reference walk leaves every surviving element's
                    # cursor on its row-(K-1) entry; report the same
                    # final position, not the first-equal row's column.
                    lp=index.last_row_column_of(qid),
                )
            )
    return related


def _pack_bits(flags: np.ndarray) -> int:
    """Pack a boolean vector into an int with bit ``r`` = ``flags[r]``."""
    packed = np.packbits(flags, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")
