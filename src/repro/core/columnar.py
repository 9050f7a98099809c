"""Shared helpers of the columnar (structure-of-arrays) engines.

The columnar engines keep one column per subscribed query, in the
sorted-qid order of :meth:`~repro.core.context.EvalContext.query_columns`.
Online subscribe/unsubscribe changes that layout, so engine stores carry
the qid tuple they were built against and remap lazily: columns for
retained queries move to their new position, vanished queries drop, and
new queries start empty (exactly the state a fresh subscription has in
the oracle's qid-keyed stores, ``repro.reference``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["column_remap"]


def column_remap(
    old_qids: Sequence[int], new_qids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays moving per-query columns between two qid layouts.

    Returns ``(old_idx, new_idx)`` such that for any per-query array
    ``old`` (queries on some axis), the surviving columns are copied with
    ``new[..., new_idx] = old[..., old_idx]``; every other new column
    keeps its zero/False initial value.
    """
    position = {qid: i for i, qid in enumerate(old_qids)}
    old_idx = []
    new_idx = []
    for i, qid in enumerate(new_qids):
        j = position.get(qid)
        if j is not None:
            old_idx.append(j)
            new_idx.append(i)
    return (
        np.array(old_idx, dtype=np.int64),
        np.array(new_idx, dtype=np.int64),
    )
