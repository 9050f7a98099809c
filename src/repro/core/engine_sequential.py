"""Sequential combination order (Section IV-A).

Every suffix of the window stream — up to the λL length cap — is kept as
a live candidate. When basic window ``t`` arrives, each existing candidate
(all of which end at ``t−1``) is extended with it, and a fresh length-1
candidate is opened at ``t``. This is the accuracy-first order: all
``⌈λL/w⌉`` alignments are tested, at ``⌈λL/w⌉`` combinations per window
(the first branch of Eq. (4)).

:class:`ColumnarSequentialEngine` keeps all candidate state in
structure-of-arrays form and takes a whole block of windows per call:
the block's expiry is one search, its fresh candidates' rows are laid
out once, and each window is a handful of numpy kernels instead of
Python-level per-pair operations (see ``docs/performance.md``). The
per-query state is a sparse *pair store* of bit signatures — only the
(candidate, query) signatures that are live after the λL cap and
Lemma 2 exist — so a window's cost follows the live pairs and the
window's related queries, not ``C × Q``. The one-window,
one-candidate-at-a-time form of the same semantics — in both
representations — is the oracle, ``repro.reference.SequentialEngine``;
``tests/test_engine_reference.py`` holds the two to identical matches
and counters.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import BlockPayload, EvalContext, QueryColumns
from repro.core.results import Match
from repro.signature.bitsig import plane_words, popcount_planes
from repro.signature.pruning import lemma2_prunable

__all__ = ["ColumnarSequentialEngine"]


class ColumnarSequentialEngine:
    """Sequential order on the columnar candidate store.

    Live candidates are rows of two meta vectors, ``start_window`` and
    ``start_frame`` (a candidate's length in windows is derived as
    ``index - start_window + 1``). Their per-query state is a *pair
    store*: one entry per (candidate, query) signature the oracle would
    hold, as ``pair_start (P,)`` (the candidate's start window),
    ``pair_col (P,)`` (the query column) and packed ``pair_ge``/``pair_lt
    (P, W)`` uint64 planes, in no particular order. A window costs work
    in the live pairs ``P`` and the ``C × R`` adoption grid of its ``R``
    related queries, never in ``C × Q``.

    Counter accounting is identical to the oracle's.
    """

    def __init__(self, context: EvalContext) -> None:
        self.context = context
        self._qids: tuple = None
        self._sync_columns()

    # ------------------------------------------------------------------
    # store layout
    # ------------------------------------------------------------------

    def _alloc(self, columns: QueryColumns) -> None:
        self._qids = columns.qids
        self.start_window = np.empty(0, dtype=np.int64)
        self.start_frame = np.empty(0, dtype=np.int64)
        width = plane_words(self.context.config.num_hashes)
        self.pair_start = np.empty(0, dtype=np.int64)
        self.pair_col = np.empty(0, dtype=np.int64)
        self.pair_ge = np.empty((0, width), dtype=np.uint64)
        self.pair_lt = np.empty((0, width), dtype=np.uint64)

    def _sync_columns(self) -> QueryColumns:
        """Adopt the current query-column layout, remapping live state."""
        columns = self.context.query_columns()
        if self._qids == columns.qids:
            return columns
        if self._qids is None or not len(self.start_window):
            self._alloc(columns)
            return columns
        old_idx, new_idx = column_remap(self._qids, columns.qids)
        # Move every pair to its query's new column; the pairs of
        # vanished queries drop.
        remap = np.full(len(self._qids), -1, dtype=np.int64)
        remap[old_idx] = new_idx
        moved = remap[self.pair_col]
        kept = moved >= 0
        self.pair_start = self.pair_start[kept]
        self.pair_col = moved[kept]
        self.pair_ge = self.pair_ge[kept]
        self.pair_lt = self.pair_lt[kept]
        self._qids = columns.qids
        return columns

    def purge_query(self, qid: int) -> None:
        """Drop one query's in-flight state (online unsubscribe)."""
        self._sync_columns()

    def refresh(self) -> None:
        """Adopt the current query set (online subscribe).

        Eager rather than lazy: a snapshot taken between a subscribe
        and the next window must already see the new column layout.
        """
        self._sync_columns()

    @property
    def resident_signatures(self) -> int:
        """Bit signatures currently held in ``C_L``."""
        return int(self.pair_col.shape[0])

    @property
    def num_candidates(self) -> int:
        """Live candidate count ``C``."""
        return int(self.start_window.shape[0])

    # ------------------------------------------------------------------
    # block processing
    # ------------------------------------------------------------------

    def process_batch(self, payload: BlockPayload) -> List[List[Match]]:
        """Fold a block of basic windows into the columnar ``C_L``.

        Returns one match list per window, each in the oracle's
        (candidate start, query column) order. The block's fresh
        candidates are rows appended after the live ones, so
        ``start_window`` stays ascending and the rows alive at window
        ``t`` are one slice, ``[low[t], live + t + 1)``, where ``low``
        — how far λL expiry has reached at each window — is one search.

        Phase accounting: that search runs under the ``prune`` timer;
        the window-by-window extension (signature ORs and adoptions,
        their Lemma 2 pruning, the fresh candidate's scoring) under
        ``combine``, with its numpy kernels in the
        ``phase.combine.bitops`` sub-timer; the per-window stats
        sampling under ``match_emit``.
        """
        ctx = self.context
        columns = self._sync_columns()
        block = payload.block
        live = self.num_candidates
        with ctx.phase("prune"):
            starts = np.concatenate([self.start_window, block.indices])
            frames = np.concatenate([self.start_frame, block.starts])
            # A candidate spanning windows [s, t] has length t - s + 1.
            low = starts.searchsorted(
                block.indices + 1 - ctx.global_max_windows
            ).tolist()

        per_window: List[List[Match]] = [[] for _ in range(len(block))]
        resident = [0] * len(block)
        with ctx.phase("combine"):
            for t in range(len(block)):
                rows = slice(low[t], live + t + 1)
                self._extend_pairs(payload, t, starts, frames, rows,
                                   columns, per_window[t])
                resident[t] = self.resident_signatures
        self.start_window = starts[low[-1]:]
        self.start_frame = frames[low[-1]:]

        with ctx.phase("match_emit"):
            registry = ctx.registry
            if low[-1]:
                registry.inc("engine.expired_candidates", low[-1])
            registry.inc("engine.windows_processed", len(per_window))
            for t, signatures in enumerate(resident):
                registry.observe("engine.signatures_maintained", signatures)
                registry.observe(
                    "engine.candidates_maintained", live + t + 1 - low[t]
                )
            registry.inc(
                "engine.matches_reported", sum(map(len, per_window))
            )
        return per_window

    def _extend_pairs(
        self,
        payload: BlockPayload,
        t: int,
        starts: np.ndarray,
        frames: np.ndarray,
        rows: slice,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """Window ``t``'s ORs, adoptions and fresh pairs, one Lemma 2.

        Mirrors the oracle's ``_extend_bit`` and ``_evaluate_fresh`` pair
        for pair: the per-query λL cap filters first (dropped pairs touch
        no counter; the cap also drops the pairs of rows expired this
        window), tracked pairs OR with the window planes (one
        ``signature_combines`` each, and one lazy encode per column the
        window does not relate), every (live row, related column) pair
        not yet tracked — the fresh candidate's row included — adopts the
        window signature, and Lemma 2 prunes the results in bulk.
        """
        ctx = self.context
        window_index = int(payload.block.indices[t])
        num_hashes = ctx.config.num_hashes
        caps = columns.max_windows
        related = payload.related[t]
        fresh = related.nonzero()[0]
        tracked = window_index - self.pair_start < caps.take(self.pair_col)
        start = self.pair_start.compress(tracked)
        col = self.pair_col.compress(tracked)
        num_tracked = col.shape[0]
        ctx.registry.inc("engine.signature_combines", num_tracked)
        needed = np.zeros(related.shape[0], dtype=bool)
        needed[col] = True
        window_ge, window_lt = ctx.window_planes(
            payload, t, lazy=(needed & ~related).nonzero()[0]
        )

        if fresh.shape[0]:
            # Adoption grid: live rows (the fresh one last) × related
            # columns under the cap, less the cells a tracked pair holds.
            live = starts[rows]
            adopt = (window_index - live)[:, np.newaxis] < caps.take(fresh)
            if num_tracked:
                slot = np.full(related.shape[0], -1, dtype=np.int64)
                slot[fresh] = np.arange(fresh.shape[0])
                held = slot.take(col)
                on = (held >= 0).nonzero()[0]
                adopt[
                    live.searchsorted(start.take(on)), held.take(on)
                ] = False
            cells, slots = adopt.nonzero()
            start = np.concatenate([start, live.take(cells)])
            col = np.concatenate([col, fresh.take(slots)])

        # Row gathers go through take / compress: on (P, W) planes they
        # are several times cheaper than fancy or boolean indexing.
        with ctx.phase("combine.bitops"):
            ge = window_ge.take(col, axis=0)
            lt = window_lt.take(col, axis=0)
            ge[:num_tracked] |= self.pair_ge.compress(tracked, axis=0)
            lt[:num_tracked] |= self.pair_lt.compress(tracked, axis=0)
            n1 = popcount_planes(lt)
            if ctx.config.prune:
                prunable = lemma2_prunable(
                    n1, num_hashes, ctx.config.threshold
                )
                pruned = int(np.count_nonzero(prunable))
                if pruned:
                    ctx.registry.inc("engine.signature_prunes", pruned)
                    kept = ~prunable
                    start, col, n1 = start[kept], col[kept], n1[kept]
                    ge = ge.compress(kept, axis=0)
                    lt = lt.compress(kept, axis=0)
            similarity = 1.0 - (
                (num_hashes - popcount_planes(ge)) + n1
            ) / num_hashes
            hits = (similarity >= ctx.config.threshold).nonzero()[0]
        self.pair_start, self.pair_col = start, col
        self.pair_ge, self.pair_lt = ge, lt
        if hits.size:
            self._emit(
                start[hits], col[hits], similarity[hits], starts, frames,
                columns, payload, t, matches,
            )

    def _emit(
        self,
        start: np.ndarray,
        col: np.ndarray,
        similarity: np.ndarray,
        starts: np.ndarray,
        frames: np.ndarray,
        columns: QueryColumns,
        payload: BlockPayload,
        t: int,
        matches: List[Match],
    ) -> None:
        """Match events of window ``t`` in the oracle's (start, column)
        order. The store is unordered, so only the emitted pairs are
        sorted."""
        qids = columns.qids
        order = np.argsort(start * len(qids) + col)
        start_frames = frames[starts.searchsorted(start[order])]
        block = payload.block
        window_index = int(block.indices[t])
        end_frame = int(block.starts[t] + block.frames[t])
        for column, start_frame, value in zip(
            col[order].tolist(), start_frames.tolist(),
            similarity[order].tolist(),
        ):
            matches.append(
                Match(
                    qid=qids[column],
                    window_index=window_index,
                    start_frame=start_frame,
                    end_frame=end_frame,
                    similarity=value,
                )
            )
