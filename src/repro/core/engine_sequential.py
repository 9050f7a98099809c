"""Sequential combination order (Section IV-A).

Every suffix of the window stream — up to the λL length cap — is kept as
a live candidate. When basic window ``t`` arrives, each existing candidate
(all of which end at ``t−1``) is extended with it, and a fresh length-1
candidate is opened at ``t``. This is the accuracy-first order: all
``⌈λL/w⌉`` alignments are tested, at ``⌈λL/w⌉`` combinations per window
(the first branch of Eq. (4)).

:class:`ColumnarSequentialEngine` keeps all candidate state in
structure-of-arrays form, so each window is a handful of numpy kernels
instead of Python-level per-pair operations (see
``docs/performance.md``). In bit mode the per-query state is a sparse
*pair store* — only the (candidate, query) signatures that are live
after the λL cap and Lemma 2 exist — so a window's cost follows the live
pairs and the window's related queries, not ``C × Q``. The
one-candidate-at-a-time form of the same semantics is the oracle,
``repro.reference.SequentialEngine``; ``tests/test_engine_reference.py``
holds the two to identical matches and counters.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import EvalContext, QueryColumns, WindowPayload
from repro.core.results import Match
from repro.minhash.sketch import SketchBlock
from repro.minhash.windows import BasicWindow
from repro.signature.bitsig import plane_words, popcount_planes
from repro.signature.pruning import lemma2_prunable

__all__ = ["ColumnarSequentialEngine"]


class ColumnarSequentialEngine:
    """Sequential order on the columnar candidate store.

    Live candidates are rows of two meta vectors, ``start_window`` and
    ``start_frame`` (a candidate's length in windows is derived as
    ``window.index - start_window + 1``). Their per-query state depends
    on the representation:

    * **bit mode** — a *pair store*: one entry per (candidate, query)
      signature the oracle would hold, as ``pair_start (P,)`` (the
      candidate's start window), ``pair_col (P,)`` (the query column) and
      packed ``pair_ge``/``pair_lt (P, W)`` uint64 planes, in no
      particular order. A window costs work in the live pairs ``P`` and
      the ``C × R`` adoption grid of its ``R`` related queries, never in
      ``C × Q``.
    * **sketch mode** — a ``(C, K)``
      :class:`~repro.minhash.sketch.SketchBlock` plus a dense ``(C, Q)``
      relevance mask.

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
        ctx = self.context
        self._qids = columns.qids
        self.start_window = np.empty(0, dtype=np.int64)
        self.start_frame = np.empty(0, dtype=np.int64)
        if ctx.is_bit:
            width = plane_words(ctx.config.num_hashes)
            self.pair_start = np.empty(0, dtype=np.int64)
            self.pair_col = np.empty(0, dtype=np.int64)
            self.pair_ge = np.empty((0, width), dtype=np.uint64)
            self.pair_lt = np.empty((0, width), dtype=np.uint64)
        else:
            self.block = SketchBlock.empty(ctx.queries.family.fingerprint)
            self.relevant = np.empty((0, len(columns.qids)), dtype=bool)

    def _sync_columns(self) -> QueryColumns:
        """Adopt the current query-column layout, remapping live state."""
        columns = self.context.query_columns()
        if self._qids == columns.qids:
            return columns
        if self._qids is None or not len(self.start_window):
            self._alloc(columns)
            return columns
        old_idx, new_idx = column_remap(self._qids, columns.qids)
        if self.context.is_bit:
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
        else:
            relevant = np.zeros(
                (len(self.start_window), len(columns.qids)), dtype=bool
            )
            relevant[:, new_idx] = self.relevant[:, old_idx]
            self.relevant = relevant
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
        if self.context.is_bit:
            return int(self.pair_col.shape[0])
        return 0

    @property
    def num_candidates(self) -> int:
        """Live candidate count ``C``."""
        return int(self.start_window.shape[0])

    # ------------------------------------------------------------------
    # per-window processing
    # ------------------------------------------------------------------

    def process(self, payload: WindowPayload) -> List[Match]:
        """Fold one basic window into the columnar ``C_L``.

        Phase accounting: expiry of over-λL candidates runs under the
        ``prune`` timer, candidate extension (signature ORs and
        adoptions / sketch merges, including their inline Lemma 2
        pruning) under ``combine``, and fresh-candidate scoring plus
        per-window stats sampling under ``match_emit``. The numpy kernel
        sections inside ``combine`` additionally run under
        ``phase.combine.bitops`` (bit mode) or ``phase.combine.sketch``
        (sketch mode) sub-timers.
        """
        ctx = self.context
        columns = self._sync_columns()
        window = payload.window
        matches: List[Match] = []

        with ctx.phase("prune"):
            # A candidate spanning windows [s, t] has length t - s + 1;
            # start_window is ascending (append order), so the over-cap
            # rows form a prefix and compaction is a slice (a view), not
            # a fancy-index copy.
            expired = int(
                self.start_window.searchsorted(
                    window.index + 1 - ctx.global_max_windows
                )
            )
            if expired:
                ctx.registry.inc("engine.expired_candidates", expired)
                self._compact(expired)

        with ctx.phase("combine"):
            if ctx.is_bit:
                present = payload.present.nonzero()[0]
                self._extend_pairs(payload, present, columns, matches)
            else:
                self._extend_sketch_block(payload, columns, matches)

        with ctx.phase("match_emit"):
            if ctx.is_bit:
                self._append_fresh_pairs(payload, present, columns, matches)
            else:
                self._append_fresh_sketch(payload, columns, matches)
            self.start_window = np.concatenate(
                [self.start_window, (window.index,)]
            )
            self.start_frame = np.concatenate(
                [self.start_frame, (window.start_frame,)]
            )
            registry = ctx.registry
            registry.inc("engine.windows_processed")
            registry.observe(
                "engine.signatures_maintained", self.resident_signatures
            )
            registry.observe(
                "engine.candidates_maintained", self.num_candidates
            )
            registry.inc("engine.matches_reported", len(matches))
        return matches

    def _compact(self, expired: int) -> None:
        # The pairs of the expired rows stay until the next cap filter
        # (_extend_pairs): their age exceeds every per-query cap.
        self.start_window = self.start_window[expired:]
        self.start_frame = self.start_frame[expired:]
        if not self.context.is_bit:
            self.block.values = self.block.values[expired:]
            self.relevant = self.relevant[expired:]

    def _extend_pairs(
        self,
        payload: WindowPayload,
        present: np.ndarray,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """Every live pair's signature OR, every adoption, one Lemma 2.

        Mirrors the oracle's ``_extend_bit`` pair for pair: the per-query
        λL cap filters first (dropped pairs touch no counter), tracked
        pairs OR with the window planes (one ``signature_combines`` each,
        lazy window encodes charged per column), every (live candidate,
        ``present`` column) pair not yet tracked adopts the window
        signature, and Lemma 2 prunes the results in bulk.
        """
        ctx = self.context
        window = payload.window
        num_hashes = ctx.config.num_hashes
        caps = columns.max_windows
        # The cap test ``index - start + 1 <= cap`` also drops the pairs
        # of rows expired this window.
        tracked = window.index - self.pair_start < caps[self.pair_col]
        start = self.pair_start[tracked]
        col = self.pair_col[tracked]
        ctx.registry.inc("engine.signature_combines", int(col.shape[0]))
        if col.shape[0]:
            needed = np.zeros(len(columns.qids), dtype=bool)
            needed[col] = True
            ctx.window_planes(payload, needed=needed)

        # Adoption grid: live rows × present columns under the cap, less
        # the cells a tracked pair already holds.
        adopt = (window.index - self.start_window)[:, np.newaxis] < (
            caps[present]
        )
        slot = np.full(len(columns.qids), -1, dtype=np.int64)
        slot[present] = np.arange(present.shape[0])
        held = slot[col]
        on_present = held >= 0
        adopt[
            self.start_window.searchsorted(start[on_present]),
            held[on_present],
        ] = False
        rows, slots = np.nonzero(adopt)
        num_tracked = col.shape[0]
        start = np.concatenate([start, self.start_window[rows]])
        col = np.concatenate([col, present[slots]])

        # Row gathers go through take / compress: on (P, W) planes they
        # are several times cheaper than fancy or boolean indexing.
        with ctx.phase("combine.bitops"):
            ge = payload.ge.take(col, axis=0)
            lt = payload.lt.take(col, axis=0)
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
            self._emit_pairs(
                start[hits], col[hits], similarity[hits], columns,
                window, matches,
            )

    def _emit_pairs(
        self,
        start: np.ndarray,
        col: np.ndarray,
        similarity: np.ndarray,
        columns: QueryColumns,
        window: BasicWindow,
        matches: List[Match],
    ) -> None:
        """Materialise Match events in the oracle's (start, column) order.

        The store is unordered, so only the emitted pairs are sorted.
        """
        qids = columns.qids
        order = np.argsort(start * len(qids) + col)
        start_frames = self.start_frame[
            self.start_window.searchsorted(start[order])
        ]
        for column, start_frame, value in zip(
            col[order].tolist(), start_frames.tolist(),
            similarity[order].tolist(),
        ):
            matches.append(
                Match(
                    qid=qids[column],
                    window_index=window.index,
                    start_frame=start_frame,
                    end_frame=window.end_frame,
                    similarity=value,
                )
            )

    def _extend_sketch_block(
        self,
        payload: WindowPayload,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """All candidates' sketch merges and re-scores as one kernel."""
        ctx = self.context
        window = payload.window
        rows = self.num_candidates
        with ctx.phase("combine.sketch"):
            self.block.combine_all(window.sketch)
        ctx.registry.inc("engine.sketch_combines", rows)
        self.relevant |= payload.related_mask
        ages = window.index - self.start_window + 1
        cap = ages[:, np.newaxis] <= columns.max_windows
        active = self.relevant & cap
        ctx.registry.inc(
            "engine.sketch_comparisons", int(np.count_nonzero(active))
        )
        with ctx.phase("combine.sketch"):
            similarity = self.block.similarity_matrix(columns.matrix)
            emit = active & (similarity >= ctx.config.threshold)
        self.relevant = active
        rows, cols = np.nonzero(emit)
        if rows.size:
            self._emit_pairs(
                self.start_window[rows], cols, similarity[rows, cols],
                columns, window, matches,
            )

    def _append_fresh_pairs(
        self,
        payload: WindowPayload,
        present: np.ndarray,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """Score the length-1 candidate and store its ``present`` pairs."""
        num_hashes = self.context.config.num_hashes
        ge = payload.ge.take(present, axis=0)
        lt = payload.lt.take(present, axis=0)
        n1 = popcount_planes(lt)
        similarity = 1.0 - (
            (num_hashes - popcount_planes(ge)) + n1
        ) / num_hashes
        self._emit_fresh(
            present, similarity, columns, payload.window, matches
        )
        self.pair_start = np.concatenate([
            self.pair_start, np.full(present.shape[0], payload.window.index)
        ])
        self.pair_col = np.concatenate([self.pair_col, present])
        self.pair_ge = np.concatenate([self.pair_ge, ge])
        self.pair_lt = np.concatenate([self.pair_lt, lt])

    def _append_fresh_sketch(
        self,
        payload: WindowPayload,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """Score the length-1 candidate on its relevant queries."""
        ctx = self.context
        window = payload.window
        relevant = payload.related_mask
        ctx.registry.inc(
            "engine.sketch_comparisons", int(np.count_nonzero(relevant))
        )
        equal = np.count_nonzero(
            window.sketch.values[np.newaxis, :] == columns.matrix, axis=1
        )
        similarity = equal / ctx.config.num_hashes
        related = np.flatnonzero(relevant)
        self._emit_fresh(
            related, similarity[related], columns, window, matches
        )
        self.block.append(window.sketch)
        self.relevant = np.concatenate(
            [self.relevant, relevant[np.newaxis, :]]
        )

    def _emit_fresh(
        self,
        cols: np.ndarray,
        similarity: np.ndarray,
        columns: QueryColumns,
        window: BasicWindow,
        matches: List[Match],
    ) -> None:
        """Match events of the length-1 candidate, in column order."""
        hits = similarity >= self.context.config.threshold
        for column, value in zip(
            cols[hits].tolist(), similarity[hits].tolist()
        ):
            matches.append(
                Match(
                    qid=columns.qids[column],
                    window_index=window.index,
                    start_frame=window.start_frame,
                    end_frame=window.end_frame,
                    similarity=value,
                )
            )
