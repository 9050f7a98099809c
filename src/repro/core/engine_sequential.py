"""Sequential combination order (Section IV-A).

Every suffix of the window stream — up to the λL length cap — is kept as
a live candidate. When basic window ``t`` arrives, each existing candidate
(all of which end at ``t−1``) is extended with it, and a fresh length-1
candidate is opened at ``t``. This is the accuracy-first order: all
``⌈λL/w⌉`` alignments are tested, at ``⌈λL/w⌉`` combinations per window
(the first branch of Eq. (4)).

:class:`ColumnarSequentialEngine` keeps all candidate state in
structure-of-arrays form, so each window is a handful of broadcast numpy
kernels instead of ``C × Q`` Python-level operations (see
``docs/performance.md``). The one-candidate-at-a-time form of the same
semantics is the oracle, ``repro.reference.SequentialEngine``;
``tests/test_engine_reference.py`` holds the two to identical matches
and counters.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import EvalContext, QueryColumns, WindowPayload
from repro.core.results import Match
from repro.minhash.sketch import SketchBlock
from repro.signature.bitsig import plane_words, popcount_planes
from repro.signature.pruning import lemma2_prunable

__all__ = ["ColumnarSequentialEngine"]


class ColumnarSequentialEngine:
    """Sequential order on the columnar candidate store.

    All live candidates are one structure of arrays: per-candidate meta
    vectors (``start_window``, ``start_frame``; a candidate's length in
    windows is derived as ``window.index - start_window + 1``), a
    ``(C, K)`` :class:`~repro.minhash.sketch.SketchBlock` (sketch mode)
    or ``(C, Q, W)`` packed uint64 signature planes plus a ``(C, Q)``
    presence mask (bit mode). One arriving window is then: a boolean
    expiry compaction, a broadcast ``np.minimum`` / bulk bitwise OR, one
    vectorized similarity kernel, and a mask-driven match emission —
    with counter accounting identical to the oracle's.
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
        num_queries = len(columns.qids)
        width = plane_words(ctx.config.num_hashes)
        self._qids = columns.qids
        self.start_window = np.empty(0, dtype=np.int64)
        self.start_frame = np.empty(0, dtype=np.int64)
        if ctx.is_bit:
            self.presence = np.empty((0, num_queries), dtype=bool)
            self.ge = np.empty((0, num_queries, width), dtype=np.uint64)
            self.lt = np.empty((0, num_queries, width), dtype=np.uint64)
        else:
            self.block = SketchBlock.empty(ctx.queries.family.fingerprint)
            self.relevant = np.empty((0, num_queries), dtype=bool)

    def _sync_columns(self) -> QueryColumns:
        """Adopt the current query-column layout, remapping live state."""
        columns = self.context.query_columns()
        if self._qids == columns.qids:
            return columns
        if self._qids is None or not len(self.start_window):
            self._alloc(columns)
            return columns
        old_idx, new_idx = column_remap(self._qids, columns.qids)
        rows = len(self.start_window)
        num_queries = len(columns.qids)
        if self.context.is_bit:
            width = self.ge.shape[2]
            presence = np.zeros((rows, num_queries), dtype=bool)
            ge = np.zeros((rows, num_queries, width), dtype=np.uint64)
            lt = np.zeros((rows, num_queries, width), dtype=np.uint64)
            presence[:, new_idx] = self.presence[:, old_idx]
            ge[:, new_idx] = self.ge[:, old_idx]
            lt[:, new_idx] = self.lt[:, old_idx]
            self.presence, self.ge, self.lt = presence, ge, lt
        else:
            relevant = np.zeros((rows, num_queries), dtype=bool)
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
            return int(np.count_nonzero(self.presence))
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
        ``prune`` timer, candidate extension (signature ORs / sketch
        merges, including their inline Lemma 2 pruning) under
        ``combine``, and fresh-candidate scoring plus per-window stats
        sampling under ``match_emit``. The numpy kernel sections inside
        ``combine`` additionally run under ``phase.combine.bitops`` (bit
        mode) or ``phase.combine.sketch`` (sketch mode) sub-timers.
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
                np.searchsorted(
                    self.start_window,
                    window.index + 1 - ctx.global_max_windows,
                )
            )
            if expired:
                ctx.registry.inc("engine.expired_candidates", expired)
                self._compact(expired)

        with ctx.phase("combine"):
            if ctx.is_bit:
                self._extend_bit_block(payload, columns, matches)
            else:
                self._extend_sketch_block(payload, columns, matches)

        with ctx.phase("match_emit"):
            self._append_and_evaluate_fresh(payload, columns, matches)
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
        self.start_window = self.start_window[expired:]
        self.start_frame = self.start_frame[expired:]
        if self.context.is_bit:
            self.presence = self.presence[expired:]
            self.ge = self.ge[expired:]
            self.lt = self.lt[expired:]
        else:
            self.block.values = self.block.values[expired:]
            self.relevant = self.relevant[expired:]

    def _emit_block(
        self,
        emit: np.ndarray,
        similarity: np.ndarray,
        start_frames: np.ndarray,
        columns: QueryColumns,
        window_index: int,
        end_frame: int,
        matches: List[Match],
    ) -> None:
        """Materialise Match events from a ``(C, Q)`` emission mask."""
        rows, cols = np.nonzero(emit)
        qids = columns.qids
        for row, col in zip(rows.tolist(), cols.tolist()):
            matches.append(
                Match(
                    qid=qids[col],
                    window_index=window_index,
                    start_frame=int(start_frames[row]),
                    end_frame=end_frame,
                    similarity=float(similarity[row, col]),
                )
            )

    def _extend_bit_block(
        self,
        payload: WindowPayload,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """All candidates' signature ORs / adoptions as bulk bitwise ops.

        Mirrors the oracle's ``_extend_bit`` pair for pair: the per-query
        λL cap filters first (dropped pairs touch no counter), tracked
        pairs OR with the window planes (one ``signature_combines`` each,
        lazy window encodes charged per column), window-only pairs adopt
        the window signature, and Lemma 2 prunes the results in bulk.
        """
        ctx = self.context
        window = payload.window
        num_hashes = ctx.config.num_hashes
        ages = window.index - self.start_window + 1
        cap = ages[:, np.newaxis] <= columns.max_windows
        combined = self.presence & cap
        ctx.window_planes(
            payload, needed=combined.any(axis=0) & ~payload.present
        )
        adopted = ~self.presence & cap & payload.present
        ctx.registry.inc(
            "engine.signature_combines", int(np.count_nonzero(combined))
        )
        with ctx.phase("combine.bitops"):
            present = combined | adopted
            combined3 = combined[:, :, np.newaxis]
            present3 = present[:, :, np.newaxis]
            ge, lt = self.ge, self.lt
            # In place: zero every row not continued this window (this
            # also clears rows pruned on an earlier window), then OR the
            # window planes into every tracked-or-adopting row.
            np.multiply(ge, combined3, out=ge)
            np.multiply(lt, combined3, out=lt)
            np.bitwise_or(ge, payload.ge, out=ge, where=present3)
            np.bitwise_or(lt, payload.lt, out=lt, where=present3)
            n1 = popcount_planes(lt)
            if ctx.config.prune:
                prunable = present & lemma2_prunable(
                    n1, num_hashes, ctx.config.threshold
                )
                pruned = int(np.count_nonzero(prunable))
                if pruned:
                    ctx.registry.inc("engine.signature_prunes", pruned)
                    present &= ~prunable
            similarity = 1.0 - (
                (num_hashes - popcount_planes(ge)) + n1
            ) / num_hashes
            emit = present & (similarity >= ctx.config.threshold)
        self.presence = present
        self._emit_block(
            emit, similarity, self.start_frame, columns,
            window.index, window.end_frame, matches,
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
        self._emit_block(
            emit, similarity, self.start_frame, columns,
            window.index, window.end_frame, matches,
        )

    def _append_and_evaluate_fresh(
        self,
        payload: WindowPayload,
        columns: QueryColumns,
        matches: List[Match],
    ) -> None:
        """Open, score and append the length-1 candidate at this window."""
        ctx = self.context
        window = payload.window
        num_hashes = ctx.config.num_hashes
        qids = columns.qids
        if ctx.is_bit:
            n1 = popcount_planes(payload.lt)
            similarity = 1.0 - (
                (num_hashes - popcount_planes(payload.ge)) + n1
            ) / num_hashes
            emit = payload.present & (similarity >= ctx.config.threshold)
            self.presence = np.concatenate(
                [self.presence, payload.present[np.newaxis, :]]
            )
            self.ge = np.concatenate([self.ge, payload.ge[np.newaxis, :, :]])
            self.lt = np.concatenate([self.lt, payload.lt[np.newaxis, :, :]])
        else:
            relevant = payload.related_mask
            ctx.registry.inc(
                "engine.sketch_comparisons", int(np.count_nonzero(relevant))
            )
            equal = np.count_nonzero(
                window.sketch.values[np.newaxis, :] == columns.matrix, axis=1
            )
            similarity = equal / num_hashes
            emit = relevant & (similarity >= ctx.config.threshold)
            self.block.append(window.sketch)
            self.relevant = np.concatenate(
                [self.relevant, relevant[np.newaxis, :]]
            )
        for column in np.flatnonzero(emit).tolist():
            matches.append(
                Match(
                    qid=qids[column],
                    window_index=window.index,
                    start_frame=window.start_frame,
                    end_frame=window.end_frame,
                    similarity=float(similarity[column]),
                )
            )
        self.start_window = np.concatenate(
            [self.start_window, (window.index,)]
        )
        self.start_frame = np.concatenate(
            [self.start_frame, (window.start_frame,)]
        )
