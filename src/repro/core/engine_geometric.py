"""Geometric combination order (Section IV-A, Figure 2).

Instead of every suffix, only O(log) candidates of dyadic lengths are
kept, as a binary-counter ladder of disjoint adjacent segments: an
arriving window enters as a size-1 segment and equal-sized neighbours
merge (carry propagation), so after ``i`` windows the ladder holds at most
``⌈log i⌉ + 1`` segments. The candidates actually *tested* each step are
the suffix accumulations of the ladder, newest-first — "the i-th basic
window first combines with candidate sequence 4, the result with 3, ..."
— which costs ``log(⌈λL/w⌉)`` combinations per window (the second branch
of Eq. (4)) at the price of skipped alignments, i.e. potential false
negatives.

:class:`ColumnarGeometricEngine` keeps each segment's per-query state as
packed arrays and walks a block of windows through the ladder one
window at a time (the ladder changes shape every window); the
one-query-at-a-time form is the oracle,
``repro.reference.GeometricEngine``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.columnar import column_remap
from repro.core.context import BlockPayload, EvalContext, QueryColumns
from repro.core.results import Match
from repro.signature.bitsig import popcount_planes
from repro.signature.pruning import lemma2_prunable

__all__ = ["ColumnarGeometricEngine"]


class _ColumnarSegment:
    """A ladder segment with its query state in columnar form.

    ``size`` adjacent windows spanning ``start_frame..end_frame``; the
    per-query state is a ``(Q,)`` presence mask with ``(Q, W)`` packed
    signature planes.
    """

    __slots__ = ("size", "start_frame", "end_frame", "presence", "ge", "lt")

    def __init__(
        self,
        size: int,
        start_frame: int,
        end_frame: int,
        presence: np.ndarray,
        ge: np.ndarray,
        lt: np.ndarray,
    ) -> None:
        self.size = size
        self.start_frame = start_frame
        self.end_frame = end_frame
        self.presence = presence
        self.ge = ge
        self.lt = lt


class ColumnarGeometricEngine:
    """Geometric order with per-segment query state as packed arrays.

    The ladder itself stays a Python list — it holds only
    ``O(log(λL/w))`` segments — but every per-query loop (carry merges,
    suffix merges, scoring) becomes a bulk plane OR / popcount / masked
    compare over all ``Q`` queries at once, with counter accounting
    identical to the oracle's.
    """

    def __init__(self, context: EvalContext) -> None:
        self.context = context
        self.segments: List[_ColumnarSegment] = []
        self._qids: tuple = context.query_columns().qids

    def _sync_columns(self) -> QueryColumns:
        """Adopt the current query-column layout, remapping live state."""
        columns = self.context.query_columns()
        if self._qids == columns.qids:
            return columns
        old_idx, new_idx = column_remap(self._qids, columns.qids)
        num_queries = len(columns.qids)
        for segment in self.segments:
            width = segment.ge.shape[1]
            presence = np.zeros(num_queries, dtype=bool)
            ge = np.zeros((num_queries, width), dtype=np.uint64)
            lt = np.zeros((num_queries, width), dtype=np.uint64)
            presence[new_idx] = segment.presence[old_idx]
            ge[new_idx] = segment.ge[old_idx]
            lt[new_idx] = segment.lt[old_idx]
            segment.presence, segment.ge, segment.lt = presence, ge, lt
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
        """Bit signatures currently held in the ladder."""
        return int(sum(np.count_nonzero(s.presence) for s in self.segments))

    def process_batch(self, payload: BlockPayload) -> List[List[Match]]:
        """Fold a block of basic windows into the ladder, window by
        window; one match list per window.

        Phase accounting, per window: ladder maintenance (the window's
        own score, the carry merges) runs under the ``combine`` timer,
        λL expiry under ``prune``, and the suffix-accumulation scoring
        plus stats sampling under ``match_emit``. The bulk plane merges
        additionally run under the ``phase.combine.bitops`` sub-timer.
        """
        columns = self._sync_columns()
        return [
            self._process_window(payload, t, columns)
            for t in range(len(payload.block))
        ]

    def _process_window(
        self, payload: BlockPayload, t: int, columns: QueryColumns
    ) -> List[Match]:
        ctx = self.context
        block = payload.block
        window_index = int(block.indices[t])
        related = payload.related[t]
        matches: List[Match] = []

        with ctx.phase("combine"):
            # Segment invariant: non-present plane rows are zero, so
            # merges adopt one-sided signatures with a plain OR. The
            # payload's planes may hold data for window-level-pruned
            # columns — mask them out here.
            live = related[:, np.newaxis]
            zero = np.uint64(0)
            window_ge, window_lt = ctx.window_planes(payload, t)
            start_frame = int(block.starts[t])
            fresh = _ColumnarSegment(
                size=1,
                start_frame=start_frame,
                end_frame=start_frame + int(block.frames[t]),
                presence=related,
                ge=np.where(live, window_ge, zero),
                lt=np.where(live, window_lt, zero),
            )
            self._score_block(fresh, columns, window_index, matches)
            self.segments.append(fresh)
            while (
                len(self.segments) >= 2
                and self.segments[-1].size == self.segments[-2].size
            ):
                newer = self.segments.pop()
                older = self.segments.pop()
                self.segments.append(self._merge_block(older, newer))

        with ctx.phase("prune"):
            total = sum(segment.size for segment in self.segments)
            dropped_count = 0
            while total > ctx.global_max_windows and len(self.segments) > 1:
                dropped = self.segments.pop(0)
                total -= dropped.size
                dropped_count += 1
            if dropped_count:
                ctx.registry.inc(
                    "engine.expired_candidates", dropped_count
                )

        with ctx.phase("match_emit"):
            suffix: Optional[_ColumnarSegment] = None
            for segment in reversed(self.segments):
                if suffix is None:
                    suffix = segment
                    already_scored = segment.size == 1
                else:
                    suffix = self._merge_block(segment, suffix)
                    already_scored = False
                if not already_scored:
                    self._score_block(suffix, columns, window_index, matches)

            registry = ctx.registry
            registry.inc("engine.windows_processed")
            registry.observe(
                "engine.signatures_maintained", self.resident_signatures
            )
            registry.observe(
                "engine.candidates_maintained", len(self.segments)
            )
            registry.inc("engine.matches_reported", len(matches))
        return matches

    # ------------------------------------------------------------------

    def _merge_block(
        self, older: _ColumnarSegment, newer: _ColumnarSegment
    ) -> _ColumnarSegment:
        """Combine two adjacent segments with bulk plane kernels.

        Counter parity with the oracle's ``_merge``: one
        ``signature_combines`` per both-sides pair, adoption is free, and
        Lemma 2 prunes the merged pairs in bulk.
        """
        ctx = self.context
        num_hashes = ctx.config.num_hashes
        combined = older.presence & newer.presence
        ctx.registry.inc(
            "engine.signature_combines", int(np.count_nonzero(combined))
        )
        with ctx.phase("combine.bitops"):
            # Non-present rows are zero (segment invariant), so the
            # plain OR simultaneously merges both-sides pairs and
            # adopts one-sided ones.
            present = older.presence | newer.presence
            ge = older.ge | newer.ge
            lt = older.lt | newer.lt
            if ctx.config.prune:
                prunable = present & lemma2_prunable(
                    popcount_planes(lt), num_hashes, ctx.config.threshold
                )
                pruned = int(np.count_nonzero(prunable))
                if pruned:
                    ctx.registry.inc("engine.signature_prunes", pruned)
                    present = present & ~prunable
                    live = present[:, np.newaxis]
                    zero = np.uint64(0)
                    ge = np.where(live, ge, zero)
                    lt = np.where(live, lt, zero)
        return _ColumnarSegment(
            size=older.size + newer.size,
            start_frame=older.start_frame,
            end_frame=newer.end_frame,
            presence=present,
            ge=ge,
            lt=lt,
        )

    def _score_block(
        self,
        segment: _ColumnarSegment,
        columns: QueryColumns,
        window_index: int,
        matches: List[Match],
    ) -> None:
        """Score one (possibly transient) segment against all queries."""
        ctx = self.context
        num_hashes = ctx.config.num_hashes
        n1 = popcount_planes(segment.lt)
        similarity = 1.0 - (
            (num_hashes - popcount_planes(segment.ge)) + n1
        ) / num_hashes
        emit = (
            segment.presence
            & (segment.size <= columns.max_windows)
            & (similarity >= ctx.config.threshold)
        )
        qids = columns.qids
        for column in np.flatnonzero(emit).tolist():
            matches.append(
                Match(
                    qid=qids[column],
                    window_index=window_index,
                    start_frame=segment.start_frame,
                    end_frame=segment.end_frame,
                    similarity=float(similarity[column]),
                )
            )
