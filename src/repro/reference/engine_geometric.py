"""Geometric combination order, the scalar oracle (Section IV-A, Figure 2).

Instead of every suffix, only O(log) candidates of dyadic lengths are
kept: a binary-counter ladder of ``_Segment`` objects with per-qid
signature dicts and relevant sets, merged and scored one query at a
time. It is the only Geometric engine: production runs Sequential, and
:func:`~repro.evaluation.runner.run_detector` sends a ``GEOMETRIC``
configuration here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.results import Match
from repro.minhash.sketch import Sketch
from repro.reference.context import ReferenceContext, ReferencePayload
from repro.signature.bitsig import BitSignature

__all__ = ["GeometricEngine"]


class _Segment:
    """One ladder segment: a combined run of ``size`` adjacent windows."""

    __slots__ = ("size", "start_frame", "end_frame", "sketch", "sigs", "relevant")

    def __init__(
        self,
        size: int,
        start_frame: int,
        end_frame: int,
        sketch: Sketch,
        sigs: Dict[int, BitSignature],
        relevant: Set[int],
    ) -> None:
        self.size = size
        self.start_frame = start_frame
        self.end_frame = end_frame
        self.sketch = sketch
        self.sigs = sigs
        self.relevant = relevant


class GeometricEngine:
    """Maintains the dyadic segment ladder and scores suffix merges."""

    def __init__(self, context: ReferenceContext) -> None:
        self.context = context
        self.segments: List[_Segment] = []

    @property
    def resident_signatures(self) -> int:
        """Bit signatures currently held in the ladder."""
        return sum(len(segment.sigs) for segment in self.segments)

    def purge_query(self, qid: int) -> None:
        """Drop one query's in-flight state (online unsubscribe)."""
        for segment in self.segments:
            segment.sigs.pop(qid, None)
            segment.relevant.discard(qid)

    def refresh(self) -> None:
        """Adopt the current query set (online subscribe).

        The scalar ladder keys per-query state by qid, so nothing needs
        to move (the columnar ladder re-syncs its column layout here).
        """

    def process(self, payload: ReferencePayload) -> List[Match]:
        """Fold one basic window into the ladder; return match events.

        Phase accounting: ladder maintenance (the window's own score,
        the carry merges) runs under the ``combine`` timer, λL expiry
        under ``prune``, and the suffix-accumulation scoring plus
        per-window stats sampling under ``match_emit``.
        """
        ctx = self.context
        window = payload.window
        matches: List[Match] = []

        with ctx.phase("combine"):
            # The basic window itself is always tested (the αC_comp term
            # of Eq. (4)) before it may be swallowed by a carry merge.
            self._score(
                num_windows=1,
                start_frame=window.start_frame,
                end_frame=window.end_frame,
                sketch=window.sketch,
                sigs=payload.sigs,
                relevant=payload.related,
                window_index=window.index,
                matches=matches,
            )

            self.segments.append(
                _Segment(
                    size=1,
                    start_frame=window.start_frame,
                    end_frame=window.end_frame,
                    sketch=window.sketch,
                    sigs=dict(payload.sigs),
                    relevant=set(payload.related),
                )
            )
            # Carry propagation: merge equal-sized neighbours.
            while (
                len(self.segments) >= 2
                and self.segments[-1].size == self.segments[-2].size
            ):
                newer = self.segments.pop()
                older = self.segments.pop()
                self.segments.append(self._merge(older, newer))

        with ctx.phase("prune"):
            # Expire the oldest segments once the ladder exceeds the λL
            # cap.
            total = sum(segment.size for segment in self.segments)
            while total > ctx.global_max_windows and len(self.segments) > 1:
                dropped = self.segments.pop(0)
                total -= dropped.size
                ctx.stats.expired_candidates += 1

        with ctx.phase("match_emit"):
            # Test the suffix accumulations, newest segment first. The
            # single-newest suffix is skipped when it is exactly the
            # window just scored above.
            suffix: Optional[_Segment] = None
            for segment in reversed(self.segments):
                if suffix is None:
                    suffix = _Segment(
                        size=segment.size,
                        start_frame=segment.start_frame,
                        end_frame=segment.end_frame,
                        sketch=segment.sketch,
                        sigs=dict(segment.sigs),
                        relevant=set(segment.relevant),
                    )
                    already_scored = segment.size == 1
                else:
                    suffix = self._merge(segment, suffix)
                    already_scored = False
                if not already_scored:
                    self._score(
                        num_windows=suffix.size,
                        start_frame=suffix.start_frame,
                        end_frame=suffix.end_frame,
                        sketch=suffix.sketch,
                        sigs=suffix.sigs,
                        relevant=suffix.relevant,
                        window_index=window.index,
                        matches=matches,
                    )

            ctx.stats.windows_processed += 1
            ctx.stats.signatures_maintained.add(self.resident_signatures)
            ctx.stats.candidates_maintained.add(len(self.segments))
            ctx.stats.matches_reported += len(matches)
        return matches

    # ------------------------------------------------------------------

    def _merge(self, older: _Segment, newer: _Segment) -> _Segment:
        """Combine two adjacent segments.

        Sketch mode merges the segment sketches (min, O(K)); bit mode is
        pure signature ORs — a query tracked by only one side is adopted
        from that side (its other side shared no min-hash value with the
        query; see the sequential engine's ``_extend_bit`` for the
        rationale).
        """
        ctx = self.context
        sigs: Dict[int, BitSignature] = {}
        if ctx.is_bit:
            sketch = newer.sketch
            for qid in older.sigs.keys() | newer.sigs.keys():
                older_sig = older.sigs.get(qid)
                newer_sig = newer.sigs.get(qid)
                if older_sig is not None and newer_sig is not None:
                    signature = ctx.or_signatures(older_sig, newer_sig)
                else:
                    signature = older_sig if older_sig is not None else newer_sig
                if ctx.prunable(signature):
                    ctx.registry.inc("engine.signature_prunes")
                    continue
                sigs[qid] = signature
        else:
            sketch = ctx.combine(older.sketch, newer.sketch)
        return _Segment(
            size=older.size + newer.size,
            start_frame=older.start_frame,
            end_frame=newer.end_frame,
            sketch=sketch,
            sigs=sigs,
            relevant=older.relevant | newer.relevant,
        )

    def _score(
        self,
        num_windows: int,
        start_frame: int,
        end_frame: int,
        sketch: Sketch,
        sigs: Dict[int, BitSignature],
        relevant: Set[int],
        window_index: int,
        matches: List[Match],
    ) -> None:
        """Score one (possibly transient) candidate against its queries."""
        ctx = self.context
        if ctx.is_bit:
            for qid, signature in sigs.items():
                if not ctx.within_cap(qid, num_windows):
                    continue
                if signature.similarity >= ctx.config.threshold:
                    matches.append(
                        Match(
                            qid=qid,
                            window_index=window_index,
                            start_frame=start_frame,
                            end_frame=end_frame,
                            similarity=signature.similarity,
                        )
                    )
        else:
            for qid in relevant:
                if not ctx.within_cap(qid, num_windows):
                    continue
                similarity = ctx.similarity(sketch, qid)
                if similarity >= ctx.config.threshold:
                    matches.append(
                        Match(
                            qid=qid,
                            window_index=window_index,
                            start_frame=start_frame,
                            end_frame=end_frame,
                            similarity=similarity,
                        )
                    )
