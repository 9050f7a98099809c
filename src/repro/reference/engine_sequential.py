"""Sequential combination order, the scalar oracle (Section IV-A).

Every suffix of the window stream — up to the λL length cap — is kept as
a live candidate: a Python list of ``_Candidate`` objects, one sketch
merge / signature OR at a time, exactly as the paper's prose reads.
:class:`~repro.core.engine_sequential.ColumnarSequentialEngine` is the
production form of the same semantics.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.results import Match
from repro.minhash.sketch import Sketch
from repro.reference.context import ReferenceContext, ReferencePayload
from repro.signature.bitsig import BitSignature

__all__ = ["SequentialEngine"]


class _Candidate:
    """One live suffix candidate ``P[start..now]``."""

    __slots__ = ("start_window", "start_frame", "num_windows", "end_frame",
                 "sketch", "sigs", "relevant")

    def __init__(
        self,
        start_window: int,
        start_frame: int,
        end_frame: int,
        sketch: Sketch,
        sigs: Dict[int, BitSignature],
        relevant: Set[int],
    ) -> None:
        self.start_window = start_window
        self.start_frame = start_frame
        self.num_windows = 1
        self.end_frame = end_frame
        self.sketch = sketch
        self.sigs = sigs
        self.relevant = relevant


class SequentialEngine:
    """Maintains all suffix candidates and scores them per window."""

    def __init__(self, context: ReferenceContext) -> None:
        self.context = context
        self.candidates: List[_Candidate] = []

    @property
    def resident_signatures(self) -> int:
        """Bit signatures currently held in ``C_L``."""
        return sum(len(candidate.sigs) for candidate in self.candidates)

    def purge_query(self, qid: int) -> None:
        """Drop one query's in-flight state (online unsubscribe)."""
        for candidate in self.candidates:
            candidate.sigs.pop(qid, None)
            candidate.relevant.discard(qid)

    def refresh(self) -> None:
        """Adopt the current query set (online subscribe).

        The scalar store keys per-query state by qid, so nothing needs
        to move (the columnar store re-syncs its column layout here).
        """

    def process(self, payload: ReferencePayload) -> List[Match]:
        """Fold one basic window into ``C_L``; return the match events.

        Phase accounting: expiry of over-λL candidates runs under the
        ``prune`` timer, candidate extension (signature ORs / sketch
        merges, including their inline Lemma 2 pruning) under
        ``combine``, and fresh-candidate scoring plus per-window stats
        sampling under ``match_emit``.
        """
        ctx = self.context
        window = payload.window
        matches: List[Match] = []

        with ctx.phase("prune"):
            surviving: List[_Candidate] = []
            for candidate in self.candidates:
                candidate.num_windows += 1
                candidate.end_frame = window.end_frame
                if candidate.num_windows > ctx.global_max_windows:
                    ctx.stats.expired_candidates += 1
                    continue
                surviving.append(candidate)
            self.candidates = surviving

        with ctx.phase("combine"):
            for candidate in self.candidates:
                if ctx.is_bit:
                    # The Bit method never touches candidate sketches: all
                    # maintenance is signature ORs (Section V-A).
                    self._extend_bit(candidate, payload, matches)
                else:
                    candidate.sketch = ctx.combine(
                        candidate.sketch, window.sketch
                    )
                    self._extend_sketch(candidate, payload, matches)

        with ctx.phase("match_emit"):
            fresh = _Candidate(
                start_window=window.index,
                start_frame=window.start_frame,
                end_frame=window.end_frame,
                sketch=window.sketch,
                sigs=dict(payload.sigs),
                relevant=set(payload.related),
            )
            self._evaluate_fresh(fresh, matches)
            self.candidates.append(fresh)

            ctx.stats.windows_processed += 1
            ctx.stats.signatures_maintained.add(self.resident_signatures)
            ctx.stats.candidates_maintained.add(len(self.candidates))
            ctx.stats.matches_reported += len(matches)
        return matches

    # ------------------------------------------------------------------

    def _emit(
        self, candidate: _Candidate, qid: int, similarity: float,
        window_index: int, matches: List[Match],
    ) -> None:
        matches.append(
            Match(
                qid=qid,
                window_index=window_index,
                start_frame=candidate.start_frame,
                end_frame=candidate.end_frame,
                similarity=similarity,
            )
        )

    def _extend_bit(
        self,
        candidate: _Candidate,
        payload: ReferencePayload,
        matches: List[Match],
    ) -> None:
        """Combine a candidate's signatures with the window's (bit mode).

        Queries tracked by both sides combine with a bitwise OR. A query
        tracked only by the candidate needs the window's relation bits —
        one O(K) encode, memoised per (window, query) on the payload. A
        query the window just made relevant is *adopted*: its signature
        starts from the window's bits alone, since the candidate's
        earlier windows shared no min-hash value with it (Section V-B's
        "signatures ... related to its consecutive candidate sequences").
        The adopted signature therefore describes the suffix of the
        candidate from this window on — an optimistic but sound start,
        as the matching suffix exists as its own candidate too. Lemma 2
        and the per-query length cap prune pairs as they are produced,
        cascading as Section V-B requires: a pruned signature is dropped
        for good, and the query can only come back through a later
        window's own relation — adopted again from that window's bits
        alone, by the same suffix argument.
        """
        ctx = self.context
        window = payload.window
        new_sigs: Dict[int, BitSignature] = {}
        for qid in candidate.sigs.keys() | payload.sigs.keys():
            if not ctx.within_cap(qid, candidate.num_windows):
                continue
            candidate_sig = candidate.sigs.get(qid)
            if candidate_sig is not None:
                window_sig = ctx.window_signature(payload, qid)
                signature = ctx.or_signatures(candidate_sig, window_sig)
            else:
                signature = payload.sigs[qid]
            if ctx.prunable(signature):
                ctx.registry.inc("engine.signature_prunes")
                continue
            new_sigs[qid] = signature
            if signature.similarity >= ctx.config.threshold:
                self._emit(candidate, qid, signature.similarity,
                           window.index, matches)
        candidate.sigs = new_sigs

    def _extend_sketch(
        self,
        candidate: _Candidate,
        payload: ReferencePayload,
        matches: List[Match],
    ) -> None:
        """Re-score a candidate's relevant queries (sketch mode)."""
        ctx = self.context
        candidate.relevant |= payload.related
        still_relevant: Set[int] = set()
        for qid in candidate.relevant:
            if not ctx.within_cap(qid, candidate.num_windows):
                continue
            still_relevant.add(qid)
            similarity = ctx.similarity(candidate.sketch, qid)
            if similarity >= ctx.config.threshold:
                self._emit(candidate, qid, similarity,
                           payload.window.index, matches)
        candidate.relevant = still_relevant

    def _evaluate_fresh(
        self, candidate: _Candidate, matches: List[Match]
    ) -> None:
        """Score the newly opened length-1 candidate."""
        ctx = self.context
        if ctx.is_bit:
            for qid, signature in candidate.sigs.items():
                if signature.similarity >= ctx.config.threshold:
                    self._emit(candidate, qid, signature.similarity,
                               candidate.start_window, matches)
        else:
            for qid in candidate.relevant:
                similarity = ctx.similarity(candidate.sketch, qid)
                if similarity >= ctx.config.threshold:
                    self._emit(candidate, qid, similarity,
                               candidate.start_window, matches)
