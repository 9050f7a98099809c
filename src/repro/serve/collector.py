"""Merging per-shard match streams back into one ordered stream.

Each worker emits the matches of *its* queries in the single-process
engine's emission order; qids across shards interleave arbitrarily. The
collector restores the canonical order of the Sequential engine (the
only one the service runs), which is a pure function of the match
coordinates: per window, candidates by ascending ``start_frame`` (the
columnar store appends in arrival order and the fresh length-1
candidate — the largest start — last), ties by ascending qid (column
order).

``(window_index, start_frame, qid)`` uniquely identifies a match (an
engine scores each candidate/query pair at most once per window), so
sorting the merged per-chunk batch by the canonical key reproduces the
single-process stream bit-for-bit (see ``docs/serving.md``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.results import Match

__all__ = ["MatchCollector", "canonical_sort_key"]


def canonical_sort_key(match: Match) -> Tuple[int, int, int]:
    """The Sequential engine's deterministic match sort key."""
    return (match.window_index, match.start_frame, match.qid)


class MatchCollector:
    """Accumulates the merged, canonically ordered match stream.

    The service calls :meth:`merge` once per chunk (or control barrier)
    with every shard's batch for that span of the stream; batches from
    different chunks must not be interleaved — chunk boundaries are the
    merge barriers that keep the global stream ordered.

    **Retro stream.** Backfill (``repro.archive``) appends its matches
    through :meth:`add_retro` into a *separate* list: the live list
    stays exactly what an archiveless service would have collected, and
    the two never interleave (retro windows end where the query's live
    windows begin — the subscription epoch boundary). Backfill runs on
    the service caller's thread, like every other call here, so no
    list is locked; :meth:`combined` merges both streams into global
    canonical order for reporting.
    """

    def __init__(self) -> None:
        self.matches: List[Match] = []
        self.retro: List[Match] = []

    def merge(self, batches: Sequence[List[Match]]) -> List[Match]:
        """Merge one chunk's per-shard batches; return them in order."""
        merged = sorted(
            (match for batch in batches for match in batch),
            key=canonical_sort_key,
        )
        self.matches.extend(merged)
        return merged

    def add_retro(self, matches: Sequence[Match]) -> None:
        """Append backfill matches (already canonically ordered within
        and across calls per query — jobs probe windows ascending)."""
        self.retro.extend(matches)

    def combined(self) -> List[Match]:
        """Live + retro in one globally canonical stream."""
        return sorted(self.matches + self.retro, key=canonical_sort_key)

    def restore(self, matches: Sequence[Match]) -> None:
        """Reinstate a previously collected stream (checkpoint resume)."""
        self.matches = list(matches)

    def restore_retro(self, matches: Sequence[Match]) -> None:
        """Reinstate the retro stream (checkpoint resume)."""
        self.retro = list(matches)

    def __len__(self) -> int:
        return len(self.matches)
