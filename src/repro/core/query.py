"""Continuous-query representation.

A :class:`Query` is a subscribed video clip reduced to its distinct cell
ids and their K-min-hash sketch (computed offline, as in the paper's step
"construct K-min-hash sketches QS for continuous queries ... offline").
A :class:`QuerySet` bundles the queries sharing one hash family and
answers the per-query candidate-length caps the engine needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

import numpy as np

from repro.errors import DetectionError
from repro.minhash.family import MinHashFamily
from repro.minhash.sketch import Sketch

__all__ = ["Query", "QuerySet"]


@dataclass(frozen=True)
class Query:
    """One subscribed query video.

    Attributes
    ----------
    qid:
        Unique integer id.
    cell_ids:
        The query clip's distinct frame-signature cell ids (sorted).
    num_frames:
        Length of the query in key frames (``L`` of the paper, in the
        stream's key-frame cadence).
    sketch:
        The offline K-min-hash sketch of :attr:`cell_ids`.
    label:
        Optional human-readable name.
    """

    qid: int
    cell_ids: np.ndarray = field(repr=False)
    num_frames: int
    sketch: Sketch = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise DetectionError(
                f"query {self.qid}: num_frames must be positive, "
                f"got {self.num_frames}"
            )
        if self.cell_ids.size == 0:
            raise DetectionError(f"query {self.qid}: empty cell-id set")

    def max_candidate_windows(self, window_frames: int, tempo_scale: float) -> int:
        """``ceil(λ L / w)`` — the longest candidate worth testing."""
        if window_frames <= 0:
            raise DetectionError(
                f"window_frames must be positive, got {window_frames}"
            )
        return max(1, math.ceil(tempo_scale * self.num_frames / window_frames))


class QuerySet:
    """The set of continuous queries sharing one hash family."""

    def __init__(self, queries: Sequence[Query], family: MinHashFamily) -> None:
        if not queries:
            raise DetectionError("a query set needs at least one query")
        self.family = family
        self._queries: Dict[int, Query] = {}
        for query in queries:
            if query.qid in self._queries:
                raise DetectionError(f"duplicate query id {query.qid}")
            if query.sketch.family != family.fingerprint:
                raise DetectionError(
                    f"query {query.qid} was sketched under a different family"
                )
            self._queries[query.qid] = query

    @classmethod
    def from_cell_ids(
        cls,
        cell_id_map: Mapping[int, np.ndarray],
        frame_counts: Mapping[int, int],
        family: MinHashFamily,
        labels: Mapping[int, str] | None = None,
    ) -> "QuerySet":
        """Build queries (and their offline sketches) from raw cell ids.

        Each query's ids are deduplicated once, here; the sketch hashes
        the distinct ids as they are.

        Parameters
        ----------
        cell_id_map:
            Mapping qid -> per-key-frame cell-id array (duplicates fine).
        frame_counts:
            Mapping qid -> query length in key frames.
        family:
            Hash family shared with the stream sketcher.
        labels:
            Optional qid -> label mapping.
        """
        queries: List[Query] = []
        for qid, ids in cell_id_map.items():
            if qid not in frame_counts:
                raise DetectionError(f"missing frame count for query {qid}")
            distinct = np.unique(np.asarray(ids, dtype=np.int64))
            queries.append(
                Query(
                    qid=qid,
                    cell_ids=distinct,
                    num_frames=frame_counts[qid],
                    sketch=family.sketch(distinct),
                    label=(labels or {}).get(qid, f"query-{qid}"),
                )
            )
        return cls(queries, family)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries.values())

    def __contains__(self, qid: int) -> bool:
        return qid in self._queries

    def get(self, qid: int) -> Query:
        """Look up a query by id."""
        if qid not in self._queries:
            raise DetectionError(f"unknown query id {qid}")
        return self._queries[qid]

    def add(self, query: Query) -> None:
        """Subscribe a new query (online maintenance)."""
        if query.qid in self._queries:
            raise DetectionError(f"duplicate query id {query.qid}")
        if query.sketch.family != self.family.fingerprint:
            raise DetectionError(
                f"query {query.qid} was sketched under a different family"
            )
        self._queries[query.qid] = query

    def remove(self, qid: int) -> None:
        """Unsubscribe a query (online maintenance)."""
        if qid not in self._queries:
            raise DetectionError(f"unknown query id {qid}")
        if len(self._queries) == 1:
            raise DetectionError("cannot remove the last query of a set")
        del self._queries[qid]

    @property
    def query_ids(self) -> List[int]:
        """All subscribed query ids, sorted."""
        return sorted(self._queries)

    def sketches(self) -> Dict[int, Sketch]:
        """Mapping qid -> offline sketch (for index construction)."""
        return {qid: query.sketch for qid, query in self._queries.items()}

    def max_windows_map(
        self, window_frames: int, tempo_scale: float
    ) -> Dict[int, int]:
        """Per-query candidate caps ``ceil(λ L_q / w)``."""
        return {
            qid: query.max_candidate_windows(window_frames, tempo_scale)
            for qid, query in self._queries.items()
        }
