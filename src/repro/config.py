"""Experiment parameter sets, including the paper's Table I defaults.

Three layers of configuration are distinguished:

* :class:`FingerprintConfig` — how a raw frame becomes a 1-D cell id
  (Section III-A: block grid, dimensionality ``d``, partition ``u``).
* :class:`DetectorConfig` — how the streaming engine runs (Section IV–V:
  number of hash functions ``K``, similarity threshold ``δ``, basic window
  ``w``, tempo-scaling bound ``λ``, combination order, representation,
  whether the Hash-Query index is used).
* :class:`ScaleProfile` — how paper-scale workloads (12-hour streams, 200
  queries) are shrunk to laptop scale while preserving every ratio the
  algorithms are sensitive to.

All classes are frozen dataclasses that validate eagerly on construction.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

from repro.utils.validation import require, require_in_range, require_positive

__all__ = [
    "CombinationOrder",
    "DetectorConfig",
    "FingerprintConfig",
    "Representation",
    "ScaleProfile",
    "TABLE1_DEFAULTS",
]


class CombinationOrder(enum.Enum):
    """How basic-window sketches are combined into candidate sequences.

    ``SEQUENTIAL`` maintains every suffix length from one basic window to
    ``ceil(λL / w)`` windows (paper Section IV-A, "Sequential Order") —
    maximal accuracy, O(λL/w) combinations per arriving window.

    ``GEOMETRIC`` maintains only O(log) dyadic-length candidates using the
    cascade of Figure 2 — O(log(λL/w)) combinations per window at the cost
    of possible false negatives from skipped alignments. It runs on the
    oracle, ``repro.reference.ReferenceDetector``, which
    :func:`~repro.evaluation.runner.run_detector` picks for it; a
    ``StreamingDetector`` or ``DetectionService`` refuses it.
    """

    SEQUENTIAL = "sequential"
    GEOMETRIC = "geometric"


class Representation(enum.Enum):
    """How candidate/query comparisons are materialised.

    ``SKETCH`` stores per-candidate K-vectors of min-hash values and
    compares them entry-wise (Section IV). ``BIT`` stores a 2K-bit
    relationship signature per (candidate, query) pair and combines them
    with bitwise OR (Section V-A) — cheaper per operation and prunable via
    Lemma 2.

    ``BIT`` is what the production engines, the service and the gateway
    run. ``SKETCH`` is the paper's baseline: it runs on the oracle,
    ``repro.reference.ReferenceDetector``, which
    :func:`~repro.evaluation.runner.run_detector` picks for it, so the
    paper benches and ``repro demo``/``repro stats`` can time it; a
    ``StreamingDetector`` or ``DetectionService`` refuses it.
    """

    SKETCH = "sketch"
    BIT = "bit"


@dataclass(frozen=True)
class FingerprintConfig:
    """Frame fingerprint parameters (paper Section III-A).

    Parameters
    ----------
    block_rows, block_cols:
        The key frame is spatially partitioned into ``block_rows x
        block_cols`` equal blocks (the paper uses 3x3, i.e. ``D = 9``).
    d:
        Number of coefficients selected from the ``D`` block averages
        (Table I: 3–7, default 5).
    u:
        Grid partition granularity per dimension (Table I: 2–7, default 4).
        The combined grid-pyramid partition yields ``2 * d * u**d`` cells.
    """

    block_rows: int = 3
    block_cols: int = 3
    d: int = 5
    u: int = 4

    def __post_init__(self) -> None:
        require_positive("block_rows", self.block_rows)
        require_positive("block_cols", self.block_cols)
        require_positive("d", self.d)
        require_positive("u", self.u)
        require(
            self.d <= self.block_rows * self.block_cols,
            f"d={self.d} cannot exceed D={self.block_rows * self.block_cols} blocks",
        )

    @property
    def num_blocks(self) -> int:
        """``D``, the number of spatial blocks per frame."""
        return self.block_rows * self.block_cols

    @property
    def num_cells(self) -> int:
        """Total cells of the grid-pyramid partition: ``2 d u^d``."""
        return 2 * self.d * self.u**self.d


@dataclass(frozen=True)
class DetectorConfig:
    """Streaming detector parameters (paper Sections IV–V and Table I).

    Parameters
    ----------
    num_hashes:
        ``K``, the number of min-hash functions (Table I: 100–3000,
        default 800).
    threshold:
        ``δ``, the similarity threshold of Definition 1 (Table I: 0.5–0.9,
        default 0.7).
    window_seconds:
        ``w``, the basic-window length in stream seconds (Table I: 5–20 s,
        default 5 s).
    tempo_scale:
        ``λ``, the upper bound on candidate length relative to the query
        length; [28] argues the optimal value is at most 2.
    order:
        Sequential or Geometric combination order.
    representation:
        Bit-vector signatures (production) or sketch vectors (the
        paper's baseline, run only by the oracle; see
        :class:`Representation`).
    use_index:
        Whether the Hash-Query query index of Section V-C is used to find
        relevant queries (otherwise every query is compared).
    prune:
        Whether Lemma-2 pruning of hopeless candidates is applied (only
        meaningful for the BIT representation; ignored for SKETCH).
    """

    num_hashes: int = 800
    threshold: float = 0.7
    window_seconds: float = 5.0
    tempo_scale: float = 2.0
    order: CombinationOrder = CombinationOrder.SEQUENTIAL
    representation: Representation = Representation.BIT
    use_index: bool = True
    prune: bool = True

    def __post_init__(self) -> None:
        require_positive("num_hashes", self.num_hashes)
        require_in_range("threshold", self.threshold, 0.0, 1.0)
        require_positive("window_seconds", self.window_seconds)
        require(
            self.tempo_scale >= 1.0,
            f"tempo_scale (λ) must be >= 1, got {self.tempo_scale}",
        )

    def replace(self, **changes: object) -> "DetectorConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def max_windows_for(self, query_seconds: float) -> int:
        """``ceil(λ L / w)`` — the candidate-length cap for one query."""
        require_positive("query_seconds", query_seconds)
        return max(1, math.ceil(self.tempo_scale * query_seconds / self.window_seconds))


@dataclass(frozen=True)
class ScaleProfile:
    """Mapping from paper-scale workloads to laptop-scale ones.

    The paper's evaluation uses a 12-hour doctored stream, 200 query clips
    of 30–300 s, NTSC key-frame cadence, and K = 800. Reproducing those
    absolute sizes in pure Python is pointless (we compare shapes, not 2008
    C++ milliseconds), so benchmarks run a linearly shrunk profile. The
    ratios the algorithms care about — clips per stream hour, λ, w, δ and
    the query-length range — are preserved.

    Parameters
    ----------
    keyframes_per_second:
        I-frame cadence of the feature stream. Real MPEG at 29.97 fps with
        a GOP of 12–15 yields 2–2.5 I-frames/s; default 2.0.
    stream_seconds:
        Length of the doctored base stream.
    num_queries:
        Number of library clips inserted and monitored.
    query_min_seconds, query_max_seconds:
        Range of clip lengths (paper: 30–300 s).
    """

    keyframes_per_second: float = 2.0
    stream_seconds: float = 1800.0
    num_queries: int = 20
    query_min_seconds: float = 15.0
    query_max_seconds: float = 60.0

    def __post_init__(self) -> None:
        require_positive("keyframes_per_second", self.keyframes_per_second)
        require_positive("stream_seconds", self.stream_seconds)
        require_positive("num_queries", self.num_queries)
        require_positive("query_min_seconds", self.query_min_seconds)
        require(
            self.query_max_seconds >= self.query_min_seconds,
            "query_max_seconds must be >= query_min_seconds",
        )

    def seconds_to_keyframes(self, seconds: float) -> int:
        """Convert stream seconds into a whole number of key frames."""
        return max(1, round(seconds * self.keyframes_per_second))

    def replace(self, **changes: object) -> "ScaleProfile":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_scale(cls) -> "ScaleProfile":
        """The profile actually used in the paper (12 h, 200 queries)."""
        return cls(
            keyframes_per_second=2.5,
            stream_seconds=12 * 3600.0,
            num_queries=200,
            query_min_seconds=30.0,
            query_max_seconds=300.0,
        )

    @classmethod
    def smoke_scale(cls) -> "ScaleProfile":
        """A tiny profile for unit tests (seconds, a handful of queries)."""
        return cls(
            keyframes_per_second=2.0,
            stream_seconds=240.0,
            num_queries=4,
            query_min_seconds=10.0,
            query_max_seconds=20.0,
        )


#: The default parameter values of the paper's Table I.
TABLE1_DEFAULTS = {
    "num_hashes": 800,
    "d": 5,
    "u": 4,
    "num_queries": 200,
    "threshold": 0.7,
    "window_seconds": 5.0,
}
