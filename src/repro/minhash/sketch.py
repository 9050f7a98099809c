"""The K-min-hash sketch value object and its columnar block form.

A :class:`Sketch` is the vector of per-hash-function minima over a set of
cell ids, tagged with its family fingerprint. Combination (Property 1 of
the paper) is coordinate-wise minimum; similarity estimation is the
fraction of coordinate-wise equal values.

:class:`SketchBlock` is the structure-of-arrays counterpart used by the
columnar engines: ``C`` sketches stored as one ``(C, K)`` int64 matrix,
so extending every live candidate with an arriving window is a single
broadcast ``np.minimum`` and scoring all (candidate, query) pairs is one
vectorized equality count (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import SketchError

__all__ = ["Sketch", "SketchBlock"]


@dataclass(frozen=True)
class Sketch:
    """An approximate K-min-hash sketch.

    Attributes
    ----------
    values:
        Int64 array of shape ``(K,)`` — the minimum hash value per
        function (or the family's sentinel for an empty set).
    family:
        The producing family's fingerprint ``(K, seed, prime)``; guards
        against combining incompatible sketches.
    """

    values: np.ndarray = field(repr=False)
    family: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.values, np.ndarray) or self.values.ndim != 1:
            raise SketchError("sketch values must be a 1-D numpy array")
        if self.values.shape[0] != self.family[0]:
            raise SketchError(
                f"sketch width {self.values.shape[0]} does not match "
                f"family K={self.family[0]}"
            )

    @classmethod
    def _raw(cls, values: np.ndarray, family: Tuple[int, int, int]) -> "Sketch":
        """Unchecked constructor for internal hot paths.

        Skips ``__post_init__`` validation (mirroring
        :meth:`~repro.signature.bitsig.BitSignature._raw`); callers
        guarantee ``values`` is a 1-D int64 array of width ``family[0]``.
        """
        sketch = object.__new__(cls)
        object.__setattr__(sketch, "values", values)
        object.__setattr__(sketch, "family", family)
        return sketch

    @property
    def num_hashes(self) -> int:
        """``K``, the sketch width."""
        return int(self.values.shape[0])

    def _check_compatible(self, other: "Sketch") -> None:
        if self.family != other.family:
            raise SketchError(
                f"cannot operate on sketches from different families: "
                f"{self.family} vs {other.family}"
            )

    def combine(self, other: "Sketch") -> "Sketch":
        """Sketch of the union of the underlying sets (Property 1).

        Coordinate-wise minimum; O(K) and associative/commutative/
        idempotent, which is what lets Sequential and Geometric orders
        build any candidate sequence bottom-up from basic windows.
        """
        self._check_compatible(other)
        return Sketch(values=np.minimum(self.values, other.values), family=self.family)

    def similarity(self, other: "Sketch") -> float:
        """Estimated Jaccard similarity: fraction of equal coordinates."""
        self._check_compatible(other)
        return float(np.count_nonzero(self.values == other.values)) / self.num_hashes

    def equal_count(self, other: "Sketch") -> int:
        """Number of coordinate-wise equal hash values (``N_e``)."""
        self._check_compatible(other)
        return int(np.count_nonzero(self.values == other.values))

    def is_empty(self) -> bool:
        """Whether this is the identity (empty-set) sketch."""
        return bool((self.values == self.family[2]).all())

    def copy(self) -> "Sketch":
        """An independent copy (values array duplicated)."""
        return Sketch(values=self.values.copy(), family=self.family)


class SketchBlock:
    """``C`` same-family sketches as one ``(C, K)`` int64 matrix.

    The columnar engines keep every live candidate's sketch as one row of
    this block, replacing ``C`` Python-level :meth:`Sketch.combine` calls
    per window with a single broadcast minimum and ``C × Q`` similarity
    evaluations with one equality-count kernel. Rows stay in candidate
    order; compaction (:meth:`take`) preserves it.
    """

    __slots__ = ("values", "family")

    def __init__(self, values: np.ndarray, family: Tuple[int, int, int]) -> None:
        if values.ndim != 2 or values.shape[1] != family[0]:
            raise SketchError(
                f"sketch block must be (C, K={family[0]}), got {values.shape}"
            )
        self.values = values
        self.family = family

    @classmethod
    def empty(cls, family: Tuple[int, int, int]) -> "SketchBlock":
        """A block with zero rows."""
        return cls(np.empty((0, family[0]), dtype=np.int64), family)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def _check_family(self, other_family: Tuple[int, int, int]) -> None:
        if self.family != other_family:
            raise SketchError(
                f"cannot operate across different families: "
                f"{self.family} vs {other_family}"
            )

    def combine_all(self, sketch: Sketch) -> None:
        """Min-merge one sketch into every row (``C`` Property-1 combines
        as a single broadcast ``np.minimum``), in place."""
        self._check_family(sketch.family)
        np.minimum(self.values, sketch.values[np.newaxis, :], out=self.values)

    def append(self, sketch: Sketch) -> None:
        """Append one sketch as a new trailing row."""
        self._check_family(sketch.family)
        self.values = np.concatenate(
            [self.values, sketch.values[np.newaxis, :]]
        )

    def take(self, keep: np.ndarray) -> None:
        """Compact to the rows selected by boolean mask ``keep``."""
        self.values = self.values[keep]

    def equal_count_matrix(self, query_matrix: np.ndarray) -> np.ndarray:
        """``(C, Q)`` matrix of coordinate-wise equal-value counts.

        ``query_matrix`` is the ``(Q, K)`` stack of query sketch values;
        entry ``[c, q]`` is ``N_e`` of row ``c`` against query ``q`` —
        dividing by ``K`` gives the Jaccard estimate of
        :meth:`Sketch.similarity` bit-for-bit (same float64 division).
        """
        return np.count_nonzero(
            self.values[:, np.newaxis, :] == query_matrix[np.newaxis, :, :],
            axis=2,
        )

    def similarity_matrix(self, query_matrix: np.ndarray) -> np.ndarray:
        """``(C, Q)`` float64 similarity estimates vs the query stack."""
        num_hashes = self.family[0]
        return self.equal_count_matrix(query_matrix) / num_hashes
