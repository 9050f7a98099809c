"""Equal-width grid partitioning of the unit hypercube.

Each dimension of [0, 1]^d is divided into ``u`` equal slices; the grid
order ``O_g`` of a vector is the row-major (mixed-radix base-``u``) index
of its slice tuple. Vectors exactly on the upper boundary (coordinate 1.0,
which Eq. (1) produces for the maximal block) belong to the last slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import PartitionError

__all__ = ["GridPartitioner"]


@dataclass(frozen=True)
class GridPartitioner:
    """Row-major grid indexing of [0, 1]^d with ``u`` slices per dimension.

    Parameters
    ----------
    d:
        Dimensionality of the feature space.
    u:
        Number of equal-width slices per dimension.
    """

    d: int
    u: int

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise PartitionError(f"d must be positive, got {self.d}")
        if self.u <= 0:
            raise PartitionError(f"u must be positive, got {self.u}")

    @property
    def num_cells(self) -> int:
        """Total number of grid cells, ``u ** d``."""
        return self.u**self.d

    def _check(self, features: np.ndarray) -> np.ndarray:
        array = np.asarray(features, dtype=np.float64)
        if array.ndim == 1:
            array = array[np.newaxis, :]
        if array.ndim != 2 or array.shape[1] != self.d:
            raise PartitionError(
                f"expected (n, {self.d}) features, got shape {features.shape}"
            )
        if (array < -1e-9).any() or (array > 1.0 + 1e-9).any():
            raise PartitionError("features must lie in the unit hypercube [0, 1]^d")
        return np.clip(array, 0.0, 1.0)

    def locate(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Validate once and return ``(grid_orders, local_coordinates)``.

        The upper-boundary convention: a coordinate of exactly 1.0 maps
        to local coordinate 1.0 inside the last slice (not 0.0 of a
        nonexistent next slice).
        """
        scaled = self._check(features) * self.u
        slices = np.minimum(scaled.astype(np.int64), self.u - 1)
        weights = self.u ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        return slices @ weights, scaled - slices

    def slice_indices(self, features: np.ndarray) -> np.ndarray:
        """Per-dimension slice indices, shape ``(n, d)`` of ints in [0, u)."""
        array = self._check(features)
        return np.minimum((array * self.u).astype(np.int64), self.u - 1)

    def grid_orders(self, features: np.ndarray) -> np.ndarray:
        """Row-major grid order ``O_g`` for each feature row, shape ``(n,)``."""
        return self.locate(features)[0]

    def local_coordinates(self, features: np.ndarray) -> np.ndarray:
        """Coordinates of each vector inside its grid cell, in [0, 1]^d
        (see :meth:`locate` for the boundary convention)."""
        return self.locate(features)[1]

    def cell_corner(self, grid_order: int) -> Tuple[float, ...]:
        """Lower corner of the grid cell with the given row-major order."""
        if not 0 <= grid_order < self.num_cells:
            raise PartitionError(
                f"grid order {grid_order} outside [0, {self.num_cells})"
            )
        corner = []
        remaining = grid_order
        for axis in range(self.d):
            weight = self.u ** (self.d - 1 - axis)
            corner.append((remaining // weight) / self.u)
            remaining %= weight
        return tuple(corner)
