"""Combined grid-pyramid cell ids: ``id = 2 d * O_g(f) + O_p(f)``.

This is the frame signature of Section III-A: the final one-dimensional
integer every frame reduces to, and the element universe over which video
sequences become *sets* for the Jaccard similarity of Definition 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.grid import GridPartitioner
from repro.partition.pyramid import pyramid_orders

__all__ = ["GridPyramidPartitioner"]


@dataclass(frozen=True)
class GridPyramidPartitioner:
    """Map normalised d-dimensional features to grid-pyramid cell ids.

    Parameters
    ----------
    d:
        Feature dimensionality.
    u:
        Grid slices per dimension. The total cell count is ``2 d u^d``.
    """

    d: int
    u: int

    def __post_init__(self) -> None:
        # Validation is delegated to GridPartitioner's constructor.
        _ = self.grid

    @cached_property
    def grid(self) -> GridPartitioner:
        """The underlying grid partitioner (built once)."""
        return GridPartitioner(d=self.d, u=self.u)

    @property
    def num_cells(self) -> int:
        """Total number of cells, ``2 d u^d``."""
        return 2 * self.d * self.u**self.d

    def cell_ids(self, features: np.ndarray) -> np.ndarray:
        """Cell id for each feature row; shape ``(n,)`` of int64 in
        ``[0, 2 d u^d)``."""
        orders, locals_ = self.grid.locate(features)
        return 2 * self.d * orders + pyramid_orders(locals_)

    def cell_id(self, feature: np.ndarray) -> int:
        """Cell id of a single feature vector."""
        return int(self.cell_ids(np.asarray(feature)[np.newaxis, :])[0])

    def decompose(self, cell_id: int) -> Tuple[int, int]:
        """Split a cell id back into ``(grid_order, pyramid_order)``."""
        if not 0 <= cell_id < self.num_cells:
            raise PartitionError(
                f"cell id {cell_id} outside [0, {self.num_cells})"
            )
        return divmod(cell_id, 2 * self.d)[0], cell_id % (2 * self.d)
