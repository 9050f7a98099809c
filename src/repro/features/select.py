"""Selecting ``d`` of the ``D`` block coefficients.

The paper says only "we select d coefficients from D blocks" without
prescribing which; the choice must merely be fixed across queries and
streams. Three deterministic strategies are provided:

* ``"spread"`` (default) — indices evenly spaced over [0, D), which for a
  3x3 grid picks a spatially balanced subset.
* ``"first"`` — the first ``d`` indices (raster order).
* ``"center_out"`` — the centre block first, then blocks by increasing
  distance from the centre; captures the most content-bearing regions of
  typical framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import FeatureError

__all__ = ["CoefficientSelector"]

_STRATEGIES = ("spread", "first", "center_out")


@dataclass(frozen=True)
class CoefficientSelector:
    """Deterministic d-of-D coefficient picker.

    Parameters
    ----------
    d:
        Number of coefficients kept.
    num_blocks:
        ``D``, the size of the full block grid.
    strategy:
        One of ``"spread"``, ``"first"``, ``"center_out"``.
    grid_rows, grid_cols:
        Shape of the block grid; required by ``"center_out"`` (defaults to
        a square grid when omitted).
    """

    d: int
    num_blocks: int
    strategy: str = "spread"
    grid_rows: int | None = None
    grid_cols: int | None = None

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise FeatureError(f"d must be positive, got {self.d}")
        if self.d > self.num_blocks:
            raise FeatureError(
                f"cannot select d={self.d} of D={self.num_blocks} coefficients"
            )
        if self.strategy not in _STRATEGIES:
            raise FeatureError(
                f"unknown strategy {self.strategy!r}; choose from {_STRATEGIES}"
            )

    @cached_property
    def indices(self) -> np.ndarray:
        """The selected block indices, in selection order.

        Computed once per selector (``cached_property`` writes to
        ``__dict__``, which a frozen dataclass allows) and read-only,
        since every caller gets the same array.
        """
        if self.strategy == "first":
            indices = np.arange(self.d, dtype=np.intp)
        elif self.strategy == "spread":
            indices = np.unique(
                np.round(np.linspace(0, self.num_blocks - 1, self.d)).astype(np.intp)
            )
        else:
            indices = self._center_out_indices()
        indices.setflags(write=False)
        return indices

    def _center_out_indices(self) -> np.ndarray:
        rows = self.grid_rows
        cols = self.grid_cols
        if rows is None or cols is None:
            side = int(round(self.num_blocks**0.5))
            if side * side != self.num_blocks:
                raise FeatureError(
                    "center_out needs grid_rows/grid_cols for non-square grids"
                )
            rows = cols = side
        if rows * cols != self.num_blocks:
            raise FeatureError(
                f"grid {rows}x{cols} does not have {self.num_blocks} blocks"
            )
        center_r = (rows - 1) / 2.0
        center_c = (cols - 1) / 2.0
        order = sorted(
            range(self.num_blocks),
            key=lambda i: (
                (i // cols - center_r) ** 2 + (i % cols - center_c) ** 2,
                i,
            ),
        )
        return np.asarray(order[: self.d], dtype=np.intp)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Project a ``(n, D)`` matrix onto the selected ``d`` columns."""
        if features.ndim != 2 or features.shape[1] != self.num_blocks:
            raise FeatureError(
                f"expected (n, {self.num_blocks}) features, got {features.shape}"
            )
        return features[:, self.indices]
