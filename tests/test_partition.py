"""Tests for grid, pyramid and grid-pyramid partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import PartitionError
from repro.partition.grid import GridPartitioner
from repro.partition.gridpyramid import GridPyramidPartitioner
from repro.partition.pyramid import pyramid_orders


class TestGridPartitioner:
    def test_num_cells(self):
        assert GridPartitioner(d=3, u=4).num_cells == 64

    def test_slice_indices(self):
        grid = GridPartitioner(d=2, u=4)
        assert grid.slice_indices(np.array([[0.0, 0.99]])).tolist() == [[0, 3]]

    def test_upper_boundary_in_last_slice(self):
        grid = GridPartitioner(d=2, u=4)
        assert grid.slice_indices(np.array([[1.0, 1.0]])).tolist() == [[3, 3]]

    def test_grid_orders_row_major(self):
        grid = GridPartitioner(d=2, u=3)
        # slice (1, 2) -> 1*3 + 2 = 5
        feature = np.array([[0.4, 0.9]])
        assert grid.grid_orders(feature)[0] == 5

    def test_orders_cover_all_cells(self):
        grid = GridPartitioner(d=2, u=3)
        centers = []
        for i in range(3):
            for j in range(3):
                centers.append([(i + 0.5) / 3, (j + 0.5) / 3])
        orders = grid.grid_orders(np.array(centers))
        assert sorted(orders.tolist()) == list(range(9))

    def test_local_coordinates(self):
        grid = GridPartitioner(d=1, u=4)
        locals_ = grid.local_coordinates(np.array([[0.375]]))
        assert locals_[0, 0] == pytest.approx(0.5)

    def test_local_coordinates_boundary(self):
        grid = GridPartitioner(d=1, u=4)
        assert grid.local_coordinates(np.array([[1.0]]))[0, 0] == pytest.approx(1.0)

    def test_cell_corner_roundtrip(self):
        grid = GridPartitioner(d=3, u=4)
        for order in (0, 17, 63):
            corner = grid.cell_corner(order)
            center = np.asarray(corner) + 0.5 / 4
            assert grid.grid_orders(center[np.newaxis])[0] == order

    def test_cell_corner_bounds(self):
        grid = GridPartitioner(d=2, u=2)
        with pytest.raises(PartitionError):
            grid.cell_corner(4)

    def test_rejects_out_of_cube(self):
        grid = GridPartitioner(d=2, u=4)
        with pytest.raises(PartitionError):
            grid.grid_orders(np.array([[0.5, 1.5]]))

    def test_rejects_wrong_width(self):
        grid = GridPartitioner(d=2, u=4)
        with pytest.raises(PartitionError):
            grid.grid_orders(np.zeros((1, 3)))

    def test_rejects_bad_params(self):
        with pytest.raises(PartitionError):
            GridPartitioner(d=0, u=4)
        with pytest.raises(PartitionError):
            GridPartitioner(d=2, u=0)

    @settings(max_examples=50)
    @given(
        arrays(np.float64, (4, 3), elements=st.floats(0, 1, allow_nan=False))
    )
    def test_orders_in_range(self, features):
        grid = GridPartitioner(d=3, u=4)
        orders = grid.grid_orders(features)
        assert (orders >= 0).all() and (orders < grid.num_cells).all()


class TestPyramidOrders:
    def test_low_pyramid(self):
        # Deviation largest in dim 1, below centre -> O_p = 1.
        assert pyramid_orders(np.array([[0.5, 0.1, 0.6]]))[0] == 1

    def test_high_pyramid(self):
        # Deviation largest in dim 2, above centre -> O_p = 2 + d = 5.
        assert pyramid_orders(np.array([[0.5, 0.4, 0.95]]))[0] == 5

    def test_center_ties_to_high_zero(self):
        # At the apex every deviation is 0; argmax -> dim 0, >= centre.
        d = 4
        assert pyramid_orders(np.full((1, d), 0.5))[0] == d

    def test_tie_breaks_to_lowest_dim(self):
        # Equal deviations in dims 0 and 1 -> dim 0 wins.
        assert pyramid_orders(np.array([[0.1, 0.1]]))[0] == 0

    def test_range(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(100, 5))
        orders = pyramid_orders(points)
        assert (orders >= 0).all() and (orders < 10).all()

    def test_all_pyramids_reachable(self):
        d = 3
        points = []
        for dim in range(d):
            low = np.full(d, 0.5)
            low[dim] = 0.05
            high = np.full(d, 0.5)
            high[dim] = 0.95
            points.extend([low, high])
        orders = pyramid_orders(np.array(points))
        assert sorted(orders.tolist()) == sorted(
            list(range(d)) + [dim + d for dim in range(d)]
        )

    def test_rejects_out_of_cube(self):
        with pytest.raises(PartitionError):
            pyramid_orders(np.array([[1.2, 0.5]]))

    def test_robustness_claim(self):
        # Perturbing a non-argmax dimension never changes the pyramid.
        point = np.array([0.9, 0.55, 0.45])  # argmax dim = 0
        base = pyramid_orders(point[np.newaxis])[0]
        for delta in (-0.05, 0.05):
            perturbed = point.copy()
            perturbed[1] += delta
            assert pyramid_orders(perturbed[np.newaxis])[0] == base


class TestGridPyramidPartitioner:
    def test_num_cells(self):
        assert GridPyramidPartitioner(d=5, u=4).num_cells == 2 * 5 * 4**5

    def test_id_formula(self):
        part = GridPyramidPartitioner(d=2, u=2)
        feature = np.array([[0.8, 0.3]])
        grid_order = part.grid.grid_orders(feature)[0]
        local = part.grid.local_coordinates(feature)
        pyramid = pyramid_orders(local)[0]
        assert part.cell_ids(feature)[0] == 2 * 2 * grid_order + pyramid

    def test_one_validation_pass_gives_the_separate_methods_ids(self):
        part = GridPyramidPartitioner(d=4, u=3)
        assert part.grid is part.grid
        rng = np.random.default_rng(7)
        features = np.vstack([
            rng.uniform(0, 1, size=(300, 4)),
            rng.integers(0, 4, size=(60, 4)) / 3.0,  # on slice boundaries
            np.full((1, 4), -5e-10),                  # within tolerance
            np.full((1, 4), 1.0 + 5e-10),
        ])
        grid = part.grid
        slices = grid.slice_indices(features)
        orders = slices @ (3 ** np.arange(3, -1, -1))
        locals_ = np.clip(features, 0.0, 1.0) * 3 - slices
        assert np.array_equal(grid.grid_orders(features), orders)
        assert grid.local_coordinates(features).tobytes() == locals_.tobytes()
        assert np.array_equal(
            part.cell_ids(features), 2 * 4 * orders + pyramid_orders(locals_)
        )

    def test_ids_in_range(self):
        part = GridPyramidPartitioner(d=5, u=4)
        rng = np.random.default_rng(1)
        ids = part.cell_ids(rng.uniform(0, 1, size=(200, 5)))
        assert (ids >= 0).all() and (ids < part.num_cells).all()

    def test_decompose_roundtrip(self):
        part = GridPyramidPartitioner(d=3, u=3)
        rng = np.random.default_rng(2)
        features = rng.uniform(0, 1, size=(50, 3))
        ids = part.cell_ids(features)
        grid_orders = part.grid.grid_orders(features)
        for cell_id, expected_grid in zip(ids, grid_orders):
            grid_order, pyramid = part.decompose(int(cell_id))
            assert grid_order == expected_grid
            assert 0 <= pyramid < 6

    def test_decompose_bounds(self):
        part = GridPyramidPartitioner(d=2, u=2)
        with pytest.raises(PartitionError):
            part.decompose(part.num_cells)

    def test_single_cell_id(self):
        part = GridPyramidPartitioner(d=2, u=2)
        feature = np.array([0.1, 0.9])
        assert part.cell_id(feature) == part.cell_ids(feature[np.newaxis])[0]

    def test_deterministic(self):
        part = GridPyramidPartitioner(d=4, u=3)
        rng = np.random.default_rng(3)
        features = rng.uniform(0, 1, size=(20, 4))
        assert np.array_equal(part.cell_ids(features), part.cell_ids(features))

    def test_nearby_points_share_cell(self):
        part = GridPyramidPartitioner(d=3, u=4)
        # A point well inside a cell and pyramid tolerates small noise.
        feature = np.array([[0.30, 0.55, 0.60]])
        base = part.cell_ids(feature)[0]
        perturbed = feature + 0.005
        assert part.cell_ids(perturbed)[0] == base

    @settings(max_examples=50)
    @given(
        arrays(np.float64, (3, 5), elements=st.floats(0, 1, allow_nan=False))
    )
    def test_id_decompose_consistency(self, features):
        part = GridPyramidPartitioner(d=5, u=4)
        for cell_id in part.cell_ids(features):
            grid_order, pyramid = part.decompose(int(cell_id))
            assert cell_id == 2 * 5 * grid_order + pyramid


class TestPaperRobustnessClaim:
    """Section III-A claims the pyramid-in-grid hybrid yields fewer false
    negatives than pure grid partitioning. Measured on synthetic
    features, that sub-claim does NOT replicate at matched cell counts:
    the pyramid's diagonal boundaries add flip surface on top of the
    grid's axis-aligned ones, so a pure grid of comparable granularity
    is slightly *more* stable under both isotropic and sparse
    perturbations (recorded as a documented deviation in EXPERIMENTS.md).
    What does hold is the claim's other half: the pure pyramid alone
    (2d cells) is hopelessly coarse, and the hybrid inherits the grid's
    discrimination at sub-grid granularity.
    """

    def test_measured_deviation_hybrid_vs_matched_pure_grid(self):
        """Pin the measured direction so the deviation note stays honest:
        if partitioning changes ever make the hybrid win, this test
        fails and EXPERIMENTS.md must be updated."""
        d = 5
        hybrid = GridPyramidPartitioner(d=d, u=4)   # 2*5*4^5 = 10240 cells
        pure = GridPartitioner(d=d, u=6)            # 6^5     =  7776 cells
        assert 0.5 < hybrid.num_cells / pure.num_cells < 2.0  # comparable

        rng = np.random.default_rng(42)
        features = rng.uniform(0, 1, size=(4000, d))
        noise = rng.normal(0, 0.015, size=features.shape)
        perturbed = np.clip(features + noise, 0, 1)

        hybrid_stable = (
            hybrid.cell_ids(features) == hybrid.cell_ids(perturbed)
        ).mean()
        pure_stable = (
            pure.grid_orders(features) == pure.grid_orders(perturbed)
        ).mean()
        assert pure_stable > hybrid_stable
        # Both remain usable: the hybrid still keeps the large majority
        # of ids stable at this noise level, which — combined with the
        # within-shot dithering of real content — is what the end-to-end
        # results rely on.
        assert hybrid_stable > 0.55

    def test_pyramid_alone_too_coarse(self):
        """The other half of the paper's argument: with only 2d cells the
        pure pyramid collides unrelated content far too often."""
        d = 5
        rng = np.random.default_rng(43)
        a = rng.uniform(0, 1, size=(2000, d))
        b = rng.uniform(0, 1, size=(2000, d))
        pyramid_collisions = (pyramid_orders(a) == pyramid_orders(b)).mean()
        hybrid = GridPyramidPartitioner(d=d, u=4)
        hybrid_collisions = (hybrid.cell_ids(a) == hybrid.cell_ids(b)).mean()
        assert pyramid_collisions > 20 * hybrid_collisions
