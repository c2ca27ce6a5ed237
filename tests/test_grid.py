import csv

import numpy as np
import pytest

from hyperac.grid import (
    Grid,
    build_graded_grid,
    build_uniform_grid,
    project_cell_averages,
)

EPS = np.finfo(float).eps


def test_uniform_grid_table_resolution():
    grid = build_uniform_grid(0.0, 25.0, 200)
    assert np.allclose(grid.cell_lengths, 0.125, rtol=0, atol=1e-15)


def test_uniform_grid_centers():
    grid = build_uniform_grid(-1.0, 1.0, 4)
    assert np.allclose(grid.centers, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)


def test_uniform_grid_interfaces():
    grid = build_uniform_grid(0.0, 1.0, 3)
    assert np.allclose(grid.interfaces, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=1e-15)


def test_uniform_grid_invalid_arguments():
    with pytest.raises(ValueError):
        build_uniform_grid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        build_uniform_grid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        build_uniform_grid(2.0, 1.0, 10)


def test_graded_ratio_one_is_uniform():
    graded = build_graded_grid(0.0, 2.0, 7, 1.0)
    uniform = build_uniform_grid(0.0, 2.0, 7)
    assert np.array_equal(graded.interfaces, uniform.interfaces)


def test_graded_grid_geometric_sum():
    grid = build_graded_grid(0.0, 7.0, 3, 2.0)
    assert np.allclose(grid.cell_lengths, [1.0, 2.0, 4.0], atol=1e-14)


def test_graded_grid_shrinking():
    # solve dx1 * (1 + r + r^2 + r^3) = 1 with r = 1/2: dx1 = 8/15
    grid = build_graded_grid(0.0, 1.0, 4, 0.5)
    expected = np.array([8.0, 4.0, 2.0, 1.0]) / 15.0
    assert np.allclose(grid.cell_lengths, expected, atol=1e-15)


def test_graded_grid_invalid_ratio():
    with pytest.raises(ValueError):
        build_graded_grid(0.0, 1.0, 4, 0.0)
    with pytest.raises(ValueError):
        build_graded_grid(0.0, 1.0, 4, -1.0)
    with pytest.raises(ValueError, match="overflows"):
        build_graded_grid(0.0, 1.0, 400, 1e300)  # ratio**n_cells is past the float range


def test_graded_reverse_is_mirror_of_inverse_ratio():
    a = build_graded_grid(0.0, 3.0, 6, 1.7)
    b = build_graded_grid(0.0, 3.0, 6, 1.0 / 1.7)
    assert np.allclose(a.cell_lengths[::-1], b.cell_lengths, rtol=1e-12)


def test_cell_lengths_sum_to_domain_length():
    for grid in (
        build_uniform_grid(-3.0, 11.0, 57),
        build_graded_grid(-2.0, 5.0, 33, 1.13),
        build_graded_grid(0.0, 1.0, 21, 0.8),
    ):
        total = grid.cell_lengths.sum()
        length = grid.x_max - grid.x_min
        assert abs(total - length) <= 8 * EPS * grid.n_cells * max(1.0, length)


def test_interfaces_must_increase():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 1.0, 1.0, 2.0]))


def test_projection_constant_exact():
    grid = build_graded_grid(0.0, 1.0, 5, 1.3)
    w = project_cell_averages(lambda x: 3.0, grid)
    assert np.array_equal(w, np.full(5, 3.0))


def test_projection_linear_equals_center_values():
    grid = build_graded_grid(-1.0, 2.0, 6, 0.7)
    w = project_cell_averages(lambda x: 2.5 * x - 1.0, grid)
    assert np.allclose(w, 2.5 * grid.centers - 1.0, atol=1e-14)


def test_projection_quadratic_exact():
    # cell [0, 1] of a 3-cell grid: the average of x^2 is exactly 1/3
    grid = build_uniform_grid(0.0, 3.0, 3)
    w = project_cell_averages(lambda x: x**2, grid)
    assert abs(w[0] - 1.0 / 3.0) <= 1e-15


def test_projection_propagates_callable_errors():
    # the callable is evaluated on arrays of points; one that cannot take an
    # array fails here instead of being retried cell by cell
    grid = build_uniform_grid(0.0, 1.0, 4)
    with pytest.raises(TypeError):
        project_cell_averages(lambda x: float(x), grid)


def test_projection_second_order_convergence():
    errors, widths = [], []
    for n in (20, 40, 80, 160):
        grid = build_uniform_grid(0.0, 1.0, n)
        w = project_cell_averages(lambda x: np.sin(3.0 * x) + x**4, grid)
        exact = np.sin(3.0 * grid.centers) + grid.centers**4
        errors.append(np.max(np.abs(w - exact)))
        widths.append(grid.dx_max)
    slope = np.polyfit(np.log(widths), np.log(errors), 1)[0]
    assert slope >= 1.9


def test_grid_csv_round_trip(tmp_path):
    grid = build_graded_grid(0.0, 7.0, 3, 2.0)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert [float(r["dx"]) for r in rows] == pytest.approx([1.0, 2.0, 4.0])
    assert float(rows[1]["x_left"]) == pytest.approx(1.0)
    assert float(rows[1]["x_center"]) == pytest.approx(2.0)
    assert float(rows[1]["x_right"]) == pytest.approx(3.0)
