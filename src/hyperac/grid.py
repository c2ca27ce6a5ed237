"""Cell-centered one-dimensional finite volume meshes and cell-average projection."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .csvout import float_rows, write_csv

__all__ = [
    "Grid",
    "GridStack",
    "build_uniform_grid",
    "build_graded_grid",
    "project_cell_averages",
]

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre node offset on a unit cell
_X_BOUND = 1e300  # keeps midpoints, and cell lengths times values up to 1e8, finite
_UNIFORM_RTOL = 1e-12  # is_uniform: the cell-length spread allowed, relative to dx_max


def _set_cells(grid: "Grid | GridStack", sizes: list[int], centers, lengths) -> None:
    """Set the read-only cell attributes that a grid and a grid stack share: ``centers``,
    ``cell_lengths``, ``n_cells``, ``sizes`` (each member's cell count), ``bounds`` (each
    member's first cell, then the cell count) and ``ends`` (each member's first and last cell)."""
    bounds = np.cumsum([0] + sizes)
    ends = bounds[:-1], bounds[1:] - 1
    for arr in (centers, lengths, bounds, *ends):
        arr.setflags(write=False)
    grid.__dict__.update(centers=centers, cell_lengths=lengths, n_cells=int(bounds[-1]),
                         sizes=tuple(sizes), bounds=bounds, ends=ends)


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered cell interfaces defining N cells on a 1-D interval.

    Cell i is ``[interfaces[i], interfaces[i+1])``; its center is the exact
    midpoint, so cell averages of smooth functions agree with center values
    to second order.  Grids are immutable after construction.
    """

    interfaces: np.ndarray

    def __post_init__(self) -> None:
        interfaces = np.array(self.interfaces, dtype=float)
        if interfaces.ndim != 1 or interfaces.size < 4:
            raise ValueError("a grid needs at least 4 interfaces (3 cells)")
        if not np.all(np.abs(interfaces) <= _X_BOUND):  # false for NaN too
            raise ValueError(f"grid interfaces must lie within [-{_X_BOUND:g}, {_X_BOUND:g}]")
        if not np.all(np.diff(interfaces) > 0.0):
            raise ValueError("grid interfaces must be strictly increasing")
        interfaces.setflags(write=False)
        object.__setattr__(self, "interfaces", interfaces)
        centers, lengths = 0.5 * (interfaces[:-1] + interfaces[1:]), np.diff(interfaces)
        _set_cells(self, [lengths.size], centers, lengths)  # as a one-member GridStack

    @property
    def members(self) -> tuple["Grid"]:
        """This grid alone: a grid is the one-member ``GridStack``."""
        return (self,)

    @property
    def x_min(self) -> float:
        return float(self.interfaces[0])

    @property
    def x_max(self) -> float:
        return float(self.interfaces[-1])

    @property
    def dx_max(self) -> float:
        return float(self.cell_lengths.max())

    @property
    def dx_min(self) -> float:
        return float(self.cell_lengths.min())

    def is_uniform(self) -> bool:
        return float(np.ptp(self.cell_lengths)) <= _UNIFORM_RTOL * self.dx_max

    def to_csv(self, path: str | Path) -> None:
        """Write one row per cell with columns ``i,x_left,x_center,x_right,dx``."""
        # the index goes in as a float: FLOAT prints an integral float as an integer
        columns = (np.arange(self.n_cells), self.interfaces[:-1], self.centers,
                   self.interfaces[1:], self.cell_lengths)
        write_csv(path, ["i", "x_left", "x_center", "x_right", "dx"], float_rows(columns))


@dataclass(frozen=True, eq=False)
class GridStack:
    """The grids of ensemble members, their cells side by side in one flat order.

    Member k owns cells ``bounds[k]:bounds[k+1]``, first ``ends[0][k]`` and
    last ``ends[1][k]``; ``centers`` and ``cell_lengths`` are the members'
    own, concatenated.  A ``Grid`` is the one-member case, read alike.
    """

    members: tuple[Grid, ...]

    def __post_init__(self) -> None:
        centers, lengths = (np.concatenate([getattr(g, name) for g in self.members])
                            for name in ("centers", "cell_lengths"))
        _set_cells(self, [g.n_cells for g in self.members], centers, lengths)


def _check_domain(x_min: float, x_max: float, n_cells: int) -> None:
    if n_cells < 3:
        raise ValueError("n_cells must be at least 3")
    if not -_X_BOUND <= x_min < x_max <= _X_BOUND:  # false for NaN too
        raise ValueError(f"the domain needs -{_X_BOUND:g} <= x_min < x_max <= {_X_BOUND:g}")


def build_uniform_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    """Equispaced cell-centered grid with ``n_cells`` cells on [x_min, x_max]."""
    _check_domain(x_min, x_max, n_cells)
    return Grid(np.linspace(x_min, x_max, n_cells + 1))


def build_graded_grid(x_min: float, x_max: float, n_cells: int, ratio: float) -> Grid:
    """Geometrically graded grid with cell-length ratio ``dx_{i+1}/dx_i = ratio``.

    ``ratio = 1`` reproduces the uniform grid.  The interfaces span
    [x_min, x_max] exactly.
    """
    if ratio <= 0.0:
        raise ValueError("ratio must be positive")
    _check_domain(x_min, x_max, n_cells)
    if ratio == 1.0:
        return build_uniform_grid(x_min, x_max, n_cells)
    try:
        growth = ratio**n_cells
    except OverflowError:
        raise ValueError(f"ratio**n_cells overflows for ratio {ratio:g}, {n_cells} cells") from None
    first = (x_max - x_min) * (1.0 - ratio) / (1.0 - growth)
    lengths = first * ratio ** np.arange(n_cells)
    interfaces = x_min + np.concatenate(([0.0], np.cumsum(lengths)))
    interfaces[-1] = x_max  # guard the geometric sum against roundoff
    return Grid(interfaces)


def project_cell_averages(f: Callable[[np.ndarray], np.ndarray], grid: Grid) -> np.ndarray:
    """Cell averages of ``f`` by 2-point Gauss-Legendre quadrature per cell.

    Exact for cubic polynomials, so the projection error stays below the
    O(dx^2) accuracy of cell-centered averages for smooth integrands.
    Discontinuous data should instead be projected by exact sub-cell
    integration (see the Riemann initial-data builder).
    """
    centers = grid.centers
    offsets = _GAUSS_OFFSET * grid.cell_lengths
    left = np.asarray(f(centers - offsets), dtype=float)
    right = np.asarray(f(centers + offsets), dtype=float)
    return 0.5 * (np.broadcast_to(left, centers.shape) + np.broadcast_to(right, centers.shape))
