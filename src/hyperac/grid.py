"""Cell-centered one-dimensional finite volume meshes and cell-average projection."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .csvout import float_rows, write_csv

__all__ = [
    "Grid",
    "build_uniform_grid",
    "build_graded_grid",
    "project_cell_averages",
]

_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre node offset on a unit cell


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
        if not np.all(np.isfinite(interfaces)):
            raise ValueError("grid interfaces must be finite")
        if not np.all(np.diff(interfaces) > 0.0):
            raise ValueError("grid interfaces must be strictly increasing")
        centers = 0.5 * (interfaces[:-1] + interfaces[1:])
        lengths = np.diff(interfaces)
        for arr in (interfaces, centers, lengths):
            arr.setflags(write=False)
        object.__setattr__(self, "interfaces", interfaces)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_lengths", lengths)

    @property
    def n_cells(self) -> int:
        return self.interfaces.size - 1

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def cell_lengths(self) -> np.ndarray:
        return self._lengths

    @property
    def x_min(self) -> float:
        return float(self.interfaces[0])

    @property
    def x_max(self) -> float:
        return float(self.interfaces[-1])

    @property
    def dx_max(self) -> float:
        return float(self._lengths.max())

    @property
    def dx_min(self) -> float:
        return float(self._lengths.min())

    def is_uniform(self, rtol: float = 1e-12) -> bool:
        return float(np.ptp(self._lengths)) <= rtol * self.dx_max

    def to_csv(self, path: str | Path) -> None:
        """Write one row per cell with columns ``i,x_left,x_center,x_right,dx``."""
        # the index goes in as a float: FLOAT prints an integral float as an integer
        columns = (np.arange(self.n_cells), self.interfaces[:-1], self._centers,
                   self.interfaces[1:], self._lengths)
        write_csv(path, ["i", "x_left", "x_center", "x_right", "dx"], float_rows(columns))


def build_uniform_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    """Equispaced cell-centered grid with ``n_cells`` cells on [x_min, x_max]."""
    if n_cells < 3:
        raise ValueError("n_cells must be at least 3")
    if not x_min < x_max:
        raise ValueError("x_min must be strictly less than x_max")
    return Grid(np.linspace(x_min, x_max, n_cells + 1))


def build_graded_grid(x_min: float, x_max: float, n_cells: int, ratio: float) -> Grid:
    """Geometrically graded grid with cell-length ratio ``dx_{i+1}/dx_i = ratio``.

    ``ratio = 1`` reproduces the uniform grid.  The interfaces span
    [x_min, x_max] exactly.
    """
    if ratio <= 0.0:
        raise ValueError("ratio must be positive")
    if n_cells < 3:
        raise ValueError("n_cells must be at least 3")
    if not x_min < x_max:
        raise ValueError("x_min must be strictly less than x_max")
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
