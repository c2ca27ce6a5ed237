"""Front-speed measurement, distances to reference profiles and stabilization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Grid, GridFunction, project_cell_averages
from .model import ModelParams, stability_indicator_g

__all__ = [
    "DiagnosticsRecord",
    "mass",
    "speeds_from_masses",
    "average_speed",
    "relative_speed_error",
    "l2_distance",
    "linf_distance",
    "g_profile",
    "detect_stabilization",
    "front_position_and_monotonicity",
]


@dataclass
class DiagnosticsRecord:
    """Per-step time series collected during a run.

    ``speeds[n]`` is the average speed between steps n and n+1, recorded at
    ``times[n]``; the distance and stability columns are NaN when the run had
    no reference profile.
    """

    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    speeds: np.ndarray = field(default_factory=lambda: np.empty(0))
    l2: np.ndarray = field(default_factory=lambda: np.empty(0))
    linf: np.ndarray = field(default_factory=lambda: np.empty(0))
    g_min: np.ndarray = field(default_factory=lambda: np.empty(0))
    stabilized_at: float | None = None

    def to_csv(self, path: str | Path) -> None:
        """Write columns ``t,c_n,l2,linf,g_min``, one row per step."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "c_n", "l2", "linf", "g_min"])
            for row in zip(self.times, self.speeds, self.l2, self.linf, self.g_min):
                writer.writerow([f"{x:.17g}" for x in row])


def _reference_averages(reference, grid: Grid) -> np.ndarray:
    """Cell averages of a reference given as callable, GridFunction or array."""
    if callable(reference):
        return project_cell_averages(reference, grid).values
    if isinstance(reference, GridFunction):
        if reference.grid is not grid and reference.grid.n_cells != grid.n_cells:
            raise ValueError("reference lives on an incompatible grid")
        return reference.values
    values = np.asarray(reference, dtype=float)
    if values.shape != (grid.n_cells,):
        raise ValueError("reference array must hold one value per cell")
    return values


def mass(values: np.ndarray, grid: Grid) -> float:
    """Integral sum_i dx_i u_i of cell averages on ``grid``."""
    return float(np.dot(grid.cell_lengths, values))


def speeds_from_masses(masses, dt):
    """Average speeds -(m^{n+1} - m^n) / dt between consecutive masses.

    Positive values mean rightward motion of an increasing front; ``dt`` may
    hold one step per pair.
    """
    masses = np.asarray(masses, dtype=float)
    return (masses[:-1] - masses[1:]) / dt


def average_speed(u_n: GridFunction, u_np1: GridFunction, dt: float) -> float:
    """Average propagation speed between two consecutive solutions."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if u_n.grid.n_cells != u_np1.grid.n_cells:
        raise ValueError("solutions live on different grids")
    masses = [mass(u_n.values, u_n.grid), mass(u_np1.values, u_np1.grid)]
    return float(speeds_from_masses(masses, dt)[0])


def relative_speed_error(c: float, c_ref: float) -> float:
    """|c - c_ref| / |c_ref|; raises for a vanishing reference speed."""
    if c_ref == 0.0:
        raise ZeroDivisionError(
            "relative speed error undefined for c_ref = 0; use the absolute error"
        )
    return abs(c - c_ref) / abs(c_ref)


def l2_distance(u: GridFunction, reference) -> float:
    """Discrete L2 distance sqrt(sum_i dx_i (u_i - ref_i)^2).

    ``reference`` may be a callable (projected onto cell averages), a
    GridFunction, or a plain array of cell values.
    """
    ref = _reference_averages(reference, u.grid)
    diff = u.values - ref
    return float(np.sqrt(np.sum(u.grid.cell_lengths * diff * diff)))


def linf_distance(u: GridFunction, reference) -> float:
    """Max-norm distance to the cell averages of a reference."""
    ref = _reference_averages(reference, u.grid)
    return float(np.max(np.abs(u.values - ref)))


def g_profile(u: GridFunction, p: ModelParams) -> GridFunction:
    """Per-cell stability indicator g(u_i) = 1 - tau f'(u_i)."""
    return GridFunction(stability_indicator_g(u.values, p), u.grid)


def detect_stabilization(
    times: np.ndarray, speeds: np.ndarray, window: int = 200, tol: float = 1e-3
) -> float | None:
    """Earliest time at which the speed series flattens.

    Returns the first time whose trailing ``window`` speed values span at
    most ``tol`` (max minus min), or None if that never happens.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    times = np.asarray(times, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size < window:
        return None
    windows = np.lib.stride_tricks.sliding_window_view(speeds, window)
    spans = windows.max(axis=1) - windows.min(axis=1)
    hits = np.nonzero(spans <= tol)[0]
    if hits.size == 0:
        return None
    return float(times[hits[0] + window - 1])


def front_position_and_monotonicity(
    u: GridFunction, alpha: float
) -> tuple[float | None, int]:
    """Interpolated location of the first alpha-crossing and the crossing count.

    The second value counts sign changes of (u_i - alpha) across the grid
    (cells exactly at alpha are skipped); a formed front has exactly one.
    Returns (None, 0) when u never crosses alpha.
    """
    values = u.values - alpha
    signs = np.sign(values)
    nonzero = signs[signs != 0.0]
    sign_changes = int(np.count_nonzero(np.diff(nonzero) != 0.0))
    crossing = None
    idx = np.nonzero((values[:-1] * values[1:]) < 0.0)[0]
    if values.size and np.any(values == 0.0):
        exact = np.nonzero(values == 0.0)[0]
        crossing = float(u.grid.centers[exact[0]])
    if idx.size and (crossing is None or u.grid.centers[idx[0]] < crossing):
        i = int(idx[0])
        x = u.grid.centers
        crossing = float(
            x[i] + (alpha - u.values[i]) * (x[i + 1] - x[i]) / (u.values[i + 1] - u.values[i])
        )
    return crossing, sign_changes
