"""Front-speed measurement, distances to reference profiles and stabilization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvout import float_rows, write_csv
from .grid import Grid
from .model import ModelParams, reaction_f_prime

__all__ = [
    "DiagnosticsRecord",
    "mass",
    "speeds_from_masses",
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
    ``times[n]``, and ``g_min[n]`` the least g(u) = 1 - tau f'(u) after step
    n.  The distance columns ``l2`` and ``linf`` are NaN when the run had no
    reference profile; ``g_min`` is always computed.
    """

    times: np.ndarray
    speeds: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    g_min: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        """Write columns ``t,c_n,l2,linf,g_min``, one row per step."""
        columns = (self.times, self.speeds, self.l2, self.linf, self.g_min)
        write_csv(path, ["t", "c_n", "l2", "linf", "g_min"], float_rows(columns))


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


def relative_speed_error(c: float, c_ref: float) -> float:
    """|c - c_ref| / |c_ref|; raises for a vanishing reference speed."""
    if c_ref == 0.0:
        raise ZeroDivisionError(
            "relative speed error undefined for c_ref = 0; use the absolute error"
        )
    return abs(c - c_ref) / abs(c_ref)


def l2_distance(u: np.ndarray, ref: np.ndarray, grid: Grid) -> float:
    """Discrete L2 distance sqrt(sum_i dx_i (u_i - ref_i)^2) of cell averages on ``grid``."""
    diff = u - ref
    return float(np.sqrt(np.sum(grid.cell_lengths * diff * diff)))


def linf_distance(u: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm distance between two arrays of cell averages."""
    return float(np.max(np.abs(u - ref)))


def g_profile(u: np.ndarray, p: ModelParams) -> np.ndarray:
    """Per-cell damping factor g(u_i) = 1 - tau f'(u_i); positivity is the stability hypothesis."""
    return 1.0 - p.tau * reaction_f_prime(u, p)


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
    u: np.ndarray, grid: Grid, alpha: float
) -> tuple[float | None, int]:
    """Interpolated location of the first alpha-crossing and the crossing count.

    The second value counts sign changes of (u_i - alpha) across the grid
    (cells exactly at alpha are skipped); a formed front has exactly one.
    Returns (None, 0) when u never crosses alpha.
    """
    values = u - alpha
    signs = np.sign(values)
    nonzero = signs[signs != 0.0]
    sign_changes = int(np.count_nonzero(np.diff(nonzero) != 0.0))
    crossing = None
    x = grid.centers
    idx = np.nonzero((values[:-1] * values[1:]) < 0.0)[0]
    if values.size and np.any(values == 0.0):
        exact = np.nonzero(values == 0.0)[0]
        crossing = float(x[exact[0]])
    if idx.size and (crossing is None or x[idx[0]] < crossing):
        i = int(idx[0])
        crossing = float(x[i] + (alpha - u[i]) * (x[i + 1] - x[i]) / (u[i + 1] - u[i]))
    return crossing, sign_changes
