"""Fully discrete evolution: IMEX stepping with a banded direct solve,
explicit Runge-Kutta steps, step-size suggestion and the run driver.

The IMEX step treats transport and relaxation implicitly and the reaction
explicitly.  With alpha_i = rho dt / dx_i and beta = dt / (2 tau) the update
solves, per cell,

    (1+beta) r^{n+1} - alpha_i (r_{i+1}^{n+1} - r_i^{n+1}) - beta s^{n+1}
        = r^n + (dt/2) f^n
    (1+beta) s^{n+1} + alpha_i (s_i^{n+1} - s_{i-1}^{n+1}) - beta r^{n+1}
        = s^n + (dt/2) f^n

with f^n = f(r^n + s^n).  Interleaving unknowns as (r_1, s_1, r_2, s_2, ...)
gives a 2N x 2N matrix of bandwidth 2 whose rows satisfy
|diagonal| - sum |off-diagonal| >= 1, so it is invertible with an inverse of
max-norm at most 1.  Its columns are diagonally dominant too while every
alpha_i <= 1, and the banded LU then needs no row interchange; beyond that
it may pivot at the zero-gradient ends, which its layout has room for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from .diagnostics import DiagnosticsRecord, detect_stabilization
from .grid import Grid, project_cell_averages
from .model import ModelParams, _max_abs_f_prime, reaction_f, reaction_f_prime
from .schemes import (
    SchemeConfig,
    State,
    prepare_state_for_scheme,
    rhs_for_scheme,
)

__all__ = [
    "BlowUpError",
    "ImexWorkspace",
    "RunResult",
    "assemble_imex_matrix",
    "gershgorin_margins",
    "imex_step",
    "imex_step_reduced_uniform",
    "explicit_step",
    "suggest_dt",
    "run",
]

_STATE_BOUND = 10.0  # the bistable cubic diverges cubically well inside this
_RESIDUAL_TOL = 1e-12


class BlowUpError(RuntimeError):
    """The discrete solution left the trust region or became non-finite."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def assemble_imex_matrix(
    grid: Grid, dt: float, params: ModelParams, boundary: str = "zero_gradient"
) -> sp.csr_matrix:
    """Implicit operator of the IMEX step on the interleaved (r, s) vector.

    Zero-gradient closures drop the transport coupling in the outflow rows
    (the ghost value equals the interior one at the new time level); periodic
    closures add the wrap-around entries.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = grid.n_cells
    alpha = params.rho * dt / grid.cell_lengths
    beta = dt / (2.0 * params.tau)
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for i in range(n):
        ri, si = 2 * i, 2 * i + 1
        add(ri, si, -beta)
        add(si, ri, -beta)
        # r equation: -alpha_i (r_{i+1} - r_i)
        if i + 1 < n:
            add(ri, ri, 1.0 + beta + alpha[i])
            add(ri, 2 * (i + 1), -alpha[i])
        elif boundary == "periodic":
            add(ri, ri, 1.0 + beta + alpha[i])
            add(ri, 0, -alpha[i])
        else:
            add(ri, ri, 1.0 + beta)
        # s equation: +alpha_i (s_i - s_{i-1})
        if i > 0:
            add(si, si, 1.0 + beta + alpha[i])
            add(si, 2 * (i - 1) + 1, -alpha[i])
        elif boundary == "periodic":
            add(si, si, 1.0 + beta + alpha[i])
            add(si, 2 * (n - 1) + 1, -alpha[i])
        else:
            add(si, si, 1.0 + beta)
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


def gershgorin_margins(matrix: sp.spmatrix) -> np.ndarray:
    """Per-row |diagonal| - sum of |off-diagonal|; invertibility margin."""
    csr = matrix.tocsr()
    diag = np.abs(csr.diagonal())
    total = np.asarray(np.abs(csr).sum(axis=1)).ravel()
    return 2.0 * diag - total


@dataclass(eq=False)
class ImexWorkspace:
    """Assembled implicit operator plus its LU factors, reused across steps.

    Zero-gradient operators are factored once by LAPACK's banded LU
    (``dgbtrf``), in the layout ``dgbtrs`` solves with; periodic ones, whose
    wrap-around entries leave the band, by SuperLU.  ``matrix`` stays the
    unfactored operator, which the residual guard checks every solve against.
    """

    grid: Grid
    params: ModelParams
    dt: float
    boundary: str
    alpha: np.ndarray
    beta: float
    matrix: sp.csr_matrix
    lu: object = field(repr=False)  # (7, 2N) dgbtrf factors, or a SuperLU
    pivots: np.ndarray | None = field(default=None, repr=False)  # dgbtrf only

    @classmethod
    def build(
        cls,
        grid: Grid,
        dt: float,
        params: ModelParams,
        boundary: str = "zero_gradient",
    ) -> "ImexWorkspace":
        matrix = assemble_imex_matrix(grid, dt, params, boundary)
        margins = gershgorin_margins(matrix)
        if margins.min() < 1.0 - 1e-12:
            raise RuntimeError(
                "implicit operator lost its Gershgorin row bound; assembly bug"
            )
        alpha = params.rho * dt / grid.cell_lengths
        beta = dt / (2.0 * params.tau)
        if boundary == "zero_gradient":
            lu, pivots, info = dgbtrf(cls._to_banded(matrix), 2, 2, overwrite_ab=1)
            if info != 0:
                raise RuntimeError(f"banded LU factorisation failed (dgbtrf info {info})")
        else:
            lu, pivots = splu(matrix.tocsc()), None
        return cls(grid, params, dt, boundary, alpha, beta, matrix, lu, pivots)

    @staticmethod
    def _to_banded(matrix: sp.csr_matrix) -> np.ndarray:
        """Pack the bandwidth-2 operator into dgbtrf's (7, 2N) layout.

        Row 4 + i - j holds entry (i, j); the two top rows are workspace for
        the U factor's fill-in should the LU pivot.
        """
        m = matrix.tocoo()
        ab = np.zeros((7, matrix.shape[0]))
        ab[4 + m.row - m.col, m.col] = m.data
        return ab

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.pivots is None:
            return self.lu.solve(rhs)
        return dgbtrs(self.lu, 2, 2, rhs, self.pivots)[0]

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Max-norm solve residual relative to the right-hand side."""
        scale = np.abs(rhs).max() or 1.0
        return float(np.abs(self.matrix @ x - rhs).max() / scale)

    def matches(self, state: State, dt: float) -> bool:
        return (
            self.grid is state.grid
            and self.params == state.params
            and self.dt == dt
        )


def imex_step(state: State, dt: float, ws: ImexWorkspace | None = None) -> State:
    """One implicit-transport / explicit-reaction step in diagonal variables."""
    if state.kind != "diagonal":
        raise ValueError("the IMEX step advances diagonal states")
    if ws is None:
        ws = ImexWorkspace.build(state.grid, dt, state.params)
    elif not ws.matches(state, dt):
        raise ValueError("workspace was built for different (grid, dt, params)")
    r, s = state.a, state.b
    half_f = (0.5 * dt) * reaction_f(r + s, state.params)
    rhs = np.empty(2 * state.grid.n_cells)
    np.add(r, half_f, out=rhs[0::2])
    np.add(s, half_f, out=rhs[1::2])
    x = ws.solve(rhs)
    res = ws.residual(x, rhs)
    if res > _RESIDUAL_TOL:
        raise RuntimeError(
            f"linear solve residual {res:.2e} exceeds {_RESIDUAL_TOL:.0e}; "
            "the Gershgorin-dominant operator should solve to roundoff"
        )
    return state.with_components(x[0::2].copy(), x[1::2].copy())


def _closed_difference_operators(
    n: int, boundary: str
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """D_minus x = x_i - x_{i-1} and D_plus x = x_{i+1} - x_i with closures.

    Zero-gradient zeroes the first row of D_minus and the last row of D_plus
    (ghost equals interior); periodic wraps them.
    """
    eye = sp.identity(n, format="lil")
    shift_down = sp.lil_matrix((n, n))  # (shift_down x)_i = x_{i-1}
    shift_up = sp.lil_matrix((n, n))  # (shift_up x)_i = x_{i+1}
    for i in range(1, n):
        shift_down[i, i - 1] = 1.0
    for i in range(n - 1):
        shift_up[i, i + 1] = 1.0
    if boundary == "periodic":
        shift_down[0, n - 1] = 1.0
        shift_up[n - 1, 0] = 1.0
    else:
        shift_down[0, 0] = 1.0
        shift_up[n - 1, n - 1] = 1.0
    d_minus = (eye - shift_down).tocsr()
    d_plus = (shift_up - eye).tocsr()
    return d_minus, d_plus


def imex_step_reduced_uniform(
    state: State, dt: float, ws: ImexWorkspace | None = None
) -> State:
    """Eliminated form of the IMEX step: two N x N tridiagonal-type solves.

    Block elimination of the interleaved system gives, with
    S = (1+2beta) I + alpha (1+beta)(D_- - D_+),

        (S - alpha^2 D_- D_+) r^{n+1} = [(1+beta) I + alpha D_-] r^n
            + beta s^n + (dt/2) [(1+2beta) I + alpha D_-] f^n

    and the mirrored system for s.  The elimination is exact linear algebra,
    so the result agrees with ``imex_step`` to solver roundoff; it requires a
    uniform grid (scalar alpha).
    """
    if state.kind != "diagonal":
        raise ValueError("the IMEX step advances diagonal states")
    grid = state.grid
    if not grid.is_uniform():
        raise ValueError("the reduced IMEX form supports uniform grids only")
    boundary = ws.boundary if ws is not None else "zero_gradient"
    if ws is not None and not ws.matches(state, dt):
        raise ValueError("workspace was built for different (grid, dt, params)")
    p = state.params
    n = grid.n_cells
    alpha = p.rho * dt / grid.dx_max
    beta = dt / (2.0 * p.tau)
    d_minus, d_plus = _closed_difference_operators(n, boundary)
    eye = sp.identity(n, format="csr")
    s_op = (1.0 + 2.0 * beta) * eye + alpha * (1.0 + beta) * (d_minus - d_plus)
    a_r = s_op - (alpha * alpha) * (d_minus @ d_plus)
    a_s = s_op - (alpha * alpha) * (d_plus @ d_minus)

    r, s = state.a, state.b
    fn = reaction_f(r + s, p)
    rhs_r = (1.0 + beta) * r + alpha * (d_minus @ r) + beta * s
    rhs_r += (0.5 * dt) * ((1.0 + 2.0 * beta) * fn + alpha * (d_minus @ fn))
    rhs_s = beta * r + (1.0 + beta) * s - alpha * (d_plus @ s)
    rhs_s += (0.5 * dt) * ((1.0 + 2.0 * beta) * fn - alpha * (d_plus @ fn))
    r_new = splu(a_r.tocsc()).solve(rhs_r)
    s_new = splu(a_s.tocsc()).solve(rhs_s)
    return state.with_components(r_new, s_new)


def _check_finite(state: State, step: int | None = None) -> None:
    # auxiliary components (flux v, time-derivative w) legitimately spike
    # near sharp data, so the trust region bounds the density only
    suffix = f" at step {step}" if step is not None else ""
    for comp in (state.a, state.b):
        if not np.all(np.isfinite(comp)):
            raise BlowUpError("solution became non-finite" + suffix, step=step)
    if np.max(np.abs(state.u)) > _STATE_BOUND:
        raise BlowUpError(
            f"density left [-{_STATE_BOUND:g}, {_STATE_BOUND:g}]" + suffix,
            step=step,
        )


def explicit_step(
    state: State,
    dt: float,
    rhs: Callable[[State], tuple[np.ndarray, np.ndarray]],
    method: Literal["euler", "heun"] = "euler",
) -> State:
    """One explicit step: forward Euler or Heun (trapezoidal RK2)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    da1, db1 = rhs(state)
    if method == "euler":
        new = state.with_components(state.a + dt * da1, state.b + dt * db1)
    elif method == "heun":
        predictor = state.with_components(state.a + dt * da1, state.b + dt * db1)
        da2, db2 = rhs(predictor)
        new = state.with_components(
            state.a + 0.5 * dt * (da1 + da2), state.b + 0.5 * dt * (db1 + db2)
        )
    else:
        raise ValueError(f"unknown explicit method {method!r}")
    _check_finite(new)
    return new


def suggest_dt(
    grid: Grid, params: ModelParams, cfg: SchemeConfig, safety: float = 0.9
) -> float:
    """Stable step size for the chosen scheme and integrator family.

    Explicit kinetic schemes are limited by transport (min dx / rho), the
    reaction scale 1 / max|f'| on [-0.1, 1.1] and the relaxation scale 2 tau;
    schemes with an explicit diffusion term add the parabolic bound
    min(dx)^2 / (2 (mu + nu)); the IMEX step only needs the reaction scale.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    caps = [1.0 / _max_abs_f_prime(params)]
    if cfg.kind in ("kinetic_first_order", "kinetic_second_order", "gk_pseudo_kinetic"):
        caps.append(grid.dx_min / params.rho)
        caps.append(2.0 * params.tau)
    if cfg.kind == "gk_pseudo_kinetic":
        # explicit flux diffusion with coefficient nu + rho dx / 2
        caps.append(
            0.5 * grid.dx_min**2 / (params.nu + 0.5 * params.rho * grid.dx_min)
        )
    if cfg.kind in ("onefield_direct", "onefield_alternative", "parabolic_reference"):
        caps.append(grid.dx_min / params.rho)
        caps.append(2.0 * params.tau)
        caps.append(0.5 * grid.dx_min**2 / (params.mu + params.nu))
    return safety * min(caps)


def suggest_dt_imex(params: ModelParams, safety: float = 0.9) -> float:
    """Reaction-scale bound for the IMEX step (transport/relaxation implicit)."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    return safety / _max_abs_f_prime(params)


@dataclass
class RunResult:
    """Final state, time-stamped snapshots and the per-step diagnostics."""

    final_state: State
    snapshots: list[tuple[float, State]]
    diagnostics: DiagnosticsRecord


def run(
    initial: State,
    scheme: SchemeConfig,
    integrator: Literal["imex", "euler", "heun"],
    T: float,
    dt: float,
    sample_every: int = 0,
    reference: Callable | None = None,
    stabilization_window: int = 200,
    stabilization_tol: float = 1e-3,
) -> RunResult:
    """Advance a state from t = 0 to t = T, recording diagnostics each step.

    The last step is shortened to land exactly on T.  Snapshots of the state
    are stored at t = 0 and every ``sample_every`` steps (0 disables them;
    the final state is always available separately).  ``reference`` is an
    optional profile whose cell averages feed the L2 / max-norm distance
    columns of the diagnostics.

    Raises ``BlowUpError`` (carrying the step index) when the solution
    leaves the trust region, and ``ValueError``, before any allocation, for
    a T or dt that is not positive and finite or a scheme/integrator
    combination that does not exist (IMEX is defined for the first-order
    kinetic scheme).
    """
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):  # false for NaN too
        raise ValueError("T and dt must be positive and finite")
    state = prepare_state_for_scheme(initial, scheme)
    p = state.params
    grid = state.grid
    dx = grid.cell_lengths

    if integrator == "imex":
        if scheme.kind != "kinetic_first_order":
            raise ValueError(
                "the IMEX step discretizes the first-order kinetic scheme; "
                "use an explicit integrator for other schemes"
            )
        ws = ImexWorkspace.build(grid, dt, p, scheme.boundary)
    elif integrator in ("euler", "heun"):
        rhs = rhs_for_scheme(scheme)
        ws = None
    else:
        raise ValueError(f"unknown integrator {integrator!r}")

    n_steps = max(1, int(round(T / dt)))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        n_steps = max(1, int(np.ceil((T - 1e-12 * max(1.0, T)) / dt)))
    dt_last = T - (n_steps - 1) * dt

    ref_values = None
    if reference is not None:
        ref_values = project_cell_averages(reference, grid).values

    times = np.empty(n_steps)
    speeds = np.empty(n_steps)
    l2 = np.full(n_steps, np.nan)
    linf = np.full(n_steps, np.nan)
    g_min = np.empty(n_steps)

    snapshots: list[tuple[float, State]] = []
    if sample_every > 0:
        snapshots.append((0.0, state))

    t = 0.0
    mass = float(np.dot(dx, state.u))
    for n in range(n_steps):
        h = dt if n < n_steps - 1 else dt_last
        if ws is None:
            try:
                state = explicit_step(state, h, rhs, integrator)
            except BlowUpError as err:
                raise BlowUpError(str(err), step=n) from None
            _check_finite(state, step=n)
            u = state.u
        else:
            if h != ws.dt:
                ws = ImexWorkspace.build(grid, h, p, scheme.boundary)
            state = imex_step(state, h, ws)
            u = state.u
            # false for NaN too; _check_finite then names the failure
            if not np.abs(u).max() <= _STATE_BOUND:
                _check_finite(state, step=n)
        t = (n + 1) * dt if n < n_steps - 1 else T
        new_mass = float(np.dot(dx, u))
        times[n] = t
        speeds[n] = (mass - new_mass) / h
        mass = new_mass
        # rounding is monotone and tau > 0, so this is min(1 - tau f'(u)) exactly
        g_min[n] = 1.0 - p.tau * float(reaction_f_prime(u, p).max())
        if ref_values is not None:
            diff = u - ref_values
            l2[n] = np.sqrt(float(np.sum(dx * diff * diff)))
            linf[n] = float(np.max(np.abs(diff)))
        if sample_every > 0 and (n + 1) % sample_every == 0:
            snapshots.append((t, state))

    record = DiagnosticsRecord(
        times=times,
        speeds=speeds,
        l2=l2,
        linf=linf,
        g_min=g_min,
        stabilized_at=detect_stabilization(
            times, speeds, window=stabilization_window, tol=stabilization_tol
        ),
    )
    return RunResult(final_state=state, snapshots=snapshots, diagnostics=record)
