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

A solve takes one of three paths.  A zero-gradient operator whose LU moved
no row is solved by two BLAS triangular sweeps (``dtbsv``) over its L and U
bands, which is ``dgbtrs``'s arithmetic without its pivot loop; one whose LU
moved rows by ``dgbtrs``; a periodic operator, whose wrap-around entries
leave the band, by SuperLU.

An ensemble (``State.stack``) of members on one grid steps as (B, N) arrays,
over whose member axis the explicit right-hand sides broadcast.  The IMEX
step sees its members' cells in flat order, so it also takes members on
grids of their own, side by side: their zero-gradient operators form one
block-diagonal band that one factorisation and one solve per step serve, and
its per-member checks reduce over each member's cells.  A step size may be a
column of per-member steps.  A periodic IMEX operator serves one member only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .diagnostics import (
    DiagnosticsRecord,
    detect_stabilization,
    l2_distance,
    linf_distance,
    mass,
    speeds_from_masses,
)
from .grid import Grid, project_cell_averages
from .model import ModelParams, ParamColumns, _max_abs_f_prime, reaction_f, reaction_f_prime
from .schemes import SCHEMES, SchemeConfig, State, prepare_state_for_scheme, rhs_for_scheme

__all__ = [
    "BlowUpError",
    "ImexWorkspace",
    "RunResult",
    "SolveError",
    "assemble_imex_matrix",
    "gershgorin_margins",
    "imex_step",
    "imex_step_reduced_uniform",
    "explicit_step",
    "suggest_dt",
    "check_run",
    "run",
    "run_ensemble",
]

Grids = Grid | tuple[Grid, ...]  # one grid, or the grid of each member side by side
_STATE_BOUND = 10.0  # the bistable cubic diverges cubically well inside this
_RESIDUAL_TOL = 1e-12


class BlowUpError(RuntimeError):
    """The discrete solution left the trust region or became non-finite.

    ``step`` is the step index and ``member`` the ensemble member, when known.
    """

    def __init__(self, message: str, step: int | None = None, member: int | None = None):
        super().__init__(message)
        self.step = step
        self.member = member


class SolveError(RuntimeError):
    """A linear solve missed the residual bound its operator guarantees.

    ``member`` is the ensemble member whose solve missed it, when known.
    """

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


def _member(k: int, count: int) -> str:
    """Message prefix naming member ``k``, for ensembles of two or more."""
    return f"member {k}: " if count > 1 else ""


def _check_step(dt: float | np.ndarray) -> None:
    """Raise ``ValueError`` unless every step size in ``dt`` is positive and finite."""
    low, high = (dt, dt) if isinstance(dt, float) else (np.min(dt), np.max(dt))
    if not 0.0 < low <= high < math.inf:  # false for NaN too
        raise ValueError("dt must be positive and finite")


def _bounds(grid: Grids, params: ModelParams | ParamColumns) -> np.ndarray:
    """Each member's first cell in the flat cell order of a state, then the cell count."""
    if isinstance(grid, Grid):
        grid = (grid,) * (len(params.members) if isinstance(params, ParamColumns) else 1)
    return np.cumsum([0] + [g.n_cells for g in grid])


def _imex_operator(
    grid: Grids, dt: float | np.ndarray, params: ModelParams | ParamColumns, boundary: str
) -> tuple[np.ndarray, sp.csr_matrix]:
    """The operator in dgbtrf's (7, 2C) band layout, and in CSR, for C cells.

    Row 4 + i - j of the band holds entry (i, j); the two top rows are room
    for the U factor's fill-in should the LU pivot.  The unknowns are the
    interleaved (r, s) of the members' cells in flat order, and ``dt`` may be
    a column of per-member steps.  Each member's band closes with a zero
    gradient: its last r row and first s row carry no transport, and no entry
    couples two members, so the operator is block-diagonal.  A periodic
    operator is single-member: it adds the transport back, on those two
    diagonals and in two wrap-around entries outside the band.
    """
    _check_step(dt)
    if boundary == "periodic" and isinstance(params, ParamColumns) and len(params.members) > 1:
        raise ValueError("a periodic IMEX operator serves one member, not an ensemble")
    grids = grid if isinstance(grid, tuple) else (grid,)  # broadcast over (B, N) rows
    alpha = params.rho * dt / np.concatenate([g.cell_lengths for g in grids])
    beta = np.broadcast_to(dt / (2.0 * params.tau), alpha.shape).reshape(-1)
    alpha = alpha.reshape(-1)
    bounds = _bounds(grid, params)
    first, last = bounds[:-1], bounds[1:] - 1
    size = 2 * alpha.size
    ab = np.zeros((7, size), order="F")  # dgbtrf factors it in place
    band = ab[2:]  # solve_banded's (5, 2C) layout: row 2 + i - j holds entry (i, j)
    band[0, 2::2] = -alpha[:-1]  # r_i <- r_{i+1}
    band[1, 1::2] = -beta  # r_i <- s_i
    band[2] = np.repeat((1.0 + beta) + alpha, 2)  # the members' ends are set below
    band[3, 0::2] = -beta  # s_i <- r_i
    band[4, 1:-2:2] = -alpha[1:]  # s_{i+1} <- s_i
    band[0, 2 * first] = 0.0  # no member's last r row reaches into the next member
    band[4, 2 * last + 1] = 0.0  # nor its last s into the next member's first s row
    band[2, 2 * last] = 1.0 + beta[last]
    band[2, 2 * first + 1] = 1.0 + beta[first]
    # by way of CSC, whose conversion from DIA holds fewer temporaries than COO's
    matrix = sp.dia_matrix((ab[2:], [2, 1, 0, -1, -2]), shape=(size, size)).tocsc().tocsr()
    if boundary == "periodic":  # rows s_0 and r_{N-1}
        rows, cols = [1, 1, size - 2, size - 2], [1, size - 1, size - 2, 0]
        vals = [alpha[0], -alpha[0], alpha[-1], -alpha[-1]]
        matrix = matrix + sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    return ab, matrix


def assemble_imex_matrix(
    grid: Grids, dt: float, params: ModelParams | ParamColumns, boundary: str = "zero_gradient"
) -> sp.csr_matrix:
    """Implicit operator of the IMEX step on the interleaved (r, s) vector.

    Zero-gradient closures drop the transport coupling in the outflow rows
    (the ghost value equals the interior one at the new time level); periodic
    closures add the wrap-around entries.
    """
    return _imex_operator(grid, dt, params, boundary)[1]


def gershgorin_margins(matrix: sp.spmatrix) -> np.ndarray:
    """Per-row |diagonal| - sum of |off-diagonal|; invertibility margin."""
    csr = matrix.tocsr()
    diag = np.abs(csr.diagonal())
    total = np.asarray(np.abs(csr).sum(axis=1)).ravel()
    return 2.0 * diag - total


@dataclass(eq=False)
class ImexWorkspace:
    """Assembled implicit operator plus its LU factors, reused across steps.

    Built for ``ParamColumns`` it holds the block-diagonal operator of the
    ensemble, one block per member, whose first unknowns ``starts`` holds.
    ``solve`` takes one of three paths:

    - zero-gradient, no row moved by ``dgbtrf``: two ``dtbsv`` sweeps over
      ``bands``, Fortran-ordered copies of the L and U rows of ``lu`` made
      once (f2py would copy row slices on every call).  ``dgbtrs`` makes the
      same U call and the same L products and sums, so the bits are its bits;
    - zero-gradient, rows moved: ``dgbtrs`` on ``lu`` and ``pivots``;
    - periodic, one member only: a SuperLU, in ``lu``.

    ``matrix`` stays the unfactored operator, which the residual guard checks
    every solve against.
    """

    grid: Grids
    params: ModelParams | ParamColumns
    dt: float | np.ndarray  # a column of per-member steps
    boundary: str
    matrix: sp.csr_matrix
    starts: np.ndarray
    lu: object = field(repr=False)  # (7, 2C) dgbtrf factors, or a SuperLU
    pivots: np.ndarray | None = field(default=None, repr=False)  # dgbtrf only
    bands: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)  # L, U

    @classmethod
    def build(
        cls,
        grid: Grids,
        dt: float | np.ndarray,
        params: ModelParams | ParamColumns,
        boundary: str = "zero_gradient",
    ) -> "ImexWorkspace":
        ab, matrix = _imex_operator(grid, dt, params, boundary)
        starts = 2 * _bounds(grid, params)[:-1]
        lost = ~(np.minimum.reduceat(gershgorin_margins(matrix), starts) >= 1.0 - 1e-12)  # NaN too
        if lost.any():  # as 1 + beta + alpha rounds to alpha + beta past alpha of about 1e16
            k = int(np.argmax(lost))
            alpha = np.maximum.reduceat(np.abs(ab[2:7:4]).max(axis=0), starts)[k]  # both bands
            raise SolveError(f"{_member(k, lost.size)}implicit operator lost its Gershgorin row "
                             f"bound at alpha = rho dt / dx up to {alpha:.3g}", member=k)
        if boundary != "zero_gradient":
            return cls(grid, params, dt, boundary, matrix, starts, splu(matrix.tocsc()))
        lu, pivots, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
        if info != 0:  # info > 0: U's zero pivot, in row info of the member that holds it
            k = int(np.searchsorted(starts, abs(info) - 1, side="right")) - 1
            raise SolveError(f"{_member(k, starts.size)}banded LU factorisation failed "
                             f"(dgbtrf info {info})", member=k)
        bands = None
        if np.array_equal(pivots, np.arange(pivots.size)):
            bands = np.asfortranarray(lu[4:7]), np.asfortranarray(lu[0:5])
        return cls(grid, params, dt, boundary, matrix, starts, lu, pivots, bands)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for the interleaved right-hand side of every member, in the layout of ``rhs``."""
        b = rhs.reshape(-1)
        if self.bands is not None:
            lower, upper = self.bands
            x = dtbsv(4, upper, dtbsv(2, lower, b, lower=1, diag=1), overwrite_x=1)
        elif self.pivots is not None:
            x = dgbtrs(self.lu, 2, 2, b, self.pivots)[0]
        else:
            x = self.lu.solve(b)
        return x.reshape(rhs.shape)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Max-norm solve residual of each member, relative to its right-hand side.

        One value per member of an ensemble, a scalar for one state.  The
        product is scipy's CSR kernel called on a zeroed buffer, as
        ``matrix @ x`` does after its dispatch: the same bits at a third of
        the cost at small N.
        """
        a, b = self.matrix, rhs.reshape(-1)
        product = np.zeros(b.size)
        _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x.reshape(-1), product)
        misfit = np.maximum.reduceat(np.abs(product - b), self.starts)
        scale = np.maximum.reduceat(np.abs(b), self.starts)
        res = misfit / (scale + (scale == 0.0))  # a zero right-hand side counts as 1
        return res if isinstance(self.params, ParamColumns) else res[0]

    def matches(self, state: State, dt: float | np.ndarray) -> bool:
        return (
            self.grid is state.grid
            and (self.params is state.params or self.params == state.params)
            and (self.dt is dt or np.array_equal(self.dt, dt))
        )


def imex_step(state: State, dt: float | np.ndarray, ws: ImexWorkspace | None = None) -> State:
    """One implicit-transport / explicit-reaction step in diagonal variables.

    Advances one state or an ensemble in either layout, whose members one
    solve serves; for an ensemble ``dt`` may be a column of per-member steps.
    Raises ``BlowUpError`` when a member's solution is non-finite or its
    density leaves the trust region, like ``explicit_step``, and
    ``SolveError`` when a member's solve misses the residual bound.
    """
    if state.kind != "diagonal":
        raise ValueError("the IMEX step advances diagonal states")
    if ws is None:
        ws = ImexWorkspace.build(state.grid, dt, state.params)
    elif not ws.matches(state, dt):
        raise ValueError("workspace was built for different (grid, dt, params)")
    r, s = state.a, state.b
    half_f = (0.5 * dt) * reaction_f(state.u, state.params)
    rhs = np.empty(r.shape[:-1] + (2 * r.shape[-1],))
    np.add(r, half_f, out=rhs[..., 0::2])
    np.add(s, half_f, out=rhs[..., 1::2])
    x = ws.solve(rhs)
    res = ws.residual(x, rhs)  # a scalar for one state, one per member for an ensemble
    solved = (res if res.ndim == 0 else res.max()) <= _RESIDUAL_TOL  # false for NaN too
    if not solved:
        # the band solve carries a non-finite member's NaN into its neighbours'
        # blocks; solve with those entries zeroed, so that each member fails on its own
        finite = np.isfinite(rhs)
        if not finite.all():
            x = ws.solve(np.where(finite, rhs, 0.0))
            res = ws.residual(x, rhs)
    new = state.with_components(x[..., 0::2], x[..., 1::2])
    # solved systems are finite, so only the density bound can still fail
    if not (solved and np.abs(new.u).max() <= _STATE_BOUND):
        _check_finite(new, res)
    return new


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
    # D_- x = x_i - x_{i-1} and D_+ x = x_{i+1} - x_i; a zero-gradient ghost
    # equals the interior value, so that row of D_- or D_+ is zero
    eye = sp.identity(n, format="csr")
    shift_down = sp.eye(n, k=-1, format="lil")  # (shift_down x)_i = x_{i-1}
    shift_up = sp.eye(n, k=1, format="lil")  # (shift_up x)_i = x_{i+1}
    periodic = boundary == "periodic"
    shift_down[0, n - 1 if periodic else 0] = 1.0
    shift_up[n - 1, 0 if periodic else n - 1] = 1.0
    d_minus, d_plus = (eye - shift_down).tocsr(), (shift_up - eye).tocsr()
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


def _check_finite(state: State, residual: np.ndarray | None = None) -> None:
    """Raise for the first member whose solve missed the residual bound (when
    ``residual`` is given), or whose solution is non-finite or left the trust
    region; each member in that order, as its own run would."""
    # auxiliary components (flux v, time-derivative w) legitimately spike
    # near sharp data, so the trust region bounds the density only; a bounded
    # u is finite, and so are both components of a diagonal state (u = a + b)
    a, b, u = state.a, state.b, state.u
    bounded = np.abs(u).max() <= _STATE_BOUND
    if residual is None and bounded and (state.kind == "diagonal" or np.isfinite(b).all()):
        return
    starts = _bounds(state.grid, state.params)[:-1]
    finite = np.logical_and.reduceat((np.isfinite(a) & np.isfinite(b)).reshape(-1), starts)
    inside = np.maximum.reduceat(np.abs(u).reshape(-1), starts) <= _STATE_BOUND
    res = np.zeros(finite.size) if residual is None else np.reshape(residual, -1)
    solved = res <= _RESIDUAL_TOL
    failed = ~(solved & finite & inside)
    if not failed.any():
        return
    k = int(np.argmax(failed))
    prefix = _member(k, failed.size)
    if not solved[k] and math.isfinite(res[k]):
        raise SolveError(
            f"{prefix}linear solve residual {res[k]:.2e} exceeds {_RESIDUAL_TOL:.0e}; "
            "the Gershgorin-dominant operator should solve to roundoff",
            member=k,
        )
    if not (solved[k] and finite[k]):
        raise BlowUpError(prefix + "solution became non-finite", member=k)
    raise BlowUpError(f"{prefix}density left [-{_STATE_BOUND:g}, {_STATE_BOUND:g}]", member=k)


def explicit_step(
    state: State,
    dt: float | np.ndarray,
    rhs: Callable[[State], tuple[np.ndarray, np.ndarray]],
    method: Literal["euler", "heun"] = "euler",
) -> State:
    """One explicit step: forward Euler or Heun (trapezoidal RK2).

    An ``rhs`` that returns None for the second component keeps it frozen.
    For an ensemble ``dt`` may be a (B, 1) column, one step per member.
    """
    _check_step(dt)
    if method not in ("euler", "heun"):
        raise ValueError(f"unknown explicit method {method!r}")
    da1, db1 = rhs(state)
    frozen = db1 is None
    new = state.with_components(state.a + dt * da1, state.b if frozen else state.b + dt * db1)
    if method == "heun":  # the Euler state is the predictor
        da2, db2 = rhs(new)
        new = state.with_components(
            state.a + 0.5 * dt * (da1 + da2),
            state.b if frozen else state.b + 0.5 * dt * (db1 + db2),
        )
    _check_finite(new)
    return new


def suggest_dt(
    grid: Grid, params: ModelParams, cfg: SchemeConfig, safety: float = 0.9
) -> float:
    """Stable step size for an explicit integrator of the chosen scheme.

    Every scheme is limited by the reaction scale 1 / max|f'|, transport
    (min dx / rho) and the relaxation scale 2 tau; a scheme with an explicit
    diffusion term of coefficient D adds the parabolic bound min(dx)^2 / (2 D).
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    reaction = 1.0 / _max_abs_f_prime(params)
    dx = grid.dx_min
    diffusion = SCHEMES[cfg.kind].diffusion
    parabolic = math.inf if diffusion is None else 0.5 * dx**2 / diffusion(params, dx)
    return safety * min(reaction, dx / params.rho, 2.0 * params.tau, parabolic)


def check_run(scheme: SchemeConfig, integrator: str, T: float, dt: float) -> None:
    """Raise ``ValueError`` for a run that cannot start: a T or dt that is not
    positive and finite, more steps T / dt than float64 arrays can hold, or an
    unknown scheme/integrator pair (IMEX: the kinds whose ``SchemeSpec`` says so)."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):  # false for NaN too
        raise ValueError("T and dt must be positive and finite")
    if not 8.0 * (T / dt) < np.iinfo(np.intp).max:  # T / dt is inf for a subnormal dt
        raise ValueError(f"T / dt = {T / dt:g} steps are too many to hold in an array")
    if integrator not in ("imex", "euler", "heun"):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator == "imex" and not SCHEMES[scheme.kind].imex:
        raise ValueError(
            f"the IMEX step does not discretize the {scheme.kind} scheme; "
            "use an explicit integrator"
        )


@dataclass
class RunResult:
    """Final state, time-stamped snapshots and the per-step diagnostics."""

    final_state: State
    snapshots: list[tuple[float, State]]
    diagnostics: DiagnosticsRecord


def _schedule(T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Step sizes and end times of a run to T: steps of dt, the last one shortened to land on T."""
    n_steps = max(1, int(round(T / dt)))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, abs(T)):
        n_steps = max(1, int(np.ceil((T - 1e-12 * max(1.0, T)) / dt)))
    steps = np.full(n_steps, dt)
    steps[-1] = T - (n_steps - 1) * dt
    times = np.arange(1, n_steps + 1) * dt
    times[-1] = T
    return steps, times


def run_ensemble(
    initials: Sequence[State],
    scheme: SchemeConfig,
    integrator: Literal["imex", "euler", "heun"],
    T: float | Sequence[float],
    dt: float,
    sample_every: int = 0,
    reference: Callable | None = None,
) -> list[RunResult]:
    """Advance B states from t = 0 to their stop times, recording diagnostics each step.

    The members step together as one ensemble state (``State.stack``), each
    with its own parameters: one right-hand-side evaluation, or one solve of
    the block-diagonal IMEX operator, per step serves them all, and each
    member's result is bit for bit that of its own run.  The members share
    ``dt``; ``T`` is one stop time for all of them or one per member.

    Each member takes the steps of its own run: steps of ``dt``, the last one
    shortened to land exactly on its T.  Where some members take their last
    step, the step size is a column of per-member steps (the IMEX path builds
    an operator for it); those members then leave the stack, and the rest go
    on as a smaller ensemble, for which the IMEX operator is factored anew.
    Each member's diagnostics, snapshots and final state end at its own T.

    Snapshots of the state are stored at t = 0 and every ``sample_every``
    steps (0 disables them; the final state is always available separately).
    ``reference`` is an optional profile whose cell averages feed the L2 /
    max-norm distance columns of the diagnostics.

    Raises ``BlowUpError`` (carrying the step index and the member, which an
    ensemble of two or more names in the message) when the first member
    leaves the trust region, and ``ValueError``, before any allocation, for
    the arguments ``check_run`` rejects, for a T that does not give one stop
    time per member and for a periodic IMEX ensemble of two or more members;
    explicit members must share one grid, IMEX ones may each have their own.
    """
    initials = list(initials)
    if not initials:
        raise ValueError("an ensemble needs at least one member")
    count = len(initials)
    stops = [float(stop) for stop in ([T] * count if np.ndim(T) == 0 else T)]
    if len(stops) != count:
        raise ValueError("T must be one stop time, or one per member")
    if integrator == "imex" and scheme.boundary == "periodic" and count > 1:
        raise ValueError("a periodic IMEX operator serves one member, not an ensemble")
    for stop in set(stops):
        check_run(scheme, integrator, stop, dt)
    members = [prepare_state_for_scheme(st, scheme) for st in initials]
    state = State.stack(members)
    if integrator != "imex" and isinstance(state.grid, tuple):
        raise ValueError("explicit stencils need ensemble members that share one grid")

    schedules = {stop: _schedule(stop, dt) for stop in stops}
    lengths = [schedules[stop][0].size for stop in stops]
    n_max = max(lengths)
    # at each step where some member takes its last step: the step size of
    # every member still running, one float if they agree
    last_steps: dict[int, float | np.ndarray] = {}
    for end in set(lengths):
        sizes = [float(schedules[s][0][end - 1]) for s, size in zip(stops, lengths) if size >= end]
        if len(set(sizes)) > 1:
            last_steps[end - 1] = np.array(sizes)  # laid out as a column of the stack
        else:  # the step dt itself reuses the workspace
            last_steps[end - 1] = dt if sizes[0] == dt else sizes[0]

    ws = None  # the IMEX operator of the stack's members and step, built at their first step
    if integrator != "imex":
        rhs = rhs_for_scheme(scheme)

    def layout(state: State) -> tuple[np.ndarray, list]:
        """Each row's first cell in the flat cell order, and its (member, grid, cells)."""
        ends = _bounds(state.grid, state.params)
        return ends[:-1], [(k, members[k].grid, slice(*ends[j : j + 2])) for j, k in enumerate(ids)]

    def split(state: State) -> list[State]:
        a, b = state.a.reshape(-1), state.b.reshape(-1)
        return [State(members[k].kind, a[c], b[c], grid, members[k].params) for k, grid, c in rows]

    refs = {}  # the reference's cell averages on each member's grid
    if reference is not None:
        refs = {st.grid: project_cell_averages(reference, st.grid) for st in members}
    masses = np.empty((count, n_max + 1))
    if not refs:  # no distances: a read-only NaN view that holds no memory
        l2 = linf = np.broadcast_to(np.nan, (count, n_max))
    else:
        l2 = np.empty((count, n_max))
        linf = np.empty((count, n_max))
    max_f_prime = np.empty((count, n_max))
    snapshots = [[(0.0, st)] if sample_every > 0 else [] for st in members]
    finals: list[State | None] = [None] * count
    ids = list(range(count))  # the member in each row of the stack
    rows_of = slice(None)  # the same, as an index of the per-member arrays
    starts, rows = layout(state)

    masses[:, 0] = [mass(st.u, st.grid) for st in members]
    for n in range(n_max):
        h = last_steps.get(n, dt)
        if isinstance(h, np.ndarray):
            h = state.params.column(h)
        try:
            if integrator != "imex":
                state = explicit_step(state, h, rhs, integrator)
            else:
                if ws is None or h is not dt:  # new members, or a last step: a new operator
                    ws = None  # old factors go before new ones are built: a lower memory peak
                    ws = ImexWorkspace.build(state.grid, h, state.params, scheme.boundary)
                state = imex_step(state, h, ws)
        except (BlowUpError, SolveError) as err:
            k = ids[err.member]  # named by its place in the whole ensemble
            message = _member(k, count) + str(err).removeprefix(_member(err.member, len(ids)))
            if isinstance(err, SolveError):
                raise SolveError(message, member=k) from None
            raise BlowUpError(f"{message} at step {n}", step=n, member=k) from None
        u = state.u.reshape(-1)
        for k, grid, c in rows:
            masses[k, n + 1] = mass(u[c], grid)
        f_prime = reaction_f_prime(state.u, state.params).reshape(-1)
        max_f_prime[rows_of, n] = np.maximum.reduceat(f_prime, starts)
        if refs:
            for k, grid, c in rows:
                l2[k, n] = l2_distance(u[c], refs[grid], grid)
                linf[k, n] = linf_distance(u[c], refs[grid])
        sampled = sample_every > 0 and (n + 1) % sample_every == 0
        if sampled:
            current = split(state)
            for k, st in zip(ids, current):
                snapshots[k].append((float(schedules[stops[k]][1][n]), st))
        if n in last_steps:  # some members took their last step: they leave the stack
            if not sampled:
                current = split(state)
            going_on = []
            for k, st in zip(ids, current):
                if lengths[k] == n + 1:
                    finals[k] = st
                else:
                    going_on.append(st)
            ids = [k for k in ids if lengths[k] > n + 1]
            rows_of = np.array(ids, dtype=int)
            if going_on:
                state = State.stack(going_on)
                starts, rows = layout(state)
                ws = None

    results = []
    for k, (stop, size, final) in enumerate(zip(stops, lengths, finals)):
        steps, times = schedules[stop]
        speeds = speeds_from_masses(masses[k, : size + 1], steps)
        # rounding is monotone and tau > 0, so this is g_profile(u).min() exactly;
        # in place, as 1.0 - tau * max_f_prime
        g_min = max_f_prime[k, :size]
        np.subtract(1.0, np.multiply(members[k].params.tau, g_min, out=g_min), out=g_min)
        record = DiagnosticsRecord(
            times=times,
            speeds=speeds,
            l2=l2[k, :size],
            linf=linf[k, :size],
            g_min=g_min,
            stabilized_at=detect_stabilization(times, speeds),
        )
        results.append(RunResult(final_state=final, snapshots=snapshots[k], diagnostics=record))
    return results


def run(
    initial: State,
    scheme: SchemeConfig,
    integrator: Literal["imex", "euler", "heun"],
    T: float,
    dt: float,
    sample_every: int = 0,
    reference: Callable | None = None,
) -> RunResult:
    """Advance a state from t = 0 to t = T: the one-member ``run_ensemble``."""
    return run_ensemble([initial], scheme, integrator, T, dt, sample_every, reference)[0]
