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

An ensemble (``State.stack``) holds its members' cells side by side in flat
arrays, on the ``GridStack`` of their grids, which may differ; a plain grid
is the one-member case.  The explicit stencils close each member at its own
ends; the members' zero-gradient IMEX operators form one block-diagonal band
that one factorisation and one solve per step serve; the per-member checks
reduce over each member's cells.  A step size may be a column of per-member
steps.  A periodic IMEX operator serves one member only.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord, l2_distance, linf_distance, mass, speeds_from_masses
from .grid import Grid, GridStack, project_cell_averages
from .model import ModelParams, ParamColumns, _max_abs_f_prime, reaction_f, reaction_f_prime
from .model import _extension
from .schemes import (
    BOUNDARIES, DIAGONAL, SCHEMES, SchemeConfig, State, prepare_state_for_scheme, rhs_for_scheme,
)

__all__ = [
    "EXPLICIT",
    "INTEGRATORS",
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

Grids = Grid | GridStack  # one grid, or the grids of ensemble members side by side
# the four kernels a run calls, from their extension modules alone (see _extension)
dtbsv = _extension("scipy.linalg._fblas").dtbsv
_flapack = _extension("scipy.linalg._flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
_sparsetools = _extension("scipy.sparse._sparsetools")
_Csr = namedtuple("_Csr", "data indices indptr shape")  # an operator's arrays, as csr_matrix's
_STATE_BOUND = 10.0  # the bistable cubic diverges cubically well inside this
_RESIDUAL_TOL = 1e-12

EXPLICIT = ("euler", "heun")  # the methods of explicit_step
INTEGRATORS = ("imex", *EXPLICIT)  # the integrators of run and run_ensemble


class _RunFailure(RuntimeError):
    """A failed run or ensemble member.  The message is the reason; ``step`` (when
    known), ``member`` and the ensemble's member ``count`` are fields, and ``str``
    adds "member k: " for two or more members and " at step n" when ``step`` is set."""

    def __init__(self, message: str, step: int | None = None, member: int | None = None,
                 count: int = 1):
        super().__init__(message)
        self.step, self.member, self.count = step, member, count

    def __str__(self) -> str:
        where = f"member {self.member}: " if self.count > 1 else ""
        when = "" if self.step is None else f" at step {self.step}"
        return where + self.args[0] + when


class BlowUpError(_RunFailure):
    """The discrete solution left the trust region or became non-finite."""


class SolveError(_RunFailure):
    """A linear solve missed the residual bound its operator guarantees."""


def _check_step(dt: float | np.ndarray) -> None:
    """Raise ``ValueError`` unless every step size in ``dt`` is positive and finite."""
    low, high = (dt, dt) if isinstance(dt, float) else (np.min(dt), np.max(dt))
    if not 0.0 < low <= high < math.inf:  # false for NaN too
        raise ValueError("dt must be positive and finite")


def _csr_matrix(csr: _Csr) -> sp.csr_matrix:
    """``csr`` as a ``csr_matrix``; ``scipy.sparse`` is imported at the call."""
    import scipy.sparse as sp

    return sp.csr_matrix(csr[:3], shape=csr.shape)


def _imex_operator(
    grid: Grids, dt: float | np.ndarray, params: ModelParams | ParamColumns, boundary: str
) -> tuple[np.ndarray, _Csr]:
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
    if boundary not in BOUNDARIES:
        raise ValueError(f"unknown boundary treatment {boundary!r}")
    if boundary == "periodic" and len(grid.members) > 1:
        raise ValueError("a periodic IMEX operator serves one member, not an ensemble")
    alpha = params.rho * dt / grid.cell_lengths
    beta = np.broadcast_to(dt / params.two_tau, alpha.shape)  # one member's is a scalar
    first, last = grid.ends
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
    # the CSR arrays scipy makes of the band (by way of DIA and CSC) plus the wrap-around
    # entries: row i's entries in column order, 0, i - 2 .. i + 2, size - 1, zeros dropped
    entries = np.zeros((size, 7))
    for d in range(-2, 3):
        entries[max(-d, 0):size + min(-d, 0), d + 3] = band[2 - d, max(d, 0):size + min(d, 0)]
    if boundary == "periodic":  # rows s_0 and r_{N-1}
        entries[[1, size - 2], 3] += alpha[[0, -1]]
        entries[[1, size - 2], [6, 0]] = -alpha[[0, -1]]
    i, t = np.nonzero(entries)  # in row-major order; NaN counts as nonzero
    indices = np.where(t == 0, 0, np.where(t == 6, size - 1, i + t - 3)).astype(np.int32)
    indptr = np.searchsorted(i, np.arange(size + 1)).astype(np.int32)
    return ab, _Csr(entries[i, t], indices, indptr, (size, size))


def assemble_imex_matrix(
    grid: Grids, dt: float, params: ModelParams | ParamColumns, boundary: str = "zero_gradient"
) -> sp.csr_matrix:
    """Implicit operator of the IMEX step on the interleaved (r, s) vector.

    Zero-gradient closures drop the transport coupling in the outflow rows
    (the ghost value equals the interior one at the new time level); periodic
    closures add the wrap-around entries.
    """
    return _csr_matrix(_imex_operator(grid, dt, params, boundary)[1])


def gershgorin_margins(matrix: sp.csr_matrix | _Csr) -> np.ndarray:
    """Per-row |diagonal| - sum of |off-diagonal| of a canonical CSR operator, its
    invertibility margin, with the bits of 2 |diagonal| - ``np.abs(matrix).sum(axis=1)``."""
    n, magnitudes, counts = matrix.shape[0], np.abs(matrix.data), np.diff(matrix.indptr)
    diagonal = np.where(matrix.indices == np.repeat(np.arange(n), counts), magnitudes, 0.0)
    rows, margins = np.flatnonzero(counts), np.zeros(n)  # as scipy's sums skip empty rows
    starts = matrix.indptr[rows]
    margins[rows] = 2.0 * np.add.reduceat(diagonal, starts) - np.add.reduceat(magnitudes, starts)
    return margins


@dataclass(eq=False)
class ImexWorkspace:
    """Assembled implicit operator plus its LU factors, reused across steps.

    Built for a ``GridStack`` it holds the block-diagonal operator of the
    ensemble, one block per member, whose first unknowns ``starts`` holds.
    ``solve`` takes one of three paths:

    - zero-gradient, no row moved by ``dgbtrf``: two ``dtbsv`` sweeps over
      ``bands``, Fortran-ordered copies of the L and U rows of ``lu`` made
      once (f2py would copy row slices on every call).  ``dgbtrs`` makes the
      same U call and the same L products and sums, so the bits are its bits;
    - zero-gradient, rows moved: ``dgbtrs`` on ``lu`` and ``pivots``;
    - periodic, one member only: a SuperLU, in ``lu``.

    ``csr`` holds the unfactored operator, which the residual guard checks
    every solve against; ``matrix`` gives it as a ``csr_matrix``.
    """

    grid: Grids
    params: ModelParams | ParamColumns
    dt: float | np.ndarray  # a column of per-member steps
    boundary: str
    csr: _Csr
    starts: np.ndarray
    lu: object = field(repr=False)  # (7, 2C) dgbtrf factors, or a SuperLU
    pivots: np.ndarray | None = field(default=None, repr=False)  # dgbtrf only
    bands: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)  # L, U
    matrix = property(lambda self: _csr_matrix(self.csr))

    @classmethod
    def build(
        cls,
        grid: Grids,
        dt: float | np.ndarray,
        params: ModelParams | ParamColumns,
        boundary: str = "zero_gradient",
    ) -> "ImexWorkspace":
        ab, csr = _imex_operator(grid, dt, params, boundary)
        starts = 2 * grid.ends[0]
        lost = ~(np.minimum.reduceat(gershgorin_margins(csr), starts) >= 1.0 - 1e-12)  # NaN too
        if lost.any():  # as 1 + beta + alpha rounds to alpha + beta past alpha of about 1e16
            k = int(np.argmax(lost))
            alpha = np.maximum.reduceat(np.abs(ab[2:7:4]).max(axis=0), starts)[k]  # both bands
            raise SolveError("implicit operator lost its Gershgorin row bound at "
                             f"alpha = rho dt / dx up to {alpha:.3g}", member=k, count=lost.size)
        if boundary != "zero_gradient":
            from scipy.sparse.linalg import splu  # only the periodic path loads it

            return cls(grid, params, dt, boundary, csr, starts, splu(_csr_matrix(csr).tocsc()))
        lu, pivots, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
        if info != 0:  # info > 0: U's zero pivot, in row info of the member that holds it
            k = int(np.searchsorted(starts, abs(info) - 1, side="right")) - 1
            raise SolveError(f"banded LU factorisation failed (dgbtrf info {info})",
                             member=k, count=starts.size)
        bands = None
        if np.array_equal(pivots, np.arange(pivots.size)):
            bands = np.asfortranarray(lu[4:7]), np.asfortranarray(lu[0:5])
        return cls(grid, params, dt, boundary, csr, starts, lu, pivots, bands)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for the interleaved right-hand side of every member."""
        if self.bands is not None:
            lower, upper = self.bands
            return dtbsv(4, upper, dtbsv(2, lower, rhs, lower=1, diag=1), overwrite_x=1)
        if self.pivots is not None:
            return dgbtrs(self.lu, 2, 2, rhs, self.pivots)[0]
        return self.lu.solve(rhs)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Max-norm solve residual of each member, relative to its right-hand side.

        One value per member (one for a single state).  The product is
        scipy's CSR kernel called on a zeroed buffer, as ``matrix @ x`` does
        after its dispatch: the same bits at a third of the cost at small N.
        """
        a = self.csr
        product = np.zeros(rhs.size)
        _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x, product)
        np.subtract(product, rhs, out=product)
        misfit = np.maximum.reduceat(np.abs(product, out=product), self.starts)
        scale = np.maximum.reduceat(np.abs(rhs), self.starts)
        return misfit / (scale + (scale == 0.0))  # a zero right-hand side counts as 1

    def matches(self, state: State, dt: float | np.ndarray) -> bool:
        return (
            self.grid is state.grid
            and (self.params is state.params or self.params == state.params)
            and (self.dt is dt or np.array_equal(self.dt, dt))
        )


def _check_workspace(state: State, dt: float | np.ndarray, ws: ImexWorkspace) -> None:
    """An IMEX step's preconditions: a diagonal state, and ``ws`` built for its step."""
    state._require(DIAGONAL)  # the IMEX step advances diagonal states
    if not ws.matches(state, dt):
        raise ValueError("workspace was built for different (grid, dt, params)")


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails the step's check
def imex_step(state: State, dt: float | np.ndarray, ws: ImexWorkspace) -> State:
    """One implicit-transport / explicit-reaction step in diagonal variables.

    Advances one state or an ensemble, whose members one solve serves; for
    an ensemble ``dt`` may be a column of per-member steps.
    Raises ``BlowUpError`` when a member's solution is non-finite or its
    density leaves the trust region, like ``explicit_step``, and
    ``SolveError`` when a member's solve misses the residual bound.
    """
    _check_workspace(state, dt, ws)
    r, s = state.a, state.b
    half_f = (0.5 * dt) * reaction_f(state.u, state.params)
    rhs = np.empty(2 * r.size)
    np.add(r, half_f, out=rhs[0::2])
    np.add(s, half_f, out=rhs[1::2])
    x = ws.solve(rhs)
    res = ws.residual(x, rhs)  # one per member
    solved = res.max() <= _RESIDUAL_TOL  # false for NaN too
    if not solved:
        # the band solve carries a non-finite member's NaN into its neighbours'
        # blocks; solve with those entries zeroed, so that each member fails on its own
        finite = np.isfinite(rhs)
        if not finite.all():
            x = ws.solve(np.where(finite, rhs, 0.0))
            res = ws.residual(x, rhs)
    new = state.with_components(x[0::2], x[1::2])
    # solved systems are finite, so only the density bound can still fail
    if not (solved and np.abs(new.u).max() <= _STATE_BOUND):
        _check_finite(new, res)
    return new


def imex_step_reduced_uniform(state: State, dt: float, ws: ImexWorkspace) -> State:
    """Eliminated form of the IMEX step: two N x N tridiagonal-type solves.

    Block elimination of the interleaved system gives, with
    S = (1+2beta) I + alpha (1+beta)(D_- - D_+),

        (S - alpha^2 D_- D_+) r^{n+1} = [(1+beta) I + alpha D_-] r^n
            + beta s^n + (dt/2) [(1+2beta) I + alpha D_-] f^n

    and the mirrored system for s.  The elimination is exact linear algebra,
    so the result agrees with ``imex_step`` to solver roundoff; it requires a
    uniform grid (scalar alpha).
    """
    _check_workspace(state, dt, ws)
    grid = state.grid
    if not grid.is_uniform():
        raise ValueError("the reduced IMEX form supports uniform grids only")
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu  # a cross-check only: loaded when it runs

    p = state.params
    n = grid.n_cells
    alpha = p.rho * dt / grid.dx_max
    beta = dt / p.two_tau
    # D_- x = x_i - x_{i-1} and D_+ x = x_{i+1} - x_i; a zero-gradient ghost
    # equals the interior value, so that row of D_- or D_+ is zero
    eye = sp.identity(n, format="csr")
    shift_down = sp.eye(n, k=-1, format="lil")  # (shift_down x)_i = x_{i-1}
    shift_up = sp.eye(n, k=1, format="lil")  # (shift_up x)_i = x_{i+1}
    periodic = ws.boundary == "periodic"
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
    if residual is None and bounded and (state.kind == DIAGONAL or np.isfinite(b).all()):
        return
    starts = state.grid.ends[0]
    finite = np.logical_and.reduceat(np.isfinite(a) & np.isfinite(b), starts)
    inside = np.maximum.reduceat(np.abs(u), starts) <= _STATE_BOUND
    res = np.zeros(finite.size) if residual is None else residual
    solved = res <= _RESIDUAL_TOL
    failed = ~(solved & finite & inside)
    if not failed.any():
        return
    k = int(np.argmax(failed))
    where = {"member": k, "count": failed.size}
    if not solved[k] and math.isfinite(res[k]):
        raise SolveError(f"linear solve residual {res[k]:.2e} exceeds {_RESIDUAL_TOL:.0e}; "
                         "the Gershgorin-dominant operator should solve to roundoff", **where)
    if not (solved[k] and finite[k]):
        raise BlowUpError("solution became non-finite", **where)
    raise BlowUpError(f"density left [-{_STATE_BOUND:g}, {_STATE_BOUND:g}]", **where)


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails the step's check
def explicit_step(
    state: State,
    dt: float | np.ndarray,
    rhs: Callable[[State], tuple[np.ndarray, np.ndarray]],
    method: str = "euler",
) -> State:
    """One explicit step: forward Euler or Heun (trapezoidal RK2).

    An ``rhs`` that returns None for the second component keeps it frozen.
    For an ensemble ``dt`` may be a column of per-member steps
    (``ParamColumns.column``).
    """
    _check_step(dt)
    if method not in EXPLICIT:
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
    return safety * min(reaction, dx / params.rho, params.two_tau, parabolic)


def check_run(
    scheme: SchemeConfig, integrator: str, T: float, dt: float, sample_every: int = 0
) -> None:
    """Raise ``ValueError`` for a run that cannot start: a T or dt that is not
    positive and finite, more steps T / dt than float64 arrays can hold, a
    negative ``sample_every``, an integrator not in ``INTEGRATORS``, or IMEX for
    a kind whose ``SchemeSpec`` does not allow it."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):  # false for NaN too
        raise ValueError("T and dt must be positive and finite")
    if sample_every < 0:
        raise ValueError("sample_every must be non-negative")
    if not 8.0 * (T / dt) < np.iinfo(np.intp).max:  # T / dt is inf for a subnormal dt
        raise ValueError(f"T / dt = {T / dt:g} steps are too many to hold in an array")
    if integrator not in INTEGRATORS:
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


@dataclass(eq=False)
class _Member:
    """One member of an ensemble run: its place in the whole ensemble, the
    step sizes and end times of its T (shared by every member with that T),
    its per-step diagnostics, sized by its own step count, its snapshots, and
    its state: the initial one, then the one it ended its last segment with."""

    index: int
    state: State
    steps: np.ndarray
    times: np.ndarray
    ref: np.ndarray | None  # the reference's cell averages on its grid
    snapshots: list[tuple[float, State]]

    def __post_init__(self) -> None:
        size = self.steps.size
        self.masses = np.empty(size + 1)
        self.masses[0] = mass(self.state.u, self.state.grid)
        self.max_f_prime = np.empty(size)
        if self.ref is None:  # no distances: a read-only NaN view that holds no memory
            self.l2 = self.linf = np.broadcast_to(np.nan, size)
        else:
            self.l2, self.linf = np.empty(size), np.empty(size)

    def result(self) -> RunResult:
        speeds = speeds_from_masses(self.masses, self.steps)
        # rounding is monotone and tau > 0, so this is g_profile(u).min() exactly;
        # in place, as 1.0 - tau * max_f_prime
        g_min = self.max_f_prime
        np.subtract(1.0, np.multiply(self.state.params.tau, g_min, out=g_min), out=g_min)
        record = DiagnosticsRecord(self.times, speeds, self.l2, self.linf, g_min)
        return RunResult(final_state=self.state, snapshots=self.snapshots, diagnostics=record)


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails its step's check
def run_ensemble(
    initials: Sequence[State],
    scheme: SchemeConfig,
    integrator: str,
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
    shortened to land exactly on its T.  The stack advances one segment at a
    time: steps of ``dt`` up to the next departure, whose step is a column of
    the members' own step sizes (one float where they agree; the IMEX path
    builds an operator for it).  The members that reached their T then leave,
    and the rest are stacked anew, for which the IMEX operator is factored
    anew.  Each member keeps one record: diagnostics sized by its own step
    count, its snapshots and its final state, all ending at its own T.

    Snapshots of the state are stored at t = 0 and every ``sample_every``
    steps (0 disables them; the final state is always available separately).
    ``reference`` is an optional profile whose cell averages feed the L2 /
    max-norm distance columns of the diagnostics.

    Raises ``BlowUpError`` when the first member leaves the trust region or
    overflows (numpy does not warn of it here) and ``SolveError`` when an
    IMEX operator or solve fails its check; both carry the step index and the
    member, which an ensemble of two or more names in the message.  Raises
    ``ValueError``, before any allocation, for the arguments ``check_run``
    rejects, for a T that does not give one stop time per member and for a
    periodic IMEX ensemble of two or more members.
    Members may each have a grid of their own.
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
        check_run(scheme, integrator, stop, dt, sample_every)
    schedules = {stop: _schedule(stop, dt) for stop in set(stops)}  # shared by the members of a T
    members = [prepare_state_for_scheme(st, scheme) for st in initials]
    refs = {}  # the reference's cell averages on each member's grid
    if reference is not None:
        refs = {st.grid: project_cell_averages(reference, st.grid) for st in members}
    records = [
        _Member(k, st, *schedules[stop], refs.get(st.grid), [(0.0, st)] if sample_every > 0 else [])
        for k, (st, stop) in enumerate(zip(members, stops))
    ]
    active = records

    ws = None  # the IMEX operator of the stack's members and step, built at their first step
    if integrator != "imex":
        rhs = rhs_for_scheme(scheme)
    start = 0
    while active:  # one segment: its members' steps from ``start`` to the next departure
        state = State.stack([m.state for m in active])
        end = min(m.steps.size for m in active)
        sizes = [float(m.steps[end - 1]) for m in active]
        last = state.params.column(np.array(sizes)) if len(set(sizes)) > 1 else sizes[0]
        bounds, lengths = state.grid.bounds, state.grid.cell_lengths
        cells = [slice(*bounds[j : j + 2]) for j in range(len(active))]
        runs, j = [], 0  # runs of adjacent equal-size members: their places, cells and lengths
        for size, group in itertools.groupby(state.grid.sizes):
            k = len(list(group))
            c = slice(bounds[j], bounds[j + k])
            runs.append((j, c, lengths[c]) if k == 1 else
                        (slice(j, j + k), c, lengths[c].reshape(k, size)))
            j += k
        masses, peaks = np.empty(len(active)), np.empty(len(active))
        for n in range(start, end):
            h = last if n == end - 1 else dt
            try:
                if integrator != "imex":
                    state = explicit_step(state, h, rhs, integrator)
                else:
                    if ws is None or not ws.matches(state, h):  # new members, or a last step
                        ws = None  # old factors go before new ones are built: a lower memory peak
                        ws = ImexWorkspace.build(state.grid, h, state.params, scheme.boundary)
                    state = imex_step(state, h, ws)
            except _RunFailure as err:  # named by its place in the whole ensemble, at its step
                err.member, err.count, err.step = active[err.member].index, count, n
                raise
            u = state.u
            np.maximum.reduceat(reaction_f_prime(u, state.params), bounds[:-1], out=peaks)
            for at, c, w in runs:  # vecdot's rows have np.dot's bits; a lone np.dot costs less
                masses[at] = np.dot(w, u[c]) if w.ndim == 1 else np.vecdot(u[c].reshape(w.shape), w)
            for m, value, peak in zip(active, masses.tolist(), peaks.tolist()):
                m.masses[n + 1], m.max_f_prime[n] = value, peak
            if reference is not None:  # then every member has a reference
                for m, c in zip(active, cells):
                    m.l2[n] = l2_distance(u[c], m.ref, m.state.grid)
                    m.linf[n] = linf_distance(u[c], m.ref)
            sampled = sample_every > 0 and (n + 1) % sample_every == 0
            if sampled or n == end - 1:
                a, b = state.a, state.b
                split = [m.state.with_components(a[c], b[c]) for m, c in zip(active, cells)]
            if sampled:
                for m, st in zip(active, split):
                    m.snapshots.append((float(m.times[n]), st))
        for m, st in zip(active, split):  # the final state of the members that leave
            m.state = st
        active = [m for m in active if m.steps.size > end]
        start = end
    return [m.result() for m in records]


def run(
    initial: State,
    scheme: SchemeConfig,
    integrator: str,
    T: float,
    dt: float,
    sample_every: int = 0,
    reference: Callable | None = None,
) -> RunResult:
    """Advance a state from t = 0 to t = T: the one-member ``run_ensemble``."""
    return run_ensemble([initial], scheme, integrator, T, dt, sample_every, reference)[0]
