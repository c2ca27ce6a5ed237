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

An ensemble of B members on one grid steps as (B, N) arrays: the explicit
right-hand sides broadcast over the member axis, and the members' IMEX
operators, side by side in the band layout, form one block-diagonal matrix of
bandwidth 2 that one factorisation and one solve per step serve.  A step size
may be a (B, 1) column, one step per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np
import scipy.sparse as sp
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
from .schemes import (
    SCHEMES,
    SchemeConfig,
    State,
    prepare_state_for_scheme,
    rhs_for_scheme,
)

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


def _imex_operator(
    grid: Grid, dt: float | np.ndarray, params: ModelParams | ParamColumns, boundary: str
) -> tuple[np.ndarray, sp.csr_matrix]:
    """The operator in dgbtrf's (7, 2N) band layout, and in CSR.

    Row 4 + i - j of the band holds entry (i, j); the two top rows are room
    for the U factor's fill-in should the LU pivot.  The band closes with a
    zero gradient: the last r row and the first s row carry no transport.  A
    periodic operator adds it back, on their diagonals and in two wrap-around
    entries outside the band.  For B members (``ParamColumns``) the members'
    bands sit side by side, (7, 2NB): no entry couples two members, so that
    is the block-diagonal operator of the ensemble, and ``dt`` may be a (B, 1)
    column of per-member steps.
    """
    if np.any(np.less_equal(dt, 0.0)):
        raise ValueError("dt must be positive")
    n = grid.n_cells
    m = 2 * n
    alpha = np.reshape(params.rho * dt / grid.cell_lengths, (-1, n))
    beta = np.reshape(dt / (2.0 * params.tau), (-1, 1))
    count = alpha.shape[0]
    size = count * m
    ab = np.zeros((7, size))
    # solve_banded's (5, 2N) layout per member: row 2 + i - j holds entry (i, j)
    band = ab[2:].reshape(5, count, m)
    band[0, :, 2::2] = -alpha[:, :-1]  # r_i <- r_{i+1}
    band[1, :, 1::2] = -beta  # r_i <- s_i
    band[2] = 1.0 + beta
    band[2, :, 0:-2:2] += alpha[:, :-1]  # every r row but the last
    band[2, :, 3::2] += alpha[:, 1:]  # every s row but the first
    band[3, :, 0::2] = -beta  # s_i <- r_i
    band[4, :, 1:-2:2] = -alpha[:, 1:]  # s_{i+1} <- s_i
    matrix = sp.dia_matrix((ab[2:], [2, 1, 0, -1, -2]), shape=(size, size)).tocsr()
    if boundary == "periodic":  # rows s_0 and r_{N-1} of every member
        first = m * np.arange(count)[:, None]
        rows, cols = first + [1, 1, m - 2, m - 2], first + [1, m - 1, m - 2, 0]
        vals = np.column_stack((alpha[:, 0], -alpha[:, 0], alpha[:, -1], -alpha[:, -1]))
        corners = (vals.ravel(), (rows.ravel(), cols.ravel()))
        matrix = matrix + sp.csr_matrix(corners, shape=(size, size))
    return ab, matrix


def assemble_imex_matrix(
    grid: Grid, dt: float, params: ModelParams | ParamColumns, boundary: str = "zero_gradient"
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
    ensemble, one block per member.  Zero-gradient operators are factored once
    by LAPACK's banded LU (``dgbtrf``), in the layout ``dgbtrs`` solves with;
    periodic ones, whose wrap-around entries leave the band, by one SuperLU
    per member.  ``matrix`` stays the unfactored operator, which the residual
    guard checks every solve against.
    """

    grid: Grid
    params: ModelParams | ParamColumns
    dt: float | np.ndarray  # a (B, 1) column for per-member steps
    boundary: str
    matrix: sp.csr_matrix
    lu: object = field(repr=False)  # (7, 2NB) dgbtrf factors, or one SuperLU per member
    pivots: np.ndarray | None = field(default=None, repr=False)  # dgbtrf only

    @classmethod
    def build(
        cls,
        grid: Grid,
        dt: float | np.ndarray,
        params: ModelParams | ParamColumns,
        boundary: str = "zero_gradient",
    ) -> "ImexWorkspace":
        ab, matrix = _imex_operator(grid, dt, params, boundary)
        m = 2 * grid.n_cells
        lost = gershgorin_margins(matrix).reshape(-1, m).min(axis=1) < 1.0 - 1e-12
        if lost.any():
            raise RuntimeError(
                f"{_member(int(np.argmax(lost)), lost.size)}"
                "implicit operator lost its Gershgorin row bound; assembly bug"
            )
        if boundary == "zero_gradient":
            lu, pivots, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
            if info != 0:
                raise RuntimeError(f"banded LU factorisation failed (dgbtrf info {info})")
        else:
            blocks = range(0, matrix.shape[0], m)
            lu, pivots = [splu(matrix[k : k + m, k : k + m].tocsc()) for k in blocks], None
        return cls(grid, params, dt, boundary, matrix, lu, pivots)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one interleaved right-hand side, (2N,), or one per member, (B, 2N)."""
        if self.pivots is None:
            blocks = rhs.reshape(-1, 2 * self.grid.n_cells)
            return np.stack([lu.solve(b) for lu, b in zip(self.lu, blocks)]).reshape(rhs.shape)
        return dgbtrs(self.lu, 2, 2, rhs.reshape(-1), self.pivots)[0].reshape(rhs.shape)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Max-norm solve residual of each member, relative to its right-hand side.

        The product is scipy's CSR kernel called on a zeroed buffer, as
        ``matrix @ x`` does after its dispatch: the same bits at a third of
        the cost at small N.
        """
        a = self.matrix
        product = np.zeros(rhs.size)
        _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x.reshape(-1), product)
        misfit = np.abs(product.reshape(rhs.shape) - rhs).max(axis=-1)
        scale = np.abs(rhs).max(axis=-1)
        return misfit / (scale + (scale == 0.0))  # a zero right-hand side counts as 1

    def matches(self, state: State, dt: float | np.ndarray) -> bool:
        return (
            self.grid is state.grid
            and (self.params is state.params or self.params == state.params)
            and (self.dt is dt or np.array_equal(self.dt, dt))
        )


def imex_step(state: State, dt: float | np.ndarray, ws: ImexWorkspace | None = None) -> State:
    """One implicit-transport / explicit-reaction step in diagonal variables.

    Advances one state or an ensemble, whose members one solve serves; for an
    ensemble ``dt`` may be a (B, 1) column, one step per member.
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
        # blocks; solve without it, so that each member fails on its own
        broken = ~np.isfinite(rhs).all(axis=-1)
        if broken.any():
            x = ws.solve(np.where(broken[..., None], 0.0, rhs))
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
    # near sharp data, so the trust region bounds the density only
    a, b, u = state.a, state.b, state.u
    if residual is None and (
        np.isfinite(a).all() and np.isfinite(b).all() and np.abs(u).max() <= _STATE_BOUND
    ):
        return
    n = state.grid.n_cells
    finite = np.isfinite(a.reshape(-1, n)).all(axis=1) & np.isfinite(b.reshape(-1, n)).all(axis=1)
    inside = np.abs(u.reshape(-1, n)).max(axis=1) <= _STATE_BOUND
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
    if (dt if isinstance(dt, float) else np.min(dt)) <= 0.0:  # a float, or a column
        raise ValueError("dt must be positive")
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
    positive and finite, or a scheme/integrator combination that does not
    exist (IMEX applies to the kinds whose ``SchemeSpec`` says so)."""
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):  # false for NaN too
        raise ValueError("T and dt must be positive and finite")
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
    """Advance B states on one grid from t = 0 to their stop times, recording diagnostics each step.

    The members step together as the rows of (B, N) arrays, each with its
    own parameters: one right-hand-side evaluation, or one solve of the
    block-diagonal IMEX operator, per step serves them all, and each member's
    result is bit for bit that of its own run.  The members share ``dt`` and
    their grid; ``T`` is one stop time for all of them or one per member.

    Each member takes the steps of its own run: steps of ``dt``, the last one
    shortened to land exactly on its T.  Where some members take their last
    step, the step size is a (B, 1) column (the IMEX path builds an operator
    for it); those members then leave the stack, and the rest go on as a
    smaller ensemble, for which the IMEX operator is factored anew.  Each
    member's diagnostics, snapshots and final state end at its own T.

    Snapshots of the state are stored at t = 0 and every ``sample_every``
    steps (0 disables them; the final state is always available separately).
    ``reference`` is an optional profile whose cell averages feed the L2 /
    max-norm distance columns of the diagnostics.

    Raises ``BlowUpError`` (carrying the step index and the member, which an
    ensemble of two or more names in the message) when the first member
    leaves the trust region, and ``ValueError``, before any allocation, for
    the arguments ``check_run`` rejects and for a T that does not give one
    stop time per member.
    """
    initials = list(initials)
    if not initials:
        raise ValueError("an ensemble needs at least one member")
    count = len(initials)
    stops = [float(stop) for stop in ([T] * count if np.ndim(T) == 0 else T)]
    if len(stops) != count:
        raise ValueError("T must be one stop time, or one per member")
    for stop in set(stops):
        check_run(scheme, integrator, stop, dt)
    members = [prepare_state_for_scheme(st, scheme) for st in initials]
    state = State.stack(members)
    grid = state.grid
    cells = grid.n_cells

    schedules = {stop: _schedule(stop, dt) for stop in stops}
    lengths = [schedules[stop][0].size for stop in stops]
    n_max = max(lengths)
    # at each step where some member takes its last step: the step size of
    # every member still running, one float if they agree
    last_steps: dict[int, float | np.ndarray] = {}
    for end in set(lengths):
        sizes = [float(schedules[s][0][end - 1]) for s, size in zip(stops, lengths) if size >= end]
        if len(set(sizes)) > 1:
            last_steps[end - 1] = np.array(sizes)[:, None]
        else:  # the step dt itself reuses the workspace
            last_steps[end - 1] = dt if sizes[0] == dt else sizes[0]

    if integrator == "imex":
        ws = ImexWorkspace.build(grid, dt, state.params, scheme.boundary)
    else:
        rhs = rhs_for_scheme(scheme)

    def split(state: State, ids: list[int]) -> list[State]:
        rows = zip(state.a.reshape(len(ids), cells), state.b.reshape(len(ids), cells), ids)
        return [State(members[k].kind, a, b, members[k].grid, members[k].params)
                for a, b, k in rows]

    ref_values = None if reference is None else project_cell_averages(reference, grid)
    masses = np.empty((count, n_max + 1))
    if ref_values is None:  # no distances: a read-only NaN view that holds no memory
        l2 = linf = np.broadcast_to(np.nan, (count, n_max))
    else:
        l2 = np.empty((count, n_max))
        linf = np.empty((count, n_max))
    max_f_prime = np.empty((count, n_max))
    snapshots = [[(0.0, st)] if sample_every > 0 else [] for st in members]
    finals: list[State | None] = [None] * count
    ids = list(range(count))  # the member in each row of the stack
    rows_of = slice(None)  # the same, as an index of the per-member arrays

    masses[:, 0] = [mass(st.u, grid) for st in members]
    for n in range(n_max):
        h = last_steps.get(n, dt)
        try:
            if integrator != "imex":
                state = explicit_step(state, h, rhs, integrator)
            else:
                if h is not dt:  # a last step: its own operator, until members leave
                    del ws  # old factors go before new ones are built: a lower memory peak
                    ws = ImexWorkspace.build(state.grid, h, state.params, scheme.boundary)
                state = imex_step(state, h, ws)
        except (BlowUpError, SolveError) as err:
            k = ids[err.member]  # named by its place in the whole ensemble
            message = _member(k, count) + str(err).removeprefix(_member(err.member, len(ids)))
            if isinstance(err, SolveError):
                raise SolveError(message, member=k) from None
            raise BlowUpError(f"{message} at step {n}", step=n, member=k) from None
        u = state.u
        rows = u.reshape(len(ids), cells)
        for k, row in zip(ids, rows):
            masses[k, n + 1] = mass(row, grid)
        max_f_prime[rows_of, n] = reaction_f_prime(u, state.params).max(axis=-1)
        if ref_values is not None:
            for k, row in zip(ids, rows):
                l2[k, n] = l2_distance(row, ref_values, grid)
                linf[k, n] = linf_distance(row, ref_values)
        sampled = sample_every > 0 and (n + 1) % sample_every == 0
        if sampled:
            current = split(state, ids)
            for k, st in zip(ids, current):
                snapshots[k].append((float(schedules[stops[k]][1][n]), st))
        if n in last_steps:  # some members took their last step: they leave the stack
            if not sampled:
                current = split(state, ids)
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
                if integrator == "imex":
                    del ws
                    ws = ImexWorkspace.build(state.grid, dt, state.params, scheme.boundary)

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
