"""Semi-discrete spatial right-hand sides for the relaxation model.

All schemes evolve cell averages on a (possibly nonuniform) cell-centered
grid.  The first-order kinetic scheme upwinds the diagonal variables

    dr_i/dt =  (rho/dx_i)(r_{i+1} - r_i) + f(r_i+s_i)/2 + (s_i - r_i)/(2 tau)
    ds_i/dt = -(rho/dx_i)(s_i - s_{i-1}) + f(r_i+s_i)/2 - (s_i - r_i)/(2 tau)

and is algebraically identical, cell by cell, to a central-plus-viscosity
form in the physical variables (u, v).  The second-order variant replaces
cell values at interfaces by slope-limited linear reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, GridStack
from .model import (
    ModelParams,
    ParamColumns,
    from_diagonal,
    reaction_f,
    reaction_f_prime,
    to_diagonal,
)

__all__ = [
    "State",
    "SchemeConfig",
    "SchemeSpec",
    "SCHEMES",
    "LIMITERS",
    "BOUNDARIES",
    "minmod",
    "monotonized_central",
    "rhs_kinetic_first_order",
    "rhs_kinetic_first_order_uv",
    "rhs_kinetic_second_order",
    "rhs_gk_pseudo_kinetic",
    "rhs_onefield_direct",
    "rhs_onefield_alternative",
    "rhs_parabolic_reference",
    "rhs_for_scheme",
    "prepare_state_for_scheme",
]

DIAGONAL = "diagonal"
PHYSICAL = "physical"
ONEFIELD = "onefield"
_REPRESENTATIONS = (DIAGONAL, PHYSICAL, ONEFIELD)

BOUNDARIES = ("zero_gradient", "periodic")


@dataclass(frozen=True)
class SchemeSpec:
    """What the package knows about one scheme kind.

    Its right-hand side ``(State, SchemeConfig) -> (da, db)`` is the module's
    ``rhs_<kind>``; a ``db`` of None means the second component is frozen.
    ``diffusion(params, dx)`` is the explicit diffusion coefficient, if any.
    ``limited`` kinds reconstruct with ``SchemeConfig.limiter`` and require one.
    ``initial_w(u_t, physical, boundary)`` forms a one-field kind's auxiliary
    variable from physical initial data and its u_t.
    """

    representation: str
    imex: bool = False
    diffusion: Callable[[ModelParams, float], float] | None = None
    limited: bool = False
    initial_w: Callable[[np.ndarray, "State", str], np.ndarray] | None = None


def _mu_plus_nu(p: ModelParams, dx: float) -> float:
    return p.mu + p.nu


def _alternative_w(ut: np.ndarray, phys: "State", boundary: str) -> np.ndarray:
    """w = tau u_t + u - tau f(u) - nu L u, the variable of the alternative one-field form."""
    u, p = phys.a, phys.params
    return p.tau * ut + u - p.tau * reaction_f(u, p) - p.nu * _laplacian(u, phys.grid, boundary)


# the one place a scheme kind is declared
SCHEMES = {
    "kinetic_first_order": SchemeSpec(DIAGONAL, imex=True),
    "kinetic_second_order": SchemeSpec(DIAGONAL, limited=True),
    "gk_pseudo_kinetic": SchemeSpec(PHYSICAL, diffusion=lambda p, dx: p.nu + 0.5 * p.rho * dx),
    "onefield_direct": SchemeSpec(ONEFIELD, diffusion=_mu_plus_nu, initial_w=lambda ut, *_: ut),
    "onefield_alternative": SchemeSpec(ONEFIELD, diffusion=_mu_plus_nu, initial_w=_alternative_w),
    "parabolic_reference": SchemeSpec(PHYSICAL, diffusion=_mu_plus_nu),
}


@dataclass(frozen=True, eq=False)
class State:
    """Two coupled cell-value arrays in one of three representations.

    diagonal : (r, s), the kinetic variables advected at -rho and +rho
    physical : (u, v), density and flux
    onefield : (u, w), density and the auxiliary variable of a one-field form

    With a ``GridStack`` for ``grid`` and ``ParamColumns`` for ``params`` the
    state is an ensemble (see ``stack``): flat arrays of the members' cells
    side by side.  States are immutable; the density ``u`` is formed once,
    on first use.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray
    grid: Grid | GridStack
    params: ModelParams | ParamColumns

    def __post_init__(self) -> None:
        if self.kind not in _REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.kind!r}")
        if getattr(self.params, "sizes", (self.grid.n_cells,)) != self.grid.sizes:
            raise ValueError("ensemble parameters must cover each member's cells")
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.grid.n_cells,) or b.shape != a.shape:
            raise ValueError("state components must hold one value per cell and member")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def diagonal(cls, r, s, grid: Grid, params: ModelParams) -> "State":
        return cls(DIAGONAL, r, s, grid, params)

    @classmethod
    def physical(cls, u, v, grid: Grid, params: ModelParams) -> "State":
        return cls(PHYSICAL, u, v, grid, params)

    @classmethod
    def one_field(cls, u, w, grid: Grid, params: ModelParams) -> "State":
        return cls(ONEFIELD, u, w, grid, params)

    @classmethod
    def stack(cls, states: Sequence["State"]) -> "State":
        """Members in one representation, as one ensemble state: their cells
        side by side in flat arrays, on the ``GridStack`` of their grids.  A
        lone state is returned as it is: it already is a one-member ensemble.
        """
        first = states[0]
        if len(states) == 1:
            return first
        if any(st.kind != first.kind for st in states):
            raise ValueError("ensemble members must share one representation")
        grid = GridStack(tuple(st.grid for st in states))
        params = ParamColumns(tuple(st.params for st in states), grid.sizes)
        a, b = np.concatenate([st.a for st in states]), np.concatenate([st.b for st in states])
        return cls(first.kind, a, b, grid, params)

    def _require(self, kind: str) -> None:
        if self.kind != kind:
            raise ValueError(f"state is {self.kind!r}, expected {kind!r}")

    @property
    def u(self) -> np.ndarray:
        """Density field in any representation (r + s in diagonal form)."""
        u = self.__dict__.get("_u")
        if u is None:  # formed on first use
            u = self.a + self.b if self.kind == DIAGONAL else self.a
            self.__dict__["_u"] = u
        return u

    def with_components(self, a: np.ndarray, b: np.ndarray) -> "State":
        """The state with new component arrays of the same shape.

        Every step builds one, so it checks only the arrays: the kind, grid
        and params it copies were checked when this state was built.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != self.a.shape or b.shape != self.a.shape:
            raise ValueError("state components must hold one value per cell and member")
        new = object.__new__(State)
        new.__dict__.update(kind=self.kind, a=a, b=b, grid=self.grid, params=self.params)
        return new

    def _as(self, kind: str) -> "State":
        """The state in representation ``kind``, diagonal or physical; the change is exact."""
        if self.kind == kind:
            return self
        if self.kind == ONEFIELD:
            raise ValueError("a one-field state carries no flux to convert")
        convert = to_diagonal if kind == DIAGONAL else from_diagonal
        return State(kind, *convert(self.a, self.b, self.params), self.grid, self.params)

    def to_physical(self) -> "State":
        return self._as(PHYSICAL)

    def to_diagonal(self) -> "State":
        return self._as(DIAGONAL)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind, limiter (read, and required, by ``limited`` kinds only) and boundary closure."""

    kind: str = "kinetic_first_order"
    limiter: str | None = "minmod"
    boundary: str = "zero_gradient"

    def __post_init__(self) -> None:
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.limiter is not None and self.limiter not in LIMITERS:
            raise ValueError(f"unknown limiter {self.limiter!r}")
        if self.limiter is None and SCHEMES[self.kind].limited:
            raise ValueError(f"the {self.kind} scheme requires a limiter")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary treatment {self.boundary!r}")


def _shift(values: np.ndarray, grid: Grid | GridStack, boundary: str, step: int) -> np.ndarray:
    """Each cell's right (``step`` = 1) or left (-1) neighbour within its member.

    Past a member's end the ghost copies the end cell (zero gradient) or wraps
    to the member's other end (periodic), at the cells ``grid.ends`` names.
    """
    out = np.empty_like(values)
    first, last = grid.ends
    if step > 0:
        out[:-1] = values[1:]
        ends, wrap = last, first
    else:
        out[1:] = values[:-1]
        ends, wrap = first, last
    out[ends] = values[wrap if boundary == "periodic" else ends]
    return out


def minmod(a, b):
    """Zero on sign disagreement, else the argument of smaller magnitude.

    For finite arguments: +0.0 (never -0.0) unless a*b > 0, so also when the
    product underflows; else the smaller of |a| and |b| with the common sign.
    NaN if either argument is NaN; an infinite argument counts as the larger.
    """
    return _limit(_minmod, a, b)


def monotonized_central(a, b):
    """Classical MC limiter: min(|a+b|/2, 2|a|, 2|b|) with the common sign."""
    return _limit(_monotonized_central, a, b)


def _limit(kernel, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = kernel(a, b, np.abs(a), np.abs(b), np.empty(np.broadcast(a, b).shape))
    return float(out) if out.ndim == 0 else out


def _minmod(a, b, abs_a, abs_b, out):
    np.copysign(np.minimum(abs_a, abs_b, out=out), a, out=out)
    out *= a * b > 0.0
    out += 0.0
    return out


def _monotonized_central(a, b, abs_a, abs_b, out):
    mag = np.minimum(0.5 * np.abs(a + b), 2.0 * np.minimum(abs_a, abs_b))
    out[...] = np.where(a * b <= 0.0, 0.0, np.sign(a) * mag)
    return out


LIMITERS = {"minmod": _minmod, "mc": _monotonized_central}  # kernels (a, b, |a|, |b|, out) -> out


def _limited_slope_values(rows, grid: Grid | GridStack, limiter: str) -> np.ndarray:
    """Per-cell limited slopes of each of ``rows``, one output row each, from one-sided quotients.

    A member's end cells fall back to slope zero (first-order closure): its
    last quotient is zero, which limits to zero with either neighbour, so one
    limiter pass over all rows and members in flat order gives that closure.
    """
    gaps = _center_spacings(grid, "zero_gradient")[1][:-1]  # > 0 also where members meet
    quotients = np.empty((len(rows), grid.n_cells))
    for row, quotient in zip(rows, quotients):
        np.subtract(row[1:], row[:-1], out=quotient[:-1])
    np.divide(quotients[:, :-1], gaps, out=quotients[:, :-1])
    quotients[:, grid.ends[1]] = 0.0
    flat, slopes = quotients.reshape(-1), np.empty(quotients.shape)
    magnitudes = np.abs(flat)
    slopes[0, 0] = 0.0
    LIMITERS[limiter](flat[1:], flat[:-1], magnitudes[1:], magnitudes[:-1], slopes.reshape(-1)[1:])
    return slopes


def _kinetic_upwind(state: State, cfg: SchemeConfig,
                    r_face: np.ndarray, s_face: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kinetic upwind scheme on interface values: (rho * diff) / dx + f/2 + relax
    and (-rho * diff) / dx + f/2 - relax, with the differences r_face_{i+1} -
    r_face_i and s_face_i - s_face_{i-1} and ``_shift``'s ghosts past the ends."""
    p, grid = state.params, state.grid
    first, last = grid.ends
    dr, ds = out = np.empty((2, grid.n_cells))
    np.subtract(r_face[1:], r_face[:-1], out=dr[:-1])
    np.subtract(s_face[1:], s_face[:-1], out=ds[1:])
    ghost_r, ghost_s = (first, last) if cfg.boundary == "periodic" else (last, first)
    dr[last] = r_face[ghost_r] - r_face[last]
    ds[first] = s_face[first] - s_face[ghost_s]
    dr *= p.rho
    ds *= p.minus_rho
    out /= grid.cell_lengths
    out += 0.5 * reaction_f(state.u, p)
    relax = (state.b - state.a) / p.two_tau
    dr += relax
    ds -= relax
    return dr, ds


def rhs_kinetic_first_order(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """First-order upwind scheme for the diagonal variables: cell values at the interfaces."""
    state._require(DIAGONAL)
    return _kinetic_upwind(state, cfg, state.a, state.b)


def _rhs_physical(state: State, cfg: SchemeConfig, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Shared (u, v) form: central transport plus rho*dx/2 numerical viscosity.

    ``nu`` adds the flux-diffusion of the Guyer-Krumhansl variation to the
    v equation; nu = 0 reproduces the plain kinetic scheme exactly.
    """
    state._require(PHYSICAL)
    p = state.params
    u, v = state.a, state.b
    dx = state.grid.cell_lengths
    rho = p.rho
    u_right, u_left = (_shift(u, state.grid, cfg.boundary, step) for step in (1, -1))
    v_right, v_left = (_shift(v, state.grid, cfg.boundary, step) for step in (1, -1))
    lap_u = u_right - 2.0 * u + u_left
    lap_v = v_right - 2.0 * v + v_left
    dx2 = dx * dx
    du = -(v_right - v_left) / (2.0 * dx) + reaction_f(u, p) + (0.5 * rho * dx) * lap_u / dx2
    dv = -(rho * rho) * (u_right - u_left) / (2.0 * dx) - v / p.tau
    dv += (nu + 0.5 * rho * dx) * lap_v / dx2
    return du, dv


def rhs_kinetic_first_order_uv(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The first-order kinetic scheme written in the physical variables.

    Mapping the diagonal right-hand side through u = r + s, v = rho (s - r)
    reproduces this output cell by cell, on uniform and nonuniform grids.
    """
    return _rhs_physical(state, cfg, 0.0)


def rhs_gk_pseudo_kinetic(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-kinetic scheme for the Guyer-Krumhansl flux law.

    Identical to the (u, v) kinetic scheme except that the v equation
    diffuses with coefficient nu + rho dx / 2; bit-for-bit equal to it
    when nu = 0.
    """
    return _rhs_physical(state, cfg, state.params.nu)


def rhs_kinetic_second_order(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slope-limited MUSCL variant of the kinetic upwind scheme.

    Interface values come from the limited linear reconstruction
    w_i(x) = w_i + (x - x_i) w_i'; the upwind side of every interface is the
    right reconstruction for r (advected leftward) and the left one for s:

        dr_i/dt ~ (rho/dx_i)(r_{i+1}^- - r_i^-),
        ds_i/dt ~ -(rho/dx_i)(s_i^+ - s_{i-1}^+).

    Reconstruction means equal the cell averages, so the scheme conserves
    exactly what the first-order one does.
    """
    state._require(DIAGONAL)
    r, s = state.a, state.b
    # one slope pass for r and s, scaled in place and made into r_i^- and s_i^+
    r_minus, s_plus = recon = _limited_slope_values((r, s), state.grid, cfg.limiter)
    recon *= state.grid.half_lengths
    np.subtract(r, r_minus, out=r_minus)
    np.add(s, s_plus, out=s_plus)
    return _kinetic_upwind(state, cfg, r_minus, s_plus)


@lru_cache(maxsize=16)  # grids are immutable
def _center_spacings(grid: Grid | GridStack, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's distance to the center on its left and on its right.  Each
    member's ghost centers mirror its boundary spacing (zero gradient) or wrap
    with its domain period (periodic)."""
    x = grid.centers
    first, last = grid.ends
    lo, hi = np.array([(g.x_min, g.x_max) for g in grid.members]).T
    if boundary == "periodic":
        ghosts = x[last] - (hi - lo), x[first] + (hi - lo)
    else:
        ghosts = 2.0 * lo - x[first], 2.0 * hi - x[last]
    h_minus, h_plus = np.empty_like(x), np.empty_like(x)
    h_minus[1:] = h_plus[:-1] = np.diff(x)
    h_minus[first], h_plus[last] = x[first] - ghosts[0], ghosts[1] - x[last]
    return h_minus, h_plus


def _laplacian(values: np.ndarray, grid: Grid | GridStack, boundary: str) -> np.ndarray:
    """Three-point Laplacian with nonuniform center-distance weights.

    Reduces to (w_{i+1} - 2 w_i + w_{i-1}) / dx^2 on uniform grids.
    """
    h_minus, h_plus = _center_spacings(grid, boundary)
    # divided-difference form annihilates constants and linears exactly
    forward = (_shift(values, grid, boundary, 1) - values) / h_plus
    backward = (values - _shift(values, grid, boundary, -1)) / h_minus
    return 2.0 * (forward - backward) / (h_minus + h_plus)


def rhs_onefield_direct(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """First-order system u_t = w for the one-field Guyer-Krumhansl equation.

    tau dw/dt = f(u) - (1 - tau f'(u)) w + mu L u - nu L w + nu L f(u),
    with L the discrete Laplacian.  Nonuniform grids use center-distance
    weights and should be considered experimental for this form.
    """
    state._require(ONEFIELD)
    p = state.params
    u, w = state.a, state.b
    du = w.copy()
    dw = (
        reaction_f(u, p)
        - (1.0 - p.tau * reaction_f_prime(u, p)) * w
        + p.mu * _laplacian(u, state.grid, cfg.boundary)
        - p.nu * _laplacian(w, state.grid, cfg.boundary)
        + p.nu * _laplacian(reaction_f(u, p), state.grid, cfg.boundary)
    ) / p.tau
    return du, dw


def rhs_onefield_alternative(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Alternative one-field splitting with w = tau u_t + u - tau f(u) - nu u_xx.

    tau du/dt = w - u + tau f(u) + nu L u,
    dw/dt = f(u) + mu L u - nu L f(u).
    """
    state._require(ONEFIELD)
    p = state.params
    u, w = state.a, state.b
    lap_u = _laplacian(u, state.grid, cfg.boundary)
    fu = reaction_f(u, p)
    du = (w - u + p.tau * fu + p.nu * lap_u) / p.tau
    dw = fu + p.mu * lap_u - p.nu * _laplacian(fu, state.grid, cfg.boundary)
    return du, dw


def rhs_parabolic_reference(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, None]:
    """Reference discretization of the parabolic limit du/dt = mu L u + f(u).

    It evolves the density of a physical state; the flux stays frozen.
    """
    state._require(PHYSICAL)
    u, p = state.u, state.params
    return p.mu * _laplacian(u, state.grid, cfg.boundary) + reaction_f(u, p), None


def rhs_for_scheme(cfg: SchemeConfig):
    """Right-hand-side callable ``State -> (da, db)`` for a scheme config.

    ``rhs_<kind>`` is looked up on each call, so rebinding the name (to wrap
    it) takes effect."""
    name = f"rhs_{cfg.kind}"
    return lambda state: globals()[name](state, cfg)


def prepare_state_for_scheme(state: State, cfg: SchemeConfig) -> State:
    """Convert a state to the representation the scheme evolves.

    diagonal <-> physical conversions are exact.  A physical state converts
    to a one-field state through the initial-data relation u_t = f(u) - v_x
    (discrete central v_x); that conversion is meaningful for initial data.
    One-field states cannot be converted back.
    """
    need = SCHEMES[cfg.kind].representation
    if need != ONEFIELD or state.kind == ONEFIELD:
        return state._as(need)
    phys = state.to_physical()
    v_right, v_left = (_shift(phys.b, phys.grid, cfg.boundary, step) for step in (1, -1))
    ut = reaction_f(phys.a, phys.params) - (v_right - v_left) / (2.0 * phys.grid.cell_lengths)
    w = SCHEMES[cfg.kind].initial_w(ut, phys, cfg.boundary)
    return State(ONEFIELD, phys.a, w, phys.grid, phys.params)
