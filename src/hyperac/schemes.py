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
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, GridFunction
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
    "limited_slopes",
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

    ``rhs`` names the module-level ``(State, SchemeConfig) -> (da, db)``; it is
    looked up on each call, so rebinding the name (to wrap it) takes effect.
    A ``db`` of None means the second component is frozen.
    ``diffusion(params, dx)`` is the explicit diffusion coefficient, if any.
    """

    representation: str
    rhs: str
    imex: bool = False
    diffusion: Callable[[ModelParams, float], float] | None = None


def _mu_plus_nu(p: ModelParams, dx: float) -> float:
    return p.mu + p.nu


# the one place a scheme kind is declared
SCHEMES = {
    "kinetic_first_order": SchemeSpec(DIAGONAL, "rhs_kinetic_first_order", imex=True),
    "kinetic_second_order": SchemeSpec(DIAGONAL, "rhs_kinetic_second_order"),
    "gk_pseudo_kinetic": SchemeSpec(
        PHYSICAL, "rhs_gk_pseudo_kinetic", diffusion=lambda p, dx: p.nu + 0.5 * p.rho * dx
    ),
    "onefield_direct": SchemeSpec(ONEFIELD, "rhs_onefield_direct", diffusion=_mu_plus_nu),
    "onefield_alternative": SchemeSpec(ONEFIELD, "rhs_onefield_alternative", diffusion=_mu_plus_nu),
    "parabolic_reference": SchemeSpec(PHYSICAL, "_rhs_parabolic_state", diffusion=_mu_plus_nu),
}


@dataclass(frozen=True, eq=False)
class State:
    """Two coupled cell-value arrays in one of three representations.

    diagonal : (r, s), the kinetic variables advected at -rho and +rho
    physical : (u, v), density and flux
    onefield : (u, w), density and the auxiliary variable of a one-field form

    With ``ParamColumns`` for ``params`` the state is an ensemble: (B, N)
    arrays, one row per member (see ``stack``).  States are immutable; the
    density ``u`` is formed once, on first use.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray
    grid: Grid
    params: ModelParams

    def __post_init__(self) -> None:
        if self.kind not in _REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.kind!r}")
        shape = (self.grid.n_cells,)
        if isinstance(self.params, ParamColumns):
            shape = (len(self.params.members),) + shape
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != shape or b.shape != shape:
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
        """Members in one representation on one grid, as one ensemble state.

        A lone state is returned as it is: it already is a one-member ensemble.
        """
        first = states[0]
        if len(states) == 1:
            return first
        for st in states[1:]:
            if st.kind != first.kind:
                raise ValueError("ensemble members must share one representation")
            if st.grid is not first.grid and not np.array_equal(
                st.grid.interfaces, first.grid.interfaces
            ):
                raise ValueError("ensemble members must share one grid")
        return cls(
            first.kind,
            np.stack([st.a for st in states]),
            np.stack([st.b for st in states]),
            first.grid,
            ParamColumns(tuple(st.params for st in states)),
        )

    def _require(self, kind: str) -> None:
        if self.kind != kind:
            raise ValueError(f"state is {self.kind!r}, expected {kind!r}")

    @property
    def v(self) -> np.ndarray:
        self._require(PHYSICAL)
        return self.b

    @property
    def u(self) -> np.ndarray:
        """Density field in any representation (r + s in diagonal form)."""
        u = self.__dict__.get("_u")
        if u is None:  # formed on first use
            u = self.a + self.b if self.kind == DIAGONAL else self.a
            self.__dict__["_u"] = u
        return u

    def u_function(self) -> GridFunction:
        return GridFunction(self.u, self.grid)

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

    def to_physical(self) -> "State":
        if self.kind == PHYSICAL:
            return self
        if self.kind == DIAGONAL:
            u, v = from_diagonal(self.a, self.b, self.params)
            return State(PHYSICAL, u, v, self.grid, self.params)
        raise ValueError("a one-field state carries no flux to convert")

    def to_diagonal(self) -> "State":
        if self.kind == DIAGONAL:
            return self
        if self.kind == PHYSICAL:
            r, s = to_diagonal(self.a, self.b, self.params)
            return State(DIAGONAL, r, s, self.grid, self.params)
        raise ValueError("a one-field state carries no flux to convert")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme kind, limiter (second-order kinetic only) and boundary closure."""

    kind: str = "kinetic_first_order"
    limiter: str | None = "minmod"
    boundary: str = "zero_gradient"

    def __post_init__(self) -> None:
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.limiter is not None and self.limiter not in LIMITERS:
            raise ValueError(f"unknown limiter {self.limiter!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary treatment {self.boundary!r}")


def _pad(values: np.ndarray, boundary: str) -> np.ndarray:
    """Append one ghost cell per side: copy (zero gradient) or wrap (periodic).

    Like every kernel here, it works along the last axis, so (B, N) ensemble
    arrays go through the formulas written for one member.
    """
    if boundary == "zero_gradient":
        return np.concatenate((values[..., :1], values, values[..., -1:]), axis=-1)
    if boundary == "periodic":
        return np.concatenate((values[..., -1:], values, values[..., :1]), axis=-1)
    raise ValueError(f"unknown boundary treatment {boundary!r}")


def _as_float_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def minmod(a, b):
    """Zero on sign disagreement, else the argument of smaller magnitude."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) <= np.abs(b), a, b))
    return _as_float_or_array(out)


def monotonized_central(a, b):
    """Classical MC limiter: min(|a+b|/2, 2|a|, 2|b|) with the common sign."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mag = np.minimum(0.5 * np.abs(a + b), 2.0 * np.minimum(np.abs(a), np.abs(b)))
    out = np.where(a * b <= 0.0, 0.0, np.sign(a) * mag)
    return _as_float_or_array(out)


LIMITERS = {"minmod": minmod, "mc": monotonized_central}


def _limited_slope_values(values: np.ndarray, centers: np.ndarray, limiter: str) -> np.ndarray:
    """Per-cell limited slopes from one-sided difference quotients.

    Boundary cells fall back to slope zero (first-order closure).
    """
    lmtr = LIMITERS[limiter]
    diffs = (values[..., 1:] - values[..., :-1]) / (centers[1:] - centers[:-1])
    slopes = np.zeros_like(values)
    slopes[..., 1:-1] = lmtr(diffs[..., 1:], diffs[..., :-1])
    return slopes


def limited_slopes(w: GridFunction, limiter: str = "minmod") -> GridFunction:
    """Slope-limited numerical derivative of a grid function, one per cell."""
    return GridFunction(_limited_slope_values(w.values, w.grid.centers, limiter), w.grid)


def rhs_kinetic_first_order(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """First-order upwind scheme for the diagonal variables."""
    state._require(DIAGONAL)
    p = state.params
    r, s = state.a, state.b
    dx = state.grid.cell_lengths
    rho = p.rho
    r_right = _pad(r, cfg.boundary)[..., 2:]  # r_{i+1}
    s_left = _pad(s, cfg.boundary)[..., :-2]  # s_{i-1}
    fu = reaction_f(state.u, p)
    relax = (s - r) / (2.0 * p.tau)
    dr = rho * (r_right - r) / dx + 0.5 * fu + relax
    ds = -rho * (s - s_left) / dx + 0.5 * fu - relax
    return dr, ds


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
    up = _pad(u, cfg.boundary)
    vp = _pad(v, cfg.boundary)
    lap_u = up[..., 2:] - 2.0 * u + up[..., :-2]
    lap_v = vp[..., 2:] - 2.0 * v + vp[..., :-2]
    dx2 = dx * dx
    du = (
        -(vp[..., 2:] - vp[..., :-2]) / (2.0 * dx)
        + reaction_f(u, p)
        + (0.5 * rho * dx) * lap_u / dx2
    )
    dv = (
        -(rho * rho) * (up[..., 2:] - up[..., :-2]) / (2.0 * dx)
        - v / p.tau
        + (nu + 0.5 * rho * dx) * lap_v / dx2
    )
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
    if cfg.limiter is None:
        raise ValueError("the second-order kinetic scheme requires a limiter")
    p = state.params
    r, s = state.a, state.b
    grid = state.grid
    dx = grid.cell_lengths
    rho = p.rho

    slope_r = _limited_slope_values(r, grid.centers, cfg.limiter)
    slope_s = _limited_slope_values(s, grid.centers, cfg.limiter)
    half = 0.5 * dx
    r_minus = r - half * slope_r  # value at the left interface of cell i
    s_plus = s + half * slope_s  # value at the right interface of cell i

    if cfg.boundary == "periodic":
        r_minus_right = np.concatenate((r_minus[..., 1:], r_minus[..., :1]), axis=-1)  # r_{i+1}^-
        s_plus_left = np.concatenate((s_plus[..., -1:], s_plus[..., :-1]), axis=-1)  # s_{i-1}^+
    else:
        # zero-gradient ghosts copy the adjacent value with zero slope
        r_minus_right = np.concatenate((r_minus[..., 1:], r[..., -1:]), axis=-1)
        s_plus_left = np.concatenate((s[..., :1], s_plus[..., :-1]), axis=-1)

    fu = reaction_f(state.u, p)
    relax = (s - r) / (2.0 * p.tau)
    dr = rho * (r_minus_right - r_minus) / dx + 0.5 * fu + relax
    ds = -rho * (s_plus - s_plus_left) / dx + 0.5 * fu - relax
    return dr, ds


def _laplacian(values: np.ndarray, grid: Grid, boundary: str) -> np.ndarray:
    """Three-point Laplacian with nonuniform center-distance weights.

    Reduces to (w_{i+1} - 2 w_i + w_{i-1}) / dx^2 on uniform grids.  Ghost
    centers mirror the boundary spacing (zero gradient) or wrap with the
    domain period (periodic).
    """
    x = grid.centers
    vp = _pad(values, boundary)
    if boundary == "periodic":
        length = grid.x_max - grid.x_min
        xp = np.concatenate(([x[-1] - length], x, [x[0] + length]))
    else:
        xp = np.concatenate(([2.0 * grid.x_min - x[0]], x, [2.0 * grid.x_max - x[-1]]))
    h_minus = xp[1:-1] - xp[:-2]
    h_plus = xp[2:] - xp[1:-1]
    # divided-difference form annihilates constants and linears exactly
    forward = (vp[..., 2:] - vp[..., 1:-1]) / h_plus
    backward = (vp[..., 1:-1] - vp[..., :-2]) / h_minus
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


def rhs_parabolic_reference(
    u: GridFunction | State, params: ModelParams | ParamColumns, cfg: SchemeConfig
) -> np.ndarray:
    """Reference discretization of the parabolic limit du/dt = mu L u + f(u).

    ``u`` is a GridFunction, or a state (an ensemble too) whose density it takes.
    """
    values = u.u if isinstance(u, State) else u.values
    return params.mu * _laplacian(values, u.grid, cfg.boundary) + reaction_f(values, params)


def _rhs_parabolic_state(state: State, cfg: SchemeConfig) -> tuple[np.ndarray, None]:
    """``rhs_parabolic_reference`` on a physical state; the flux stays frozen."""
    state._require(PHYSICAL)
    return rhs_parabolic_reference(state, state.params, cfg), None


def rhs_for_scheme(cfg: SchemeConfig):
    """Right-hand-side callable ``State -> (da, db)`` for a scheme config."""
    name = SCHEMES[cfg.kind].rhs
    return lambda state: globals()[name](state, cfg)


def prepare_state_for_scheme(state: State, cfg: SchemeConfig) -> State:
    """Convert a state to the representation the scheme evolves.

    diagonal <-> physical conversions are exact.  A physical state converts
    to a one-field state through the initial-data relation u_t = f(u) - v_x
    (discrete central v_x); that conversion is meaningful for initial data.
    One-field states cannot be converted back.
    """
    need = SCHEMES[cfg.kind].representation
    if state.kind == need:
        return state
    if need == DIAGONAL:
        return state.to_diagonal()
    if need == PHYSICAL:
        return state.to_physical()
    # need == ONEFIELD
    phys = state.to_physical()
    p = phys.params
    u = phys.a
    fu = reaction_f(u, p)
    vp = _pad(phys.b, cfg.boundary)
    ut = fu - (vp[2:] - vp[:-2]) / (2.0 * phys.grid.cell_lengths)
    if cfg.kind == "onefield_direct":
        w = ut
    else:  # onefield_alternative
        w = p.tau * ut + u - p.tau * fu - p.nu * _laplacian(u, phys.grid, cfg.boundary)
    return State(ONEFIELD, u, w, phys.grid, p)
