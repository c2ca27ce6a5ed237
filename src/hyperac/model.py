"""Physical parameters, bistable reaction term, diagonal variables and front speeds.

The model is the semilinear relaxation system

    du/dt + dv/dx = f(u),      dv/dt + (mu/tau) du/dx = -v/tau,

with the bistable cubic f(u) = kappa*u*(u-alpha)*(1-u).  Diagonal (kinetic)
variables advect with speeds -rho and +rho, rho = sqrt(mu/tau).  Front speeds
come either from the parabolic closed form or from a shooting computation on
the traveling-wave phase plane of the equivalent one-field equation

    tau*u_tt + (1 - tau*f'(u))*u_t - mu*u_xx = f(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "ModelParams",
    "ParamColumns",
    "FrontProfile",
    "ShootingError",
    "BracketError",
    "IntegrationError",
    "reaction_f",
    "reaction_f_prime",
    "stability_indicator_g",
    "to_diagonal",
    "from_diagonal",
    "exact_parabolic_front",
    "exact_parabolic_front_derivative",
    "parabolic_front_speed",
    "hyperbolic_front_speed_shooting",
]


class ShootingError(RuntimeError):
    """Base class for failures of the front-speed shooting computation."""


class BracketError(ShootingError):
    """The shooting classification does not change over the bisection bracket."""


class IntegrationError(ShootingError):
    """The phase-plane integration failed or never classified the orbit."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the relaxation model.

    tau : relaxation time (> 0)
    mu : diffusivity (> 0)
    kappa : reaction intensity (> 0)
    alpha : unstable zero of the cubic, in (0, 1)
    nu : Guyer-Krumhansl flux-diffusion coefficient (>= 0, finite)
    """

    tau: float
    mu: float = 1.0
    kappa: float = 1.0
    alpha: float = 0.5
    nu: float = 0.0

    def __post_init__(self) -> None:
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError("nu must be non-negative and finite")

    @property
    def rho(self) -> float:
        """Characteristic speed sqrt(mu/tau) of the diagonal variables."""
        return math.sqrt(self.mu / self.tau)


@dataclass(frozen=True)
class ParamColumns:
    """The ``ModelParams`` of B ensemble members as (B, 1) columns.

    Each column broadcasts against (B, N) cell arrays, so the formulas written
    for one member evaluate every member at once; each entry is that member's
    own scalar (``rho`` included), so the results are the one-member ones.
    """

    members: tuple[ModelParams, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        for name in ("tau", "mu", "kappa", "alpha", "nu", "rho"):
            column = np.array([[getattr(m, name)] for m in self.members])
            column.setflags(write=False)
            object.__setattr__(self, name, column)


def reaction_f(u, p: ModelParams):
    """Bistable cubic kappa*u*(u-alpha)*(1-u); zeros at 0, alpha, 1."""
    return p.kappa * u * (u - p.alpha) * (1.0 - u)


def reaction_f_prime(u, p: ModelParams):
    """Exact derivative of the cubic: kappa*(-3u^2 + 2(1+alpha)u - alpha)."""
    return p.kappa * (-3.0 * u * u + 2.0 * (1.0 + p.alpha) * u - p.alpha)


def stability_indicator_g(u, p: ModelParams):
    """Damping factor g(u) = 1 - tau*f'(u); positivity is the stability hypothesis."""
    return 1.0 - p.tau * reaction_f_prime(u, p)


def _max_abs_f_prime(p: ModelParams, lo: float = -0.1, hi: float = 1.1) -> float:
    """Largest |f'| over [lo, hi]; the quadratic peaks at u = (1+alpha)/3."""
    candidates = [lo, hi]
    vertex = (1.0 + p.alpha) / 3.0
    if lo < vertex < hi:
        candidates.append(vertex)
    return max(abs(reaction_f_prime(u, p)) for u in candidates)


def to_diagonal(u, v, p: ModelParams):
    """Diagonal variables z_minus = (u - sqrt(tau/mu) v)/2, z_plus = (u + ...)/2."""
    scale = math.sqrt(p.tau / p.mu)
    return 0.5 * (u - scale * v), 0.5 * (u + scale * v)


def from_diagonal(z_minus, z_plus, p: ModelParams):
    """Inverse of ``to_diagonal``: u = z_- + z_+, v = sqrt(mu/tau)(z_+ - z_-)."""
    return z_minus + z_plus, math.sqrt(p.mu / p.tau) * (z_plus - z_minus)


def exact_parabolic_front(xi, xi0: float, p: ModelParams, increasing: bool = False):
    """Closed-form traveling front of the parabolic equation, value 1/2 at xi0.

    The default orientation decreases from 1 to 0 as xi grows, matching the
    closed-form speed ``parabolic_front_speed``; ``increasing=True`` gives the
    mirrored profile connecting 0 (left) to 1 (right).
    """
    theta = math.sqrt(p.kappa / (8.0 * p.mu)) * (np.asarray(xi, dtype=float) - xi0)
    t = np.tanh(theta)
    return 0.5 * (1.0 + t) if increasing else 0.5 * (1.0 - t)


def exact_parabolic_front_derivative(xi, xi0: float, p: ModelParams, increasing: bool = False):
    """Analytic d/dxi of ``exact_parabolic_front`` (same orientation flag)."""
    c = math.sqrt(p.kappa / (8.0 * p.mu))
    theta = c * (np.asarray(xi, dtype=float) - xi0)
    mag = 0.5 * c / np.cosh(theta) ** 2
    return mag if increasing else -mag


def parabolic_front_speed(p: ModelParams, increasing: bool = False) -> float:
    """Unique bistable front speed sqrt(2 mu kappa)(1/2 - alpha) of the parabolic limit.

    The closed form belongs to the decreasing front; the increasing mirror
    image travels at the opposite speed.
    """
    c = math.sqrt(2.0 * p.mu * p.kappa) * (0.5 - p.alpha)
    return -c if increasing else c


@dataclass(frozen=True)
class FrontProfile:
    """Exact front profile with a shift, normalized to 1/2 at the shift point.

    For alpha = 1/2 the relaxation model shares this stationary profile with
    the parabolic equation, which makes it the reference of choice for the
    decay experiments.
    """

    params: ModelParams
    shift: float = 0.0
    increasing: bool = True

    @property
    def speed(self) -> float:
        return parabolic_front_speed(self.params, increasing=self.increasing)

    def __call__(self, xi):
        return exact_parabolic_front(xi, self.shift, self.params, increasing=self.increasing)

    def derivative(self, xi):
        return exact_parabolic_front_derivative(
            xi, self.shift, self.params, increasing=self.increasing
        )


_OVERSHOOT = 1
_UNDERSHOOT = -1


def _classify_orbit(c: float, p: ModelParams, eps: float, xi_max: float) -> int:
    """Classify the unstable-manifold orbit leaving the saddle at phi = 1.

    Integrates phi' = psi, psi' = -(c g(phi) psi + f(phi)) / (mu - tau c^2)
    from a point displaced by ``eps`` along the unstable eigenvector, with
    phi initially decreasing.  Returns +1 when phi crosses 0 while still
    decreasing (overshoot) and -1 when psi returns to 0 first or the orbit
    stalls at the interior equilibrium (undershoot).
    """
    m = p.mu - p.tau * c * c
    if m <= 0.0:
        raise BracketError("speed outside the sub-characteristic range |c| < rho")
    fp1 = reaction_f_prime(1.0, p)  # negative: 1 is a stable zero
    b = c * (1.0 - p.tau * fp1) / m
    lam_plus = 0.5 * (-b + math.sqrt(b * b - 4.0 * fp1 / m))

    def rhs(_xi, y):
        phi, psi = y
        g = 1.0 - p.tau * reaction_f_prime(phi, p)
        return (psi, -(c * g * psi + reaction_f(phi, p)) / m)

    def crossed_zero(_xi, y):
        return y[0]

    crossed_zero.terminal = True
    crossed_zero.direction = -1.0

    def turned_around(_xi, y):
        return y[1]

    turned_around.terminal = True
    turned_around.direction = 1.0

    # LSODA: the strongly damped regime near the bracket ends rides a
    # quasi-steady manifold that is stiff for explicit integrators.
    sol = solve_ivp(
        rhs,
        (0.0, xi_max),
        (1.0 - eps, -eps * lam_plus),
        events=(crossed_zero, turned_around),
        method="LSODA",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"phase-plane integration failed: {sol.message}")
    if sol.t_events[0].size:
        return _OVERSHOOT
    if sol.t_events[1].size:
        return _UNDERSHOOT
    # No event: heavily damped orbits creep into the interior equilibrium
    # (phi = alpha) with psi -> 0 from below; the profile never reaches 0.
    if sol.y[0, -1] > 1e-2:
        return _UNDERSHOOT
    raise IntegrationError(
        "orbit neither overshot nor turned around within the integration window"
    )


def hyperbolic_front_speed_shooting(
    p: ModelParams,
    tol: float = 1e-6,
    increasing: bool = False,
    bracket: tuple[float, float] | None = None,
    eps: float = 1e-6,
    xi_max: float = 5000.0,
) -> float:
    """Front speed of the relaxation model by bisection on a shooting functional.

    The heteroclinic profile connecting 1 (at -infinity) to 0 (at +infinity)
    exists for a unique speed; the orbit classification of ``_classify_orbit``
    flips there.  The default bracket covers the sub-characteristic range
    (-0.99 rho, 0.99 rho).  The returned speed follows the decreasing-front
    convention of the closed-form parabolic formula unless ``increasing``.

    Raises ``BracketError`` when both bracket ends classify identically and
    ``IntegrationError`` when an orbit cannot be classified.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if bracket is None:
        bracket = (-0.99 * p.rho, 0.99 * p.rho)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    side_lo = _classify_orbit(lo, p, eps, xi_max)
    side_hi = _classify_orbit(hi, p, eps, xi_max)
    if side_lo == side_hi:
        raise BracketError(
            "shooting classification does not change across the bracket; "
            "no heteroclinic speed inside it"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _classify_orbit(mid, p, eps, xi_max) == side_lo:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return -c if increasing else c
