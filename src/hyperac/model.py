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
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModelParams",
    "ParamColumns",
    "FrontProfile",
    "ShootingError",
    "BracketError",
    "IntegrationError",
    "reaction_f",
    "reaction_f_prime",
    "to_diagonal",
    "from_diagonal",
    "parabolic_front_speed",
    "dimensionless_problem",
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
        for name, value in (("tau", self.tau), ("mu", self.mu), ("kappa", self.kappa)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError("nu must be non-negative and finite")
        # rho and 1/rho both scale the diagonal variables: neither may overflow
        if not (math.isfinite(self.mu / self.tau) and math.isfinite(self.tau / self.mu)):
            raise ValueError(f"mu/tau = {self.mu:g}/{self.tau:g} is out of range: "
                             "rho = sqrt(mu/tau) or its inverse overflows")

    @property
    def rho(self) -> float:
        """Characteristic speed sqrt(mu/tau) of the diagonal variables."""
        return math.sqrt(self.mu / self.tau)

    # scalars the right-hand sides derive, which ``ParamColumns`` lays out once per ensemble
    two_tau = property(lambda self: 2.0 * self.tau)
    minus_rho = property(lambda self: -self.rho)
    two_one_plus_alpha = property(lambda self: 2.0 * (1.0 + self.alpha))


# the names of the columns: the fields of ModelParams and the scalars it derives
_COLUMNS = {f.name for f in fields(ModelParams)} | {
    name for name, value in vars(ModelParams).items() if isinstance(value, property)}


@dataclass(frozen=True)
class ParamColumns:
    """The ``ModelParams`` of B ensemble members as per-cell columns.

    Each column repeats a member's scalar (derived ones, ``rho`` among them, too)
    over its ``sizes`` cells, as ``State.stack`` lays them out, so the formulas
    written for one member evaluate every member at once, with the one-member results.
    A column is laid out, read-only, when first read: a stack holds those its kernels read.
    """

    members: tuple[ModelParams, ...]
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an ensemble needs at least one member")

    def __getattr__(self, name: str) -> np.ndarray:  # only for names not set yet
        if name not in _COLUMNS:
            raise AttributeError(f"'ParamColumns' object has no attribute {name!r}")
        column = self.column([getattr(m, name) for m in self.members])
        column.setflags(write=False)
        object.__setattr__(self, name, column)
        return column

    def column(self, values) -> np.ndarray:
        """One value per member, repeated over that member's cells."""
        return np.repeat(values, self.sizes)


def reaction_f(u, p: ModelParams):
    """Bistable cubic kappa*u*(u-alpha)*(1-u); zeros at 0, alpha, 1."""
    return p.kappa * u * (u - p.alpha) * (1.0 - u)


def reaction_f_prime(u, p: ModelParams):
    """Exact derivative of the cubic: kappa*(-3u^2 + 2(1+alpha)u - alpha)."""
    return p.kappa * (-3.0 * u * u + p.two_one_plus_alpha * u - p.alpha)


def _max_abs_f_prime(p: ModelParams) -> float:
    """Largest |f'| over [-0.1, 1.1], which holds the quadratic's vertex u = (1+alpha)/3."""
    return max(abs(reaction_f_prime(u, p)) for u in (-0.1, 1.1, (1.0 + p.alpha) / 3.0))


def to_diagonal(u, v, p: ModelParams):
    """Diagonal variables z_minus = (u - sqrt(tau/mu) v)/2, z_plus = (u + ...)/2."""
    scale = np.sqrt(p.tau / p.mu)
    return 0.5 * (u - scale * v), 0.5 * (u + scale * v)


def from_diagonal(z_minus, z_plus, p: ModelParams):
    """Inverse of ``to_diagonal``: u = z_- + z_+, v = sqrt(mu/tau)(z_+ - z_-)."""
    return z_minus + z_plus, p.rho * (z_plus - z_minus)


def parabolic_front_speed(p: ModelParams, increasing: bool = False) -> float:
    """Unique bistable front speed sqrt(2 mu kappa)(1/2 - alpha) of the parabolic limit.

    The closed form belongs to the decreasing front; the increasing mirror
    image travels at the opposite speed.
    """
    c = math.sqrt(2.0 * p.mu * p.kappa) * (0.5 - p.alpha)
    return -c if increasing else c


@dataclass(frozen=True)
class FrontProfile:
    """Closed-form traveling front of the parabolic equation, value 1/2 at ``shift``.

    The increasing front connects 0 (left) to 1 (right); ``increasing=False``
    gives the decreasing front, whose speed is ``parabolic_front_speed``.  For
    alpha = 1/2 the relaxation model shares this stationary profile with the
    parabolic equation, which makes it the reference of choice for the decay
    experiments.
    """

    params: ModelParams
    shift: float = 0.0
    increasing: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.params.kappa / (8.0 * self.params.mu)):  # else inf * 0 in theta
            raise ValueError("the front's width sqrt(8 mu/kappa) underflows to 0")

    def __call__(self, xi):
        p = self.params
        with np.errstate(over="ignore"):  # theta overflows to +-inf far out, where tanh is +-1
            theta = math.sqrt(p.kappa / (8.0 * p.mu)) * (np.asarray(xi, dtype=float) - self.shift)
        t = np.tanh(theta)
        return 0.5 * (1.0 + t) if self.increasing else 0.5 * (1.0 - t)

    def derivative(self, xi):
        """Analytic d/dxi of the profile (same orientation)."""
        p = self.params
        c = math.sqrt(p.kappa / (8.0 * p.mu))
        with np.errstate(over="ignore"):  # theta or cosh overflows far out, where mag is 0
            theta = c * (np.asarray(xi, dtype=float) - self.shift)
            mag = 0.5 * c / np.cosh(theta) ** 2
        return mag if self.increasing else -mag


_OVERSHOOT = 1
_UNDERSHOOT = -1
_ROOT_TOL = 4 * np.finfo(float).eps  # solve_ivp's event-root tolerance
SHOOT_EPS = 1e-6  # an orbit's distance from the saddle at its start, dimensionless
SHOOT_XI_MAX = 5000.0  # the end of an orbit's integration window, dimensionless


def brentq(*args, **kwargs) -> float:
    """``scipy.optimize.brentq``, imported at the first call: only the oracle needs it."""
    from scipy.optimize import brentq as root

    return root(*args, **kwargs)


def _extension(name: str):
    """The scipy extension module ``name``, loaded by file under its own name unless it is
    loaded already: its package's import runs all of the package's Python too (50 to 180 ms
    a package).  Where the file is not found or does not load, that import serves."""
    if name not in sys.modules:
        import scipy
        from importlib import import_module, machinery, util

        where = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
        spec = machinery.FileFinder(where, (machinery.ExtensionFileLoader,
                                            machinery.EXTENSION_SUFFIXES)).find_spec(name)
        try:
            if spec is None:
                raise ImportError(f"no extension file for {name} in {where}")
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:  # a scipy that lays out or builds it otherwise
            return import_module(name)
        sys.modules[name] = module
    return sys.modules[name]


def _dense_output(rwork, iwork, xi: float):
    """The dense output of LSODA's last step, ending at ``xi``: ``LSODA._dense_output_impl``."""
    order, h = iwork[13], rwork[11]
    yh = np.reshape(rwork[20:20 + (order + 1) * 2], (2, order + 1), order="F").copy()
    if iwork[14] < order:  # an order about to drop leaves the last column at the old step size
        yh[:, -1] *= (h / rwork[10]) ** order
    powers = np.arange(order + 1)
    return lambda s: np.dot(yh, ((np.asarray(s) - xi) / h) ** powers)


def _integrate_orbit(rhs, y0: tuple[float, float], xi_max: float) -> int:
    """Step an orbit of ``rhs`` from ``y0`` with LSODA and classify it.

    The steps are those of ``solve_ivp(rhs, (0, xi_max), y0, method="LSODA",
    rtol=1e-10, atol=1e-12)``, and the two terminal events follow its rule:
    phi crossed 0 going down (overshoot, +1) when phi >= 0 before a step and
    <= 0 after it; psi turned up (undershoot, -1) when psi <= 0 before and
    >= 0 after.  If both fire in one step, the earlier root on the step's
    dense output wins, a tie going to the overshoot.

    Each step is the call ``LSODA._step_impl`` makes, on ``rhs`` itself and
    without scipy's per-step wrappers: the extension's ``lsoda`` with itask 5
    (one step, not past ``xi_max``), its work arrays set up as
    ``LSODA.__init__`` does (checked on scipy 1.17.1 by a test).
    """
    lsoda, y, istate = _extension("scipy.integrate._odepack").lsoda, np.array(y0, dtype=float), 1
    rwork, iwork = np.zeros(52), np.zeros(22, dtype=np.int32)  # sized for two unknowns
    # stop at xi_max; 500 steps a call; order caps 12 (Adams) and 5 (BDF)
    rwork[0], iwork[5], iwork[7], iwork[8] = xi_max, 500, 12, 5
    state = np.zeros(240), np.zeros(48, dtype=np.int32)  # LSODA's internal state between calls
    (phi, psi), xi, no_jac = y0, 0.0, lambda: None
    while xi < xi_max:
        # rtol 1e-10, atol 1e-12: the damped orbits are stiff; jt = 2, a difference Jacobian
        y, new_xi, istate = lsoda(rhs, y, xi, xi_max, 1e-10, 1e-12, 5, istate, rwork, iwork,
                                  no_jac, 2, (), 1, (), *state)
        if istate < 0:
            from scipy.integrate._ode import lsoda as solver

            raise IntegrationError(f"phase-plane integration failed: {solver.messages[istate]}")
        if new_xi == xi:  # a step too small to move xi: it would never end
            raise IntegrationError(f"phase-plane integration stalled at xi = {xi:g}")
        new_phi, new_psi = y.tolist()  # the events test Python floats, cheaper than numpy's
        crossed_zero = phi >= 0.0 and new_phi <= 0.0
        turned_around = psi <= 0.0 and new_psi >= 0.0
        if crossed_zero and turned_around:
            dense, span = _dense_output(rwork, iwork, new_xi), (xi, new_xi)
            xi_cross = brentq(lambda s: dense(s)[0], *span, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            xi_turn = brentq(lambda s: dense(s)[1], *span, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            return _OVERSHOOT if xi_cross <= xi_turn else _UNDERSHOOT
        if crossed_zero:
            return _OVERSHOOT
        if turned_around:
            return _UNDERSHOOT
        phi, psi, xi = new_phi, new_psi, new_xi
    # No event: heavily damped orbits creep into the interior equilibrium
    # (phi = alpha) with psi -> 0 from below; the profile never reaches 0.
    if phi > 1e-2:
        return _UNDERSHOOT
    raise IntegrationError(
        "orbit neither overshot nor turned around within the integration window"
    )


# The name perfbench/tracing.py wraps to count orbit solves (one call per orbit).
solve_ivp = _integrate_orbit


def _classify_orbit(c: float, p: ModelParams) -> int:
    """Classify the unstable-manifold orbit leaving the saddle at phi = 1.

    Integrates phi' = psi, psi' = -(c g(phi) psi + f(phi)) / (mu - tau c^2)
    from a point displaced by ``SHOOT_EPS`` along the unstable eigenvector, with
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
    if not math.isfinite(lam_plus):  # b grows like sqrt(mu tau): b * b overflows at huge tau
        raise IntegrationError(f"unstable eigenvalue at the saddle overflows at c = {c:g}")

    # f' and f inlined on Python floats, cheaper than numpy scalars; same operations, same order
    tau, kappa, alpha, two_one_alpha = p.tau, p.kappa, p.alpha, p.two_one_plus_alpha

    def rhs(_xi, y):
        phi, psi = y.tolist()
        g = 1.0 - tau * (kappa * (-3.0 * phi * phi + two_one_alpha * phi - alpha))
        return (psi, -(c * g * psi + kappa * phi * (phi - alpha) * (1.0 - phi)) / m)

    return solve_ivp(rhs, (1.0 - SHOOT_EPS, -SHOOT_EPS * lam_plus), SHOOT_XI_MAX)


def dimensionless_problem(p: ModelParams, tol: float) -> tuple[ModelParams, float, float]:
    """The problem (tau*kappa, alpha) at mu = kappa = 1, its width for ``tol``, and sqrt(mu*kappa).

    With f = kappa*F, x = y*sqrt(mu/kappa) and t = s/kappa turn the one-field
    equation into (tau*kappa)*u_ss + (1 - tau*kappa*F'(u))*u_s - u_yy = F(u):
    p's front speeds are sqrt(mu*kappa) times those of the problem returned, so
    an error below tol / sqrt(mu*kappa) in its speeds is below ``tol`` in p's.
    Raises ``ValueError`` for a ``tol`` that is not positive and finite, a
    tau*kappa that ``ModelParams`` refuses or a sqrt(mu*kappa) out of range.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    scale = math.sqrt(p.mu * p.kappa)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"sqrt(mu*kappa) = sqrt({p.mu:g}*{p.kappa:g}) is out of range")
    try:
        return ModelParams(tau=p.tau * p.kappa, alpha=p.alpha), tol / scale, scale
    except ValueError as err:
        raise ValueError(f"tau*kappa = {p.tau:g}*{p.kappa:g} is out of range: {err}") from None


def hyperbolic_front_speed_shooting(p: ModelParams, tol: float = 1e-6,
                                    increasing: bool = False) -> float:
    """Front speed of the relaxation model by bisection on a shooting functional.

    The heteroclinic profile connecting 1 (at -infinity) to 0 (at +infinity)
    exists for a unique speed; the orbit classification of ``_classify_orbit``
    flips there.  The bisection runs on ``dimensionless_problem(p, tol)``, over
    its range (-0.99 rho, 0.99 rho), so ``tol`` bounds the error of the
    returned speed.  That speed follows the decreasing-front convention of the
    closed-form parabolic formula unless ``increasing``.

    Raises the ``ValueError`` of ``dimensionless_problem``, ``BracketError``
    when both bracket ends classify identically and ``IntegrationError`` when
    an orbit cannot be classified.
    """
    q, width, scale = dimensionless_problem(p, tol)
    lo, hi = -0.99 * q.rho, 0.99 * q.rho
    side_lo = _classify_orbit(lo, q)
    if _classify_orbit(hi, q) == side_lo:
        raise BracketError("shooting classification does not change across the bracket; "
                           "no heteroclinic speed inside it")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats: no finer speed exists
            break
        if _classify_orbit(mid, q) == side_lo:
            lo = mid
        else:
            hi = mid
    c = scale * (0.5 * (lo + hi))
    return -c if increasing else c
