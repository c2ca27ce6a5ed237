"""The LSODA step loop that classifies shooting orbits, against ``solve_ivp``.

``model._integrate_orbit`` steps ``scipy.integrate.LSODA`` itself and tests
the two terminal events after each step.  The reference here is the same
classification written with ``solve_ivp(..., events=...)``, kept in this file
only: both take the same steps, so they must classify every orbit alike.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hyperac import model
from hyperac.model import ModelParams, ShootingError, reaction_f, reaction_f_prime


def _reference_integrate(rhs, y0, xi_max):
    def crossed_zero(_xi, y):
        return y[0]

    crossed_zero.terminal = True
    crossed_zero.direction = -1.0

    def turned_around(_xi, y):
        return y[1]

    turned_around.terminal = True
    turned_around.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, xi_max),
        y0,
        events=(crossed_zero, turned_around),
        method="LSODA",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise model.IntegrationError(f"phase-plane integration failed: {sol.message}")
    if sol.t_events[0].size:
        return model._OVERSHOOT
    if sol.t_events[1].size:
        return model._UNDERSHOOT
    if sol.y[0, -1] > 1e-2:
        return model._UNDERSHOOT
    raise model.IntegrationError(
        "orbit neither overshot nor turned around within the integration window"
    )


def _reference_classify(c, p, eps=1e-6, xi_max=5000.0):
    m = p.mu - p.tau * c * c
    if m <= 0.0:
        raise model.BracketError("speed outside the sub-characteristic range |c| < rho")
    fp1 = reaction_f_prime(1.0, p)
    b = c * (1.0 - p.tau * fp1) / m
    lam_plus = 0.5 * (-b + math.sqrt(b * b - 4.0 * fp1 / m))

    def rhs(_xi, y):
        phi, psi = y
        g = 1.0 - p.tau * reaction_f_prime(phi, p)
        return (psi, -(c * g * psi + reaction_f(phi, p)) / m)

    return _reference_integrate(rhs, (1.0 - eps, -eps * lam_plus), xi_max)


def _outcome(classify, *args):
    """A classification, or the class of the shooting or value error raised."""
    try:
        return classify(*args)
    except (ShootingError, ValueError) as err:
        return type(err)


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(0.5, 6.0),
    alpha=st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
    fraction=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
)
def test_step_loop_classifies_like_solve_ivp(tau, alpha, fraction):
    p = ModelParams(tau=tau, alpha=alpha)
    c = fraction * p.rho
    expected = _outcome(_reference_classify, c, p)
    assert _outcome(model._classify_orbit, c, p, 1e-6, 5000.0) == expected


@pytest.mark.parametrize("y0", [(1.0, -1.0), (1.0, -1.01), (1.01, -1.0)])
def test_both_events_in_one_step(monkeypatch, y0):
    """phi = y0[0] - xi and psi = y0[1] + xi both reach 0 near xi = 1; LSODA
    integrates the line exactly and steps across both roots at once, so the
    earlier root decides (phi's root on a tie), as in ``solve_ivp``."""
    roots = []
    brentq = model.brentq

    def recording_brentq(*args, **kwargs):
        roots.append(brentq(*args, **kwargs))
        return roots[-1]

    def rhs(_xi, _y):
        return (-1.0, 1.0)

    monkeypatch.setattr(model, "brentq", recording_brentq)
    side = model._integrate_orbit(rhs, y0, 50.0)
    monkeypatch.undo()
    assert len(roots) == 2
    assert side == _reference_integrate(rhs, y0, 50.0)
    assert side == (model._OVERSHOOT if y0[0] <= -y0[1] else model._UNDERSHOOT)


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(-2.0, 2.0),
    psi=st.floats(-2.0, 2.0),
    fraction=st.floats(-0.99, 0.99),
    tau=st.floats(0.1, 10.0),
    mu=st.floats(0.2, 5.0),
    kappa=st.floats(0.2, 5.0),
    alpha=st.floats(0.01, 0.99),
)
def test_orbit_rhs_is_the_phase_plane_system_bitwise(phi, psi, fraction, tau, mu, kappa, alpha):
    """The closure ``_classify_orbit`` integrates returns the bits of
    (psi, -(c g(phi) psi + f(phi)) / m), g = 1 - tau f'(phi), evaluated with
    ``reaction_f`` and ``reaction_f_prime`` on the float64 entries of y."""
    p = ModelParams(tau=tau, mu=mu, kappa=kappa, alpha=alpha)
    c = fraction * p.rho
    captured = []

    def capture(rhs, y0, xi_max):
        captured.append(rhs)
        return model._OVERSHOOT

    with mock.patch.object(model, "solve_ivp", capture):
        model._classify_orbit(c, p, 1e-6, 5000.0)
    y = np.array([phi, psi])
    phi64, psi64 = y
    m = p.mu - p.tau * c * c
    g = 1.0 - p.tau * reaction_f_prime(phi64, p)
    want = np.array((psi64, -(c * g * psi64 + reaction_f(phi64, p)) / m))
    got = np.array(captured[0](0.0, y))
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
