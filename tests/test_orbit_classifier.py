"""The LSODA step loop that classifies shooting orbits, against two references.

``model._integrate_orbit`` steps LSODA through its extension's one-step call,
``scipy.integrate._odepack.lsoda``, as ``scipy.integrate.LSODA.step()`` does,
and tests the two terminal events after each step.  Two references are kept
in this file only: the same classification written with ``solve_ivp(...,
events=...)``, and the same loop written over the public ``LSODA.step()``.
All three take the same steps, so they must classify every orbit alike; the
second must also hand the right-hand side the same (xi, y) bits, call for call.
The loop's own dense output, ``model._dense_output``, is checked against
``LSODA.dense_output()`` step by step.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import LSODA, solve_ivp
from scipy.optimize import brentq

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


def _reference_step_loop(rhs, y0, xi_max):
    """The classification stepped with the public ``LSODA.step()``."""
    solver = LSODA(rhs, 0.0, y0, xi_max, rtol=1e-10, atol=1e-12)
    phi, psi = y0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise model.IntegrationError(f"phase-plane integration failed: {message}")
        if solver.t == solver.t_old:
            raise model.IntegrationError(f"phase-plane integration stalled at xi = {solver.t:g}")
        new_phi, new_psi = solver.y
        crossed_zero = phi >= 0.0 and new_phi <= 0.0
        turned_around = psi <= 0.0 and new_psi >= 0.0
        if crossed_zero and turned_around:
            dense, span = solver.dense_output(), (solver.t_old, solver.t)
            tol = model._ROOT_TOL
            xi_cross = brentq(lambda xi: dense(xi)[0], *span, xtol=tol, rtol=tol)
            xi_turn = brentq(lambda xi: dense(xi)[1], *span, xtol=tol, rtol=tol)
            return model._OVERSHOOT if xi_cross <= xi_turn else model._UNDERSHOOT
        if crossed_zero:
            return model._OVERSHOOT
        if turned_around:
            return model._UNDERSHOOT
        phi, psi = new_phi, new_psi
    if phi > 1e-2:
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
    assert _outcome(model._classify_orbit, c, p) == expected


def _recorded(integrate, rhs, y0, xi_max):
    """The outcome of ``integrate`` and the bits of every (xi, y) ``rhs`` got."""
    calls = []

    def recording(xi, y):
        calls.append((xi, *y))
        return rhs(xi, y)

    return _outcome(integrate, recording, y0, xi_max), np.array(calls).view(np.int64)


@settings(max_examples=30, deadline=None)
@given(
    tau=st.floats(0.5, 6.0),
    alpha=st.floats(0.5, 0.95, exclude_min=True, exclude_max=True),
    fraction=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
)
def test_step_loop_takes_the_public_lsoda_steps_bitwise(tau, alpha, fraction):
    """The one-step integrator call evaluates the right-hand side at the same
    (xi, y) bits as ``LSODA.step()``, call for call, and classifies alike; a
    scipy whose private ``_odepack.lsoda`` arguments or work arrays changed fails here."""
    p = ModelParams(tau=tau, alpha=alpha)
    captured = []
    with mock.patch.object(model, "solve_ivp", lambda *args: captured.append(args)):
        model._classify_orbit(fraction * p.rho, p)
    side, calls = _recorded(model._integrate_orbit, *captured[0])
    expected_side, expected_calls = _recorded(_reference_step_loop, *captured[0])
    assert side == expected_side
    assert np.array_equal(calls, expected_calls)


def test_dense_output_is_the_public_lsodas_bitwise():
    """After each public ``LSODA.step()`` on the (tau, alpha, c) = (4, 0.7, 0.3)
    orbit, ``_dense_output`` of the solver's work arrays equals
    ``solver.dense_output()`` bit for bit across the step, through five steps
    after which LSODA lowers its order (the branch that rescales the last
    Nordsieck column; the first comes at step 61)."""
    p = ModelParams(tau=4.0, alpha=0.7)
    captured = []
    with mock.patch.object(model, "solve_ivp", lambda *args: captured.append(args)):
        model._classify_orbit(0.3, p)
    rhs, y0, xi_max = captured[0]
    solver = LSODA(rhs, 0.0, y0, xi_max, rtol=1e-10, atol=1e-12)
    integrator = solver._lsoda_solver._integrator
    order_drops = 0
    while order_drops < 5:
        solver.step()
        assert solver.status == "running"
        rwork, iwork = integrator.rwork, integrator.iwork
        order_drops += int(iwork[14] < iwork[13])
        dense, expected = model._dense_output(rwork, iwork, solver.t), solver.dense_output()
        for xi in np.linspace(solver.t_old, solver.t, 5):
            assert np.array_equal(dense(xi).view(np.int64), expected(xi).view(np.int64)), xi


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
        model._classify_orbit(c, p)
    y = np.array([phi, psi])
    phi64, psi64 = y
    m = p.mu - p.tau * c * c
    g = 1.0 - p.tau * reaction_f_prime(phi64, p)
    want = np.array((psi64, -(c * g * psi64 + reaction_f(phi64, p)) / m))
    got = np.array(captured[0](0.0, y))
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
