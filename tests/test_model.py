import numpy as np
import pytest

from hyperac.model import (
    BracketError,
    FrontProfile,
    IntegrationError,
    ModelParams,
    exact_parabolic_front,
    exact_parabolic_front_derivative,
    from_diagonal,
    hyperbolic_front_speed_shooting,
    parabolic_front_speed,
    reaction_f,
    reaction_f_prime,
    stability_indicator_g,
    to_diagonal,
)

EPS = np.finfo(float).eps


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(tau=0.0)
    with pytest.raises(ValueError):
        ModelParams(tau=1.0, mu=-1.0)
    with pytest.raises(ValueError):
        ModelParams(tau=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ModelParams(tau=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        ModelParams(tau=1.0, nu=-0.1)


@pytest.mark.parametrize("nu", [float("nan"), float("inf")])
def test_params_reject_non_finite_nu(nu):
    with pytest.raises(ValueError, match="nu must be non-negative and finite"):
        ModelParams(tau=1.0, nu=nu)


def test_rho_consistency():
    p = ModelParams(tau=4.0, mu=9.0)
    assert p.rho**2 * p.tau == pytest.approx(p.mu, rel=1e-15)


def test_reaction_zeros():
    p = ModelParams(tau=1.0, alpha=0.3, kappa=2.0)
    assert reaction_f(0.0, p) == 0.0
    assert reaction_f(p.alpha, p) == 0.0
    assert reaction_f(1.0, p) == 0.0


def test_reaction_values():
    p = ModelParams(tau=1.0, kappa=1.0, alpha=0.9)
    assert reaction_f(0.5, p) == pytest.approx(-0.1, abs=1e-15)
    p = ModelParams(tau=1.0, kappa=1.0, alpha=0.5)
    assert reaction_f(2.0, p) == pytest.approx(-3.0, abs=1e-14)


def test_reaction_derivative_at_zeros():
    p = ModelParams(tau=1.0, kappa=1.7, alpha=0.4)
    assert reaction_f_prime(0.0, p) == pytest.approx(-p.kappa * p.alpha, rel=1e-14)
    assert reaction_f_prime(1.0, p) == pytest.approx(-p.kappa * (1 - p.alpha), rel=1e-14)
    assert reaction_f_prime(p.alpha, p) == pytest.approx(
        p.kappa * p.alpha * (1 - p.alpha), rel=1e-13
    )
    assert reaction_f_prime(p.alpha, p) > 0.0


def test_reaction_derivative_matches_finite_differences():
    p = ModelParams(tau=1.0, kappa=1.4, alpha=0.35)
    rng = np.random.Generator(np.random.PCG64(7))
    h = 1e-5
    for u in rng.uniform(-1.0, 2.0, 50):
        fd = (reaction_f(u + h, p) - reaction_f(u - h, p)) / (2 * h)
        exact = reaction_f_prime(u, p)
        assert abs(fd - exact) <= 1e-6 * max(1e-4, abs(exact))


def test_stability_indicator():
    # tau -> 0 brings g to 1
    p = ModelParams(tau=1e-12, kappa=1.0, alpha=0.5)
    assert stability_indicator_g(0.37, p) == pytest.approx(1.0, abs=1e-11)
    p = ModelParams(tau=1.0, kappa=1.0, alpha=0.5)
    assert stability_indicator_g(0.0, p) == pytest.approx(1.5, rel=1e-14)
    # g(alpha) goes negative once tau exceeds 1/f'(alpha)
    p_large = ModelParams(tau=10.0, kappa=1.0, alpha=0.5)
    assert stability_indicator_g(0.5, p_large) < 0.0


def test_diagonal_transform_examples():
    p = ModelParams(tau=1.0, mu=1.0)
    assert to_diagonal(1.0, 0.0, p) == pytest.approx((0.5, 0.5))
    zm, zp = to_diagonal(0.0, p.rho, p)
    assert (zm, zp) == pytest.approx((-0.5, 0.5))
    p = ModelParams(tau=4.0, mu=1.0)
    assert to_diagonal(0.4, 0.0, p) == pytest.approx((0.2, 0.2))
    assert from_diagonal(0.5, 0.5, ModelParams(tau=1.0)) == pytest.approx((1.0, 0.0))
    assert from_diagonal(0.0, 0.0, ModelParams(tau=1.0)) == (0.0, 0.0)


def test_diagonal_round_trip():
    p = ModelParams(tau=3.0, mu=0.7)
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(100):
        u, v = rng.uniform(-2.0, 2.0, 2)
        zm, zp = to_diagonal(u, v, p)
        u2, v2 = from_diagonal(zm, zp, p)
        assert abs(u2 - u) <= 4 * EPS * max(1.0, abs(u))
        assert abs(v2 - v) <= 4 * EPS * max(1.0, abs(v))


def test_front_normalization_and_limits():
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.3)
    assert exact_parabolic_front(2.0, 2.0, p) == pytest.approx(0.5)
    assert exact_parabolic_front(1e4, 0.0, p) == pytest.approx(0.0, abs=1e-12)
    assert exact_parabolic_front(-1e4, 0.0, p) == pytest.approx(1.0, abs=1e-12)
    inc = exact_parabolic_front(1e4, 0.0, p, increasing=True)
    assert inc == pytest.approx(1.0, abs=1e-12)


def test_front_closed_form_value():
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0)
    value = exact_parabolic_front(np.sqrt(8.0), 0.0, p)
    assert value == pytest.approx(0.11920292202211755, abs=1e-12)


def test_front_satisfies_traveling_wave_ode():
    # mu phi'' + c phi' + f(phi) = 0 with analytic derivatives
    p = ModelParams(tau=1.0, mu=0.5, kappa=2.0, alpha=0.3)
    c = parabolic_front_speed(p)
    k = np.sqrt(p.kappa / (2.0 * p.mu))
    xi = np.linspace(-8.0, 8.0, 321)
    phi = exact_parabolic_front(xi, 0.0, p)
    dphi = -k * phi * (1.0 - phi)
    d2phi = k * k * phi * (1.0 - phi) * (1.0 - 2.0 * phi)
    residual = p.mu * d2phi + c * dphi + reaction_f(phi, p)
    assert np.max(np.abs(residual)) <= 1e-8


def test_front_derivative_matches_finite_difference():
    p = ModelParams(tau=1.0, mu=2.0, kappa=0.7)
    h = 1e-6
    for xi in (-1.3, 0.0, 2.4):
        for increasing in (False, True):
            fd = (
                exact_parabolic_front(xi + h, 0.3, p, increasing)
                - exact_parabolic_front(xi - h, 0.3, p, increasing)
            ) / (2 * h)
            exact = exact_parabolic_front_derivative(xi, 0.3, p, increasing)
            assert fd == pytest.approx(exact, rel=1e-8, abs=1e-12)


def test_parabolic_speed_examples():
    assert parabolic_front_speed(ModelParams(tau=1.0, alpha=0.5)) == 0.0
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=1e-9)
    assert parabolic_front_speed(p) == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-6)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.9)
    assert parabolic_front_speed(p) == pytest.approx(-0.5656854249, rel=1e-9)
    assert parabolic_front_speed(p, increasing=True) == pytest.approx(
        0.5656854249, rel=1e-9
    )


def test_front_profile_wrapper():
    p = ModelParams(tau=4.0, alpha=0.5)
    front = FrontProfile(p, shift=1.5, increasing=True)
    assert front(1.5) == pytest.approx(0.5)
    assert front.speed == 0.0
    x = np.linspace(-3, 3, 7)
    assert np.all(np.diff(front(x)) > 0)


def test_shooting_symmetric_front_is_stationary():
    p = ModelParams(tau=4.0, alpha=0.5)
    c = hyperbolic_front_speed_shooting(p, tol=1e-6)
    assert abs(c) <= 2e-6


@pytest.mark.parametrize(
    "tau,alpha,reported",
    [(1.0, 0.9, 0.5646), (2.0, 0.6, 0.1737), (4.0, 0.7, 0.3682)],
)
def test_shooting_reference_speeds(tau, alpha, reported):
    """Speeds for the three tabulated parameter pairs at mu = kappa = 1.

    The values pinned here are this implementation's converged speeds,
    cross-validated by the independent boundary-value solve of acceptance
    criterion 1 (cases B, C agree with the published 4-digit values to
    ~3e-4; case A's published 0.5646 deviates from the model's speed by
    ~1.7e-3, an erratum documented there).
    """
    pinned = {(1.0, 0.9): 0.562857, (2.0, 0.6): 0.173393, (4.0, 0.7): 0.368070}
    p = ModelParams(tau=tau, alpha=alpha)
    c = hyperbolic_front_speed_shooting(p, tol=1e-6, increasing=True)
    assert c == pytest.approx(pinned[(tau, alpha)], abs=5e-6)
    assert abs(c) == pytest.approx(reported, abs=2e-3)


def test_shooting_orientation_flag():
    p = ModelParams(tau=2.0, alpha=0.6)
    dec = hyperbolic_front_speed_shooting(p)
    inc = hyperbolic_front_speed_shooting(p, increasing=True)
    assert inc == pytest.approx(-dec, abs=1e-12)
    # decreasing orientation matches the parabolic formula's sign
    assert np.sign(dec) == np.sign(parabolic_front_speed(p))


def test_shooting_small_tau_matches_parabolic():
    p = ModelParams(tau=1e-3, alpha=0.3)
    c = hyperbolic_front_speed_shooting(p)
    assert abs(c - parabolic_front_speed(p)) <= 1e-2


def test_shooting_odd_in_alpha():
    tol = 1e-6
    c1 = hyperbolic_front_speed_shooting(ModelParams(tau=2.0, alpha=0.7), tol=tol)
    c2 = hyperbolic_front_speed_shooting(ModelParams(tau=2.0, alpha=0.3), tol=tol)
    assert abs(c1 + c2) <= 2 * tol


def test_shooting_bracket_failure():
    p = ModelParams(tau=1.0, alpha=0.9)
    # the connection sits near -0.563 in decreasing orientation; a bracket of
    # positive speeds classifies identically at both ends
    with pytest.raises(BracketError):
        hyperbolic_front_speed_shooting(p, bracket=(0.3, 0.6))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"eps": 0.0},
        {"eps": -1e-6},
        {"eps": 1.0},
        {"eps": float("nan")},
        {"xi_max": 0.0},
        {"xi_max": float("inf")},
        {"xi_max": float("nan")},
    ],
)
def test_shooting_rejects_invalid_inputs(kwargs):
    """A tol or xi_max that is not positive and finite, or an eps outside
    (0, 1), is refused rather than answered with a speed or a long run."""
    with pytest.raises(ValueError):
        hyperbolic_front_speed_shooting(ModelParams(tau=1.0, alpha=0.7), **kwargs)


def test_shooting_tolerance_below_float_spacing_ends():
    """Bisection ends at adjacent floats even when tol is below their spacing."""
    p = ModelParams(tau=1.0, alpha=0.7)
    c = hyperbolic_front_speed_shooting(p, tol=1e-300)
    assert abs(c - hyperbolic_front_speed_shooting(p)) <= 1e-6


def test_shooting_lsoda_failure_is_an_integration_error():
    """At tau = 1e-250 LSODA's steps at the bracket end fail with repeated
    convergence failures; the oracle raises ``IntegrationError`` naming them,
    and scipy's ``UserWarning`` (an error under this suite's filter) is silenced."""
    with pytest.raises(IntegrationError, match="Repeated convergence failures"):
        hyperbolic_front_speed_shooting(ModelParams(tau=1e-250, alpha=0.7))
