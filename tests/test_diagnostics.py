import csv

import numpy as np
import pytest
from scipy.integrate import quad

from hyperac.diagnostics import (
    DiagnosticsRecord,
    detect_stabilization,
    front_position_and_monotonicity,
    g_profile,
    l2_distance,
    linf_distance,
    mass,
    relative_speed_error,
    speeds_from_masses,
)
from hyperac.grid import build_graded_grid, build_uniform_grid, project_cell_averages
from hyperac.model import FrontProfile, ModelParams


def _average_speed(u_n, u_np1, grid, dt):
    """Average speed between two solutions, as a run computes it."""
    return float(speeds_from_masses([mass(u_n, grid), mass(u_np1, grid)], dt)[0])


def test_average_speed_stationary():
    grid = build_uniform_grid(0.0, 1.0, 8)
    u = np.linspace(0, 1, 8)
    assert _average_speed(u, u, grid, 0.1) == 0.0


def test_average_speed_one_cell_shift():
    # an increasing front shifted right by one cell telescopes to dx/dt
    grid = build_uniform_grid(0.0, 10.0, 20)
    values = 1.0 / (1.0 + np.exp(-(grid.centers - 5.0)))
    values[0], values[-1] = 0.0, 1.0
    shifted = np.concatenate(([values[0]], values[:-1]))
    dt = 0.25
    dx = grid.cell_lengths[0]
    c = _average_speed(values, shifted, grid, dt)
    assert c == pytest.approx(dx / dt, rel=1e-13)
    # shift left gives the opposite sign
    shifted_left = np.concatenate((values[1:], [values[-1]]))
    c_left = _average_speed(values, shifted_left, grid, dt)
    assert c_left == pytest.approx(-dx / dt, rel=1e-13)


def test_relative_speed_error():
    assert relative_speed_error(0.42, 0.42) == 0.0
    assert relative_speed_error(0.5751, 0.5646) == pytest.approx(0.0186, abs=5e-5)
    c_ref = 0.1580 / 1.0101
    assert relative_speed_error(0.1580, c_ref) == pytest.approx(0.0101, abs=1e-6)
    with pytest.raises(ZeroDivisionError):
        relative_speed_error(0.1, 0.0)


def test_l2_distance_trivial_cases():
    grid = build_graded_grid(0.0, 1.0, 6, 1.2)
    ref = lambda x: np.sin(x)
    u = project_cell_averages(ref, grid)
    assert l2_distance(u, project_cell_averages(ref, grid), grid) == 0.0
    bumped = u.copy()
    bumped[2] += 0.3
    dist = l2_distance(bumped, project_cell_averages(ref, grid), grid)
    assert dist == pytest.approx(np.sqrt(grid.cell_lengths[2]) * 0.3, rel=1e-12)


def test_l2_distance_riemann_datum_quadrature_oracle():
    """t = 0 distance of the step datum to the exact front, against per-cell
    quadrature of the continuous integrand."""
    p = ModelParams(tau=4.0, alpha=0.5)
    front = FrontProfile(p, shift=0.0, increasing=True)
    grid = build_uniform_grid(-25.0, 25.0, 400)
    step = np.clip((grid.interfaces[1:] - 0.0) / grid.cell_lengths, 0.0, 1.0)
    measured = l2_distance(step, project_cell_averages(front, grid), grid)
    total = 0.0
    for i in range(grid.n_cells):
        a, b = grid.interfaces[i], grid.interfaces[i + 1]
        dx = b - a
        chi = 0.0 if b <= 0 else 1.0  # jump sits on an interface
        ref_avg = quad(front, a, b, epsabs=1e-12)[0] / dx
        total += dx * (chi - ref_avg) ** 2
    assert measured == pytest.approx(np.sqrt(total), rel=1e-7)


def test_l2_triangle_inequality_random():
    grid = build_uniform_grid(0.0, 1.0, 16)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        a, b, c = (rng.uniform(-1, 1, 16) for _ in range(3))
        ab = l2_distance(a, b, grid)
        bc = l2_distance(b, c, grid)
        ac = l2_distance(a, c, grid)
        assert ac <= ab + bc + 1e-12


def test_linf_distance():
    u = np.zeros(5)
    assert linf_distance(u, np.zeros(5)) == 0.0
    bump = np.zeros(5)
    bump[3] = -0.7
    assert linf_distance(u, bump) == pytest.approx(0.7)


def test_linf_l2_norm_inequality():
    grid = build_graded_grid(0.0, 2.0, 12, 0.85)
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(50):
        a = rng.uniform(-1, 1, 12)
        b = rng.uniform(-1, 1, 12)
        assert linf_distance(a, b) <= l2_distance(a, b, grid) / np.sqrt(grid.dx_min) + 1e-12


def test_g_profile_values():
    p = ModelParams(tau=2.0, kappa=1.5, alpha=0.3)
    g = g_profile(np.zeros(4), p)
    assert np.allclose(g, 1.0 + p.tau * p.kappa * p.alpha)
    assert g.min() > 1.0
    p_big = ModelParams(tau=10.0, kappa=1.0, alpha=0.5)
    g_alpha = g_profile(np.full(4, 0.5), p_big)
    assert np.all(g_alpha < 0.0)


def test_g_profile_front_like_negative_minimum():
    p = ModelParams(tau=10.0, kappa=1.0, alpha=0.5)
    grid = build_uniform_grid(-10.0, 10.0, 100)
    front = FrontProfile(p, increasing=True)
    g = g_profile(front(grid.centers), p)
    assert g.min() < 0.0
    # far field is firmly stable
    assert g[0] > 1.0 and g[-1] > 1.0


def test_detect_stabilization():
    times = np.linspace(0.1, 10.0, 100)
    constant = np.full(100, 0.3)
    assert detect_stabilization(times, constant, window=10, tol=1e-3) == pytest.approx(
        times[9]
    )
    growing = np.linspace(0.0, 10.0, 100)  # increments ~0.1 > tol
    assert detect_stabilization(times, growing, window=10, tol=1e-3) is None
    with pytest.raises(ValueError):
        detect_stabilization(times, constant, window=1)
    assert detect_stabilization(times[:5], constant[:5], window=10) is None


def test_front_position_single_crossing():
    p = ModelParams(tau=1.0, alpha=0.5)
    grid = build_uniform_grid(-10.0, 10.0, 200)
    front = FrontProfile(p, shift=1.25, increasing=True)
    u = project_cell_averages(front, grid)
    crossing, changes = front_position_and_monotonicity(u, grid, p.alpha)
    assert changes == 1
    assert crossing == pytest.approx(1.25, abs=grid.dx_max)


def test_front_position_no_crossing_and_noise():
    grid = build_uniform_grid(0.0, 1.0, 50)
    crossing, changes = front_position_and_monotonicity(np.full(50, 0.2), grid, 0.5)
    assert crossing is None and changes == 0
    rng = np.random.Generator(np.random.PCG64(3))
    _, changes = front_position_and_monotonicity(rng.uniform(0.0, 1.0, 50), grid, 0.5)
    assert changes > 1


@pytest.mark.parametrize(
    "u, crossing, changes",
    [
        ([0.1, 0.2, 0.5, 0.8, 0.9, 1.0], 2.5, 1),  # only a cell at alpha: its centre
        ([0.25, 0.75, 0.6, 0.5, 0.7, 0.9], 1.0, 1),  # an interpolated crossing left of it wins
        ([0.5, 0.2, 0.8, 0.9, 1.0, 1.0], 0.5, 1),  # a cell at alpha left of the crossing wins
        ([0.8, 0.5, 0.5, 0.8, 0.9, 1.0], 1.5, 0),  # touching alpha is no sign change
    ],
)
def test_front_position_with_cells_exactly_at_alpha(u, crossing, changes):
    """Cells exactly at alpha give the first one's centre unless an interpolated
    crossing lies to its left, and are skipped in the crossing count."""
    grid = build_uniform_grid(0.0, 6.0, 6)  # centres 0.5, 1.5, ..., 5.5
    assert front_position_and_monotonicity(np.array(u), grid, 0.5) == (crossing, changes)


def test_diagnostics_record_csv(tmp_path):
    record = DiagnosticsRecord(
        times=np.array([0.1, 0.2]),
        speeds=np.array([1.0, 2.0]),
        l2=np.array([0.5, 0.4]),
        linf=np.array([0.2, 0.1]),
        g_min=np.array([0.9, 0.8]),
    )
    path = tmp_path / "diag.csv"
    record.to_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["t"] for r in rows] == ["0.10000000000000001", "0.20000000000000001"]
    assert float(rows[1]["c_n"]) == 2.0
