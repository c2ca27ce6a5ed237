"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see all lines.  The
heavyweight table reproductions share session fixtures; the full module
stays within a laptop-scale time budget.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from hyperac.diagnostics import (
    front_position_and_monotonicity,
    l2_distance,
    linf_distance,
    relative_speed_error,
)
from hyperac.grid import Grid, build_graded_grid, build_uniform_grid, project_cell_averages
from hyperac.model import (
    ModelParams,
    from_diagonal,
    hyperbolic_front_speed_shooting,
    to_diagonal,
)
from hyperac.scenarios import (
    SPEED_TABLE_CASES,
    initial_riemann,
    run_order_comparison,
    run_random_study,
    run_riemann_decay,
    run_speed_table,
)
from hyperac.schemes import (
    SchemeConfig,
    State,
    minmod,
    monotonized_central,
    rhs_gk_pseudo_kinetic,
    rhs_kinetic_first_order,
    rhs_kinetic_first_order_uv,
)
from hyperac.timestepping import (
    ImexWorkspace,
    assemble_imex_matrix,
    explicit_step,
    gershgorin_margins,
    imex_step,
    imex_step_reduced_uniform,
    run,
)

EPS = np.finfo(float).eps


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------------ fixtures --


@pytest.fixture(scope="session")
def shooting_speeds():
    speeds = {}
    runtimes = {}
    for label, (tau, alpha, _T) in SPEED_TABLE_CASES.items():
        start = time.perf_counter()
        speeds[label] = hyperbolic_front_speed_shooting(
            ModelParams(tau=tau, alpha=alpha), tol=1e-6, increasing=True
        )
        runtimes[label] = time.perf_counter() - start
    return speeds, runtimes


@pytest.fixture(scope="session")
def table1_rows(shooting_speeds):
    start = time.perf_counter()
    rows = run_speed_table()
    runtime = time.perf_counter() - start
    # case C's fine-dt rows were published at t = 20 (see _TABLE1): read them
    # off the T = 35 runs' speed series, at the step that ends at t = 20
    early_c = []
    for r in rows:
        if (r["dt"], r["case"]) in _TABLE1_EARLY:
            speed = float(r["speeds"][round(20.0 / r["dt"]) - 1])
            early_c.append(
                dict(r, speed=speed, rel_error=relative_speed_error(speed, r["c_ref"]))
            )
    return rows, early_c, runtime


@pytest.fixture(scope="session")
def order1_rows():
    return run_order_comparison(order=1)


@pytest.fixture(scope="session")
def order2_rows():
    return run_order_comparison(order=2)


# ------------------------------------------------------------- criterion 1 --

# Published reference speeds, printed for comparison.  Case A's 0.5646 is an
# erratum: the front speed of this model at tau=1, alpha=0.9 is 0.562857 by
# both the shooting oracle and the independent BVP solve below, and the
# paper's own second-order table gives 0.5630 for the same pair (criterion 4).
_REFERENCE_SPEEDS = {"A": 0.5646, "B": 0.1737, "C": 0.3682}


def _bvp_front_speed(tau, alpha):
    """Increasing-front speed by collocation, sharing no code with shooting.

    Solves (mu - tau c^2) phi'' + c (1 - tau f'(phi)) phi' + f(phi) = 0 at the
    tables' mu = kappa = 1 with the speed c as unknown parameter,
    phi(0) = 1/2 and linearised decay towards 0 at -40 and towards 1 at +40
    (the speed is unchanged at +-80).  The two halves are folded onto s in
    [0, 40] so that the pin phi(0) = 1/2 is a boundary condition:
    y = (phi(s), phi'(s), phi(-s), phi'(-s)).
    """
    mu = kappa = 1.0

    def f(u):
        return kappa * u * (u - alpha) * (1.0 - u)

    def f_prime(u):
        return kappa * (-3.0 * u * u + 2.0 * (1.0 + alpha) * u - alpha)

    def accel(phi, psi, c):
        return -(c * (1.0 - tau * f_prime(phi)) * psi + f(phi)) / (mu - tau * c * c)

    def decay_rates(u_star, c):
        # roots of (mu - tau c^2) l^2 + c g(u*) l + f'(u*) = 0, negative first
        m, g = mu - tau * c * c, 1.0 - tau * f_prime(u_star)
        root = np.sqrt((c * g) ** 2 - 4.0 * m * f_prime(u_star))
        return (-c * g - root) / (2.0 * m), (-c * g + root) / (2.0 * m)

    def fun(_s, y, p):
        c = p[0]
        return np.vstack((y[1], accel(y[0], y[1], c), -y[3], -accel(y[2], y[3], c)))

    def bc(y0, y1, p):
        c = p[0]
        return np.array([
            y0[0] - 0.5,
            y0[2] - 0.5,
            y0[1] - y0[3],
            y1[1] - decay_rates(1.0, c)[0] * (y1[0] - 1.0),
            y1[3] - decay_rates(0.0, c)[1] * y1[2],
        ])

    s = np.linspace(0.0, 40.0, 401)
    k = np.sqrt(kappa / (8.0 * mu))
    slope = 0.5 * k / np.cosh(k * s) ** 2
    guess = np.vstack((0.5 + 0.5 * np.tanh(k * s), slope, 0.5 - 0.5 * np.tanh(k * s), slope))
    c_parabolic = np.sqrt(2.0 * mu * kappa) * (alpha - 0.5)
    sol = solve_bvp(fun, bc, s, guess, p=[c_parabolic], tol=1e-8, max_nodes=100000)
    assert sol.success, sol.message
    return float(sol.p[0])


@pytest.fixture(scope="session")
def bvp_speeds():
    return {
        label: _bvp_front_speed(tau, alpha)
        for label, (tau, alpha, _T) in SPEED_TABLE_CASES.items()
    }


@pytest.mark.parametrize("label", ["A", "B", "C"])
def test_criterion_1_shooting_oracle(shooting_speeds, bvp_speeds, label):
    speeds, runtimes = shooting_speeds
    diff = abs(speeds[label] - bvp_speeds[label])
    published = _REFERENCE_SPEEDS[label]
    ok = diff <= 1e-3 and runtimes[label] < 5.0
    _report(
        f"1 shooting case {label}",
        ok,
        f"shoot={speeds[label]:.6f} bvp={bvp_speeds[label]:.6f} |diff|={diff:.2e} "
        f"published={published} (differs by {abs(published - bvp_speeds[label]):.2e}) "
        f"runtime={runtimes[label]:.2f}s",
    )


# ------------------------------------------------------------- criterion 2 --

# Erratum: the published case-C rows at dt = 1e-2 and 1e-3 are the errors at
# t = 20, not at the stated T = 35.  Against the paper's reference speed
# 0.3682, a run to t = 20 matches all ten cells of those rows to <= 9e-5 for
# dx >= 0.125 and to <= 9.1e-4 at dx = 0.0625 (<= 3.3e-4 and 1.3e-3 against
# the shooting speed 0.368070 used here), while at T = 35 four cells miss by
# 0.0053 to 0.0108.  The dt = 0.1 row matches at T = 35 (<= 1.5e-3) and not at
# t = 20 (0.0493 against 0.0442 at dx = 0.0625).  The stated T = 35 is
# consistent with the fixed-resolution table: its 0.3533 (N = 400, dt = 0.01,
# T = 40) is met by this run at T = 35 to 1e-4, the speed moving by only
# 1e-4 between t = 35 and 40, whereas the T = 35 cell of this table implies
# 0.3514.  Those two rows are therefore compared at t = 20, every other cell
# at its stated T.
_TABLE1_EARLY = {(1e-2, "C"), (1e-3, "C")}

_TABLE1 = {
    # dt: {case: [errors for dx = 1, 1/2, 1/4, 1/8, 1/16]}
    1e-1: {
        "A": [0.1664, 0.0787, 0.0325, 0.0091, 0.0018],
        "B": [0.0383, 0.0306, 0.0241, 0.0198, 0.0175],
        "C": [0.1527, 0.1144, 0.0818, 0.0581, 0.0442],
    },
    1e-2: {
        "A": [0.1751, 0.0876, 0.0417, 0.0186, 0.0079],
        "B": [0.0275, 0.0196, 0.0128, 0.0084, 0.0061],
        "C": [0.1420, 0.1018, 0.0684, 0.0457, 0.0339],
    },
    1e-3: {
        "A": [0.1760, 0.0885, 0.0427, 0.0196, 0.0089],
        "B": [0.0265, 0.0184, 0.0117, 0.0072, 0.0049],
        "C": [0.1411, 0.1006, 0.0670, 0.0441, 0.0321],
    },
}

_DX_LIST = [1.0, 0.5, 0.25, 0.125, 0.0625]


def _table1_cell(rows, label, dt, dx):
    return next(
        r for r in rows if r["case"] == label and r["dt"] == dt and r["dx"] == dx
    )


def test_criterion_2_speed_error_table(table1_rows):
    rows, early_c, runtime = table1_rows
    worst = 0.0
    monotone = True
    offending = []
    for dt, cases in _TABLE1.items():
        for label, tabulated in cases.items():
            source = early_c if (dt, label) in _TABLE1_EARLY else rows
            errors = [
                _table1_cell(source, label, dt, dx)["rel_error"] for dx in _DX_LIST
            ]
            for dx, err, tab in zip(_DX_LIST, errors, tabulated):
                worst = max(worst, abs(err - tab))
                if abs(err - tab) > 0.005:
                    offending.append(f"{label}@(dt={dt:g},dx={dx:g}):{err - tab:+.4f}")
            if not all(b < a for a, b in zip(errors, errors[1:])):
                monotone = False
    # at the stated T = 35, case C agrees with the fixed-resolution table
    speed_c = _table1_cell(rows, "C", 1e-2, 0.125)["speed"]
    gap_c = abs(speed_c - _TABLE2_SPEEDS[(4.0, 0.7)])
    ok = worst <= 0.005 and monotone and gap_c <= 0.003 and runtime < 600.0
    _report(
        "2 speed-error table",
        ok,
        f"worst |error - tabulated| = {worst:.4f} (tol 0.005; C rows at dt<=1e-2 "
        f"taken at t=20), cells beyond tol: {offending or 'none'}, "
        f"rows monotone decreasing in dx: {monotone}, "
        f"C speed at T=35 (dt=0.01, dx=0.125) {speed_c:.4f} vs fixed-resolution "
        f"table {_TABLE2_SPEEDS[(4.0, 0.7)]} (|diff| {gap_c:.4f}, tol 0.003), "
        f"runtime {runtime:.0f}s",
    )


# ------------------------------------------------------------- criterion 3 --

_TABLE2_SPEEDS = {
    (1.0, 0.6): 0.1580, (1.0, 0.7): 0.3096, (1.0, 0.8): 0.4497, (1.0, 0.9): 0.5751,
    (4.0, 0.6): 0.2102, (4.0, 0.7): 0.3533, (4.0, 0.8): 0.4337, (4.0, 0.9): 0.4825,
}


def test_criterion_3_first_order_speeds(order1_rows):
    worst = max(
        abs(row["speed"] - _TABLE2_SPEEDS[(row["tau"], row["alpha"])])
        for row in order1_rows
    )
    ok = worst <= 0.003
    _report(
        "3 first-order speeds", ok, f"worst |speed - printed| = {worst:.4f} (tol 0.003)"
    )


# ------------------------------------------------------------- criterion 4 --

_TABLE3_SPEEDS = {
    (1.0, 0.6): 0.1560, (1.0, 0.7): 0.3052, (1.0, 0.8): 0.4421, (1.0, 0.9): 0.5630,
    (4.0, 0.6): 0.2184, (4.0, 0.7): 0.3672, (4.0, 0.8): 0.4485, (4.0, 0.9): 0.4885,
}


def test_criterion_4_second_order_speeds(order1_rows, order2_rows):
    worst = max(
        abs(row["speed"] - _TABLE3_SPEEDS[(row["tau"], row["alpha"])])
        for row in order2_rows
    )
    err1 = {(r["tau"], r["alpha"]): r["rel_error"] for r in order1_rows}
    err2 = {(r["tau"], r["alpha"]): r["rel_error"] for r in order2_rows}
    improved = all(
        err2[(1.0, alpha)] < err1[(1.0, alpha)] for alpha in (0.6, 0.7, 0.8, 0.9)
    )
    ok = worst <= 0.008 and improved
    _report(
        "4 second-order speeds",
        ok,
        f"worst |speed - printed| = {worst:.4f} (tol 0.008), "
        f"order-2 errors below order-1 for tau=1: {improved}",
    )


def test_order2_table_equals_benchmark_golden_file(order2_rows):
    """Speeds and shooting speeds of ``run_order_comparison(2)`` equal the
    ``order2-table`` entries of ``perfbench/golden.json`` exactly (the file is
    only read), so roundoff drift below the benchmark's 1e-9 check shows here."""
    golden_path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))["order2-table"]
    assert len(order2_rows) == 8
    for row in order2_rows:
        key = f"{row['tau']!r}|{row['alpha']!r}"
        assert row["speed"] == golden[f"run|{key}"]["speed"], key
        assert row["c_ref"] == golden[f"shoot|{key}"]["c_ref"], key


# ------------------------------------------------------------- criterion 5 --


def test_criterion_5_stationary_front_decay():
    out = run_riemann_decay(tau=4.0)
    hyper = out["hyperbolic"].diagnostics
    mask = hyper.times >= 2.0
    drops = np.diff(hyper.l2[mask])
    monotone = bool(np.all(drops <= 1e-12))
    final_linf = float(hyper.linf[-1])
    common = np.arange(2.0, 15.0001, 0.05)
    l2_h = np.interp(common, hyper.times, hyper.l2)
    l2_p = np.interp(common, out["parabolic"].diagnostics.times,
                     out["parabolic"].diagnostics.l2)
    parabolic_below = bool(np.all(l2_p < l2_h))
    ok = monotone and final_linf <= 0.05 and parabolic_below
    _report(
        "5 stationary-front decay",
        ok,
        f"L2 monotone for t>=2: {monotone}, final Linf={final_linf:.4f} (tol 0.05), "
        f"parabolic curve below hyperbolic: {parabolic_below}",
    )


# ------------------------------------------------------------- criterion 6 --


def test_criterion_6_random_data_front_formation():
    failures = []
    g_negative_tau10 = True
    for variant in ("decay", "overlapping"):
        for seed in (1, 2, 3):
            entries = run_random_study(variant=variant, seed=seed)
            for entry in entries:
                u = entry["result"].final_state.u
                bounded = (u.min() >= -0.05) and (u.max() <= 1.05)
                if entry["sign_changes"] != 1 or not bounded:
                    failures.append(
                        (variant, seed, entry["tau"], entry["sign_changes"],
                         float(u.min()), float(u.max()))
                    )
                if entry["tau"] == 10.0:
                    g_mins = [prof["g"].min() for prof in entry["profiles"].values()]
                    if not all(g < 0.0 for g in g_mins):
                        g_negative_tau10 = False
    ok = not failures and g_negative_tau10
    _report(
        "6 random-data fronts",
        ok,
        f"18 runs, failures={failures or 'none'}, "
        f"g<0 at snapshots for tau=10: {g_negative_tau10}",
    )


# ------------------------------------------------------------- criterion 7 --


def test_criterion_7_property_suites():
    checks = {}
    rng = np.random.Generator(np.random.PCG64(123))

    p = ModelParams(tau=2.7, mu=1.3, kappa=0.9, alpha=0.4)
    ok = True
    for _ in range(100):
        u, v = rng.uniform(-2, 2, 2)
        zm, zp = to_diagonal(u, v, p)
        u2, v2 = from_diagonal(zm, zp, p)
        ok &= abs(u2 - u) <= 4 * EPS * max(1, abs(u))
        ok &= abs(v2 - v) <= 4 * EPS * max(1, abs(v))
    checks["diagonal round-trip"] = ok

    grid = build_graded_grid(0.0, 2.0, 24, 1.07)
    cfg = SchemeConfig("kinetic_first_order")
    ok = True
    for seed in range(100):
        st_rng = np.random.Generator(np.random.PCG64(seed))
        st = State.diagonal(
            st_rng.uniform(-0.5, 1.5, 24), st_rng.uniform(-0.5, 1.5, 24), grid, p
        )
        dr, ds = rhs_kinetic_first_order(st, cfg)
        du, dv = rhs_kinetic_first_order_uv(st.to_physical(), cfg)
        scale_u = max(1.0, np.max(np.abs(du)))
        scale_v = max(1.0, np.max(np.abs(dv)))
        ok &= np.max(np.abs(du - (dr + ds))) <= 8 * EPS * scale_u
        ok &= np.max(np.abs(dv - p.rho * (ds - dr))) <= 8 * EPS * scale_v
    checks["scheme equivalence 8eps"] = ok

    ugrid = build_uniform_grid(0.0, 3.0, 24)
    peq = ModelParams(tau=1.5, alpha=0.35)
    ok = True
    for u_star in (0.0, peq.alpha, 1.0):
        u0 = np.full(24, u_star)
        st = State.physical(u0, np.zeros(24), ugrid, peq)
        for scheme, integrator in (
            (SchemeConfig("kinetic_first_order"), "imex"),
            (SchemeConfig("kinetic_first_order"), "euler"),
            (SchemeConfig("kinetic_second_order"), "heun"),
            (SchemeConfig("gk_pseudo_kinetic"), "euler"),
            (SchemeConfig("onefield_direct"), "heun"),
            (SchemeConfig("onefield_alternative"), "heun"),
            (SchemeConfig("parabolic_reference"), "heun"),
        ):
            out = run(st, scheme, integrator, T=0.02, dt=0.01)
            ok &= np.max(np.abs(out.final_state.u - u_star)) <= 1e-12
    checks["equilibria fixed 1e-12/step"] = ok

    ok = True
    for g, dt, boundary in (
        (ugrid, 0.05, "zero_gradient"),
        (grid, 0.4, "zero_gradient"),
        (ugrid, 0.01, "periodic"),
    ):
        margins = gershgorin_margins(assemble_imex_matrix(g, dt, p, boundary))
        ok &= margins.min() >= 1.0 - 1e-12
    checks["Gershgorin bound >= 1"] = ok

    ok = True
    ng = build_uniform_grid(0.0, 2.0, 20)
    ws = ImexWorkspace.build(ng, 0.04, p)
    for seed in range(50):
        st_rng = np.random.Generator(np.random.PCG64(700 + seed))
        st = State.diagonal(
            st_rng.uniform(-0.5, 1.5, 20), st_rng.uniform(-0.5, 1.5, 20), ng, p
        )
        a = imex_step(st, 0.04, ws)
        b = imex_step_reduced_uniform(st, 0.04, ws)
        ok &= np.max(np.abs(a.a - b.a)) <= 1e-10
        ok &= np.max(np.abs(a.b - b.b)) <= 1e-10
    checks["reduced path 1e-10"] = ok

    a = rng.uniform(-3, 3, 1000)
    b = rng.uniform(-3, 3, 1000)
    mm, mc = minmod(a, b), monotonized_central(a, b)
    opposite = a * b <= 0
    ok = bool(
        np.all(mm[opposite] == 0.0)
        and np.all(mc[opposite] == 0.0)
        and np.all(np.abs(mm) <= np.minimum(np.abs(a), np.abs(b)) + 1e-15)
        and np.all(np.abs(mc) <= 2 * np.minimum(np.abs(a), np.abs(b)) + 1e-15)
        and np.all(np.abs(mc) <= 0.5 * np.abs(a + b) + 1e-15)
    )
    checks["limiter bounds"] = ok

    pz = ModelParams(tau=1.2, mu=0.8, alpha=0.45, nu=0.0)
    st_rng = np.random.Generator(np.random.PCG64(9))
    st = State.physical(
        st_rng.uniform(-0.5, 1.5, 24), st_rng.uniform(-0.5, 1.5, 24), grid, pz
    )
    du_gk, dv_gk = rhs_gk_pseudo_kinetic(st, SchemeConfig("gk_pseudo_kinetic"))
    du_uv, dv_uv = rhs_kinetic_first_order_uv(st, SchemeConfig("kinetic_first_order"))
    checks["GK nu=0 bit-exact"] = bool(
        np.array_equal(du_gk, du_uv) and np.array_equal(dv_gk, dv_uv)
    )

    failed = [name for name, good in checks.items() if not good]
    _report("7 property suites", not failed, f"failed: {failed or 'none'}")


# ------------------------------------------------------------- criterion 8 --


def _convergence_order(cfg_kind, limiter, mesher, ref_grid, ref_state):
    p = ModelParams(tau=0.5, alpha=0.5)
    errors, widths = [], []
    for n in (32, 64, 128, 256):
        grid = mesher(n)
        sol = _smooth_run(grid, cfg_kind, limiter)
        uref = np.interp(grid.centers, ref_grid.centers, ref_state.u)
        errors.append(float(np.sum(grid.cell_lengths * np.abs(sol.u - uref))))
        widths.append(grid.dx_max)
    return float(np.polyfit(np.log(widths), np.log(errors), 1)[0])


def _smooth_run(grid, kind, limiter):
    p = ModelParams(tau=0.5, alpha=0.5)
    u0 = project_cell_averages(lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x), grid).values
    v0 = project_cell_averages(lambda x: 0.1 * np.cos(2 * np.pi * x), grid).values
    st = State.physical(u0, v0, grid, p)
    cfg = SchemeConfig(kind, limiter=limiter, boundary="periodic")
    dt = 0.35 * grid.dx_min / p.rho
    return run(st, cfg, "heun", T=1.0, dt=dt).final_state


def _perturbed_grid(n, seed):
    base = build_uniform_grid(0.0, 1.0, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    interfaces = base.interfaces.copy()
    interfaces[1:-1] += rng.uniform(-0.2, 0.2, n - 1) / n
    return Grid(interfaces)


def test_criterion_8_convergence_orders():
    ref_grid = build_uniform_grid(0.0, 1.0, 4096)
    uniform = lambda n: build_uniform_grid(0.0, 1.0, n)

    ref1 = _smooth_run(ref_grid, "kinetic_first_order", None)
    order1 = _convergence_order("kinetic_first_order", None, uniform, ref_grid, ref1)
    ref2 = _smooth_run(ref_grid, "kinetic_second_order", "minmod")
    order2 = _convergence_order("kinetic_second_order", "minmod", uniform, ref_grid, ref2)
    order_supra = _convergence_order(
        "kinetic_first_order", None, lambda n: _perturbed_grid(n, 1000 + n),
        ref_grid, ref1,
    )
    ok = order1 >= 0.8 and order2 >= 1.5 and order_supra >= 0.8
    _report(
        "8 convergence orders",
        ok,
        f"first-order {order1:.2f} (>=0.8), second-order minmod {order2:.2f} (>=1.5), "
        f"perturbed-mesh first-order {order_supra:.2f} (>=0.8)",
    )


# ------------------------------------------------------------- criterion 9 --


def test_criterion_9_onefield_formal_limit():
    from hyperac.timestepping import suggest_dt

    grid = build_uniform_grid(0.0, 50.0, 400)
    p = ModelParams(tau=1e-3, alpha=0.9, nu=1e-3)
    initial = initial_riemann(grid, p, jump_location=12.5)
    cfg_par = SchemeConfig("parabolic_reference")
    reference = run(
        initial, cfg_par, "heun", T=1.0, dt=suggest_dt(grid, p, cfg_par, 0.9)
    )
    gaps = {}
    for kind in ("onefield_direct", "onefield_alternative"):
        cfg = SchemeConfig(kind)
        out = run(initial, cfg, "heun", T=1.0, dt=suggest_dt(grid, p, cfg, 0.9))
        gaps[kind] = float(
            np.max(np.abs(out.final_state.u - reference.final_state.u))
        )
    ok = all(gap <= 0.05 for gap in gaps.values())
    _report(
        "9 one-field formal limit",
        ok,
        "Linf vs parabolic at T=1: "
        + ", ".join(f"{k}={v:.4f}" for k, v in gaps.items())
        + " (tol 0.05)",
    )
