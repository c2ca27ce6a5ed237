import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperac.grid import Grid, build_graded_grid, build_uniform_grid
from hyperac.model import ModelParams, from_diagonal, reaction_f
from hyperac import schemes
from hyperac.schemes import (
    SCHEMES,
    SchemeConfig,
    State,
    minmod,
    monotonized_central,
    prepare_state_for_scheme,
    rhs_gk_pseudo_kinetic,
    rhs_kinetic_first_order,
    rhs_kinetic_first_order_uv,
    rhs_kinetic_second_order,
    rhs_onefield_alternative,
    rhs_for_scheme,
    rhs_onefield_direct,
    rhs_parabolic_reference,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------- oracles --
# brute-force stencil evaluations, loops and explicit ghost handling only


def _ghost(values, i, boundary):
    n = len(values)
    if 0 <= i < n:
        return values[i]
    if boundary == "periodic":
        return values[i % n]
    return values[0] if i < 0 else values[n - 1]


def oracle_first_order(r, s, grid, p, boundary):
    f = lambda u: p.kappa * u * (u - p.alpha) * (1 - u)
    dr, ds = [], []
    for i in range(grid.n_cells):
        dxi = grid.cell_lengths[i]
        u = r[i] + s[i]
        relax = (s[i] - r[i]) / (2 * p.tau)
        dr.append(p.rho * (_ghost(r, i + 1, boundary) - r[i]) / dxi + 0.5 * f(u) + relax)
        ds.append(-p.rho * (s[i] - _ghost(s, i - 1, boundary)) / dxi + 0.5 * f(u) - relax)
    return np.array(dr), np.array(ds)


def _oracle_slopes(values, centers, boundary, limiter="minmod"):
    n = len(values)
    slopes = np.zeros(n)
    lmtr = {"minmod": minmod, "mc": monotonized_central}[limiter]
    for i in range(1, n - 1):
        fwd = (values[i + 1] - values[i]) / (centers[i + 1] - centers[i])
        bwd = (values[i] - values[i - 1]) / (centers[i] - centers[i - 1])
        slopes[i] = lmtr(fwd, bwd)
    # boundary cells keep slope zero for either closure, as in the library
    return slopes


def oracle_second_order(r, s, grid, p, boundary, limiter="minmod"):
    f = lambda u: p.kappa * u * (u - p.alpha) * (1 - u)
    n = grid.n_cells
    x = grid.centers
    dx = grid.cell_lengths
    sl_r = _oracle_slopes(r, x, boundary, limiter)
    sl_s = _oracle_slopes(s, x, boundary, limiter)
    r_minus = [r[i] - 0.5 * dx[i] * sl_r[i] for i in range(n)]
    s_plus = [s[i] + 0.5 * dx[i] * sl_s[i] for i in range(n)]
    dr, ds = [], []
    for i in range(n):
        u = r[i] + s[i]
        relax = (s[i] - r[i]) / (2 * p.tau)
        if i + 1 < n:
            rm_next = r_minus[i + 1]
        elif boundary == "periodic":
            rm_next = r_minus[0]
        else:
            rm_next = r[n - 1]  # ghost cell: copied value, zero slope
        if i - 1 >= 0:
            sp_prev = s_plus[i - 1]
        elif boundary == "periodic":
            sp_prev = s_plus[n - 1]
        else:
            sp_prev = s[0]
        dr.append(p.rho * (rm_next - r_minus[i]) / dx[i] + 0.5 * f(u) + relax)
        ds.append(-p.rho * (s_plus[i] - sp_prev) / dx[i] + 0.5 * f(u) - relax)
    return np.array(dr), np.array(ds)


def oracle_physical(u, v, grid, p, boundary, nu):
    f = lambda q: p.kappa * q * (q - p.alpha) * (1 - q)
    du, dv = [], []
    for i in range(grid.n_cells):
        dxi = grid.cell_lengths[i]
        up1, um1 = _ghost(u, i + 1, boundary), _ghost(u, i - 1, boundary)
        vp1, vm1 = _ghost(v, i + 1, boundary), _ghost(v, i - 1, boundary)
        du.append(
            -(vp1 - vm1) / (2 * dxi)
            + f(u[i])
            + 0.5 * p.rho * dxi * (up1 - 2 * u[i] + um1) / dxi**2
        )
        dv.append(
            -p.rho**2 * (up1 - um1) / (2 * dxi)
            - v[i] / p.tau
            + (nu + 0.5 * p.rho * dxi) * (vp1 - 2 * v[i] + vm1) / dxi**2
        )
    return np.array(du), np.array(dv)


def oracle_onefield_direct(u, w, dx, p, boundary):
    # uniform grid: plain second differences over dx^2
    f = lambda q: p.kappa * q * (q - p.alpha) * (1 - q)
    fp = lambda q: p.kappa * (-3 * q * q + 2 * (1 + p.alpha) * q - p.alpha)
    fu = [f(q) for q in u]
    n = len(u)
    du, dw = [], []
    for i in range(n):
        lap_u = (_ghost(u, i + 1, boundary) - 2 * u[i] + _ghost(u, i - 1, boundary)) / dx**2
        lap_w = (_ghost(w, i + 1, boundary) - 2 * w[i] + _ghost(w, i - 1, boundary)) / dx**2
        lap_f = (_ghost(fu, i + 1, boundary) - 2 * fu[i] + _ghost(fu, i - 1, boundary)) / dx**2
        du.append(w[i])
        dw.append(
            (f(u[i]) - (1 - p.tau * fp(u[i])) * w[i] + p.mu * lap_u
             - p.nu * lap_w + p.nu * lap_f) / p.tau
        )
    return np.array(du), np.array(dw)


def oracle_onefield_alternative(u, w, dx, p, boundary):
    f = lambda q: p.kappa * q * (q - p.alpha) * (1 - q)
    fu = [f(q) for q in u]
    n = len(u)
    du, dw = [], []
    for i in range(n):
        lap_u = (_ghost(u, i + 1, boundary) - 2 * u[i] + _ghost(u, i - 1, boundary)) / dx**2
        lap_f = (_ghost(fu, i + 1, boundary) - 2 * fu[i] + _ghost(fu, i - 1, boundary)) / dx**2
        du.append((w[i] - u[i] + p.tau * fu[i] + p.nu * lap_u) / p.tau)
        dw.append(fu[i] + p.mu * lap_u - p.nu * lap_f)
    return np.array(du), np.array(dw)


def _random_state(grid, p, kind, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.uniform(-0.5, 1.5, grid.n_cells)
    b = rng.uniform(-0.5, 1.5, grid.n_cells)
    return State(kind, a, b, grid, p)


# ------------------------------------------------------------------ states --


def test_state_representation_guards():
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0)
    st = State.diagonal(np.zeros(4), np.ones(4), grid, p)
    assert np.allclose(st.u, 1.0)
    with pytest.raises(ValueError):
        State.physical(np.zeros(3), np.zeros(3), grid, p)
    onefield = State.one_field(np.zeros(4), np.zeros(4), grid, p)
    with pytest.raises(ValueError):
        onefield.to_physical()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda z, g, p: State("kinetic", z, z, g, p), "unknown representation 'kinetic'"),
        (lambda z, g, p: State.stack([State.diagonal(z, z, g, p), State.physical(z, z, g, p)]),
         "ensemble members must share one representation"),
        (lambda z, g, p: State.diagonal(z, z, g, p).with_components(z[:3], z),
         "state components must hold one value per cell and member"),
    ],
    ids=["representation", "mixed-stack", "component-shape"],
)
def test_state_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(np.zeros(4), build_uniform_grid(0.0, 1.0, 4), ModelParams(tau=1.0))


@pytest.mark.parametrize("kind", ["diagonal", "physical"])
def test_one_field_state_carries_no_flux_to_convert(kind):
    """Each state is its own conversion to its representation; a one-field
    state converts to neither of the other two."""
    grid, p = build_uniform_grid(0.0, 1.0, 4), ModelParams(tau=1.0)
    st = State(kind, np.zeros(4), np.ones(4), grid, p)
    assert getattr(st, f"to_{kind}")() is st
    with pytest.raises(ValueError, match="^a one-field state carries no flux to convert$"):
        getattr(State.one_field(np.zeros(4), np.zeros(4), grid, p), f"to_{kind}")()


def test_state_conversion_round_trip():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=2.5, mu=0.8)
    st = _random_state(grid, p, "physical", 3)
    back = st.to_diagonal().to_physical()
    assert np.allclose(back.a, st.a, atol=4 * EPS)
    assert np.allclose(back.b, st.b, atol=4 * EPS)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(kind="upwind")
    with pytest.raises(ValueError):
        SchemeConfig(limiter="superbee")
    with pytest.raises(ValueError):
        SchemeConfig(boundary="dirichlet")
    assert SchemeConfig(limiter=None).limiter is None


# ---------------------------------------------------------------- limiters --


def test_minmod_examples():
    assert minmod(1.0, 2.0) == 1.0
    assert minmod(-1.0, 2.0) == 0.0
    assert minmod(-2.0, -3.0) == -2.0


def test_mc_examples():
    assert monotonized_central(1.0, 1.0) == 1.0
    assert monotonized_central(-1.0, 2.0) == 0.0
    # average limited by twice the smaller argument
    assert monotonized_central(1.0, 10.0) == 2.0
    assert monotonized_central(-1.0, -10.0) == -2.0


def test_limiter_bounds_random_pairs():
    rng = np.random.Generator(np.random.PCG64(5))
    a = rng.uniform(-3.0, 3.0, 1000)
    b = rng.uniform(-3.0, 3.0, 1000)
    mm = minmod(a, b)
    mc = monotonized_central(a, b)
    opposite = a * b <= 0.0
    assert np.all(mm[opposite] == 0.0)
    assert np.all(mc[opposite] == 0.0)
    assert np.all(np.abs(mm) <= np.minimum(np.abs(a), np.abs(b)) + 1e-15)
    # classical MC obeys the wider TVD bounds
    assert np.all(np.abs(mc) <= 2.0 * np.minimum(np.abs(a), np.abs(b)) + 1e-15)
    assert np.all(np.abs(mc) <= 0.5 * np.abs(a + b) + 1e-15)
    # minmod never exceeds MC
    assert np.all(np.abs(mm) <= np.abs(mc) + 1e-15)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _where_minmod(a, b):
    """The minmod limiter as it was written with two ``np.where`` calls."""
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) <= np.abs(b), a, b))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=_FINITE, b=_FINITE)
@example(a=0.0, b=0.0)
@example(a=-0.0, b=-0.0)
@example(a=-0.0, b=0.0)
@example(a=-0.0, b=-1.0)
@example(a=2.0, b=2.0)
@example(a=-2.0, b=-2.0)
@example(a=-1.5, b=1.5)
@example(a=3.0, b=-1e-300)
@example(a=5e-324, b=5e-324)
@example(a=-5e-324, b=-1.0)
@example(a=1e-200, b=1e-200)
@example(a=-1e-200, b=-1e-200)
@example(a=1e300, b=-1e300)
def test_minmod_equals_where_form_bitwise(a, b):
    """Bit for bit the np.where limiter on finite pairs: the sign of zero,
    ties, subnormals and products that underflow to zero included."""
    pair = np.array([[a, b], [b, a]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(minmod(a, b), _where_minmod(np.float64(a), np.float64(b)))
        assert _same_bits(minmod(pair[:, 0], pair[:, 1]), _where_minmod(pair[:, 0], pair[:, 1]))


@pytest.mark.parametrize("other", [1.0, -1.0, 0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan])
def test_minmod_nan_in_either_argument_is_nan(other):
    with np.errstate(invalid="ignore"):
        assert np.isnan(minmod(np.nan, other))
        assert np.isnan(minmod(other, np.nan))
        assert np.isnan(minmod(np.array([np.nan, other]), np.array([other, np.nan]))).all()


def test_minmod_infinite_arguments():
    with np.errstate(invalid="ignore"):
        assert _same_bits(minmod(np.inf, -0.0), 0.0)
        assert _same_bits(minmod(-0.0, np.inf), 0.0)
        assert minmod(np.inf, 2.0) == 2.0 and minmod(-np.inf, -2.0) == -2.0
        assert _same_bits(minmod(np.inf, -2.0), 0.0)
        assert minmod(np.inf, np.inf) == np.inf


def test_limited_slopes_constant_and_linear():
    grid = build_uniform_grid(0.0, 1.0, 8)
    const = schemes._limited_slope_values([np.full(8, 2.3)], grid, "minmod")[0]
    assert np.array_equal(const, np.zeros(8))
    linear = schemes._limited_slope_values([1.7 * grid.centers], grid, "minmod")[0]
    assert np.allclose(linear[1:-1], 1.7, atol=1e-13)
    assert linear[0] == 0.0 and linear[-1] == 0.0


# --------------------------------------------------------------- first order --


def test_first_order_equilibria():
    grid = build_graded_grid(0.0, 2.0, 6, 1.4)
    p = ModelParams(tau=2.0, alpha=0.4)
    cfg = SchemeConfig("kinetic_first_order")
    for u_star in (0.0, p.alpha, 1.0):
        r = np.full(6, 0.5 * u_star)
        dr, ds = rhs_kinetic_first_order(State.diagonal(r, r.copy(), grid, p), cfg)
        assert np.array_equal(dr, np.zeros(6))
        assert np.array_equal(ds, np.zeros(6))


@st.composite
def _equilibria(draw):
    """A scheme config and one to three members, each at rest at 0, alpha or 1
    (with its representation's second component: r = s = u/2, v = 0, w = 0 for
    the direct one-field form and w = u for the alternative one) on a uniform
    or graded grid of its own, with random parameters."""
    kind = draw(st.sampled_from(sorted(SCHEMES)))
    states = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.builds(ModelParams, tau=st.floats(0.01, 100.0), mu=st.floats(0.01, 100.0),
                           kappa=st.floats(0.01, 100.0), alpha=st.floats(0.01, 0.99),
                           nu=st.floats(0.0, 10.0)))
        u = draw(st.sampled_from([0.0, p.alpha, 1.0]))
        n, x_min = draw(st.integers(3, 12)), draw(st.floats(-10.0, 0.0))
        length = draw(st.floats(0.1, 50.0))
        ratio = draw(st.sampled_from([None, 0.9, 1.15]))
        grid = (build_uniform_grid(x_min, x_min + length, n) if ratio is None
                else build_graded_grid(x_min, x_min + length, n, ratio))
        representation = SCHEMES[kind].representation
        if representation == "diagonal":
            a, b = 0.5 * u, 0.5 * u
        else:
            a, b = u, u if kind == "onefield_alternative" else 0.0
        states.append(State(representation, np.full(n, a), np.full(n, b), grid, p))
    cfg = SchemeConfig(kind, limiter=draw(st.sampled_from(["minmod", "mc"])),
                       boundary=draw(st.sampled_from(["zero_gradient", "periodic"])))
    return State.stack(states), cfg


@settings(max_examples=150, deadline=None)
@given(case=_equilibria())
def test_every_scheme_holds_its_equilibria_exactly(case):
    """f vanishes exactly at 0, alpha and 1, and every difference and Laplacian
    of a constant is 0, so each right-hand side is exactly +-0 at rest."""
    state, cfg = case
    for part in rhs_for_scheme(cfg)(state):
        assert part is None or not np.any(part)


def test_first_order_three_cell_hand_example():
    # dx=1, rho=1, tau=1, kappa=1, alpha=1/2, zero-gradient
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    r = np.array([0.0, 0.0, 0.5])
    s = np.array([0.0, 0.5, 0.5])
    dr, ds = rhs_kinetic_first_order(
        State.diagonal(r, s, grid, p), SchemeConfig("kinetic_first_order")
    )
    assert np.allclose(dr, [0.0, 0.75, 0.0], atol=1e-15)
    assert np.allclose(ds, [0.0, -0.75, 0.0], atol=1e-15)


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_first_order_matches_oracle(boundary):
    grid = build_graded_grid(-1.0, 2.0, 9, 0.85)
    p = ModelParams(tau=1.7, mu=0.9, kappa=1.3, alpha=0.35)
    cfg = SchemeConfig("kinetic_first_order", boundary=boundary)
    for seed in range(5):
        st = _random_state(grid, p, "diagonal", seed)
        dr, ds = rhs_kinetic_first_order(st, cfg)
        dr_o, ds_o = oracle_first_order(st.a, st.b, grid, p, boundary)
        assert np.allclose(dr, dr_o, rtol=1e-13, atol=1e-13)
        assert np.allclose(ds, ds_o, rtol=1e-13, atol=1e-13)


def test_first_order_requires_diagonal():
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0)
    st = State.physical(np.zeros(4), np.zeros(4), grid, p)
    with pytest.raises(ValueError):
        rhs_kinetic_first_order(st, SchemeConfig())


# ------------------------------------------------------------ physical form --


def test_uv_equilibrium():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=1.0, alpha=0.3)
    u = np.full(5, p.alpha)
    du, dv = rhs_kinetic_first_order_uv(
        State.physical(u, np.zeros(5), grid, p), SchemeConfig()
    )
    assert np.array_equal(du, np.zeros(5))
    assert np.array_equal(dv, np.zeros(5))


def test_uv_three_cell_mapped_example():
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    r = np.array([0.0, 0.0, 0.5])
    s = np.array([0.0, 0.5, 0.5])
    u, v = from_diagonal(r, s, p)
    du, dv = rhs_kinetic_first_order_uv(
        State.physical(u, v, grid, p), SchemeConfig()
    )
    # du = dr + ds, dv = rho (ds - dr) of the frozen diagonal example
    assert np.allclose(du, [0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(dv, [0.0, -1.5, 0.0], atol=1e-14)


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
@pytest.mark.parametrize(
    "make_grid",
    [
        lambda: build_uniform_grid(0.0, 2.0, 16),
        lambda: build_graded_grid(0.0, 2.0, 16, 1.12),
    ],
)
def test_diagonal_and_physical_forms_equivalent(boundary, make_grid):
    """Mapping the diagonal RHS through u = r+s, v = rho(s-r) reproduces the
    physical-form RHS cell by cell, on uniform and nonuniform grids."""
    grid = make_grid()
    p = ModelParams(tau=2.2, mu=1.4, kappa=0.8, alpha=0.45)
    cfg = SchemeConfig("kinetic_first_order", boundary=boundary)
    for seed in range(100):
        st = _random_state(grid, p, "diagonal", seed)
        dr, ds = rhs_kinetic_first_order(st, cfg)
        du_mapped = dr + ds
        dv_mapped = p.rho * (ds - dr)
        du, dv = rhs_kinetic_first_order_uv(st.to_physical(), cfg)
        scale_u = max(1.0, np.max(np.abs(du)))
        scale_v = max(1.0, np.max(np.abs(dv)))
        assert np.max(np.abs(du - du_mapped)) <= 8 * EPS * scale_u
        assert np.max(np.abs(dv - dv_mapped)) <= 8 * EPS * scale_v


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_uv_matches_oracle(boundary):
    grid = build_graded_grid(0.0, 1.0, 7, 1.25)
    p = ModelParams(tau=0.9, mu=1.1, kappa=1.0, alpha=0.5)
    cfg = SchemeConfig("kinetic_first_order", boundary=boundary)
    st = _random_state(grid, p, "physical", 21)
    du, dv = rhs_kinetic_first_order_uv(st, cfg)
    du_o, dv_o = oracle_physical(st.a, st.b, grid, p, boundary, 0.0)
    assert np.allclose(du, du_o, rtol=1e-12, atol=1e-12)
    assert np.allclose(dv, dv_o, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------- second order --


def test_second_order_constant_reduces_to_first_order():
    grid = build_graded_grid(0.0, 1.0, 6, 1.2)
    p = ModelParams(tau=1.0, alpha=0.3)
    r = np.full(6, 0.2)
    s = np.full(6, 0.7)
    st = State.diagonal(r, s, grid, p)
    d2 = rhs_kinetic_second_order(st, SchemeConfig("kinetic_second_order"))
    d1 = rhs_kinetic_first_order(st, SchemeConfig("kinetic_first_order"))
    assert np.array_equal(d2[0], d1[0])
    assert np.array_equal(d2[1], d1[1])


def test_second_order_linear_field_exact_transport():
    grid = build_uniform_grid(0.0, 1.0, 10)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    gr, gs = 0.8, -0.3
    r = 0.1 + gr * grid.centers
    s = 0.4 + gs * grid.centers
    st = State.diagonal(r, s, grid, p)
    dr, ds = rhs_kinetic_second_order(st, SchemeConfig("kinetic_second_order"))
    from hyperac.model import reaction_f

    src_r = 0.5 * reaction_f(r + s, p) + (s - r) / (2 * p.tau)
    src_s = 0.5 * reaction_f(r + s, p) - (s - r) / (2 * p.tau)
    # away from the zero-slope boundary cells the transport is exact
    assert np.allclose((dr - src_r)[2:-2], p.rho * gr, atol=1e-12)
    assert np.allclose((ds - src_s)[2:-2], -p.rho * gs, atol=1e-12)


def test_second_order_reconstruction_preserves_cell_average():
    grid = build_graded_grid(0.0, 1.0, 8, 0.9)
    rng = np.random.Generator(np.random.PCG64(2))
    values = rng.uniform(0.0, 1.0, 8)
    slopes = schemes._limited_slope_values([values], grid, "minmod")[0]
    half = 0.5 * grid.cell_lengths
    means = 0.5 * ((values - half * slopes) + (values + half * slopes))
    assert np.allclose(means, values, atol=2 * EPS)


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
@pytest.mark.parametrize("limiter", ["minmod", "mc"])
def test_second_order_matches_oracle(boundary, limiter):
    grid = build_graded_grid(0.0, 2.0, 5, 1.31)
    p = ModelParams(tau=1.5, mu=0.8, kappa=1.2, alpha=0.6)
    cfg = SchemeConfig("kinetic_second_order", limiter=limiter, boundary=boundary)
    for seed in range(5):
        st = _random_state(grid, p, "diagonal", seed + 40)
        dr, ds = rhs_kinetic_second_order(st, cfg)
        dr_o, ds_o = oracle_second_order(st.a, st.b, grid, p, boundary, limiter)
        assert np.allclose(dr, dr_o, rtol=1e-12, atol=1e-12)
        assert np.allclose(ds, ds_o, rtol=1e-12, atol=1e-12)


def _concatenated_rhs_second_order(state, cfg):
    """``rhs_kinetic_second_order`` as it was written: one slope call per
    component, the np.where minmod and four concatenations."""
    lmtr = {"minmod": _where_minmod, "mc": monotonized_central}[cfg.limiter]
    x, dx, p = state.grid.centers, state.grid.cell_lengths, state.params
    r, s = state.a, state.b

    def slopes(values):
        diffs = (values[..., 1:] - values[..., :-1]) / (x[1:] - x[:-1])
        out = np.zeros_like(values)
        out[..., 1:-1] = lmtr(diffs[..., 1:], diffs[..., :-1])
        return out

    half = 0.5 * dx
    r_minus = r - half * slopes(r)
    s_plus = s + half * slopes(s)
    if cfg.boundary == "periodic":
        r_minus_right = np.concatenate((r_minus[..., 1:], r_minus[..., :1]), axis=-1)
        s_plus_left = np.concatenate((s_plus[..., -1:], s_plus[..., :-1]), axis=-1)
    else:
        r_minus_right = np.concatenate((r_minus[..., 1:], r[..., -1:]), axis=-1)
        s_plus_left = np.concatenate((s[..., :1], s_plus[..., :-1]), axis=-1)
    fu = reaction_f(state.u, p)
    relax = (s - r) / (2.0 * p.tau)
    dr = p.rho * (r_minus_right - r_minus) / dx + 0.5 * fu + relax
    ds = -p.rho * (s_plus - s_plus_left) / dx + 0.5 * fu - relax
    return dr, ds


# cell values with signed zeros, ties (rounded values repeat), tiny values
# whose difference products underflow, and general floats
_CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
    st.floats(-1.5, 1.5).map(lambda v: round(v, 1)),
    st.floats(-1e-160, 1e-160),
    st.floats(-1.5, 1.5),
)
_MEMBER = st.builds(
    ModelParams,
    tau=st.floats(0.2, 8.0),
    mu=st.floats(0.5, 2.0),
    kappa=st.floats(0.5, 2.0),
    alpha=st.floats(0.05, 0.95),
)


@st.composite
def _second_order_cases(draw):
    """One to four members, each on a uniform or graded grid of its own."""
    states = []
    for p in draw(st.lists(_MEMBER, min_size=1, max_size=4)):
        n = draw(st.integers(3, 24))
        ratio = draw(st.sampled_from([1.0, 0.93, 1.08]))
        grid = build_graded_grid(-1.0, 2.0, n, ratio)
        r, s = (draw(arrays(np.float64, n, elements=_CELL)) for _ in range(2))
        states.append(State.diagonal(r, s, grid, p))
    cfg = SchemeConfig(
        "kinetic_second_order",
        limiter=draw(st.sampled_from(["minmod", "mc"])),
        boundary=draw(st.sampled_from(["zero_gradient", "periodic"])),
    )
    return states, cfg


_TINY = np.array(
    [[0.0, 1e-170, 2e-170, 4e-170, 3e-170, -0.0], [-0.0, 0.0, -1e-170, -3e-170, 0.0, 1e-170]]
)
_ZEROS = np.array([0.0, -0.0, -0.0, 0.0, -0.0])
_TINY_PAIR = [  # two members on one grid, r of each the other's s
    State.diagonal(r, s, build_uniform_grid(0.0, 1.0, 6), ModelParams(tau=1.0))
    for r, s in zip(_TINY, _TINY[::-1])
]
_TOUCHING = [  # the last center of the first member's grid is the next one's first
    State.diagonal(np.linspace(0.0, 0.5, 3), np.zeros(3), Grid(np.array(edges)), ModelParams(1.0))
    for edges in ([0.0, 2 / 3, 4 / 3, 2.0], [4 / 3, 2.0, 8 / 3, 10 / 3])
]


@settings(max_examples=80, deadline=None)
@given(case=_second_order_cases())
@example(  # one-sided slopes of order 1e-170 whose products underflow to zero
    case=(_TINY_PAIR, SchemeConfig("kinetic_second_order", limiter="minmod"))
)
@example(case=(_TOUCHING, SchemeConfig("kinetic_second_order", limiter="mc")))
@example(  # signed zeros only
    case=(
        [State.diagonal(_ZEROS, -_ZEROS, build_uniform_grid(0.0, 1.0, 5), ModelParams(tau=1.0))],
        SchemeConfig("kinetic_second_order", limiter="minmod", boundary="periodic"),
    )
)
@example(  # all +0.0: the s update is -0.0 - relax with relax = +0.0, which stays -0.0
    case=(
        [State.diagonal(np.zeros(4), np.zeros(4), build_uniform_grid(0.0, 1.0, 4), ModelParams(1.0))],
        SchemeConfig("kinetic_second_order", limiter="mc"),
    )
)
def test_second_order_equals_concatenated_form_bitwise(case):
    """One stacked slope pass over the members side by side (``State.stack``)
    gives each member the bits of two slope calls and four concatenations on
    its own state, for both limiters and boundaries."""
    states, cfg = case
    stacked = State.stack(states)
    bounds = stacked.grid.bounds
    with np.errstate(over="ignore", invalid="ignore"):
        got = rhs_kinetic_second_order(stacked, cfg)
        for k, member in enumerate(states):
            want = _concatenated_rhs_second_order(member, cfg)
            cells = slice(bounds[k], bounds[k + 1])
            assert _same_bits(got[0][cells], want[0]) and _same_bits(got[1][cells], want[1])


def _copied_rhs_first_order(state, cfg):
    """``rhs_kinetic_first_order`` as it was written: ``_shift`` copies of the
    neighbours and one expression per component."""
    p, r, s = state.params, state.a, state.b
    dx, rho = state.grid.cell_lengths, p.rho
    r_right = schemes._shift(r, state.grid, cfg.boundary, 1)
    s_left = schemes._shift(s, state.grid, cfg.boundary, -1)
    fu = reaction_f(state.u, p)
    relax = (s - r) / (2.0 * p.tau)
    dr = rho * (r_right - r) / dx + 0.5 * fu + relax
    ds = -rho * (s - s_left) / dx + 0.5 * fu - relax
    return dr, ds


@st.composite
def _first_order_cases(draw):
    """The second-order draws' members, grids and boundary, for the first-order scheme."""
    states, cfg = draw(_second_order_cases())
    return states, SchemeConfig("kinetic_first_order", boundary=cfg.boundary)


@settings(max_examples=80, deadline=None)
@given(case=_first_order_cases())
@example(case=(_TINY_PAIR, SchemeConfig("kinetic_first_order", boundary="periodic")))
@example(case=(_TOUCHING, SchemeConfig("kinetic_first_order")))
@example(  # signed zeros only
    case=(
        [State.diagonal(_ZEROS, -_ZEROS, build_uniform_grid(0.0, 1.0, 5), ModelParams(tau=1.0))],
        SchemeConfig("kinetic_first_order", boundary="periodic"),
    )
)
def test_first_order_equals_copied_form_bitwise(case):
    """The upwind kernel on the cell values of the members side by side gives
    each member the bits of the ``_shift``-copy formula on its own state."""
    states, cfg = case
    stacked = State.stack(states)
    bounds = stacked.grid.bounds
    got = rhs_kinetic_first_order(stacked, cfg)
    for k, member in enumerate(states):
        want = _copied_rhs_first_order(member, cfg)
        cells = slice(bounds[k], bounds[k + 1])
        assert _same_bits(got[0][cells], want[0]) and _same_bits(got[1][cells], want[1])


def test_second_order_requires_limiter():
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0)
    st = State.diagonal(np.zeros(4), np.zeros(4), grid, p)
    with pytest.raises(ValueError):
        rhs_kinetic_second_order(st, SchemeConfig("kinetic_second_order", limiter=None))


# ---------------------------------------------------- Guyer-Krumhansl scheme --


def test_gk_reduces_to_uv_bit_exact_at_nu_zero():
    grid = build_graded_grid(0.0, 1.0, 12, 1.08)
    p = ModelParams(tau=1.3, mu=0.7, alpha=0.4, nu=0.0)
    cfg = SchemeConfig("gk_pseudo_kinetic")
    st = _random_state(grid, p, "physical", 9)
    du_gk, dv_gk = rhs_gk_pseudo_kinetic(st, cfg)
    du_uv, dv_uv = rhs_kinetic_first_order_uv(st, SchemeConfig("kinetic_first_order"))
    assert np.array_equal(du_gk, du_uv)
    assert np.array_equal(dv_gk, dv_uv)


def test_gk_equilibrium():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=1.0, nu=0.2)
    st = State.physical(np.ones(5), np.zeros(5), grid, p)
    du, dv = rhs_gk_pseudo_kinetic(st, SchemeConfig("gk_pseudo_kinetic"))
    assert np.array_equal(du, np.zeros(5))
    assert np.array_equal(dv, np.zeros(5))


def test_gk_matches_oracle():
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5, nu=0.1)
    st = State.physical(np.array([0.1, 0.6, 0.9]), np.array([0.0, -0.2, 0.1]), grid, p)
    du, dv = rhs_gk_pseudo_kinetic(st, SchemeConfig("gk_pseudo_kinetic"))
    du_o, dv_o = oracle_physical(st.a, st.b, grid, p, "zero_gradient", 0.1)
    assert np.allclose(du, du_o, rtol=1e-13, atol=1e-14)
    assert np.allclose(dv, dv_o, rtol=1e-13, atol=1e-14)


# ------------------------------------------------------------ one-field forms --


def test_onefield_direct_equilibria():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=1.0, alpha=0.4, nu=0.1)
    cfg = SchemeConfig("onefield_direct")
    for u_star in (p.alpha, 1.0):
        st = State.one_field(np.full(5, u_star), np.zeros(5), grid, p)
        du, dw = rhs_onefield_direct(st, cfg)
        assert np.allclose(du, 0.0, atol=1e-15)
        assert np.allclose(dw, 0.0, atol=1e-15)


def test_onefield_alternative_equilibria():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=2.0, alpha=0.4, nu=0.1)
    cfg = SchemeConfig("onefield_alternative")
    # equilibrium carries w = u - tau f(u); at u in {0, 1} that is w = u
    for u_star in (0.0, 1.0):
        st = State.one_field(np.full(5, u_star), np.full(5, u_star), grid, p)
        du, dw = rhs_onefield_alternative(st, cfg)
        assert np.allclose(du, 0.0, atol=1e-15)
        assert np.allclose(dw, 0.0, atol=1e-15)


def test_onefield_direct_matches_oracle():
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5, nu=0.1)
    st = State.one_field(np.array([0.2, 0.5, 0.8]), np.array([0.1, -0.3, 0.05]), grid, p)
    du, dw = rhs_onefield_direct(st, SchemeConfig("onefield_direct"))
    du_o, dw_o = oracle_onefield_direct(st.a, st.b, 1.0, p, "zero_gradient")
    assert np.allclose(du, du_o, rtol=1e-12, atol=1e-13)
    assert np.allclose(dw, dw_o, rtol=1e-12, atol=1e-13)


def test_onefield_alternative_matches_oracle():
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=2.0, mu=0.9, kappa=1.1, alpha=0.45, nu=0.05)
    st = State.one_field(np.array([0.9, 0.4, 0.1]), np.array([0.8, 0.5, 0.2]), grid, p)
    du, dw = rhs_onefield_alternative(st, SchemeConfig("onefield_alternative"))
    du_o, dw_o = oracle_onefield_alternative(st.a, st.b, 1.0, p, "zero_gradient")
    assert np.allclose(du, du_o, rtol=1e-12, atol=1e-13)
    assert np.allclose(dw, dw_o, rtol=1e-12, atol=1e-13)


def test_nonuniform_laplacian_consistency():
    from hyperac.schemes import _laplacian

    errors, widths = [], []
    for n in (40, 80, 160):
        grid = build_graded_grid(0.0, 1.0, n, 1.02)
        values = np.sin(2.0 * grid.centers)
        lap = _laplacian(values, grid, "zero_gradient")
        exact = -4.0 * np.sin(2.0 * grid.centers)
        errors.append(np.max(np.abs(lap - exact)[2:-2]))
        widths.append(grid.dx_max)
    assert errors[-1] < errors[0]
    slope = np.polyfit(np.log(widths), np.log(errors), 1)[0]
    assert slope >= 0.9  # first-order pointwise on graded meshes


# ------------------------------------------------------- parabolic reference --


def _parabolic_rhs(u, grid, p):
    """The parabolic reference's du of a physical state with density u."""
    st = State.physical(u, np.zeros_like(u), grid, p)
    du, dv = rhs_parabolic_reference(st, SchemeConfig("parabolic_reference"))
    assert dv is None  # the flux stays frozen
    return du


def test_parabolic_equilibrium():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=1.0, alpha=0.3)
    du = _parabolic_rhs(np.ones(5), grid, p)
    assert np.array_equal(du, np.zeros(5))


def test_parabolic_stationary_front_residual_second_order():
    from hyperac.model import FrontProfile

    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    front = FrontProfile(p, shift=0.0, increasing=True)
    residuals, widths = [], []
    for n in (100, 200, 400):
        grid = build_uniform_grid(-20.0, 20.0, n)
        du = _parabolic_rhs(front(grid.centers), grid, p)
        residuals.append(np.max(np.abs(du)))
        widths.append(grid.dx_max)
    slope = np.polyfit(np.log(widths), np.log(residuals), 1)[0]
    assert slope >= 1.9


def test_parabolic_three_cell_oracle():
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=2.0, kappa=1.0, alpha=0.5)
    u = np.array([0.1, 0.7, 0.4])
    du = _parabolic_rhs(u, grid, p)
    f = lambda q: q * (q - 0.5) * (1 - q)
    expected = [
        2.0 * (u[1] - 2 * u[0] + u[0]) + f(u[0]),
        2.0 * (u[2] - 2 * u[1] + u[0]) + f(u[1]),
        2.0 * (u[2] - 2 * u[2] + u[1]) + f(u[2]),
    ]
    assert np.allclose(du, expected, rtol=1e-13)


# ------------------------------------------------------- modified equation --


def test_modified_equation_limit():
    """(scheme RHS - exact PDE RHS) / dx approaches (rho/2) d2/dx2 of each field."""
    p = ModelParams(tau=0.8, mu=1.1, kappa=1.0, alpha=0.4)
    from hyperac.model import reaction_f

    cfg = SchemeConfig("kinetic_first_order", boundary="periodic")
    deviations, widths = [], []
    for n in (64, 128, 256, 512):
        grid = build_uniform_grid(0.0, 1.0, n)
        x = grid.centers
        two_pi = 2.0 * np.pi
        u = 0.5 + 0.3 * np.sin(two_pi * x)
        v = 0.2 * np.cos(two_pi * x)
        ux = 0.3 * two_pi * np.cos(two_pi * x)
        vx = -0.2 * two_pi * np.sin(two_pi * x)
        uxx = -0.3 * two_pi**2 * np.sin(two_pi * x)
        vxx = -0.2 * two_pi**2 * np.cos(two_pi * x)
        du, dv = rhs_kinetic_first_order_uv(State.physical(u, v, grid, p), cfg)
        exact_du = -vx + reaction_f(u, p)
        exact_dv = -p.rho**2 * ux - v / p.tau
        dx = grid.dx_max
        dev_u = np.max(np.abs((du - exact_du) / dx - 0.5 * p.rho * uxx))
        dev_v = np.max(np.abs((dv - exact_dv) / dx - 0.5 * p.rho * vxx))
        deviations.append(max(dev_u, dev_v))
        widths.append(dx)
    slope = np.polyfit(np.log(widths), np.log(deviations), 1)[0]
    assert slope >= 0.9


# ------------------------------------------------------------- preparation --


def test_prepare_state_conversions():
    grid = build_uniform_grid(0.0, 1.0, 6)
    p = ModelParams(tau=1.0, alpha=0.4, nu=0.1)
    phys = _random_state(grid, p, "physical", 13)

    diag = prepare_state_for_scheme(phys, SchemeConfig("kinetic_first_order"))
    assert diag.kind == "diagonal"
    back = prepare_state_for_scheme(diag, SchemeConfig("gk_pseudo_kinetic"))
    assert back.kind == "physical"
    assert np.allclose(back.a, phys.a, atol=8 * EPS)

    direct = prepare_state_for_scheme(phys, SchemeConfig("onefield_direct"))
    assert direct.kind == "onefield"
    # with v = 0 the one-field auxiliary reduces to f(u)
    zero_flux = State.physical(phys.a, np.zeros(6), grid, p)
    from hyperac.model import reaction_f

    direct0 = prepare_state_for_scheme(zero_flux, SchemeConfig("onefield_direct"))
    assert np.allclose(direct0.b, reaction_f(phys.a, p), atol=1e-14)

    onefield = State.one_field(np.zeros(6), np.zeros(6), grid, p)
    with pytest.raises(ValueError):
        prepare_state_for_scheme(onefield, SchemeConfig("kinetic_first_order"))


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_prepare_one_field_state(kind):
    """A one-field state is its own preparation for a one-field kind; every
    other kind refuses it."""
    grid, p = build_uniform_grid(0.0, 1.0, 4), ModelParams(tau=1.0)
    onefield = State.one_field(np.zeros(4), np.zeros(4), grid, p)
    if SCHEMES[kind].representation == "onefield":
        assert prepare_state_for_scheme(onefield, SchemeConfig(kind)) is onefield
    else:
        with pytest.raises(ValueError, match="^a one-field state carries no flux to convert$"):
            prepare_state_for_scheme(onefield, SchemeConfig(kind))


def test_rhs_dispatch_looks_up_module_names_at_call_time(monkeypatch):
    """Rebinding ``rhs_<kind>`` after the callable is built still reaches
    the new binding, so a wrapper installed from outside sees every call."""
    grid = build_uniform_grid(0.0, 1.0, 6)
    p = ModelParams(tau=1.0, nu=0.2)
    st = State.physical(np.linspace(0.0, 1.0, 6), np.zeros(6), grid, p)
    for kind in SCHEMES:
        cfg = SchemeConfig(kind)
        rhs = rhs_for_scheme(cfg)
        prepared = prepare_state_for_scheme(st, cfg)
        expected = rhs(prepared)
        calls = []
        original = getattr(schemes, f"rhs_{kind}")

        def counting(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(schemes, f"rhs_{kind}", counting)
        got = rhs(prepared)
        monkeypatch.undo()
        assert len(calls) == 1, kind
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
