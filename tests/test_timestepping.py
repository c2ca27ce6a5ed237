import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as hst  # st names a State here
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from hyperac import timestepping
from hyperac.diagnostics import g_profile, l2_distance, linf_distance, mass, speeds_from_masses
from hyperac.grid import build_graded_grid, build_uniform_grid, project_cell_averages
from hyperac.model import (
    FrontProfile, ModelParams, _max_abs_f_prime, hyperbolic_front_speed_shooting, reaction_f,
)
from hyperac.schemes import (
    SCHEMES,
    SchemeConfig,
    State,
    prepare_state_for_scheme,
    rhs_for_scheme,
    rhs_kinetic_first_order,
)
from hyperac.timestepping import (
    EXPLICIT,
    INTEGRATORS,
    BlowUpError,
    ImexWorkspace,
    SolveError,
    assemble_imex_matrix,
    explicit_step,
    gershgorin_margins,
    imex_step,
    imex_step_reduced_uniform,
    run,
    suggest_dt,
)

EPS = np.finfo(float).eps


def _dense_imex_oracle(r, s, grid, p, dt, boundary="zero_gradient"):
    """Independent dense assembly and solve of the implicit update."""
    n = grid.n_cells
    alpha = p.rho * dt / grid.cell_lengths
    beta = dt / (2.0 * p.tau)
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        ri, si = 2 * i, 2 * i + 1
        A[ri, si] -= beta
        A[si, ri] -= beta
        A[ri, ri] += 1.0 + beta
        A[si, si] += 1.0 + beta
        # -alpha (r_{i+1} - r_i)
        if i + 1 < n:
            A[ri, ri] += alpha[i]
            A[ri, 2 * (i + 1)] -= alpha[i]
        elif boundary == "periodic":
            A[ri, ri] += alpha[i]
            A[ri, 0] -= alpha[i]
        # +alpha (s_i - s_{i-1})
        if i > 0:
            A[si, si] += alpha[i]
            A[si, 2 * (i - 1) + 1] -= alpha[i]
        elif boundary == "periodic":
            A[si, si] += alpha[i]
            A[si, 2 * (n - 1) + 1] -= alpha[i]
    fn = reaction_f(r + s, p)
    rhs = np.empty(2 * n)
    rhs[0::2] = r + 0.5 * dt * fn
    rhs[1::2] = s + 0.5 * dt * fn
    x = np.linalg.solve(A, rhs)
    return x[0::2], x[1::2]


def _random_diagonal(grid, p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return State.diagonal(
        rng.uniform(-0.5, 1.0, grid.n_cells),
        rng.uniform(-0.5, 1.0, grid.n_cells),
        grid,
        p,
    )


# ----------------------------------------------------------------- assembly --


def test_assembled_matrix_two_cells_by_hand():
    grid = build_uniform_grid(0.0, 2.0, 3)
    # a 3-cell grid is the minimum; check the 2-cell block structure on the
    # first two rows plus the hand-written 4x4 of an N=2 system directly
    p = ModelParams(tau=1.0, mu=1.0)
    dt = 0.1
    alpha = p.rho * dt / grid.cell_lengths[0]
    beta = dt / (2.0 * p.tau)
    matrix = assemble_imex_matrix(grid, dt, p).toarray()
    n = 3
    expected = np.zeros((6, 6))
    for i in range(n):
        ri, si = 2 * i, 2 * i + 1
        expected[ri, si] = -beta
        expected[si, ri] = -beta
        expected[ri, ri] = 1 + beta + (alpha if i + 1 < n else 0.0)
        expected[si, si] = 1 + beta + (alpha if i > 0 else 0.0)
        if i + 1 < n:
            expected[ri, 2 * (i + 1)] = -alpha
        if i > 0:
            expected[si, 2 * (i - 1) + 1] = -alpha
    assert np.allclose(matrix, expected, atol=1e-15)
    # interleaving keeps the bandwidth at 2
    nz = np.nonzero(matrix)
    assert np.max(np.abs(nz[0] - nz[1])) <= 2


def test_relaxation_decoupling_limit():
    # mu = tau huge keeps alpha order one while beta vanishes: the r and s
    # blocks decouple into bidiagonal transport solves
    scale = 1e300
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=scale, mu=scale)
    matrix = assemble_imex_matrix(grid, 0.1, p).toarray()
    coupling = matrix[0::2, 1::2].copy()
    np.fill_diagonal(coupling, 0.0)  # keep only r<-s entries
    rs_coupling = np.abs(matrix[0::2, 1::2]).max()
    sr_coupling = np.abs(matrix[1::2, 0::2]).max()
    assert rs_coupling <= 1e-290 and sr_coupling <= 1e-290
    r_block = matrix[0::2, 0::2]
    assert np.count_nonzero(np.tril(r_block, -1)) == 0  # upper bidiagonal
    s_block = matrix[1::2, 1::2]
    assert np.count_nonzero(np.triu(s_block, 1)) == 0  # lower bidiagonal


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_gershgorin_row_bound(boundary):
    for grid in (
        build_uniform_grid(0.0, 1.0, 8),
        build_graded_grid(0.0, 5.0, 11, 1.4),
    ):
        for dt in (1e-3, 0.1, 2.0):
            p = ModelParams(tau=0.7, mu=2.0, kappa=1.0, alpha=0.3)
            matrix = assemble_imex_matrix(grid, dt, p, boundary)
            assert gershgorin_margins(matrix).min() >= 1.0 - 1e-12


def _coo_loop_operator(grid, dt, p, boundary):
    """The operator as a per-cell COO loop builds it, entry by entry."""
    n = grid.n_cells
    alpha = p.rho * dt / grid.cell_lengths
    beta = dt / (2.0 * p.tau)
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for i in range(n):
        ri, si = 2 * i, 2 * i + 1
        add(ri, si, -beta)
        add(si, ri, -beta)
        if i + 1 < n:
            add(ri, ri, 1.0 + beta + alpha[i])
            add(ri, 2 * (i + 1), -alpha[i])
        elif boundary == "periodic":
            add(ri, ri, 1.0 + beta + alpha[i])
            add(ri, 0, -alpha[i])
        else:
            add(ri, ri, 1.0 + beta)
        if i > 0:
            add(si, si, 1.0 + beta + alpha[i])
            add(si, 2 * (i - 1) + 1, -alpha[i])
        elif boundary == "periodic":
            add(si, si, 1.0 + beta + alpha[i])
            add(si, 2 * (n - 1) + 1, -alpha[i])
        else:
            add(si, si, 1.0 + beta)
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


@pytest.mark.parametrize("n", [3, 50, 800])
@pytest.mark.parametrize("case", ["uniform", "graded", "periodic"])
def test_band_assembly_equals_coo_loop(n, case):
    """The vectorised band gives the COO loop's CSR bit for bit, and its
    dgbtrf layout factors to the same LU and pivots."""
    grid = (
        build_graded_grid(0.0, 10.0, n, 1.002)
        if case == "graded"
        else build_uniform_grid(0.0, 10.0, n)
    )
    boundary = "periodic" if case == "periodic" else "zero_gradient"
    p = ModelParams(tau=0.7, mu=2.0, alpha=0.3)
    for dt in (1e-3, 0.1, 2.0):
        expected = _coo_loop_operator(grid, dt, p, boundary)
        matrix = assemble_imex_matrix(grid, dt, p, boundary)
        assert matrix.has_canonical_format and expected.has_canonical_format
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.array_equal(matrix.data, expected.data)
        if boundary == "zero_gradient":
            m = expected.tocoo()
            ab = np.zeros((7, 2 * n))
            ab[4 + m.row - m.col, m.col] = m.data
            lu, pivots, info = dgbtrf(ab, 2, 2)
            ws = ImexWorkspace.build(grid, dt, p)
            assert info == 0
            assert np.array_equal(ws.lu, lu) and np.array_equal(ws.pivots, pivots)


# ---------------------------------------------------------------- imex step --


def test_imex_fixed_points():
    grid = build_uniform_grid(0.0, 5.0, 10)
    p = ModelParams(tau=2.0, alpha=0.4)
    ws = ImexWorkspace.build(grid, 0.05, p)
    for u_star in (0.0, p.alpha, 1.0):
        st = State.diagonal(np.full(10, u_star / 2), np.full(10, u_star / 2), grid, p)
        new = imex_step(st, 0.05, ws)
        assert np.max(np.abs(new.a - st.a)) <= 1e-12
        assert np.max(np.abs(new.b - st.b)) <= 1e-12


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_imex_matches_dense_oracle(boundary):
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    dt = 0.1  # alpha = 0.4, beta = 0.05
    ws = ImexWorkspace.build(grid, dt, p, boundary)
    for seed in range(10):
        st = _random_diagonal(grid, p, seed)
        new = imex_step(st, dt, ws)
        r_o, s_o = _dense_imex_oracle(st.a, st.b, grid, p, dt, boundary)
        assert np.allclose(new.a, r_o, atol=1e-13)
        assert np.allclose(new.b, s_o, atol=1e-13)


def test_imex_specified_coefficients_case():
    # alpha = 0.8, beta = 0.005 on four cells against the dense oracle
    dt = 0.1
    p = ModelParams(tau=10.0, mu=640.0)  # rho = 8, beta = 0.005
    grid = build_uniform_grid(0.0, 4.0, 4)
    assert p.rho * dt / grid.cell_lengths[0] == pytest.approx(0.8)
    st = _random_diagonal(grid, p, 77)
    new = imex_step(st, dt, ImexWorkspace.build(grid, dt, p))
    r_o, s_o = _dense_imex_oracle(st.a, st.b, grid, p, dt)
    assert np.allclose(new.a, r_o, atol=1e-12)
    assert np.allclose(new.b, s_o, atol=1e-12)


@pytest.mark.parametrize("build", [ImexWorkspace.build, assemble_imex_matrix])
def test_imex_operator_rejects_an_unknown_boundary(build):
    grid = build_uniform_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="^unknown boundary treatment 'perodic'$"):
        build(grid, 0.1, ModelParams(tau=1.0), "perodic")


def test_imex_requires_diagonal_and_matching_workspace():
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0)
    phys = State.physical(np.zeros(4), np.zeros(4), grid, p)
    ws = ImexWorkspace.build(grid, 0.1, p)
    with pytest.raises(ValueError):
        imex_step(phys, 0.1, ws)
    diag = State.diagonal(np.zeros(4), np.zeros(4), grid, p)
    with pytest.raises(ValueError):
        imex_step(diag, 0.05, ws)


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_reduced_uniform_path_agrees(boundary):
    grid = build_uniform_grid(0.0, 2.0, 16)
    p = ModelParams(tau=1.3, mu=0.9, kappa=1.1, alpha=0.45)
    dt = 0.07
    ws = ImexWorkspace.build(grid, dt, p, boundary)
    for seed in range(100):
        st = _random_diagonal(grid, p, seed)
        banded = imex_step(st, dt, ws)
        reduced = imex_step_reduced_uniform(st, dt, ws)
        assert np.max(np.abs(banded.a - reduced.a)) <= 1e-10
        assert np.max(np.abs(banded.b - reduced.b)) <= 1e-10


def test_reduced_uniform_fixed_point():
    grid = build_uniform_grid(0.0, 1.0, 6)
    p = ModelParams(tau=1.0, alpha=0.5)
    st = State.diagonal(np.full(6, 0.5), np.full(6, 0.5), grid, p)
    new = imex_step_reduced_uniform(st, 0.1, ImexWorkspace.build(grid, 0.1, p))
    assert np.max(np.abs(new.a - 0.5)) <= 1e-12


def test_reduced_uniform_rejects_nonuniform_grid():
    grid = build_graded_grid(0.0, 1.0, 6, 1.3)
    p = ModelParams(tau=1.0)
    st = State.diagonal(np.zeros(6), np.zeros(6), grid, p)
    with pytest.raises(ValueError):
        imex_step_reduced_uniform(st, 0.1, ImexWorkspace.build(grid, 0.1, p))


@pytest.mark.parametrize("dt, p", [(0.05, ModelParams(tau=1.0)), (0.1, ModelParams(tau=2.0))])
def test_reduced_uniform_rejects_a_workspace_built_for_another_step(dt, p):
    grid = build_uniform_grid(0.0, 1.0, 6)
    ws = ImexWorkspace.build(grid, 0.1, ModelParams(tau=1.0))
    st = State.diagonal(np.zeros(6), np.zeros(6), grid, p)
    with pytest.raises(ValueError, match="workspace was built for different"):
        imex_step_reduced_uniform(st, dt, ws)


def test_linear_solve_residual_is_tiny():
    grid = build_uniform_grid(0.0, 50.0, 400)
    p = ModelParams(tau=1.0, alpha=0.9)
    dt = 0.01
    ws = ImexWorkspace.build(grid, dt, p)
    st = _random_diagonal(grid, p, 5)
    fn = reaction_f(st.a + st.b, p)
    rhs = np.empty(800)
    rhs[0::2] = st.a + 0.5 * dt * fn
    rhs[1::2] = st.b + 0.5 * dt * fn
    x = ws.solve(rhs)
    assert ws.residual(x, rhs) <= 1e-12


@pytest.mark.parametrize(
    "members, n, layout",
    [
        (members, n, layout)
        for layout in ("uniform", "graded", "periodic")
        for n in (3, 50, 800)
        for members in (1, 3)
        if not (layout == "periodic" and members > 1)  # a periodic operator is single-member
    ],
)
def test_residual_product_is_the_sparse_matrix_product_bitwise(members, n, layout):
    """The residual guard calls scipy's CSR kernel directly: its product is
    ``matrix @ x`` bit for bit, so the residual against that product is 0 and
    the residual against any right-hand side is the one ``matrix @ x`` gives."""
    if layout == "graded":  # largest over smallest cell about e^2 at every n
        grid = build_graded_grid(0.0, 50.0, n, 1.0 + 2.0 / n)
    else:
        grid = build_uniform_grid(0.0, 50.0, n)
    params = [ModelParams(tau=0.5 + k, alpha=0.3 + 0.2 * k) for k in range(members)]
    state = State.stack([State.diagonal(np.zeros(n), np.zeros(n), grid, q) for q in params])
    boundary = "periodic" if layout == "periodic" else "zero_gradient"
    ws = ImexWorkspace.build(state.grid, 0.1, state.params, boundary)
    rng = np.random.default_rng(n + members)
    x, rhs = rng.uniform(-1.0, 1.0, 2 * n * members), rng.uniform(-1.0, 1.0, 2 * n * members)
    product = assemble_imex_matrix(ws.grid, ws.dt, ws.params, ws.boundary) @ x
    assert np.all(ws.residual(x, product) == 0.0)
    misfit = np.abs(product - rhs).reshape(members, 2 * n).max(axis=-1)
    want = misfit / np.abs(rhs).reshape(members, 2 * n).max(axis=-1)
    assert ws.residual(x, rhs).shape == (members,)  # one value per member
    assert ws.residual(x, rhs).tobytes() == want.tobytes()


def _solve_banded_layout(matrix):
    """The (5, 2N) band of ``matrix`` as ``solve_banded((2, 2), ...)`` takes it."""
    m = matrix.tocoo()
    band = np.zeros((5, matrix.shape[0]))
    band[2 + m.row - m.col, m.col] = m.data
    return band


@pytest.mark.parametrize("n", [3, 50, 800])
@pytest.mark.parametrize("graded", [False, True])
def test_factored_solve_equals_solve_banded(n, graded):
    """The once-factored dgbtrs solve is solve_banded's dgbtrf + dgbtrs, bit
    for bit.  With every alpha_i <= 1 the operator is column-dominant and the
    LU keeps its rows in place; a large step makes it pivot, still bitwise."""
    grid = (
        build_graded_grid(0.0, 10.0, n, 1.002)
        if graded
        else build_uniform_grid(0.0, 10.0, n)
    )
    p = ModelParams(tau=2.0, alpha=0.6)
    rhs = np.random.Generator(np.random.PCG64(n)).uniform(-1.0, 1.0, 2 * n)
    dt_column_dominant = grid.dx_min / p.rho
    for dt in (dt_column_dominant, 10.0 * dt_column_dominant):
        ws = ImexWorkspace.build(grid, dt, p)
        matrix = assemble_imex_matrix(ws.grid, ws.dt, ws.params, ws.boundary)
        expected = solve_banded((2, 2), _solve_banded_layout(matrix), rhs)
        assert np.array_equal(ws.solve(rhs), expected)
        no_swaps = np.array_equal(ws.pivots, np.arange(2 * n))
        assert no_swaps == (dt == dt_column_dominant)


_members_pool = hst.builds(
    ModelParams,
    tau=hst.floats(0.3, 5.0),
    mu=hst.floats(0.5, 2.0),
    alpha=hst.floats(0.1, 0.9),
)


def _scipys_csr(ab, boundary="zero_gradient", alpha=None):
    """The operator as scipy built it from the band: by way of DIA and CSC, plus a
    periodic operator's wrap-around entries, and its margins by scipy's row sums."""
    size = ab.shape[1]
    matrix = sp.dia_matrix((ab[2:], [2, 1, 0, -1, -2]), shape=(size, size)).tocsc().tocsr()
    if boundary == "periodic":
        rows, cols = [1, 1, size - 2, size - 2], [1, size - 1, size - 2, 0]
        vals = [alpha[0], -alpha[0], alpha[-1], -alpha[-1]]
        matrix = matrix + sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    margins = 2.0 * np.abs(matrix.diagonal()) - np.asarray(np.abs(matrix).sum(axis=1)).ravel()
    return matrix, margins


def _assert_same_csr(csr, matrix):
    for got, want in zip(csr[:3], (matrix.data, matrix.indices, matrix.indptr)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert csr.shape == matrix.shape


@settings(max_examples=50, deadline=None)
@given(
    grids=hst.lists(hst.tuples(hst.integers(3, 40), hst.booleans()), min_size=1, max_size=4),
    members=hst.lists(_members_pool, min_size=4, max_size=4),
    steps=hst.lists(hst.sampled_from([1e-3, 0.1, 1.0]) | hst.floats(1e-6, 1e18),
                    min_size=4, max_size=4),
)
@example(grids=[(5, False)] * 2, members=[ModelParams(tau=1.0)] * 4, steps=[1e16] * 4)
def test_csr_arrays_and_margins_are_scipys_bitwise(grids, members, steps):
    """The operator's CSR arrays, built from the band with numpy, are the
    ``indptr``, ``indices`` and ``data`` (dtypes too) of scipy's
    ``dia_matrix(...).tocsc().tocsr()``, zeros dropped alike, and its margins are
    2 |diagonal| - ``np.abs(csr).sum(axis=1)`` bit for bit, also past alpha of
    1e16, where the Gershgorin bound is lost by rounding: on stacks of one to four
    members, each on its own uniform or graded grid, with a per-member dt column."""
    count = len(grids)
    made = [build_graded_grid(0.0, 10.0, n, 1.05) if graded else build_uniform_grid(0.0, 10.0, n)
            for n, graded in grids]
    state = State.stack([State.diagonal(np.zeros(g.n_cells), np.zeros(g.n_cells), g, p)
                         for g, p in zip(made, members)])
    dt = state.params.column(np.array(steps[:count])) if count > 1 else steps[0]
    ab, csr = timestepping._imex_operator(state.grid, dt, state.params, "zero_gradient")
    matrix, margins = _scipys_csr(ab)
    _assert_same_csr(csr, matrix)
    assert gershgorin_margins(csr).tobytes() == margins.tobytes()
    assembled = assemble_imex_matrix(state.grid, dt, state.params)
    assert gershgorin_margins(assembled).tobytes() == margins.tobytes()


@pytest.mark.parametrize("dt", [1e-3, 0.1, 2.0, 1e17])
def test_periodic_csr_arrays_and_margins_are_scipys_bitwise(dt):
    """A periodic single-member operator: the band's CSR plus the wrap-around
    entries, as scipy's sum of the two matrices gives them, and its margins."""
    grid = build_graded_grid(0.0, 10.0, 12, 1.1)
    p = ModelParams(tau=0.7, mu=2.0, alpha=0.3)
    ab, csr = timestepping._imex_operator(grid, dt, p, "periodic")
    matrix, margins = _scipys_csr(ab, "periodic", p.rho * dt / grid.cell_lengths)
    _assert_same_csr(csr, matrix)
    assert gershgorin_margins(csr).tobytes() == margins.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(3, 400),
    graded=hst.booleans(),
    members=hst.lists(_members_pool, min_size=1, max_size=4),
    factor=hst.sampled_from([0.25, 1.0]) | hst.floats(0.1, 1.0) | hst.floats(1.5, 20.0),
    seed=hst.integers(0, 2**16),
)
@example(n=400, graded=False, members=[ModelParams(tau=1.0)] * 3, factor=10.0, seed=0)
@example(n=400, graded=True, members=[ModelParams(tau=1.0)] * 3, factor=0.5, seed=0)
def test_solve_is_dgbtrs_bitwise_on_both_paths(n, graded, members, factor, seed):
    """``solve`` equals ``dgbtrs`` on the workspace's factors bit for bit.  A
    workspace whose LU moved no row solves by the two triangular sweeps, any
    other by ``dgbtrs``; with every alpha_i = rho dt / dx_i <= 1 no row moves."""
    grid = (
        build_graded_grid(0.0, 10.0, n, 1.0 + 2.0 / n)
        if graded
        else build_uniform_grid(0.0, 10.0, n)
    )
    state = State.stack([State.diagonal(np.zeros(n), np.zeros(n), grid, q) for q in members])
    dt = factor * grid.dx_min / max(q.rho for q in members)
    ws = ImexWorkspace.build(state.grid, dt, state.params)
    no_swaps = np.array_equal(ws.pivots, np.arange(2 * n * len(members)))
    assert (ws.bands is not None) == no_swaps
    if factor <= 1.0:
        assert no_swaps
    if ws.bands is not None:
        lower, upper = ws.bands
        assert lower.flags.f_contiguous and upper.flags.f_contiguous
        assert np.array_equal(lower, ws.lu[4:7]) and np.array_equal(upper, ws.lu[0:5])
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * n * len(members))
    before = rhs.copy()
    want = dgbtrs(ws.lu, 2, 2, rhs, ws.pivots)[0]
    assert ws.solve(rhs).tobytes() == want.tobytes()
    assert rhs.tobytes() == before.tobytes()  # the right-hand side is left as it was


def test_residual_guard_catches_corrupted_factor():
    grid = build_uniform_grid(0.0, 10.0, 40)
    p = ModelParams(tau=1.0, alpha=0.7)
    ws = ImexWorkspace.build(grid, 0.05, p)
    st = _random_diagonal(grid, p, 11)
    imex_step(st, 0.05, ws)
    ws.bands[1][4, 17] *= 1.0 + 1e-6  # one diagonal entry of U, as the sweeps read it
    with pytest.raises(RuntimeError, match="residual"):
        imex_step(st, 0.05, ws)


def test_residual_guard_catches_corrupted_pivoted_factor():
    grid = build_uniform_grid(0.0, 10.0, 40)
    p = ModelParams(tau=1.0, alpha=0.7)
    dt = 4.0 * grid.dx_min / p.rho
    ws = ImexWorkspace.build(grid, dt, p)
    assert ws.bands is None  # rows moved: dgbtrs solves with lu and pivots
    st = _random_diagonal(grid, p, 11)
    imex_step(st, dt, ws)
    ws.lu[4, 17] *= 1.0 + 1e-6  # one diagonal entry of U
    with pytest.raises(SolveError, match="^linear solve residual"):
        imex_step(st, dt, ws)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1, 0.0, np.repeat([0.1, np.nan], 8)])
def test_step_apis_reject_a_dt_that_is_not_positive_and_finite(dt):
    """The IMEX operator and the explicit step reject a NaN or infinite step,
    also one member's in a column of per-member steps, instead of stepping with it."""
    grid = build_uniform_grid(0.0, 1.0, 8)
    members = (ModelParams(tau=1.0), ModelParams(tau=2.0))
    state = State.stack([State.physical(np.zeros(8), np.zeros(8), grid, q) for q in members])
    with pytest.raises(ValueError, match="positive and finite"):
        ImexWorkspace.build(state.grid, dt, state.params)
    with pytest.raises(ValueError, match="positive and finite"):
        assemble_imex_matrix(state.grid, dt, state.params)
    if np.ndim(dt) == 0:
        with pytest.raises(ValueError, match="positive and finite"):
            ImexWorkspace.build(grid, dt, members[0], "periodic")

    def never(_):
        raise AssertionError("a rejected step evaluates no right-hand side")

    for method in EXPLICIT:
        with pytest.raises(ValueError, match="positive and finite"):
            explicit_step(state, dt, never, method)


@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
def test_imex_step_nan_cell_raises_blow_up(boundary):
    grid = build_uniform_grid(0.0, 10.0, 40)
    p = ModelParams(tau=1.0, alpha=0.7)
    ws = ImexWorkspace.build(grid, 0.05, p, boundary)
    st = _random_diagonal(grid, p, 12)
    r = st.a.copy()
    r[9] = np.nan
    with pytest.raises(BlowUpError, match="^solution became non-finite$"):
        imex_step(st.with_components(r, st.b), 0.05, ws)


def _kick(cell, da, db):
    """Right-hand side that is zero but for ``da`` and ``db`` in one cell."""

    def rhs(state):
        out_a, out_b = np.zeros_like(state.a), np.zeros_like(state.b)
        out_a.reshape(-1)[cell], out_b.reshape(-1)[cell] = da, db
        return out_a, out_b

    return rhs


def test_explicit_step_opposite_infinities_are_non_finite():
    """r = +inf and s = -inf leave a NaN density, which fails the density
    bound; the check then finds the non-finite components, in the member."""
    grid = build_uniform_grid(0.0, 1.0, 8)
    members = [ModelParams(tau=1.0, alpha=a) for a in (0.3, 0.5, 0.7)]
    states = [State.diagonal(np.full(8, 0.25), np.full(8, 0.25), grid, m) for m in members]
    solo, ensemble = states[0], State.stack(states)
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowUpError, match="^solution became non-finite$"):
            explicit_step(solo, 0.1, _kick(3, np.inf, -np.inf))
        with pytest.raises(BlowUpError, match="^member 1: solution became non-finite$") as info:
            explicit_step(ensemble, 0.1, _kick(8 + 3, np.inf, -np.inf))
    assert info.value.member == 1


@pytest.mark.parametrize("kind", ["physical", "onefield"])
def test_explicit_step_non_finite_second_component_raises(kind):
    """A bounded, finite density does not prove the flux (or w) finite."""
    grid = build_uniform_grid(0.0, 1.0, 8)
    st = State(kind, np.full(8, 0.5), np.zeros(8), grid, ModelParams(tau=1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(BlowUpError, match="^solution became non-finite$"):
            explicit_step(st, 0.1, _kick(5, 0.0, bad))


@pytest.mark.parametrize(
    "kind, method",
    [("kinetic_first_order", "imex")] + [(k, m) for k in SCHEMES for m in EXPLICIT],
)
def test_direct_step_on_a_huge_state_raises_blow_up_without_a_warning(kind, method):
    """A step called outside ``run_ensemble`` overflows as quietly as one inside
    it: the constant state 1e300 fails the step's check, with no numpy warning."""
    grid = build_uniform_grid(0.0, 1.0, 8)
    cfg = SchemeConfig(kind)
    st = State(SCHEMES[kind].representation, np.full(8, 1e300), np.full(8, 1e300), grid,
               ModelParams(tau=1.0, alpha=0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match="^solution became non-finite$"):
            if method == "imex":
                imex_step(st, 0.1, ImexWorkspace.build(grid, 0.1, st.params))
            else:
                explicit_step(st, 0.1, rhs_for_scheme(cfg), method)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_imex_run_blow_up_messages_at_step_0(integrator):
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0)
    cfg = SchemeConfig("kinetic_first_order")
    u = np.full(8, 0.5)
    u[3] = np.nan
    with pytest.raises(BlowUpError, match="non-finite at step 0$") as excinfo:
        run(State.physical(u, np.zeros(8), grid, p), cfg, integrator, T=1.0, dt=0.1)
    assert excinfo.value.step == 0
    u = np.full(8, 12.0)
    with pytest.raises(BlowUpError, match=r"density left \[-10, 10\] at step 0$") as excinfo:
        run(State.physical(u, np.zeros(8), grid, p), cfg, integrator, T=1.0, dt=0.1)
    assert excinfo.value.step == 0


@pytest.mark.parametrize("T, dt", [(np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan)])
def test_run_rejects_non_finite_T_and_dt(T, dt):
    grid = build_uniform_grid(0.0, 1.0, 8)
    st = State.physical(np.zeros(8), np.zeros(8), grid, ModelParams(tau=1.0))
    with pytest.raises(ValueError, match="positive and finite"):
        run(st, SchemeConfig("kinetic_first_order"), "imex", T=T, dt=dt)


# -------------------------------------------------------------- explicit step --


def test_explicit_step_identity_for_zero_rhs():
    grid = build_uniform_grid(0.0, 1.0, 4)
    p = ModelParams(tau=1.0)
    st = State.physical(np.linspace(0, 1, 4), np.zeros(4), grid, p)
    zero = lambda s: (np.zeros(4), np.zeros(4))
    for method in EXPLICIT:
        new = explicit_step(st, 0.3, zero, method)
        assert np.array_equal(new.a, st.a)
        assert np.array_equal(new.b, st.b)


def test_parabolic_reference_keeps_the_flux_frozen():
    """The parabolic scheme's RHS has no flux derivative; both explicit
    methods carry the flux array over untouched instead of adding h * 0."""
    grid = build_uniform_grid(0.0, 4.0, 10)
    st = State.physical(np.linspace(0.0, 1.0, 10), np.linspace(-1.0, 1.0, 10), grid,
                        ModelParams(tau=1.0))
    rhs = rhs_for_scheme(SchemeConfig("parabolic_reference"))
    assert rhs(st)[1] is None
    for method in EXPLICIT:
        assert explicit_step(st, 0.01, rhs, method).b is st.b


def test_heun_linear_growth_factor():
    grid = build_uniform_grid(0.0, 1.0, 3)
    p = ModelParams(tau=1.0)
    lam = -0.7
    st = State.physical(np.ones(3), np.ones(3), grid, p)
    linear = lambda s: (lam * s.a, lam * s.b)
    dt = 0.2
    heun = explicit_step(st, dt, linear, "heun")
    expected = 1.0 + lam * dt + 0.5 * (lam * dt) ** 2
    assert np.allclose(heun.a, expected, rtol=1e-14)
    euler = explicit_step(st, dt, linear, "euler")
    assert np.allclose(euler.a, 1.0 + lam * dt, rtol=1e-14)


def test_euler_step_on_three_cell_example():
    # one Euler step of the frozen first-order stencil example
    grid = build_uniform_grid(0.0, 3.0, 3)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.5)
    st = State.diagonal(np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.5, 0.5]), grid, p)
    cfg = SchemeConfig("kinetic_first_order")
    dt = 0.1
    new = explicit_step(st, dt, lambda s: rhs_kinetic_first_order(s, cfg), "euler")
    assert np.allclose(new.a, [0.0, 0.075, 0.5], atol=1e-15)
    assert np.allclose(new.b, [0.0, 0.425, 0.5], atol=1e-15)


def test_explicit_step_blow_up_detection():
    grid = build_uniform_grid(0.0, 1.0, 3)
    p = ModelParams(tau=1.0)
    st = State.physical(np.ones(3), np.zeros(3), grid, p)
    exploding = lambda s: (np.full(3, 1e12), np.zeros(3))
    with pytest.raises(BlowUpError):
        explicit_step(st, 1.0, exploding, "euler")


# ----------------------------------------------------------------- step size --


def test_suggest_dt_transport_bound():
    # rho = 1, min dx = 0.125, small kappa keeps other caps inactive
    grid = build_uniform_grid(0.0, 25.0, 200)
    p = ModelParams(tau=1.0, mu=1.0, kappa=0.1, alpha=0.5)
    dt = suggest_dt(grid, p, SchemeConfig("kinetic_first_order"), safety=0.9)
    assert dt == pytest.approx(0.1125, rel=1e-12)


def test_suggest_dt_respects_fast_characteristics():
    grid = build_uniform_grid(0.0, 8.0, 8)
    p = ModelParams(tau=1.0, mu=4.0, kappa=0.01, alpha=0.5)  # rho = 2
    dt = suggest_dt(grid, p, SchemeConfig("kinetic_first_order"), safety=1.0)
    assert dt <= 0.5 + 1e-12


def test_suggest_dt_parabolic_diffusive_bound():
    grid = build_uniform_grid(0.0, 1.0, 10)  # dx = 0.1
    p = ModelParams(tau=1.0, mu=1.0, kappa=0.1, alpha=0.5)
    for safety in (0.5, 0.9):
        dt = suggest_dt(grid, p, SchemeConfig("parabolic_reference"), safety=safety)
        assert dt <= 0.005 * safety + 1e-15
        assert dt == pytest.approx(0.005 * safety, rel=1e-12)


@pytest.mark.parametrize("safety", [0.0, -0.5, 1.5, float("nan")])
def test_suggest_dt_refuses_a_safety_outside_0_1(safety):
    grid = build_uniform_grid(0.0, 1.0, 10)
    with pytest.raises(ValueError, match=r"safety must lie in \(0, 1\]"):
        suggest_dt(grid, ModelParams(tau=1.0), SchemeConfig("kinetic_first_order"), safety=safety)


def test_suggest_dt_imex_reaction_only():
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.9)
    # max |f'| over [-0.1, 1.1] sits at u = -0.1 for alpha = 0.9
    fp = abs(p.kappa * (-3 * 0.01 + 2 * 1.9 * -0.1 - 0.9))
    assert _max_abs_f_prime(p) == pytest.approx(fp, rel=1e-12)
    # on a coarse grid the reaction scale is the binding bound
    grid = build_uniform_grid(0.0, 10.0, 10)
    dt = suggest_dt(grid, p, SchemeConfig("kinetic_first_order"), safety=1.0)
    assert dt == pytest.approx(1.0 / fp, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_scheme_table_drives_representation_step_size_and_imex(kind):
    spec = SCHEMES[kind]
    cfg = SchemeConfig(kind)
    # dx_min = 0.187: transport binds the kinetic kinds, diffusion the others
    grid = build_graded_grid(0.0, 4.0, 12, 1.1)
    p = ModelParams(tau=0.8, mu=1.3, kappa=2.0, alpha=0.35, nu=0.4)
    st = State.physical(np.linspace(0.0, 1.0, 12), np.full(12, 0.1), grid, p)
    assert prepare_state_for_scheme(st, cfg).kind == spec.representation
    dx = grid.dx_min
    caps = [1.0 / _max_abs_f_prime(p), dx / p.rho, 2.0 * p.tau]
    if kind == "gk_pseudo_kinetic":
        caps.append(0.5 * dx**2 / (p.nu + 0.5 * p.rho * dx))
    if kind in ("onefield_direct", "onefield_alternative", "parabolic_reference"):
        caps.append(0.5 * dx**2 / (p.mu + p.nu))
    assert suggest_dt(grid, p, cfg, safety=0.7) == 0.7 * min(caps)
    if spec.imex:
        assert run(st, cfg, "imex", T=0.1, dt=0.05).diagnostics.times.size == 2
    else:
        with pytest.raises(ValueError, match="IMEX"):
            run(st, cfg, "imex", T=0.1, dt=0.05)


# ----------------------------------------------------------------- run driver --


def test_run_single_step_when_T_equals_dt():
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0, alpha=0.5)
    st = State.physical(np.full(8, 0.5), np.zeros(8), grid, p)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=0.25, dt=0.25)
    assert out.diagnostics.times.shape == (1,)
    assert out.diagnostics.times[0] == pytest.approx(0.25)


def test_run_equilibrium_stays_fixed():
    grid = build_uniform_grid(0.0, 2.0, 12)
    p = ModelParams(tau=1.5, alpha=0.35)
    u0 = np.ones(12)
    st = State.physical(u0, np.zeros(12), grid, p)
    for integrator, scheme in (
        ("imex", SchemeConfig("kinetic_first_order")),
        ("heun", SchemeConfig("kinetic_first_order")),
        ("euler", SchemeConfig("kinetic_second_order")),
        ("heun", SchemeConfig("gk_pseudo_kinetic")),
        ("heun", SchemeConfig("onefield_direct")),
        ("heun", SchemeConfig("onefield_alternative")),
        ("heun", SchemeConfig("parabolic_reference")),
    ):
        out = run(st, scheme, integrator, T=0.5, dt=0.01)
        final = out.final_state
        assert np.max(np.abs(final.u - 1.0)) <= 1e-12, (integrator, scheme.kind)
        assert np.max(np.abs(out.diagnostics.speeds)) <= 1e-12


def test_run_snapshot_schedule():
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0)
    st = State.physical(np.full(8, 0.3), np.zeros(8), grid, p)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=1.0, dt=0.1,
              sample_every=3)
    times = [t for t, _ in out.snapshots]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(t <= 1.0 + 1e-12 for t in times)


def test_run_shortened_last_step():
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0)
    st = State.physical(np.full(8, 1.0), np.zeros(8), grid, p)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=0.25, dt=0.1)
    assert out.diagnostics.times[-1] == pytest.approx(0.25, abs=1e-14)
    assert out.diagnostics.times.shape == (3,)


def test_run_blow_up_carries_step_index():
    grid = build_uniform_grid(0.0, 1.0, 8)
    # enormous reaction with a huge step makes Euler diverge immediately
    p = ModelParams(tau=1.0, kappa=500.0, alpha=0.5)
    st = State.physical(np.full(8, 2.0), np.zeros(8), grid, p)
    with pytest.raises(BlowUpError) as excinfo:
        run(st, SchemeConfig("parabolic_reference"), "euler", T=10.0, dt=1.0)
    assert excinfo.value.step is not None


def test_run_rejects_imex_for_second_order():
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0)
    st = State.physical(np.zeros(8), np.zeros(8), grid, p)
    with pytest.raises(ValueError, match="^the IMEX step does not discretize the "
                       "kinetic_second_order scheme; use an explicit integrator$"):
        run(st, SchemeConfig("kinetic_second_order"), "imex", T=1.0, dt=0.1)
    with pytest.raises(ValueError, match="^unknown integrator 'rk4'$"):
        run(st, SchemeConfig("kinetic_first_order"), "rk4", T=1.0, dt=0.1)


def test_explicit_step_rejects_an_unknown_method():
    grid = build_uniform_grid(0.0, 1.0, 4)
    st = State.physical(np.zeros(4), np.zeros(4), grid, ModelParams(tau=1.0))
    with pytest.raises(ValueError, match="^unknown explicit method 'rk4'$"):
        explicit_step(st, 0.1, lambda s: (np.zeros(4), np.zeros(4)), "rk4")


def test_imex_and_heun_consistent_as_dt_shrinks():
    """One IMEX step and one Heun step approximate the same semi-discrete
    flow; their difference shrinks at least linearly in dt."""
    grid = build_uniform_grid(0.0, 2.0, 20)
    p = ModelParams(tau=1.0, mu=1.0, kappa=1.0, alpha=0.4)
    cfg = SchemeConfig("kinetic_first_order")
    st = _random_diagonal(grid, p, 3)
    gaps, dts = [], []
    dt = 0.04
    for _ in range(4):
        a = imex_step(st, dt, ImexWorkspace.build(grid, dt, p))
        b = explicit_step(st, dt, lambda s: rhs_kinetic_first_order(s, cfg), "heun")
        gaps.append(max(np.max(np.abs(a.a - b.a)), np.max(np.abs(a.b - b.b))))
        dts.append(dt)
        dt /= 2.0
    slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert slope >= 1.0


@pytest.mark.parametrize(
    "integrator, kind",
    [("imex", "kinetic_first_order"), ("heun", "kinetic_second_order"),
     ("euler", "gk_pseudo_kinetic")],
)
def test_run_diagnostics_are_the_diagnostics_functions(integrator, kind):
    """With a snapshot every step, run()'s per-step columns are the
    diagnostics functions applied to consecutive snapshots, bit for bit,
    the shortened last step included."""
    grid = build_graded_grid(-5.0, 5.0, 60, 1.01)
    p = ModelParams(tau=2.0, alpha=0.6, nu=0.3)
    front = FrontProfile(p, increasing=True)
    u0 = project_cell_averages(front, grid)
    T, dt = 0.25, 0.02
    out = run(State.physical(u0, np.zeros(60), grid, p), SchemeConfig(kind), integrator,
              T=T, dt=dt, sample_every=1, reference=front)
    d = out.diagnostics
    us = [state.u for _t, state in out.snapshots]
    ref = project_cell_averages(front, grid)
    n = d.times.size
    assert n == 13 and len(us) == n + 1
    steps = [dt] * (n - 1) + [T - (n - 1) * dt]
    for k in range(n):
        masses = [mass(us[k], grid), mass(us[k + 1], grid)]
        assert d.speeds[k] == speeds_from_masses(masses, steps[k])[0]
        assert d.l2[k] == l2_distance(us[k + 1], ref, grid)
        assert d.linf[k] == linf_distance(us[k + 1], ref)
        assert d.g_min[k] == g_profile(us[k + 1], p).min()


# the three IMEX solve paths, each with the residual guard's product, on one stack:
# ``kernel_runs()`` is the digest of their final states, here and in a fresh interpreter
_KERNEL_RUNS = """
def kernel_runs():
    import hashlib
    import numpy as np
    from hyperac.grid import build_graded_grid
    from hyperac.model import ModelParams
    from hyperac.schemes import SchemeConfig, State
    from hyperac.timestepping import run_ensemble

    grid = build_graded_grid(0.0, 10.0, 60, 1.01)
    u0 = np.where(grid.centers < 5.0, 1.0, 0.0)
    initials = [State.physical(u0, np.zeros(60), grid, p)
                for p in (ModelParams(tau=0.5), ModelParams(tau=2.0, alpha=0.3))]
    # dtbsv, then dgbtrf's moved rows and dgbtrs with a per-member last step, then SuperLU
    results = run_ensemble(initials, SchemeConfig(), "imex", T=[0.3, 0.5], dt=0.02)
    results += run_ensemble(initials, SchemeConfig(), "imex", T=[1.0, 1.6], dt=0.4)
    results += run_ensemble(initials[:1], SchemeConfig(boundary="periodic"), "imex", T=0.3, dt=0.02)
    return hashlib.sha256(b"".join(r.final_state.u.tobytes() for r in results)).hexdigest()
"""

# hyperac's scipy extensions in a fresh interpreter: ``-c _EXTENSIONS_PROBE case stack``.
# ``case`` says who loads the extensions of ``stack`` first, hyperac or scipy, or how
# hyperac's load by file fails ("no-file", "failed-load").  Either way each extension is
# one module that hyperac and scipy share.  The probe prints the stack's work in hyperac
# before scipy's imports, then the shooting speed and ``kernel_runs()`` after them.
_EXTENSIONS_PROBE = _KERNEL_RUNS + """
import importlib, importlib.machinery, importlib.util, math, sys
import numpy as np

def shoot():
    from hyperac import model
    return model.hyperbolic_front_speed_shooting(model.ModelParams(tau=4.0, alpha=0.7)).hex()

case, stack = sys.argv[1:]
public = case in ("no-file", "failed-load")
packages, names, work = {
    "integrate": (["scipy.integrate"], ["scipy.integrate._odepack"], shoot),
    "kernels": (["scipy.linalg", "scipy.sparse"],
                ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.sparse._sparsetools"],
                kernel_runs),
}[stack]
if case == "scipy-first":
    for package in packages:
        importlib.import_module(package)
    loaded = [sys.modules[name] for name in names]
    def no_second_load(spec, load=importlib.util.module_from_spec):
        assert spec.name not in names, f"{spec.name} loaded twice"
        return load(spec)
    importlib.util.module_from_spec = no_second_load
elif case == "no-file":
    importlib.machinery.EXTENSION_SUFFIXES = []  # the loader by file then finds no file
elif case == "failed-load":
    def failed_load(spec):
        raise ImportError(f"cannot load {spec.name}")
    importlib.util.module_from_spec = failed_load
from hyperac import model, timestepping
if case == "hyperac-first":
    assert not {"scipy.linalg", "scipy.sparse"} & set(sys.modules)
elif public:
    assert {"scipy.linalg", "scipy.sparse"} <= set(sys.modules)  # the public imports served
first = work()  # a periodic kernel run imports scipy.sparse
if case == "hyperac-first":
    assert "scipy.integrate" not in sys.modules
    loaded = [sys.modules[name] for name in names]
import scipy.integrate, scipy.linalg, scipy.sparse
from scipy.integrate import solve_bvp, solve_ivp
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools
if not public:
    assert all(sys.modules[name] is module for name, module in zip(names, loaded))
fblas, flapack, sparsetools, odepack = (sys.modules[name] for name in (
    "scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.sparse._sparsetools",
    "scipy.integrate._odepack"))
assert blas._fblas is fblas and lapack._flapack is flapack and _sparsetools is sparsetools
assert timestepping.dtbsv is blas.dtbsv
assert timestepping.dgbtrf is lapack.dgbtrf and timestepping.dgbtrs is lapack.dgbtrs
assert timestepping._sparsetools is sys.modules["scipy.sparse._compressed"]._sparsetools
assert timestepping._sparsetools is sparsetools
assert model._extension("scipy.integrate._odepack") is odepack
assert scipy.integrate._ode.lsoda_step is odepack.lsoda
if public:  # a module loaded by file is no attribute of its package (see README)
    assert scipy.integrate._odepack is odepack
x = np.arange(1.0, 6.0)
assert np.array_equal(scipy.sparse.csr_matrix(np.diag(x)) @ x, x * x)
assert np.allclose(scipy.linalg.solve_banded((0, 0), x[None, :], x * x), x)
sol = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="LSODA", rtol=1e-10, atol=1e-12)
assert sol.success and abs(sol.y[0, -1] - math.exp(-1.0)) < 1e-8
x = np.linspace(0.0, 0.5 * math.pi, 11)
bvp = solve_bvp(lambda x, y: np.vstack((y[1], -y[0])),
                lambda ya, yb: np.array([ya[0], yb[0] - 1.0]), x, np.zeros((2, x.size)))
assert bvp.success and abs(bvp.sol(1.0)[0] - math.sin(1.0)) < 1e-3
print(first, shoot(), kernel_runs())
"""


def _kernel_runs() -> str:
    scope = {}
    exec(_KERNEL_RUNS, scope)
    return scope["kernel_runs"]()


def _probe_output(stack: str) -> str:
    """What ``_EXTENSIONS_PROBE`` prints for ``stack``, in this process's bits."""
    speed = hyperbolic_front_speed_shooting(ModelParams(tau=4.0, alpha=0.7)).hex()
    runs = _kernel_runs()
    return f"{speed if stack == 'integrate' else runs} {speed} {runs}"


@pytest.mark.parametrize("stack", ["integrate", "kernels"])
@pytest.mark.parametrize("order", ["hyperac-first", "scipy-first"])
def test_the_loaded_extensions_are_scipys_own(fresh_python, order, stack):
    """In a fresh interpreter, whichever loads a stack's extensions first, hyperac or
    scipy, each is loaded once and shared: hyperac's LSODA, dtbsv, dgbtrf, dgbtrs and
    CSR product are scipy's own objects, scipy reuses the modules hyperac loaded and
    hyperac those scipy loaded, ``solve_ivp(method="LSODA")`` and ``solve_bvp`` work,
    and the shooting speed and the kernel runs keep this process's bits."""
    out = fresh_python("-c", _EXTENSIONS_PROBE, order, stack)
    assert out.splitlines()[-1] == _probe_output(stack)


@pytest.mark.parametrize("failure", ["no-file", "failed-load"])
def test_the_public_imports_serve_where_the_load_by_file_fails(fresh_python, failure):
    """Where an extension's file is not found or does not load, its public import
    serves: the kernels and LSODA are then those of scipy.linalg, scipy.sparse and
    scipy.integrate, and the runs and the shooting speed keep their bits."""
    out = fresh_python("-c", _EXTENSIONS_PROBE, failure, "kernels")
    assert out.splitlines()[-1] == _probe_output("kernels")
