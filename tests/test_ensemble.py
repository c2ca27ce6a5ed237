"""Ensemble stepping: B members advanced as (B, N) arrays equal their own runs bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperac import timestepping
from hyperac.grid import build_graded_grid, build_uniform_grid
from hyperac.model import FrontProfile, ModelParams, ParamColumns, reaction_f
from hyperac.schemes import BOUNDARIES, SCHEMES, SchemeConfig, State
from hyperac.timestepping import (
    BlowUpError,
    ImexWorkspace,
    SolveError,
    imex_step,
    run,
    run_ensemble,
    suggest_dt,
)

_N = 16
_GRID = build_uniform_grid(0.0, 8.0, _N)
_REFERENCE = FrontProfile(ModelParams(tau=1.0), shift=4.0, increasing=True)

# every scheme kind with both explicit integrators, and IMEX with both closures
_CASES = [(kind, method, "zero_gradient") for kind in SCHEMES for method in ("euler", "heun")]
_CASES += [("kinetic_first_order", "imex", boundary) for boundary in BOUNDARIES]

_members = st.lists(
    st.builds(
        ModelParams,
        tau=st.floats(0.3, 5.0),
        mu=st.floats(0.5, 2.0),
        kappa=st.floats(0.5, 2.0),
        alpha=st.floats(0.1, 0.9),
        nu=st.floats(0.0, 0.5),
    ),
    min_size=1,
    max_size=4,
)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _assert_same_run(got, want):
    assert _same_bits(got.final_state.a, want.final_state.a)
    assert _same_bits(got.final_state.b, want.final_state.b)
    assert got.final_state.kind == want.final_state.kind
    assert got.final_state.params == want.final_state.params
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
    for (_, g), (_, w) in zip(got.snapshots, want.snapshots):
        assert _same_bits(g.a, w.a) and _same_bits(g.b, w.b)
    for name in ("times", "speeds", "l2", "linf", "g_min"):
        assert _same_bits(getattr(got.diagnostics, name), getattr(want.diagnostics, name)), name
    assert got.diagnostics.stabilized_at == want.diagnostics.stabilized_at


def _initials(members, seed):
    rng = np.random.default_rng(seed)
    front = 0.5 * (1.0 + np.tanh(_GRID.centers - 4.0))
    return [
        State.physical(front + rng.uniform(-0.05, 0.05, _N), rng.uniform(-0.1, 0.1, _N), _GRID, p)
        for p in members
    ]


@pytest.mark.parametrize("kind, integrator, boundary", _CASES)
@settings(max_examples=20, deadline=None)
@given(members=_members, seed=st.integers(0, 2**16), last=st.floats(0.05, 0.95))
def test_ensemble_equals_solo_runs_bitwise(kind, integrator, boundary, members, seed, last):
    """Speeds, g_min, the reference distances, snapshots and final states of
    every member are those of its own run, with a shortened last step."""
    cfg = SchemeConfig(kind, boundary=boundary)
    dt = 0.5 * min(suggest_dt(_GRID, p, cfg) for p in members)
    T = (7 + last) * dt
    initials = _initials(members, seed)
    kwargs = dict(sample_every=3, reference=_REFERENCE)
    ensemble = run_ensemble(initials, cfg, integrator, T, dt, **kwargs)
    assert len(ensemble) == len(members)
    for initial, got in zip(initials, ensemble):
        want = run(initial, cfg, integrator, T, dt, **kwargs)
        assert want.diagnostics.times.size == 8
        _assert_same_run(got, want)


def _blow_up(call):
    with pytest.raises(BlowUpError) as excinfo:
        call()
    return excinfo.value


@pytest.mark.parametrize("integrator", ["imex", "euler", "heun"])
def test_ensemble_blow_up_names_the_member_and_its_solo_step(integrator):
    """Members 1 and 2 overshoot the stable zero u = 1 until they leave the
    trust region; member 1 (larger kappa) goes first and is the one reported,
    at the step its own run reports."""
    grid = build_uniform_grid(0.0, 4.0, 8)
    kappas = (1.0, 120.0, 100.0)
    initials = [
        State.physical(np.full(8, 1.01), np.zeros(8), grid, ModelParams(tau=1.0, kappa=k))
        for k in kappas
    ]
    cfg = SchemeConfig("kinetic_first_order")
    solo = [_blow_up(lambda s=s: run(s, cfg, integrator, T=10.0, dt=0.1)) for s in initials[1:]]
    assert solo[0].step < solo[1].step
    err = _blow_up(lambda: run_ensemble(initials, cfg, integrator, T=10.0, dt=0.1))
    assert (err.member, err.step) == (1, solo[0].step)
    assert str(err) == f"member 1: {solo[0]}"
    assert solo[0].member == 0 and not str(solo[0]).startswith("member")


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_ensemble_nan_member_fails_alone(boundary):
    """A NaN in member 2 fails member 2 at step 0; the shared band solve
    does not let it fail members 0 and 1 first."""
    grid = build_uniform_grid(0.0, 4.0, 12)
    initials = []
    for alpha in (0.3, 0.5, 0.7):
        u = np.linspace(0.0, 1.0, 12)
        if alpha == 0.7:
            u[5] = np.nan
        initials.append(State.physical(u, np.zeros(12), grid, ModelParams(tau=2.0, alpha=alpha)))
    cfg = SchemeConfig("kinetic_first_order", boundary=boundary)
    err = _blow_up(lambda: run_ensemble(initials, cfg, "imex", T=1.0, dt=0.1))
    assert (err.member, err.step) == (2, 0)
    assert str(err) == "member 2: solution became non-finite at step 0"
    for initial in initials[:2]:  # the others run to the end on their own
        run(initial, cfg, "imex", T=1.0, dt=0.1)


def test_run_ensemble_rejects_members_that_do_not_share_a_grid():
    p, q = ModelParams(tau=1.0), ModelParams(tau=2.0)
    a = State.physical(np.zeros(10), np.zeros(10), build_uniform_grid(0.0, 1.0, 10), p)
    same = State.physical(np.zeros(10), np.zeros(10), build_uniform_grid(0.0, 1.0, 10), q)
    cfg = SchemeConfig("kinetic_first_order")
    assert len(run_ensemble([a, same], cfg, "imex", T=0.2, dt=0.1)) == 2
    graded = build_graded_grid(0.0, 1.0, 10, 1.1)
    for other in (
        State.physical(np.zeros(12), np.zeros(12), build_uniform_grid(0.0, 1.0, 12), q),
        State.physical(np.zeros(10), np.zeros(10), graded, q),
    ):
        with pytest.raises(ValueError, match="share one grid"):
            run_ensemble([a, other], cfg, "imex", T=0.2, dt=0.1)
    with pytest.raises(ValueError, match="at least one member"):
        run_ensemble([], cfg, "imex", T=0.2, dt=0.1)


def _members(count):
    return [ModelParams(tau=0.5 + k, mu=1.0 + 0.3 * k, alpha=0.3 + 0.2 * k) for k in range(count)]


@pytest.mark.parametrize("n", [50, 400, 800])
@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_ensemble_band_is_the_members_bands_side_by_side(n, dt):
    """The concatenated band factors to each member's LU and pivots (offset
    by the member's first row) and solves each member's system, bit for bit,
    the pivoting cases (N = 400 and 800 at dt = 0.1) included."""
    grid = build_uniform_grid(0.0, 50.0, n)
    members = _members(3)
    ws = ImexWorkspace.build(grid, dt, ParamColumns(tuple(members)))
    m = 2 * n
    rhs = np.random.default_rng(n).uniform(-1.0, 1.0, (3, m))
    x = ws.solve(rhs)
    pivoted = False
    for k, p in enumerate(members):
        own = ImexWorkspace.build(grid, dt, p)
        assert np.array_equal(ws.lu[:, k * m : (k + 1) * m], own.lu)
        assert np.array_equal(ws.pivots[k * m : (k + 1) * m], own.pivots + k * m)
        assert _same_bits(x[k], own.solve(rhs[k]))
        pivoted |= not np.array_equal(own.pivots, np.arange(m))
    # rows are interchanged where some alpha_i = rho dt / dx_i exceeds 1
    assert pivoted == (max(p.rho for p in members) * dt / grid.dx_min > 1.0)
    assert np.all(ws.residual(x, rhs) <= 1e-12)


def test_periodic_ensemble_solves_each_member_with_its_own_factor():
    grid = build_uniform_grid(0.0, 10.0, 40)
    members = _members(3)
    ws = ImexWorkspace.build(grid, 0.05, ParamColumns(tuple(members)), "periodic")
    assert len(ws.lu) == 3
    rhs = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 80))
    x = ws.solve(rhs)
    for k, p in enumerate(members):
        assert _same_bits(x[k], ImexWorkspace.build(grid, 0.05, p, "periodic").solve(rhs[k]))


def test_residual_guard_names_the_member():
    grid = build_uniform_grid(0.0, 10.0, 40)
    members = _members(3)
    state = State.stack(
        [State.diagonal(np.full(40, 0.2), np.full(40, 0.3), grid, p) for p in members]
    )
    ws = ImexWorkspace.build(grid, 0.05, state.params)
    imex_step(state, 0.05, ws)
    ws.lu[4, 80 + 17] *= 1.0 + 1e-6  # one diagonal entry of member 1's U
    with pytest.raises(SolveError, match="^member 1: linear solve residual"):
        imex_step(state, 0.05, ws)


def test_gershgorin_build_check_names_the_member(monkeypatch):
    grid = build_uniform_grid(0.0, 1.0, 5)

    def lost_in_member_2(matrix):
        margins = np.ones(matrix.shape[0])
        margins[2 * 10 + 3] = 0.5
        return margins

    monkeypatch.setattr(timestepping, "gershgorin_margins", lost_in_member_2)
    with pytest.raises(RuntimeError, match="^member 2: implicit operator lost"):
        ImexWorkspace.build(grid, 0.1, ParamColumns(tuple(_members(3))))


def test_density_is_formed_once_per_state():
    grid = build_uniform_grid(0.0, 1.0, 4)
    state = State.diagonal(np.ones(4), np.full(4, 2.0), grid, ModelParams(tau=1.0))
    assert state.u is state.u and np.array_equal(state.u, np.full(4, 3.0))
    stacked = State.stack([state, state])
    assert stacked.u.shape == (2, 4) and stacked.u is stacked.u
    assert State.stack([state]) is state


def test_param_columns_hold_each_members_scalars():
    members = _members(3)
    cols = ParamColumns(tuple(members))
    for name in ("tau", "mu", "kappa", "alpha", "nu", "rho"):
        column = getattr(cols, name)
        assert column.shape == (3, 1)
        assert [c for c in column[:, 0]] == [getattr(p, name) for p in members]
    u = np.linspace(-0.1, 1.1, 12)
    stacked = reaction_f(np.stack([u] * 3), cols)
    for k, p in enumerate(members):
        assert _same_bits(stacked[k], reaction_f(u, p))
