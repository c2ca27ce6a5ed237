"""Ensemble stepping: B members advanced as one ensemble state equal their own runs bit for bit.

Members on one grid step as (B, N) arrays; IMEX members on grids of their own
step side by side in flat arrays.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperac import timestepping
from hyperac.grid import build_graded_grid, build_uniform_grid
from hyperac.model import FrontProfile, ModelParams, ParamColumns, reaction_f
from hyperac.schemes import SCHEMES, SchemeConfig, State
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

# every scheme kind with both explicit integrators, and IMEX (a periodic IMEX
# operator is single-member, so IMEX ensembles are zero-gradient)
_CASES = [(kind, method, "zero_gradient") for kind in SCHEMES for method in ("euler", "heun")]
_CASES += [("kinetic_first_order", "imex", "zero_gradient")]

_params = st.builds(
    ModelParams,
    tau=st.floats(0.3, 5.0),
    mu=st.floats(0.5, 2.0),
    kappa=st.floats(0.5, 2.0),
    alpha=st.floats(0.1, 0.9),
    nu=st.floats(0.0, 0.5),
)
_members = st.lists(_params, min_size=1, max_size=4)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _final_is_last_snapshot(result) -> bool:
    return bool(result.snapshots) and result.final_state is result.snapshots[-1][1]


def _assert_same_run(got, want):
    # a final state sampled at the last step is that snapshot, as in its own run
    assert _final_is_last_snapshot(got) == _final_is_last_snapshot(want)
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


# a member's stop time is (steps + fraction) * dt: the pool makes equal stop
# times, stop times less than one dt apart and whole multiples of dt common
_stops = st.lists(
    st.tuples(st.integers(5, 7), st.sampled_from([0.3, 0.6, 1.0]) | st.floats(0.05, 0.95)),
    min_size=4,
    max_size=4,
)


@pytest.mark.parametrize("kind, integrator, boundary", _CASES)
@settings(max_examples=20, deadline=None)
@given(members=_members, seed=st.integers(0, 2**16), stops=_stops)
def test_ensemble_equals_solo_runs_bitwise(kind, integrator, boundary, members, seed, stops):
    """Speeds, g_min, the reference distances, snapshots and final states of
    every member are those of its own run to its own stop time, with a
    shortened last step."""
    cfg = SchemeConfig(kind, boundary=boundary)
    dt = 0.5 * min(suggest_dt(_GRID, p, cfg) for p in members)
    stops = stops[: len(members)]
    T = [(steps + fraction) * dt for steps, fraction in stops]
    initials = _initials(members, seed)
    kwargs = dict(sample_every=3, reference=_REFERENCE)
    ensemble = run_ensemble(initials, cfg, integrator, T, dt, **kwargs)
    assert len(ensemble) == len(members)
    for initial, stop, (steps, _), got in zip(initials, T, stops, ensemble):
        want = run(initial, cfg, integrator, stop, dt, **kwargs)
        assert want.diagnostics.times.size == steps + 1
        _assert_same_run(got, want)


@pytest.mark.parametrize("integrator", ["imex", "euler", "heun"])
def test_ensemble_member_stabilises_as_in_its_solo_run(integrator):
    """Member 0's front is stationary (alpha = 1/2) and its speed series
    flattens within the 200-step window; the ensemble reports the same
    stabilisation time as the member's own run, next to members that stop
    earlier or do not stabilise."""
    members = [ModelParams(tau=1.0), ModelParams(tau=2.0, alpha=0.6), ModelParams(tau=0.5)]
    cfg = SchemeConfig("kinetic_first_order")
    dt = 0.5 * min(suggest_dt(_GRID, p, cfg) for p in members)
    T = [300 * dt, 250.5 * dt, 299.7 * dt]
    front = 0.5 * (1.0 + np.tanh(_GRID.centers - 4.0))
    initials = [State.physical(front, np.zeros(_N), _GRID, p) for p in members]
    ensemble = run_ensemble(initials, cfg, integrator, T, dt)
    solo = [run(initial, cfg, integrator, stop, dt) for initial, stop in zip(initials, T)]
    assert solo[0].diagnostics.stabilized_at is not None
    for got, want in zip(ensemble, solo):
        assert got.diagnostics.stabilized_at == want.diagnostics.stabilized_at
        _assert_same_run(got, want)


def test_run_ensemble_takes_one_stop_time_per_member():
    p = ModelParams(tau=1.0)
    initial = State.physical(np.zeros(_N), np.zeros(_N), _GRID, p)
    cfg = SchemeConfig("kinetic_first_order")
    with pytest.raises(ValueError, match="one per member"):
        run_ensemble([initial, initial], cfg, "imex", T=[1.0, 2.0, 3.0], dt=0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        run_ensemble([initial, initial], cfg, "imex", T=[1.0, float("nan")], dt=0.1)
    short, long = run_ensemble([initial, initial], cfg, "imex", T=[0.25, 1.0], dt=0.1)
    assert short.diagnostics.times.tolist() == [0.1, 0.2, 0.25]
    assert long.diagnostics.times.size == 10 and long.diagnostics.times[-1] == 1.0


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


@pytest.mark.parametrize("integrator", ["imex", "euler", "heun"])
def test_blow_up_after_a_member_left_names_the_member_in_the_whole_ensemble(integrator):
    """Member 0 stops at t = 0.3; member 2 overshoots later, as row 1 of the
    re-stacked ensemble, and is reported as member 2 at its solo step."""
    grid = build_uniform_grid(0.0, 4.0, 8)
    initials = [
        State.physical(np.full(8, 1.01), np.zeros(8), grid, ModelParams(tau=1.0, kappa=k))
        for k in (1.0, 1.0, 100.0)
    ]
    cfg = SchemeConfig("kinetic_first_order")
    solo = _blow_up(lambda: run(initials[2], cfg, integrator, T=10.0, dt=0.1))
    assert solo.step > 3
    err = _blow_up(lambda: run_ensemble(initials, cfg, integrator, [0.3, 10.0, 10.0], dt=0.1))
    assert (err.member, err.step) == (2, solo.step)
    assert str(err) == f"member 2: {solo}"


@pytest.mark.parametrize("boundary", ["zero_gradient"])  # periodic IMEX is single-member
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


def _ramp(grid, params):
    """A physical state rising from 0 to 1 across ``grid``, with a small flux."""
    u = np.linspace(0.0, 1.0, grid.n_cells)
    return State.physical(u, 0.1 * u * (1.0 - u), grid, params)


def test_run_ensemble_rejects_members_that_do_not_share_a_grid():
    """Explicit stencils would reach across member boundaries, so euler and
    heun ensembles need one grid; IMEX members on grids of their own (N = 12,
    or graded) step side by side, and each equals its own run."""
    p, q = ModelParams(tau=1.0), ModelParams(tau=2.0)
    a = _ramp(build_uniform_grid(0.0, 1.0, 10), p)
    same = _ramp(build_uniform_grid(0.0, 1.0, 10), q)
    cfg = SchemeConfig("kinetic_first_order")
    assert len(run_ensemble([a, same], cfg, "imex", T=0.2, dt=0.1)) == 2
    graded = build_graded_grid(0.0, 1.0, 10, 1.1)
    for other in (_ramp(build_uniform_grid(0.0, 1.0, 12), q), _ramp(graded, q)):
        for integrator in ("euler", "heun"):
            with pytest.raises(ValueError, match="share one grid"):
                run_ensemble([a, other], cfg, integrator, T=0.2, dt=0.05)
        ragged = run_ensemble([a, other, same], cfg, "imex", T=[0.2, 0.25, 0.3], dt=0.1)
        for initial, stop, got in zip((a, other, same), (0.2, 0.25, 0.3), ragged):
            _assert_same_run(got, run(initial, cfg, "imex", T=stop, dt=0.1))
    with pytest.raises(ValueError, match="at least one member"):
        run_ensemble([], cfg, "imex", T=0.2, dt=0.1)


def _ragged_grids():
    return [
        build_uniform_grid(0.0, 4.0, 12),
        build_graded_grid(0.0, 4.0, 9, 1.2),
        build_uniform_grid(0.0, 4.0, 20),
        build_graded_grid(0.0, 4.0, 15, 0.9),
    ]


def test_ragged_ensemble_nan_member_fails_alone():
    """Members on four different grids; a NaN in member 2 fails member 2 at
    step 0, named by its place in the whole ensemble, and the shared band
    solve does not let it fail its neighbours first."""
    initials = [
        _ramp(grid, ModelParams(tau=2.0, alpha=0.3 + 0.1 * k))
        for k, grid in enumerate(_ragged_grids())
    ]
    u = initials[2].a.copy()
    u[5] = np.nan
    initials[2] = State.physical(u, initials[2].b, initials[2].grid, initials[2].params)
    cfg = SchemeConfig("kinetic_first_order")
    err = _blow_up(lambda: run_ensemble(initials, cfg, "imex", T=1.0, dt=0.1))
    assert (err.member, err.step) == (2, 0)
    assert str(err) == "member 2: solution became non-finite at step 0"
    others = initials[:2] + initials[3:]  # they run to the end, as on their own
    for initial, got in zip(others, run_ensemble(others, cfg, "imex", T=1.0, dt=0.1)):
        _assert_same_run(got, run(initial, cfg, "imex", T=1.0, dt=0.1))


def test_ragged_residual_guard_names_the_member():
    """A corrupted U entry inside member 1's segment of the flat band fails
    member 1's residual check, and only its."""
    members = _members(4)
    state = State.stack(
        [State.diagonal(np.full(g.n_cells, 0.2), np.full(g.n_cells, 0.3), g, p)
         for g, p in zip(_ragged_grids(), members)]
    )
    assert isinstance(state.grid, tuple) and state.a.shape == (12 + 9 + 20 + 15,)
    ws = ImexWorkspace.build(state.grid, 0.05, state.params)
    assert ws.bands is not None  # every alpha_i <= 1: the sweeps solve
    imex_step(state, 0.05, ws)
    ws.bands[1][4, 2 * 12 + 5] *= 1.0 + 1e-6  # one diagonal entry of member 1's U
    with pytest.raises(SolveError, match="^member 1: linear solve residual") as excinfo:
        imex_step(state, 0.05, ws)
    assert excinfo.value.member == 1


# a member: its cell count (a few shared ones, so that some members share a
# grid), its grading (1 + g / N, uniform for g = 0), parameters and stop time
_ragged = st.lists(
    st.tuples(
        st.sampled_from([12, 40]) | st.integers(3, 200),
        st.sampled_from([0.0, 2.0, -1.5]),
        _params,
        st.tuples(st.integers(2, 6), st.sampled_from([1.0, 0.5]) | st.floats(0.05, 0.95)),
    ),
    min_size=2,
    max_size=5,
)

_PAIR = [(40, 0.0, ModelParams(tau=1.0), (3, 1.0)), (7, 2.0, ModelParams(tau=2.0), (4, 0.5))]


@settings(max_examples=25, deadline=None)
@given(
    members=_ragged,
    courant=st.sampled_from([0.5, 2.5]) | st.floats(0.2, 3.0),
    seed=st.integers(0, 2**16),
)
@example(members=_PAIR, courant=0.5, seed=1)  # no row moved: the sweeps solve
@example(members=_PAIR, courant=2.5, seed=1)  # rows moved: dgbtrs solves the whole band
def test_ragged_imex_ensemble_equals_solo_runs_bitwise(members, courant, seed):
    """IMEX members on uniform and graded grids of their own, each with its own
    stop time, step side by side as one ensemble: every member's final state,
    snapshots, speeds, g_min, reference distances and stabilisation time are
    those of its own run, bit for bit, whatever the order of the members.
    The step dt is ``courant`` times the smallest dx / rho, so the band's LU
    moves rows (alpha_i > 1 somewhere) in some examples and not in others."""
    rng = np.random.default_rng(seed)
    initials = []
    for n, grading, p, _ in members:
        grid = build_graded_grid(0.0, 8.0, n, 1.0 + grading / n)
        front = 0.5 * (1.0 + np.tanh(grid.centers - 4.0))
        u, v = front + rng.uniform(-0.05, 0.05, n), rng.uniform(-0.1, 0.1, n)
        initials.append(State.physical(u, v, grid, p))
    dt = courant * min(st.grid.dx_min / st.params.rho for st in initials)
    T = [(steps + fraction) * dt for *_, (steps, fraction) in members]
    cfg = SchemeConfig("kinetic_first_order")
    kwargs = dict(sample_every=2, reference=_REFERENCE)
    ensemble = run_ensemble(initials, cfg, "imex", T, dt, **kwargs)
    for initial, stop, got in zip(initials, T, ensemble):
        _assert_same_run(got, run(initial, cfg, "imex", stop, dt, **kwargs))
    perm = rng.permutation(len(members))
    initials, T = [initials[k] for k in perm], [T[k] for k in perm]
    shuffled = run_ensemble(initials, cfg, "imex", T, dt, **kwargs)
    for k, got in zip(perm, shuffled):
        _assert_same_run(got, ensemble[k])


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


def test_periodic_imex_ensemble_is_rejected(monkeypatch):
    """A periodic IMEX operator serves one member: an ensemble of two or more
    is rejected before any work, and the one-member and explicit periodic
    ensembles still run."""
    grid = build_uniform_grid(0.0, 10.0, 40)
    members = _members(3)
    with pytest.raises(ValueError, match="serves one member"):
        ImexWorkspace.build(grid, 0.05, ParamColumns(tuple(members)), "periodic")
    with pytest.raises(ValueError, match="serves one member"):
        timestepping.assemble_imex_matrix(grid, 0.05, ParamColumns(tuple(members)), "periodic")
    initials = [State.physical(np.full(40, 0.5), np.zeros(40), grid, p) for p in members]
    cfg = SchemeConfig("kinetic_first_order", boundary="periodic")
    assert len(run_ensemble(initials, cfg, "euler", T=0.1, dt=0.05)) == 3
    assert len(run_ensemble(initials[:1], cfg, "imex", T=0.1, dt=0.05)) == 1

    def no_work(*args, **kwargs):
        raise AssertionError("the ensemble was prepared before it was rejected")

    monkeypatch.setattr(timestepping, "prepare_state_for_scheme", no_work)
    with pytest.raises(ValueError, match="serves one member"):
        run_ensemble(initials, cfg, "imex", T=0.1, dt=0.05)


def test_residual_guard_names_the_member():
    grid = build_uniform_grid(0.0, 10.0, 40)
    members = _members(3)
    state = State.stack(
        [State.diagonal(np.full(40, 0.2), np.full(40, 0.3), grid, p) for p in members]
    )
    ws = ImexWorkspace.build(grid, 0.05, state.params)
    imex_step(state, 0.05, ws)
    ws.bands[1][4, 80 + 17] *= 1.0 + 1e-6  # one diagonal entry of member 1's U
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


def test_gershgorin_build_check_counts_a_nan_margin_as_lost(monkeypatch):
    grid = build_uniform_grid(0.0, 1.0, 5)

    def nan_in_member_1(matrix):
        margins = np.ones(matrix.shape[0])
        margins[10 + 4] = np.nan
        return margins

    monkeypatch.setattr(timestepping, "gershgorin_margins", nan_in_member_1)
    with pytest.raises(RuntimeError, match="^member 1: implicit operator lost"):
        ImexWorkspace.build(grid, 0.1, ParamColumns(tuple(_members(3))))


def test_failed_build_after_a_departure_names_the_member_in_the_whole_ensemble(monkeypatch):
    """Member 0 leaves after one step; the rebuilt operator of members 1 and 2
    loses its bound in member 2, the stack's second member, as a ``SolveError``."""
    grid = build_uniform_grid(0.0, 1.0, 5)
    margins = timestepping.gershgorin_margins

    def lost_in_the_last_member_of_two(matrix):
        out = margins(matrix)
        if matrix.shape[0] == 2 * 10:
            out[-1] = 0.5
        return out

    monkeypatch.setattr(timestepping, "gershgorin_margins", lost_in_the_last_member_of_two)
    initials = [State.physical(np.full(5, 0.3), np.zeros(5), grid, p) for p in _members(3)]
    with pytest.raises(SolveError, match="^member 2: implicit operator lost") as info:
        run_ensemble(initials, SchemeConfig(), "imex", T=[0.1, 0.3, 0.3], dt=0.1)
    assert info.value.member == 2


def test_flat_state_needs_parameter_columns_over_its_members_cells():
    grids = (build_uniform_grid(0.0, 1.0, 4), build_uniform_grid(0.0, 1.0, 6))
    members = tuple(_members(2))
    flat = State.diagonal(np.zeros(10), np.zeros(10), grids, ParamColumns(members, (4, 6)))
    assert flat.params.tau.tolist() == [members[0].tau] * 4 + [members[1].tau] * 6
    for params in (ParamColumns(members), ParamColumns(members, (6, 4)), members[0]):
        with pytest.raises(ValueError, match="cover each member's cells"):
            State.diagonal(np.zeros(10), np.zeros(10), grids, params)


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
