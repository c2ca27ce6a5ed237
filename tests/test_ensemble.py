"""Ensemble stepping: B members advanced as one ensemble state equal their own runs bit for bit.

Members step side by side in flat arrays, on the ``GridStack`` of their grids,
which may be one grid or grids of their own.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperac import model, timestepping
from hyperac.diagnostics import detect_stabilization
from hyperac.grid import GridStack, build_graded_grid, build_uniform_grid
from hyperac.model import FrontProfile, ModelParams, ParamColumns, reaction_f
from hyperac.schemes import SCHEMES, SchemeConfig, State
from hyperac.timestepping import (
    EXPLICIT,
    INTEGRATORS,
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
_CASES = [(kind, method, "zero_gradient") for kind in SCHEMES for method in EXPLICIT]
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


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_ensemble_member_stabilises_as_in_its_solo_run(integrator):
    """Member 0's front is stationary (alpha = 1/2) and its speed series
    flattens within the 200-step window; the ensemble gives it the speeds of
    its own run, and so the same stabilisation time, next to members that
    stop earlier or do not stabilise."""
    members = [ModelParams(tau=1.0), ModelParams(tau=2.0, alpha=0.6), ModelParams(tau=0.5)]
    cfg = SchemeConfig("kinetic_first_order")
    dt = 0.5 * min(suggest_dt(_GRID, p, cfg) for p in members)
    T = [300 * dt, 250.5 * dt, 299.7 * dt]
    front = 0.5 * (1.0 + np.tanh(_GRID.centers - 4.0))
    initials = [State.physical(front, np.zeros(_N), _GRID, p) for p in members]
    ensemble = run_ensemble(initials, cfg, integrator, T, dt)
    solo = [run(initial, cfg, integrator, stop, dt) for initial, stop in zip(initials, T)]
    assert detect_stabilization(solo[0].diagnostics.times, solo[0].diagnostics.speeds) is not None
    for got, want in zip(ensemble, solo):
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
    with pytest.raises(ValueError, match="at least one member"):
        run_ensemble([], cfg, "imex", T=0.2, dt=0.1)


def test_negative_sample_every_is_rejected_before_any_work(monkeypatch):
    p = ModelParams(tau=1.0)
    initial = State.physical(np.zeros(_N), np.zeros(_N), _GRID, p)

    def no_work(*args, **kwargs):
        raise AssertionError("the run was set up before it was rejected")

    monkeypatch.setattr(timestepping, "prepare_state_for_scheme", no_work)
    monkeypatch.setattr(timestepping, "_schedule", no_work)
    with pytest.raises(ValueError, match="sample_every must be non-negative"):
        run_ensemble([initial, initial], SchemeConfig("kinetic_first_order"), "imex",
                     T=[0.5, 1.0], dt=0.1, sample_every=-3)


def test_member_diagnostics_own_their_memory():
    """Each member's series are arrays of its own length, not views into a
    block sized by the longest member that any one kept result holds alive."""
    members = [ModelParams(tau=1.0), ModelParams(tau=2.0, alpha=0.6), ModelParams(tau=0.5)]
    initials = _initials(members, seed=5)
    T = [0.35, 1.0, 0.7]
    ensemble = run_ensemble(initials, SchemeConfig("kinetic_first_order"), "imex", T, 0.1,
                            reference=_REFERENCE)
    for result, stop in zip(ensemble, T):
        assert result.diagnostics.times[-1] == stop
        for name in ("g_min", "l2", "linf"):
            values = getattr(result.diagnostics, name)
            assert values.size == result.diagnostics.times.size, name
            assert values.base is None or values.base.nbytes <= values.nbytes, name


def _blow_up(call):
    with pytest.raises(BlowUpError) as excinfo:
        call()
    return excinfo.value


@pytest.mark.parametrize("integrator", INTEGRATORS)
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


@pytest.mark.parametrize("integrator", INTEGRATORS)
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
    assert isinstance(state.grid, GridStack) and state.a.shape == (12 + 9 + 20 + 15,)
    ws = ImexWorkspace.build(state.grid, 0.05, state.params)
    assert ws.bands is not None  # every alpha_i <= 1: the sweeps solve
    imex_step(state, 0.05, ws)
    ws.bands[1][4, 2 * 12 + 5] *= 1.0 + 1e-6  # one diagonal entry of member 1's U
    with pytest.raises(SolveError, match="^member 1: linear solve residual") as excinfo:
        imex_step(state, 0.05, ws)
    assert excinfo.value.member == 1


# a member: its cell count (a few shared ones, so that some members share a
# grid), its grading (1 + g / N, uniform for g = 0), the left end of its
# domain (the right end is 8), parameters and stop time
_ragged = st.lists(
    st.tuples(
        st.sampled_from([12, 40]) | st.integers(3, 200),
        st.sampled_from([0.0, 2.0, -1.5]),
        st.sampled_from([0.0, -1.0]),
        _params,
        st.tuples(st.integers(2, 6), st.sampled_from([1.0, 0.5]) | st.floats(0.05, 0.95)),
    ),
    min_size=2,
    max_size=5,
)

_PAIR = [
    (40, 0.0, 0.0, ModelParams(tau=1.0), (3, 1.0)),
    (7, 2.0, 0.0, ModelParams(tau=2.0), (4, 0.5)),
]
# two members on equal grids of N = 10, one between them on N = 12 (or graded
# with ratio 1.1 at N = 10, on [-1, 8]), stopping at 2, 2.5 and 3 steps
_TRIO = [
    (10, 0.0, 0.0, ModelParams(tau=1.0), (1, 1.0)),
    (12, 0.0, 0.0, ModelParams(tau=2.0), (2, 0.5)),
    (10, 0.0, 0.0, ModelParams(tau=2.0), (2, 1.0)),
]
_TRIO_GRADED = [_TRIO[0], (10, 1.0, -1.0, ModelParams(tau=2.0), (2, 0.5)), _TRIO[2]]
# a run of three adjacent members of N = 9 on grids of their own (graded 1 + 2/9 on [0, 8],
# 1 - 1.5/9 on [-1, 8], uniform), stopping after 2.5, 3.5 and 2 steps, then one of N = 13:
# the run of three, then of two, then a lone member form the masses
_RUN = [
    (9, 2.0, 0.0, ModelParams(tau=1.0), (2, 0.5)),
    (9, -1.5, -1.0, ModelParams(tau=2.0, alpha=0.7), (3, 0.5)),
    (9, 0.0, 0.0, ModelParams(tau=0.5, mu=1.5), (1, 1.0)),
    (13, 2.0, -1.0, ModelParams(tau=1.5), (2, 0.25)),
]
_IMEX = ("kinetic_first_order", "imex", "zero_gradient")
_MUSCL = ("kinetic_second_order", "euler", "zero_gradient")

# every scheme kind with both explicit integrators and both boundaries, and
# IMEX (a periodic IMEX operator is single-member, so IMEX is zero-gradient)
_SCHEMES = [(kind, method, boundary) for kind in SCHEMES for method in EXPLICIT
            for boundary in ("zero_gradient", "periodic")] + [_IMEX]


@settings(max_examples=40, deadline=None)
@given(
    members=_ragged,
    courant=st.sampled_from([0.5, 2.5]) | st.floats(0.2, 3.0),
    seed=st.integers(0, 2**16),
    scheme=st.sampled_from(_SCHEMES),
    reference=st.sampled_from([None, _REFERENCE]),
)
@example(members=_PAIR, courant=0.5, seed=1, scheme=_IMEX,  # no row moved: the sweeps solve
         reference=_REFERENCE)
@example(members=_PAIR, courant=2.5, seed=1, scheme=_IMEX,  # rows moved: dgbtrs solves the band
         reference=_REFERENCE)
@example(members=_TRIO, courant=0.5, seed=1, scheme=_IMEX, reference=_REFERENCE)
@example(members=_TRIO_GRADED, courant=0.5, seed=1, scheme=_IMEX, reference=_REFERENCE)
@example(members=_TRIO, courant=0.5, seed=1,
         scheme=("kinetic_first_order", "euler", "zero_gradient"), reference=_REFERENCE)
@example(members=_TRIO_GRADED, courant=0.5, seed=1,
         scheme=("kinetic_second_order", "heun", "periodic"), reference=_REFERENCE)
@example(members=_TRIO_GRADED, courant=0.5, seed=1,
         scheme=("onefield_alternative", "euler", "periodic"), reference=_REFERENCE)
@example(members=_RUN, courant=0.5, seed=1, scheme=_IMEX, reference=None)
@example(members=_RUN, courant=0.5, seed=1, scheme=_IMEX, reference=_REFERENCE)
@example(members=_RUN, courant=0.5, seed=1, scheme=_MUSCL, reference=None)
@example(members=_RUN, courant=0.5, seed=1, scheme=_MUSCL, reference=_REFERENCE)
def test_ragged_imex_ensemble_equals_solo_runs_bitwise(members, courant, seed, scheme, reference):
    """Members on uniform and graded grids of their own, whose domains may
    start at different points, each with its own stop time, step side by
    side as one ensemble: every member's final state, snapshots, speeds,
    g_min, reference distances (with a ``reference``) and stabilisation time
    are those of its own run, bit for bit, whatever the order of the members.
    That holds for IMEX and for explicit stencils, which close each member at
    its own ends, and for adjacent members of one size, whose masses one
    ``np.vecdot`` forms.  The IMEX step dt is ``courant`` times the smallest
    dx / rho, so the band's LU moves rows (alpha_i > 1 somewhere) in some
    examples and not in others; an explicit step is ``courant`` / 3 of the
    stable one."""
    kind, integrator, boundary = scheme
    rng = np.random.default_rng(seed)
    initials = []
    for n, grading, left, p, _ in members:
        grid = build_graded_grid(left, 8.0, n, 1.0 + grading / n)
        front = 0.5 * (1.0 + np.tanh(grid.centers - 4.0))
        u, v = front + rng.uniform(-0.05, 0.05, n), rng.uniform(-0.1, 0.1, n)
        initials.append(State.physical(u, v, grid, p))
    cfg = SchemeConfig(kind, boundary=boundary)
    if integrator == "imex":
        dt = courant * min(st.grid.dx_min / st.params.rho for st in initials)
    else:
        dt = courant / 3.0 * min(suggest_dt(st.grid, st.params, cfg) for st in initials)
    T = [(steps + fraction) * dt for *_, (steps, fraction) in members]
    kwargs = dict(sample_every=2, reference=reference)
    ensemble = run_ensemble(initials, cfg, integrator, T, dt, **kwargs)
    for initial, stop, got in zip(initials, T, ensemble):
        _assert_same_run(got, run(initial, cfg, integrator, stop, dt, **kwargs))
    perm = rng.permutation(len(members))
    initials, T = [initials[k] for k in perm], [T[k] for k in perm]
    shuffled = run_ensemble(initials, cfg, integrator, T, dt, **kwargs)
    for k, got in zip(perm, shuffled):
        _assert_same_run(got, ensemble[k])


def test_vecdot_rows_are_each_rows_np_dot_bitwise():
    """Row k of ``np.vecdot(U, lengths)`` is ``np.dot(lengths[k], U[k])`` bit for bit,
    the premise on which ``run_ensemble`` forms the masses of adjacent equal-size members
    with one ``np.vecdot``; a gemv such as ``U @ lengths[0]`` sums in another order.
    Random stacks: N from 3 to 2,000 (log-uniform), 1 to 9 rows, each row's lengths
    uniform or graded, values of magnitude 1e-300 to 1e2 with either sign, and zeros of
    both signs."""
    rng = np.random.default_rng(29)
    for _ in range(400):
        n, k = int(np.exp(rng.uniform(np.log(3), np.log(2001)))), int(rng.integers(1, 10))
        lengths = np.empty((k, n))
        for row in lengths:
            row[:] = 10.0 ** rng.uniform(-3, 0) * (1.0 + rng.uniform(-2, 2) / n) ** np.arange(n)
            if rng.random() < 0.5:
                row[:] = row[0]  # a uniform grid
        U = np.copysign(10.0 ** rng.uniform(-300, 2, (k, n)), rng.uniform(-1, 1, (k, n)))
        U[rng.random((k, n)) < 0.1] = 0.0
        U[rng.random((k, n)) < 0.1] = -0.0
        got = np.vecdot(U, lengths)
        want = np.array([np.dot(lengths[j], U[j]) for j in range(k)])
        assert _same_bits(got, want), (n, k)


def _members(count):
    return [ModelParams(tau=0.5 + k, mu=1.0 + 0.3 * k, alpha=0.3 + 0.2 * k) for k in range(count)]


def _stack(grid, members):
    """The ensemble of ``members`` on copies of ``grid``, as ``State.stack`` lays it out."""
    n = grid.n_cells
    return State.stack([State.diagonal(np.zeros(n), np.zeros(n), grid, p) for p in members])


@pytest.mark.parametrize("n", [50, 400, 800])
@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_ensemble_band_is_the_members_bands_side_by_side(n, dt):
    """The concatenated band factors to each member's LU and pivots (offset
    by the member's first row) and solves each member's system, bit for bit,
    the pivoting cases (N = 400 and 800 at dt = 0.1) included."""
    grid = build_uniform_grid(0.0, 50.0, n)
    members = _members(3)
    stacked = _stack(grid, members)
    ws = ImexWorkspace.build(stacked.grid, dt, stacked.params)
    m = 2 * n
    rhs = np.random.default_rng(n).uniform(-1.0, 1.0, 3 * m)
    x = ws.solve(rhs)
    pivoted = False
    for k, p in enumerate(members):
        own = ImexWorkspace.build(grid, dt, p)
        rows = slice(k * m, (k + 1) * m)
        assert np.array_equal(ws.lu[:, rows], own.lu)
        assert np.array_equal(ws.pivots[rows], own.pivots + k * m)
        assert _same_bits(x[rows], own.solve(rhs[rows]))
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
    stacked = _stack(grid, members)
    with pytest.raises(ValueError, match="serves one member"):
        ImexWorkspace.build(stacked.grid, 0.05, stacked.params, "periodic")
    with pytest.raises(ValueError, match="serves one member"):
        timestepping.assemble_imex_matrix(stacked.grid, 0.05, stacked.params, "periodic")
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
    ws = ImexWorkspace.build(state.grid, 0.05, state.params)
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
    stacked = _stack(grid, _members(3))
    with pytest.raises(RuntimeError, match="^member 2: implicit operator lost"):
        ImexWorkspace.build(stacked.grid, 0.1, stacked.params)


def test_gershgorin_build_check_counts_a_nan_margin_as_lost(monkeypatch):
    grid = build_uniform_grid(0.0, 1.0, 5)

    def nan_in_member_1(matrix):
        margins = np.ones(matrix.shape[0])
        margins[10 + 4] = np.nan
        return margins

    monkeypatch.setattr(timestepping, "gershgorin_margins", nan_in_member_1)
    stacked = _stack(grid, _members(3))
    with pytest.raises(RuntimeError, match="^member 1: implicit operator lost"):
        ImexWorkspace.build(stacked.grid, 0.1, stacked.params)


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
    assert info.value.step == 1


def test_failed_factorisation_names_the_member(monkeypatch):
    """A zero pivot that ``dgbtrf`` reports in row 23 of 30, member 2's third
    unknown, fails the build of the stack's operator as a ``SolveError``."""
    grid = build_uniform_grid(0.0, 1.0, 5)
    factor = timestepping.dgbtrf

    def zero_pivot_in_row_23(ab, *args, **kwargs):
        return *factor(ab, *args, **kwargs)[:2], 23

    monkeypatch.setattr(timestepping, "dgbtrf", zero_pivot_in_row_23)
    stacked = _stack(grid, _members(3))
    with pytest.raises(SolveError) as info:
        ImexWorkspace.build(stacked.grid, 0.1, stacked.params)
    assert str(info.value) == "member 2: banded LU factorisation failed (dgbtrf info 23)"


def test_failed_factorisation_after_a_departure_names_the_member_in_the_whole_ensemble(
        monkeypatch):
    """Member 0 leaves after one step; the factorisation of the operator of
    members 1 and 2 reports a zero pivot in row 13 of 20, in the stack's second
    member: member 2 of the ensemble."""
    grid = build_uniform_grid(0.0, 1.0, 5)
    factor = timestepping.dgbtrf

    def zero_pivot_in_the_last_member_of_two(ab, *args, **kwargs):
        lu, pivots, info = factor(ab, *args, **kwargs)
        return lu, pivots, 13 if ab.shape[1] == 2 * 10 else info

    monkeypatch.setattr(timestepping, "dgbtrf", zero_pivot_in_the_last_member_of_two)
    initials = [State.physical(np.full(5, 0.3), np.zeros(5), grid, p) for p in _members(3)]
    with pytest.raises(SolveError) as info:
        run_ensemble(initials, SchemeConfig(), "imex", T=[0.1, 0.3, 0.3], dt=0.1)
    assert str(info.value) == "member 2: banded LU factorisation failed (dgbtrf info 13) at step 1"
    assert (info.value.member, info.value.step) == (2, 1)


def test_flat_state_needs_parameter_columns_over_its_members_cells():
    grids = GridStack((build_uniform_grid(0.0, 1.0, 4), build_uniform_grid(0.0, 1.0, 6)))
    assert grids.bounds.tolist() == [0, 4, 10] and grids.n_cells == 10
    members = tuple(_members(2))
    flat = State.diagonal(np.zeros(10), np.zeros(10), grids, ParamColumns(members, (4, 6)))
    assert flat.params.tau.tolist() == [members[0].tau] * 4 + [members[1].tau] * 6
    for params in (ParamColumns(members, (6, 4)), ParamColumns(members[:1], (10,)), members[0]):
        with pytest.raises(ValueError, match="cover each member's cells"):
            State.diagonal(np.zeros(10), np.zeros(10), grids, params)


def test_member_sizes_are_each_members_cell_count():
    grid = build_graded_grid(0.0, 1.0, 7, 1.2)
    assert grid.sizes == (7,)
    grids = GridStack((build_uniform_grid(0.0, 1.0, 4), grid, build_uniform_grid(0.0, 2.0, 5)))
    assert grids.sizes == (4, 7, 5) == tuple(np.diff(grids.bounds))


def test_parameter_columns_refuse_an_empty_ensemble():
    with pytest.raises(ValueError, match="^an ensemble needs at least one member$"):
        ParamColumns((), ())


def test_density_is_formed_once_per_state():
    grid = build_uniform_grid(0.0, 1.0, 4)
    state = State.diagonal(np.ones(4), np.full(4, 2.0), grid, ModelParams(tau=1.0))
    assert state.u is state.u and np.array_equal(state.u, np.full(4, 3.0))
    stacked = State.stack([state, state])
    assert stacked.u.shape == (8,) and stacked.u is stacked.u
    assert State.stack([state]) is state


def test_stacked_state_changes_representation_as_its_members_do():
    """Converting an ensemble state equals stacking its members' own
    conversions, byte for byte, in both directions."""
    rng = np.random.default_rng(7)
    grids = (build_uniform_grid(0.0, 1.0, 5), build_graded_grid(0.0, 2.0, 7, 1.1))
    physical = [State.physical(rng.uniform(0.0, 1.0, g.n_cells), rng.uniform(-1.0, 1.0, g.n_cells),
                               g, p) for g, p in zip(grids, _members(2))]
    diagonal = [st.to_diagonal() for st in physical]
    for members, convert in ((physical, State.to_diagonal), (diagonal, State.to_physical)):
        got, want = convert(State.stack(members)), State.stack([convert(st) for st in members])
        assert got.kind == want.kind
        assert _same_bits(got.a, want.a) and _same_bits(got.b, want.b)


def test_param_columns_hold_each_members_scalars():
    members = _members(3)
    cols = ParamColumns(tuple(members), (12, 12, 12))
    for name in ("tau", "mu", "kappa", "alpha", "nu", "rho"):
        column = getattr(cols, name)
        assert column.shape == (36,)
        assert column.tolist() == [getattr(p, name) for p in members for _ in range(12)]
        assert not column.flags.writeable
    # the derived columns, which the right-hand sides read in place of their formulas
    derived = {"two_tau": lambda p: 2.0 * p.tau, "minus_rho": lambda p: -p.rho,
               "two_one_plus_alpha": lambda p: 2.0 * (1.0 + p.alpha)}
    for name, formula in derived.items():
        column = getattr(cols, name)
        assert _same_bits(column, np.repeat([formula(p) for p in members], 12))
        assert all(getattr(p, name) == formula(p) for p in members)
        assert not column.flags.writeable
    u = np.linspace(-0.1, 1.1, 12)
    stacked = reaction_f(np.tile(u, 3), cols)
    for k, p in enumerate(members):
        assert _same_bits(stacked[12 * k : 12 * (k + 1)], reaction_f(u, p))


def test_param_columns_accept_exactly_the_names_of_model_params():
    """A column for each field of ``ModelParams`` and each scalar it derives as a
    property; any other name is a missing attribute, and nothing is laid out."""
    cols = ParamColumns(tuple(_members(2)), (3, 3))
    with pytest.raises(AttributeError) as info:
        cols.beta
    assert str(info.value) == "'ParamColumns' object has no attribute 'beta'"
    assert not hasattr(cols, "beta") and "beta" not in vars(cols)
    names = {f.name for f in dataclasses.fields(ModelParams)}
    names |= {name for name, value in inspect.getmembers(ModelParams)
              if isinstance(value, property)}
    assert model._COLUMNS == names and {"rho", "two_one_plus_alpha"} <= names
    assert all(hasattr(cols, name) for name in names)
