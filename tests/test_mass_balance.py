"""Mass balance per step, member by member.

Weighted by the cell lengths dx_i, the kinetic schemes' transport
telescopes over a member's cells and their relaxation cancels, so one step
changes the member's mass m = sum dx_i u_i by

    m^{n+1} - m^n = dt (sum dx_i f(u_i^n) + B),

with B the flux through the member's ends: 0 at periodic ends and
rho [(r_last - r_first) - (s_last - s_first)] at zero-gradient ends.  The
explicit Euler step takes B at the step's old values.  The MUSCL scheme's
end cells have slope zero, so its reconstructions there are the cell
values and the same B holds.  The IMEX step's transport is implicit, and its
B takes the new values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperac.grid import build_graded_grid
from hyperac.model import ModelParams, reaction_f
from hyperac.schemes import SchemeConfig, State, rhs_for_scheme
from hyperac.timestepping import _RESIDUAL_TOL, ImexWorkspace, explicit_step, imex_step, suggest_dt

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal

# Rounded operations on one term's way into a mass, counted generously: a
# limited slope and a reconstruction, the upwind difference, the scalings by
# rho and 1/dx, the reaction and relaxation sums, the Euler update (or the
# rounded entries of the IMEX operator), the weight dx_i and the mass
# difference.
_OPS = 32

_STEPPERS = {  # name: (scheme config keywords, explicit?)
    "euler, first order": ({"kind": "kinetic_first_order"}, True),
    "euler, MUSCL minmod": ({"kind": "kinetic_second_order", "limiter": "minmod"}, True),
    "euler, MUSCL mc": ({"kind": "kinetic_second_order", "limiter": "mc"}, True),
    "imex": ({"kind": "kinetic_first_order"}, False),
}


@st.composite
def _steps(draw):
    """A stepper, a closure, one to three members (one for a periodic IMEX
    step, whose operator serves a single member), each on a uniform or graded
    grid of its own, and a step size."""
    keywords, explicit = _STEPPERS[draw(st.sampled_from(sorted(_STEPPERS)))]
    cfg = SchemeConfig(**keywords, boundary=draw(st.sampled_from(["zero_gradient", "periodic"])))
    periodic_imex = not explicit and cfg.boundary == "periodic"
    members = []
    for _ in range(draw(st.integers(1, 1 if periodic_imex else 3))):
        n = draw(st.integers(3, 30))
        grid = build_graded_grid(-1.0, 2.0, n, draw(st.sampled_from([1.0, 0.9, 1.1])))
        p = ModelParams(
            tau=draw(st.floats(0.2, 8.0)),
            mu=draw(st.floats(0.5, 2.0)),
            kappa=draw(st.floats(0.5, 2.0)),
            alpha=draw(st.floats(0.05, 0.95)),
        )
        r, s = (draw(arrays(np.float64, n, elements=st.floats(-0.25, 0.75))) for _ in range(2))
        members.append(State.diagonal(r, s, grid, p))
    bound = min(suggest_dt(m.grid, m.params, cfg) for m in members)
    return members, cfg, explicit, draw(st.floats(0.05, 1.0 if explicit else 4.0)) * bound


def _budget(dx, p, dt, old, new, explicit):
    """Largest misfit that roundoff, and for IMEX the solve's residual bound,
    can leave in one member's balance.

    Each side of the balance is a sum of elementary terms: dx_i r_i and dx_i s_i
    at both levels, dt dx_i f_i, the relaxation dt dx_i (s_i - r_i) / (2 tau)
    (bounded by dt dx_i (|r_i| + |s_i|) / tau at either level, which also bounds
    the IMEX diagonal's beta term) and the transport dt rho (w_{i+1} - w_i) of
    the interface values w.  Limited reconstructions lie between neighbouring
    cell values, so sum_i |w_i| <= 3 sum_i |cell values|, and each difference
    counts its two ends.  A term passes through at most ``_OPS`` rounded
    operations on its way into a sum, and a sum of n terms adds at most n
    roundings relative to the sum of their magnitudes, so roundoff is at most
    (n + _OPS) eps times the sum of the terms' magnitudes.  Gradual underflow
    adds at most one smallest subnormal per rounding, absolutely, over fewer
    than 16 n terms of n + _OPS roundings each.  The IMEX step solves each
    row to within ``_RESIDUAL_TOL`` max|b| (its guard), with b the right-hand
    side r + dt f / 2 or s + dt f / 2; summed with the weights dx_i over both
    rows that adds 2 sum dx_i _RESIDUAL_TOL max|b|.
    """
    cells = np.abs(old.a) + np.abs(old.b) + np.abs(new.a) + np.abs(new.b)
    f = np.abs(reaction_f(old.a + old.b, p))
    terms = np.dot(dx, cells) + dt * np.dot(dx, f + cells / p.tau) + 6.0 * dt * p.rho * cells.sum()
    budget = (dx.size + _OPS) * (_EPS * terms + 16 * dx.size * _TINY)
    if not explicit:
        b = np.maximum(np.abs(old.a), np.abs(old.b)) + 0.5 * dt * f
        budget += 2.0 * dx.sum() * _RESIDUAL_TOL * b.max()
    return budget


@settings(max_examples=150, deadline=None)
@given(case=_steps())
def test_each_step_changes_each_members_mass_by_its_reaction_and_end_fluxes(case):
    members, cfg, explicit, dt = case
    state = State.stack(members)
    if explicit:
        stepped = explicit_step(state, dt, rhs_for_scheme(cfg), "euler")
    else:
        ws = ImexWorkspace.build(state.grid, dt, state.params, cfg.boundary)
        stepped = imex_step(state, dt, ws)
    bounds = stepped.grid.bounds
    for k, old in enumerate(members):
        cells = slice(bounds[k], bounds[k + 1])
        new = old.with_components(stepped.a[cells], stepped.b[cells])
        dx, p = old.grid.cell_lengths, old.params
        r, s = (old.a, old.b) if explicit else (new.a, new.b)
        flux = 0.0 if cfg.boundary == "periodic" else p.rho * ((r[-1] - r[0]) - (s[-1] - s[0]))
        change = np.dot(dx, new.a + new.b) - np.dot(dx, old.a + old.b)
        want = dt * (np.dot(dx, reaction_f(old.a + old.b, p)) + flux)
        assert abs(change - want) <= _budget(dx, p, dt, old, new, explicit)
