"""The model's mirror symmetry, held by the schemes up to roundoff.

Since f(1 - u; 1 - alpha) = -f(u; alpha), the model is invariant under
x -> -x, u -> 1 - u and alpha -> 1 - alpha.  In the diagonal variables, which
advect at -rho (r) and +rho (s), the mirror image of (r, s) is
r' = 1/2 - reverse(s) and s' = 1/2 - reverse(r), on the grid reflected
through its midpoint.  With closures that treat both ends alike, each kinetic
scheme maps mirror images to mirror images, on uniform and graded grids, so a
run from the mirrored data at 1 - alpha on the reflected grid ends at
1 - reverse(u) of the run from the data itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperac.grid import Grid, build_graded_grid
from hyperac.model import ModelParams, _max_abs_f_prime
from hyperac.schemes import SchemeConfig, State
from hyperac.timestepping import run, suggest_dt

_T = 2.0
_EPS = np.finfo(float).eps

# Rounded operations that touch one cell's value in one step, counted
# generously: the second-order right-hand side has about 20 (a limited slope,
# two reconstructions, the upwind difference, the reaction and the
# relaxation), Heun evaluates it twice and averages, and the IMEX step adds a
# banded solve of bandwidth 3, backward stable to a few eps per unknown.
_OPS_PER_STEP = 64

_CASES = [
    ("kinetic_first_order", None, "imex"),
    ("kinetic_first_order", None, "heun"),
    ("kinetic_second_order", "minmod", "euler"),
    ("kinetic_second_order", "mc", "heun"),
]


def _roundoff_budget(p: ModelParams, n_steps: int) -> float:
    """Largest gap roundoff alone can open between a run and its mirror image.

    The two runs do the same operations on data that agree up to rounding:
    forming 1/2 - x rounds, as does reflecting the interfaces (so the cell
    lengths agree up to rounding), and so does each operation of a step.  Every
    quantity stays below 2 in size (u in [0, 1] and r, s in [0, 1/2], up to
    the schemes' small overshoots), so a step adds at most
    ``_OPS_PER_STEP * eps`` to the gap.  Under the step bound the first-order
    transport and relaxation updates are convex combinations (explicit) or
    have an inverse of max-norm at most 1 (IMEX, an M-matrix with unit
    margin), so only the reaction amplifies an earlier gap, by at most
    1 + dt max|f'| a step: exp(T max|f'|) over the run.  For the limited
    second-order schemes the same growth is assumed, not proved.
    """
    return n_steps * _OPS_PER_STEP * _EPS * math.exp(_T * _max_abs_f_prime(p))


@pytest.mark.parametrize("kind, limiter, integrator", _CASES)
@pytest.mark.parametrize("boundary", ["zero_gradient", "periodic"])
@settings(max_examples=8, deadline=None)
@given(
    tau=st.floats(0.2, 6.0),
    alpha=st.floats(0.05, 0.95),
    ratio=st.floats(1.0, 1.01),
    seed=st.integers(0, 2**16),
)
def test_mirrored_run_ends_at_the_mirror_image(
    kind, limiter, integrator, boundary, tau, alpha, ratio, seed
):
    cfg = SchemeConfig(kind, limiter=limiter, boundary=boundary)
    p = ModelParams(tau=tau, alpha=alpha)
    mirror = ModelParams(tau=tau, alpha=1.0 - alpha)
    grid = build_graded_grid(0.0, 16.0, 160, ratio)
    reflected = Grid(grid.x_min + grid.x_max - grid.interfaces[::-1])
    rng = np.random.default_rng(seed)
    r, s = rng.uniform(0.0, 0.5, (2, grid.n_cells))
    dt = 0.5 * suggest_dt(grid, p, cfg)  # one dt for both runs
    state = State.diagonal(r, s, grid, p)
    mirrored = State.diagonal(0.5 - s[::-1], 0.5 - r[::-1], reflected, mirror)
    got = run(mirrored, cfg, integrator, _T, dt)
    want = run(state, cfg, integrator, _T, dt)
    n_steps = want.diagnostics.times.size - 1
    gap = np.max(np.abs(got.final_state.u - (1.0 - want.final_state.u[::-1])))
    assert gap <= _roundoff_budget(p, n_steps)
