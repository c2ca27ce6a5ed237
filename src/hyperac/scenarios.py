"""Initial-data generators, experiment drivers and config-file handling.

The experiment drivers reproduce the production studies of the library:
Riemann front-speed tables on (0, 2l) with the jump at l/2, the decay of a
Riemann datum toward the stationary front on (-l, l), and front formation
from piecewise-random data.  All of them emit CSV files when given an
output directory; plotting is left to external tools.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .diagnostics import front_position_and_monotonicity, g_profile, relative_speed_error
from .grid import Grid, build_graded_grid, build_uniform_grid, project_cell_averages
from .model import FrontProfile, ModelParams, hyperbolic_front_speed_shooting
from .schemes import ONEFIELD, SchemeConfig, State
from .timestepping import RunResult, check_run, run, run_ensemble

__all__ = [
    "ConfigError",
    "Scenario",
    "parse_config_text",
    "initial_riemann",
    "initial_exact_front",
    "initial_random",
    "RANDOM_RANGES",
    "SPEED_TABLE_CASES",
    "run_speed_table",
    "run_order_comparison",
    "run_riemann_decay",
    "run_random_study",
    "write_snapshots_csv",
]


class ConfigError(ValueError):
    """A scenario configuration is missing, malformed or inconsistent."""


# sub-interval value ranges of the piecewise-random data, per variant;
# "decay" respects limsup_left < alpha < liminf_right for mid-range alpha,
# "overlapping" violates it by construction for alpha in (0.3, 0.7)
RANDOM_RANGES = {
    "decay": ((0.0, 0.5), (0.0, 1.0), (0.5, 1.0)),
    "overlapping": ((0.0, 0.7), (0.0, 1.0), (0.3, 1.0)),
}


def initial_riemann(
    grid: Grid, params: ModelParams, jump_location: float, v0: float = 0.0
) -> State:
    """Increasing step datum: exact cell averages of the indicator of (jump, +inf).

    The straddling cell receives the covered fraction; the flux starts at the
    constant ``v0`` (zero unless configured otherwise).
    """
    if not grid.x_min < jump_location < grid.x_max:
        raise ValueError("jump location must lie inside the domain")
    u = np.clip((grid.interfaces[1:] - jump_location) / grid.cell_lengths, 0.0, 1.0)
    return State.physical(u, np.full_like(u, v0), grid, params)


def initial_exact_front(grid: Grid, params: ModelParams, shift: float = 0.0) -> State:
    """Cell averages of the increasing exact front with compatible flux.

    The flux is v = -mu * du/dx, the stationary balance of the flux equation;
    for alpha = 1/2 this datum is an equilibrium of the continuous model.
    """
    front = FrontProfile(params, shift=shift, increasing=True)
    u = project_cell_averages(front, grid)
    v = project_cell_averages(lambda x: -params.mu * front.derivative(x), grid)
    return State.physical(u, v, grid, params)


def initial_random(
    grid: Grid,
    params: ModelParams,
    ell: float,
    seed: int,
    variant: str = "decay",
    v0: float = 0.0,
) -> State:
    """Piecewise-random datum on (0, ell), 0 to the left and 1 to the right.

    (0, ell) splits into three equal parts whose cells draw independent
    uniform values from the variant's ranges.  Draws use PCG64 seeded with
    ``seed`` and consume the stream in ascending cell order; cells outside
    (0, ell) are deterministic and consume nothing.
    """
    if variant not in RANDOM_RANGES:
        raise ValueError(f"unknown random variant {variant!r}")
    if not (grid.x_min <= 0.0 < ell <= grid.x_max):
        raise ValueError("the random region (0, ell) must lie inside the domain")
    ranges = np.array(RANDOM_RANGES[variant])
    x = grid.centers
    u = np.where(x < 0.0, 0.0, 1.0)
    inside = (x >= 0.0) & (x <= ell)
    part = np.minimum(x[inside] // (ell / 3.0), 2).astype(int)
    rng = np.random.Generator(np.random.PCG64(seed))
    u[inside] = rng.uniform(ranges[part, 0], ranges[part, 1])
    return State.physical(u, np.full_like(u, v0), grid, params)


def _format(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_format(x) if isinstance(x, float) else x for x in row]
            )


def write_snapshots_csv(path: str | Path, result: RunResult) -> None:
    """Long-format snapshot table ``t,x,u,v`` (``t,x,u,w`` for one-field runs)."""
    entries = list(result.snapshots)
    if not entries or entries[-1][1] is not result.final_state:
        final_t = result.diagnostics.times[-1] if result.diagnostics.times.size else 0.0
        entries.append((float(final_t), result.final_state))
    second = "w" if entries[-1][1].kind == ONEFIELD else "v"
    rows = []
    for t, state in entries:
        phys = state if state.kind == ONEFIELD else state.to_physical()
        for x, ui, bi in zip(state.grid.centers, phys.a, phys.b):
            rows.append([t, x, ui, bi])
    _write_rows(Path(path), ["t", "x", "u", second], rows)


# speed-table cases: label -> (tau, alpha, T)
SPEED_TABLE_CASES = {
    "A": (1.0, 0.9, 40.0),
    "B": (2.0, 0.6, 30.0),
    "C": (4.0, 0.7, 35.0),
}

_TABLE_ELL = 25.0  # tables use (0, 2*ell) with the jump at ell/2


def _table_initial(n_cells: int, params: ModelParams) -> State:
    grid = build_uniform_grid(0.0, 2.0 * _TABLE_ELL, n_cells)
    return initial_riemann(grid, params, jump_location=_TABLE_ELL / 2.0)


def _output_dir(out_dir: str | Path | None) -> Path | None:
    """The output directory, created before any run starts; ``ConfigError`` if it cannot be."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err.strerror or err}") from err
    return out


def run_speed_table(
    dx_list: Sequence[float] | None = None,
    dt_list: Sequence[float] | None = None,
    cases: dict | None = None,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Relative front-speed error of the IMEX scheme over a (dt, dx) grid.

    Each (dt, dx) cell runs its cases as one ensemble with one stop time per
    case: a case leaves the ensemble at its own T, and its row is bit for bit
    that of a run of its own.  Rows come in (dt, case, dx) order.  Every row
    carries the measured final average speed, the shooting reference speed
    and the relative error recomputed from those two values at emission time,
    plus the run's whole per-step speed series under ``"speeds"`` (not
    written out).  Writes a tidy CSV plus a pivot in the layout of the error
    table (one row per (dt, case), one column per dx).
    """
    dx_list = list(dx_list) if dx_list is not None else [1.0, 0.5, 0.25, 0.125, 0.0625]
    dt_list = list(dt_list) if dt_list is not None else [1e-1, 1e-2, 1e-3]
    cases = dict(cases) if cases is not None else dict(SPEED_TABLE_CASES)
    members = {label: ModelParams(tau=case[0], alpha=case[1]) for label, case in cases.items()}
    out = _output_dir(out_dir)
    c_refs = {
        label: hyperbolic_front_speed_shooting(params, increasing=True)
        for label, params in members.items()
    }
    speeds_of = {}  # the speed series of each (dt, dx, case) run
    for dt in dt_list:
        for dx in dx_list:
            n = int(round(2.0 * _TABLE_ELL / dx))
            ensemble = run_ensemble(
                [_table_initial(n, params) for params in members.values()],
                SchemeConfig("kinetic_first_order"),
                "imex",
                T=[case[2] for case in cases.values()],
                dt=dt,
            )
            for label, result in zip(cases, ensemble):
                speeds_of[dt, dx, label] = result.diagnostics.speeds
    rows = []
    for dt in dt_list:
        for label, case in cases.items():
            tau, alpha, T = case[0], case[1], case[2]
            for dx in dx_list:
                speeds = speeds_of[dt, dx, label]
                speed = float(speeds[-1])
                rows.append(
                    {
                        "case": label,
                        "tau": tau,
                        "alpha": alpha,
                        "T": T,
                        "dt": dt,
                        "dx": dx,
                        "speed": speed,
                        "c_ref": c_refs[label],
                        "rel_error": relative_speed_error(speed, c_refs[label]),
                        "speeds": speeds,
                    }
                )
    if out is not None:
        _write_rows(
            out / "speed_table_full.csv",
            ["case", "tau", "alpha", "T", "dt", "dx", "speed", "c_ref", "rel_error"],
            [
                [r["case"], r["tau"], r["alpha"], r["T"], r["dt"], r["dx"],
                 r["speed"], r["c_ref"], r["rel_error"]]
                for r in rows
            ],
        )
        pivot_rows = []
        for dt in dt_list:
            for label in cases:
                errors = [
                    next(
                        r["rel_error"]
                        for r in rows
                        if r["case"] == label and r["dt"] == dt and r["dx"] == dx
                    )
                    for dx in dx_list
                ]
                pivot_rows.append([dt, label] + errors)
        _write_rows(
            out / "speed_table_errors.csv",
            ["dt", "case"] + [f"dx={dx:g}" for dx in dx_list],
            pivot_rows,
        )
    return rows


def run_order_comparison(
    order: int,
    taus: Sequence[float] = (1.0, 4.0),
    alphas: Sequence[float] = (0.6, 0.7, 0.8, 0.9),
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Final average speeds at fixed resolution for the first or second order scheme.

    N = 400 cells (dx = 0.125), dt = 0.01, T = 40.  The first-order runs use
    the IMEX step; the second-order scheme pairs with explicit Euler, keeping
    time accuracy first order while the limited reconstruction improves the
    spatial error.  All (tau, alpha) pairs run as one ensemble.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 1:
        scheme, integrator = SchemeConfig("kinetic_first_order"), "imex"
    else:
        scheme, integrator = SchemeConfig("kinetic_second_order", limiter="minmod"), "euler"
    members = [ModelParams(tau=tau, alpha=alpha) for tau in taus for alpha in alphas]
    out = _output_dir(out_dir)
    results = run_ensemble(
        [_table_initial(400, params) for params in members], scheme, integrator, T=40.0, dt=0.01
    )
    rows = []
    for params, result in zip(members, results):
        speed = float(result.diagnostics.speeds[-1])
        c_ref = hyperbolic_front_speed_shooting(params, increasing=True)
        rows.append(
            {
                "order": order,
                "tau": params.tau,
                "alpha": params.alpha,
                "speed": speed,
                "c_ref": c_ref,
                "rel_error": relative_speed_error(speed, c_ref),
            }
        )
    if out is not None:
        _write_rows(
            out / f"order{order}_speeds.csv",
            ["order", "tau", "alpha", "speed", "c_ref", "rel_error"],
            [[r["order"], r["tau"], r["alpha"], r["speed"], r["c_ref"], r["rel_error"]]
             for r in rows],
        )
    return rows


def run_riemann_decay(
    tau: float = 4.0, out_dir: str | Path | None = None
) -> dict:
    """Decay of the Riemann datum toward the stationary front at alpha = 1/2.

    Domain (-l, l) with l = 25, datum the indicator of (0, l), dx = 0.125.
    Runs the kinetic IMEX scheme to T = 15 next to the explicit parabolic
    reference solver and records both L2-distance curves to the exact front
    (snapshots at t = 1, 5, 15 land on the sampling cadence).
    """
    ell = _TABLE_ELL
    grid = build_uniform_grid(-ell, ell, int(round(2.0 * ell / 0.125)))
    params = ModelParams(tau=tau, alpha=0.5)
    out = _output_dir(out_dir)
    front = FrontProfile(params, shift=0.0, increasing=True)
    initial = initial_riemann(grid, params, jump_location=0.0)
    hyperbolic = run(
        initial,
        SchemeConfig("kinetic_first_order"),
        "imex",
        T=15.0,
        dt=0.01,
        sample_every=100,
        reference=front,
    )
    parabolic = run(
        initial,
        SchemeConfig("parabolic_reference"),
        "heun",
        T=15.0,
        dt=0.005,
        sample_every=200,
        reference=front,
    )
    times = np.round(np.arange(0.1, 15.0001, 0.1), 10)
    curves = {
        "t": times,
        "l2_hyperbolic": np.interp(
            times, hyperbolic.diagnostics.times, hyperbolic.diagnostics.l2
        ),
        "l2_parabolic": np.interp(
            times, parabolic.diagnostics.times, parabolic.diagnostics.l2
        ),
    }
    if out is not None:
        _write_rows(
            out / "riemann_decay_l2.csv",
            ["t", "l2_hyperbolic", "l2_parabolic"],
            zip(curves["t"].tolist(), curves["l2_hyperbolic"].tolist(),
                curves["l2_parabolic"].tolist()),
        )
        write_snapshots_csv(out / "riemann_decay_hyperbolic.csv", hyperbolic)
        write_snapshots_csv(out / "riemann_decay_parabolic.csv", parabolic)
    return {"hyperbolic": hyperbolic, "parabolic": parabolic, "curves": curves,
            "front": front}


def run_random_study(
    variant: str = "decay",
    taus: Sequence[float] = (1.0, 5.0, 10.0),
    seed: int = 1,
    alpha: float = 0.6,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Front formation from piecewise-random data for several relaxation times.

    Domain (-l, 2l) with the random transition on (0, l), so both far states
    are held by genuinely bistable material.  The taus run as one ensemble to
    T = 20 with snapshots at t = 10 and t = 20; the returned entries carry the
    u and g(u) profiles at the snapshot times plus the final crossing count.
    """
    ell = _TABLE_ELL
    grid = build_uniform_grid(-ell, 2.0 * ell, int(round(3.0 * ell / 0.125)))
    members = [ModelParams(tau=tau, alpha=alpha) for tau in taus]
    out = _output_dir(out_dir)
    ensemble = run_ensemble(
        [initial_random(grid, params, ell, seed, variant) for params in members],
        SchemeConfig("kinetic_first_order"),
        "imex",
        T=20.0,
        dt=0.01,
        sample_every=1000,
    )
    results = []
    for tau, params, result in zip(taus, members, ensemble):
        crossing, sign_changes = front_position_and_monotonicity(
            result.final_state.u, grid, alpha
        )
        profiles = {}
        for t, state in result.snapshots:
            if t in (10.0, 20.0):
                profiles[t] = {"u": state.u, "g": g_profile(state.u, params)}
        results.append(
            {
                "variant": variant,
                "seed": seed,
                "tau": tau,
                "result": result,
                "crossing": crossing,
                "sign_changes": sign_changes,
                "profiles": profiles,
            }
        )
    if out is not None:
        for entry in results:
            tag = f"{variant}_seed{seed}_tau{entry['tau']:g}"
            rows = []
            for t, prof in sorted(entry["profiles"].items()):
                for x, u, g in zip(grid.centers, prof["u"], prof["g"]):
                    rows.append([t, x, u, g])
            _write_rows(out / f"random_{tag}.csv", ["t", "x", "u", "g"], rows)
    return results


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


_KNOWN_KEYS = {
    "domain.xmin", "domain.xmax", "grid.n", "grid.ratio",
    "params.tau", "params.mu", "params.kappa", "params.alpha", "params.nu",
    "scheme.kind", "scheme.limiter", "scheme.boundary",
    "integrator", "time.T", "time.dt", "time.sample_every",
    "init.kind", "init.jump", "init.shift", "init.seed", "init.variant",
    "init.ell", "init.value", "init.v0",
    "output.dir",
}

_REQUIRED_KEYS = ("domain.xmin", "domain.xmax", "grid.n", "params.tau",
                  "time.T", "time.dt", "init.kind")


def _get(values: dict, key: str, cast, default=None):
    if key not in values:
        return default
    try:
        value = cast(values[key])
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from err
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {key!r}: {values[key]!r} is not finite")
    return value


@dataclass
class Scenario:
    """A fully specified single run: grid, parameters, scheme, time span, datum."""

    grid: Grid
    params: ModelParams
    scheme: SchemeConfig
    integrator: str
    T: float
    dt: float
    sample_every: int = 0
    init_kind: str = "riemann"
    init_options: dict = field(default_factory=dict)
    output_dir: Path | None = None

    @classmethod
    def from_dict(cls, values: dict[str, str]) -> "Scenario":
        unknown = set(values) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k in _REQUIRED_KEYS if k not in values]
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")
        try:
            x_min = _get(values, "domain.xmin", float)
            x_max = _get(values, "domain.xmax", float)
            n = _get(values, "grid.n", int)
            ratio = _get(values, "grid.ratio", float, 1.0)
            grid = (
                build_uniform_grid(x_min, x_max, n)
                if ratio == 1.0
                else build_graded_grid(x_min, x_max, n, ratio)
            )
            params = ModelParams(
                tau=_get(values, "params.tau", float),
                mu=_get(values, "params.mu", float, 1.0),
                kappa=_get(values, "params.kappa", float, 1.0),
                alpha=_get(values, "params.alpha", float, 0.5),
                nu=_get(values, "params.nu", float, 0.0),
            )
            limiter = values.get("scheme.limiter", "minmod")
            scheme = SchemeConfig(
                kind=values.get("scheme.kind", "kinetic_first_order"),
                limiter=None if limiter in ("none", "None") else limiter,
                boundary=values.get("scheme.boundary", "zero_gradient"),
            )
            scenario = cls(
                grid=grid,
                params=params,
                scheme=scheme,
                integrator=values.get("integrator", "imex"),
                T=_get(values, "time.T", float),
                dt=_get(values, "time.dt", float),
                sample_every=_get(values, "time.sample_every", int, 0),
                init_kind=values["init.kind"],
                init_options={
                    "jump": _get(values, "init.jump", float),
                    "shift": _get(values, "init.shift", float, 0.0),
                    "seed": _get(values, "init.seed", int, 1),
                    "variant": values.get("init.variant", "decay"),
                    "ell": _get(values, "init.ell", float, 25.0),
                    "value": _get(values, "init.value", float, 0.0),
                    "v0": _get(values, "init.v0", float, 0.0),
                },
                output_dir=Path(values["output.dir"]) if "output.dir" in values else None,
            )
            check_run(scenario.scheme, scenario.integrator, scenario.T, scenario.dt)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if scenario.sample_every < 0:
            raise ConfigError("time.sample_every must be non-negative")
        if scenario.init_kind not in ("riemann", "exact_front", "random", "constant"):
            raise ConfigError(f"unknown init.kind {scenario.init_kind!r}")
        return scenario

    def initial_state(self) -> State:
        opts = self.init_options
        if self.init_kind == "riemann":
            jump = opts.get("jump")
            if jump is None:
                jump = 0.5 * (self.grid.x_min + self.grid.x_max)
            return initial_riemann(self.grid, self.params, jump, v0=opts.get("v0", 0.0))
        if self.init_kind == "exact_front":
            return initial_exact_front(self.grid, self.params, shift=opts.get("shift", 0.0))
        if self.init_kind == "random":
            return initial_random(
                self.grid,
                self.params,
                ell=opts.get("ell", 25.0),
                seed=opts.get("seed", 1),
                variant=opts.get("variant", "decay"),
                v0=opts.get("v0", 0.0),
            )
        value = opts.get("value", 0.0)
        u = np.full(self.grid.n_cells, value)
        return State.physical(u, np.full_like(u, opts.get("v0", 0.0)), self.grid, self.params)

    def execute(self) -> RunResult:
        try:
            initial = self.initial_state()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        out = _output_dir(self.output_dir)
        result = run(
            initial,
            self.scheme,
            self.integrator,
            T=self.T,
            dt=self.dt,
            sample_every=self.sample_every,
        )
        if out is not None:
            self.grid.to_csv(out / "grid.csv")
            result.diagnostics.to_csv(out / "diagnostics.csv")
            write_snapshots_csv(out / "snapshots.csv", result)
        return result
