"""Initial-data generators, experiment drivers and config-file handling.

The experiment drivers reproduce the production studies of the library:
Riemann front-speed tables on (0, 2l) with the jump at l/2, the decay of a
Riemann datum toward the stationary front on (-l, l), and front formation
from piecewise-random data.  All of them emit CSV files when given an
output directory; plotting is left to external tools.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .csvout import FLOAT, ROW_END, fill, float_rows, write_csv
from .diagnostics import front_position_and_monotonicity, g_profile, relative_speed_error
from .grid import Grid, build_graded_grid, build_uniform_grid, project_cell_averages
from .model import FrontProfile, ModelParams, hyperbolic_front_speed_shooting
from .schemes import ONEFIELD, SchemeConfig, State
from .timestepping import RunResult, check_run, run, run_ensemble

__all__ = [
    "CONFIG_KEYS",
    "ConfigError",
    "Scenario",
    "parse_config_text",
    "initial_riemann",
    "initial_exact_front",
    "initial_random",
    "INIT_KINDS",
    "RANDOM_RANGES",
    "SPEED_TABLE_CASES",
    "TABLE_ORDERS",
    "run_speed_table",
    "run_order_comparison",
    "run_riemann_decay",
    "run_random_study",
    "write_snapshots_csv",
]


class ConfigError(ValueError):
    """A scenario configuration is missing, malformed or inconsistent."""


def _checked(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


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
    if seed < 0:
        raise ValueError("seed must be non-negative")
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


# init.kind -> the initial state on grid g with parameters p from the typed init.*
# keys i; each calls its generator by its module name, which the benchmark's tracer rebinds
INIT_KINDS = {
    "riemann": lambda g, p, i: initial_riemann(
        g, p, 0.5 * (g.x_min + g.x_max) if i["jump"] is None else i["jump"], v0=i["v0"]),
    "exact_front": lambda g, p, i: initial_exact_front(g, p, shift=i["shift"]),
    "random": lambda g, p, i: initial_random(g, p, i["ell"], i["seed"], i["variant"], i["v0"]),
    "constant": lambda g, p, i: State.physical(
        np.full(g.n_cells, i["value"]), np.full(g.n_cells, i["v0"]), g, p),
}


def _write_rows(path: Path, header: Sequence[str], rows: Iterable) -> None:
    """``csvout.write_csv``; blocks of rows come in an iterator without a length,
    as the benchmark's tracer reads a length of ``rows`` as its row count."""
    write_csv(path, header, rows)


def write_snapshots_csv(path: str | Path, result: RunResult) -> None:
    """Long-format snapshot table ``t,x,u,v`` (``t,x,u,w`` for one-field runs): one
    block of rows per snapshot in time order, and the final state appended when
    the sampling cadence missed T."""
    entries = list(result.snapshots)
    if not entries or entries[-1][1] is not result.final_state:
        final_t = result.diagnostics.times[-1] if result.diagnostics.times.size else 0.0
        entries.append((float(final_t), result.final_state))
    second = "w" if entries[-1][1].kind == ONEFIELD else "v"
    physical = ((t, st if st.kind == ONEFIELD else st.to_physical()) for t, st in entries)
    frames = ((t, st.a, st.b) for t, st in physical)
    blocks = _long_blocks(result.final_state.grid.centers, frames)
    _write_rows(Path(path), ["t", "x", "u", second], blocks)


def _long_blocks(x: np.ndarray, frames: Iterable) -> Iterator[str]:
    """Text blocks of a long-format ``t,x,a,b`` table, one per ``(t, a, b)`` of ``frames``;
    x is formatted once and t once per frame, so a frame's rows are one template."""
    rows = [""] + [FLOAT % xi + "," + FLOAT + "," + FLOAT + ROW_END for xi in x.tolist()]
    for t, a, b in frames:
        yield fill((FLOAT % t + ",").join(rows), (a, b))


# speed-table cases: label -> (tau, alpha, T)
SPEED_TABLE_CASES = {
    "A": (1.0, 0.9, 40.0),
    "B": (2.0, 0.6, 30.0),
    "C": (4.0, 0.7, 35.0),
}

_TABLE_ELL = 25.0  # tables use (0, 2*ell) with the jump at ell/2

# order-table orders: order -> (scheme, integrator)
TABLE_ORDERS = {
    1: (SchemeConfig("kinetic_first_order"), "imex"),
    2: (SchemeConfig("kinetic_second_order", limiter="minmod"), "euler"),
}
_SPEED_COLUMNS = ("speed", "c_ref", "rel_error")  # a speed row's columns after its labels


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


def _shoot_refs(members: Iterable[ModelParams]) -> dict:
    """The increasing front's shooting speed, once per distinct parameter set."""
    return {p: hyperbolic_front_speed_shooting(p, increasing=True) for p in dict.fromkeys(members)}


def _table_datum(params: ModelParams, dx: float) -> State:
    """The tables' datum: the Riemann datum on (0, 2l), N = round(2l/dx), jump at l/2."""
    if not 0.0 < dx < math.inf:  # false for NaN too
        raise ValueError("dx must be positive and finite")
    return initial_riemann(build_uniform_grid(0.0, 2.0 * _TABLE_ELL, round(2.0 * _TABLE_ELL / dx)),
                           params, jump_location=_TABLE_ELL / 2.0)


def _speed_rows(cells: Sequence, scheme: SchemeConfig, integrator: str, dt: float,
                c_refs: dict) -> Iterator[tuple[dict, RunResult]]:
    """Run the cells ``(datum, T, labels)`` as one ensemble; yield each row and result.

    A cell runs its initial state ``datum`` to its T.  Its row is ``labels``, then the final
    average speed, ``c_refs[datum.params]`` and their relative error.
    """
    ensemble = run_ensemble([c[0] for c in cells], scheme, integrator, [c[1] for c in cells], dt)
    for (datum, _, labels), result in zip(cells, ensemble):
        speed, c_ref = float(result.diagnostics.speeds[-1]), c_refs[datum.params]
        measured = speed, c_ref, relative_speed_error(speed, c_ref)
        yield {**labels, **dict(zip(_SPEED_COLUMNS, measured))}, result


def _write_speed_csv(path: Path, labels: Sequence[str], rows: list[dict]) -> None:
    header = [*labels, *_SPEED_COLUMNS]  # a tidy table of speed rows
    _write_rows(path, header, [[r[k] for k in header] for r in rows])


def run_speed_table(
    dx_list: Sequence[float] | None = None,
    dt_list: Sequence[float] | None = None,
    cases: dict | None = None,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Relative front-speed error of the IMEX scheme over a (dt, dx) grid.

    Each dt row runs its (case, dx) cells as one ``_speed_rows`` ensemble of
    ``TABLE_ORDERS[1]``: a cell leaves it at its own T, and its row is bit for
    bit that of a run of its own.  Rows come in (dt, case, dx) order; after
    the speed columns each carries the run's per-step speed series under
    ``"speeds"`` (not written out).  Writes a tidy CSV plus a pivot in the
    layout of the error table (one row per (dt, case), one column per dx).
    """
    dx_list = list(dx_list) if dx_list is not None else [1.0, 0.5, 0.25, 0.125, 0.0625]
    dt_list = list(dt_list) if dt_list is not None else [1e-1, 1e-2, 1e-3]
    cases = dict(cases) if cases is not None else dict(SPEED_TABLE_CASES)
    members = {label: _checked(ModelParams, tau=case[0], alpha=case[1])
               for label, case in cases.items()}
    data = {(label, dx): _checked(_table_datum, p, dx) for label, p in members.items()
            for dx in dx_list}
    for dt in dt_list:
        for T in {case[2] for case in cases.values()}:
            _checked(check_run, *TABLE_ORDERS[1], T, dt)
    out = _output_dir(out_dir)
    c_refs = _shoot_refs(members.values())
    rows = []
    for dt in dt_list:
        cells = [
            (data[label, dx], T, dict(case=label, tau=tau, alpha=alpha, T=T, dt=dt, dx=dx))
            for label, (tau, alpha, T, *_) in cases.items() for dx in dx_list
        ]
        rows += [{**row, "speeds": result.diagnostics.speeds}
                 for row, result in _speed_rows(cells, *TABLE_ORDERS[1], dt, c_refs)]
    if out is not None:
        labels = ["case", "tau", "alpha", "T", "dt", "dx"]
        _write_speed_csv(out / "speed_table_full.csv", labels, rows)
        error_of = {(r["dt"], r["case"], r["dx"]): r["rel_error"] for r in rows}
        _write_rows(
            out / "speed_table_errors.csv",
            ["dt", "case"] + [f"dx={dx:g}" for dx in dx_list],
            [[dt, label] + [error_of[dt, label, dx] for dx in dx_list]
             for dt in dt_list for label in cases],
        )
    return rows


def run_order_comparison(
    order: int,
    taus: Sequence[float] = (1.0, 4.0),
    alphas: Sequence[float] = (0.6, 0.7, 0.8, 0.9),
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Final average speeds at fixed resolution for the first or second order scheme.

    N = 400 cells (dx = 0.125), dt = 0.01, T = 40, with ``TABLE_ORDERS[order]``:
    the first-order runs use the IMEX step; the second-order scheme pairs with
    explicit Euler, keeping time accuracy first order while the limited
    reconstruction improves the spatial error.  All (tau, alpha) pairs run as
    one ensemble.
    """
    if order not in TABLE_ORDERS:
        raise ValueError(f"order must be {' or '.join(map(str, TABLE_ORDERS))}")
    members = [_checked(ModelParams, tau=tau, alpha=alpha) for tau in taus for alpha in alphas]
    cells = [(_checked(_table_datum, p, 0.125), 40.0, dict(order=order, tau=p.tau, alpha=p.alpha))
             for p in members]
    out = _output_dir(out_dir)
    rows = [row for row, _ in
            _speed_rows(cells, *TABLE_ORDERS[order], 0.01, _shoot_refs(members))]
    if out is not None:
        _write_speed_csv(out / f"order{order}_speeds.csv", ["order", "tau", "alpha"], rows)
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
    params = _checked(ModelParams, tau=tau, alpha=0.5)
    out = _output_dir(out_dir)
    front = FrontProfile(params, shift=0.0, increasing=True)
    initial = initial_riemann(grid, params, jump_location=0.0)
    hyperbolic = run(
        initial,
        *TABLE_ORDERS[1],
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
        header = ["t", "l2_hyperbolic", "l2_parabolic"]
        _write_rows(out / "riemann_decay_l2.csv", header, float_rows([curves[k] for k in header]))
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
    members = [_checked(ModelParams, tau=tau, alpha=alpha) for tau in taus]
    initials = [_checked(initial_random, grid, params, ell, seed, variant) for params in members]
    out = _output_dir(out_dir)
    ensemble = run_ensemble(initials, *TABLE_ORDERS[1], T=20.0, dt=0.01, sample_every=1000)
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
            frames = ((t, prof["u"], prof["g"]) for t, prof in sorted(entry["profiles"].items()))
            blocks = _long_blocks(grid.centers, frames)
            _write_rows(out / f"random_{tag}.csv", ["t", "x", "u", "g"], blocks)
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


_REQUIRED = MISSING  # the default of a key that every config must give

# the one declaration of every config key: key -> (type, default); from_dict
# hands the typed values on by section, "params.tau" as params["tau"]; params.* and
# scheme.* are the fields of ModelParams and SchemeConfig ("none" for no limiter)
CONFIG_KEYS = {
    "domain.xmin": (float, _REQUIRED), "domain.xmax": (float, _REQUIRED),
    "grid.n": (int, _REQUIRED), "grid.ratio": (float, 1.0),
    **{f"params.{f.name}": (float, f.default) for f in fields(ModelParams)},
    **{f"scheme.{f.name}": (str, f.default) for f in fields(SchemeConfig)},
    "integrator": (str, "imex"),
    "time.T": (float, _REQUIRED), "time.dt": (float, _REQUIRED), "time.sample_every": (int, 0),
    "init.kind": (str, _REQUIRED), "init.shift": (float, 0.0),
    "init.jump": (float, None),  # None: the middle of the domain
    "init.seed": (int, 1), "init.variant": (str, "decay"), "init.ell": (float, 25.0),
    "init.value": (float, 0.0), "init.v0": (float, 0.0),
    "output.dir": (Path, None),
}


@dataclass
class Scenario:
    """A fully specified single run: grid, parameters, scheme, time span, datum.

    ``init`` holds the typed ``init.*`` keys by name: ``kind`` and its options.
    """

    grid: Grid
    params: ModelParams
    scheme: SchemeConfig
    integrator: str
    T: float
    dt: float
    sample_every: int
    init: dict
    output_dir: Path | None

    @classmethod
    def from_dict(cls, values: dict[str, str]) -> "Scenario":
        unknown = set(values) - set(CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k, (_, req) in CONFIG_KEYS.items() if req is _REQUIRED and k not in values]
        if missing:
            raise ConfigError(f"missing required config keys: {missing}")
        sections: dict[str, dict] = {}
        for key, (cast, value) in CONFIG_KEYS.items():
            if key in values:
                try:
                    value = cast(values[key])
                except ValueError as err:
                    raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from err
                if cast is float and not math.isfinite(value):
                    raise ConfigError(f"bad value for {key!r}: {values[key]!r} is not finite")
            section, _, name = key.rpartition(".")
            sections.setdefault(section, {})[name] = value
        domain, mesh, scheme = sections["domain"], sections["grid"], sections["scheme"]
        if scheme["limiter"] in ("none", "None"):
            scheme["limiter"] = None
        scenario = cls(
            grid=_checked(build_graded_grid, domain["xmin"], domain["xmax"], mesh["n"],
                          mesh["ratio"]),
            params=_checked(ModelParams, **sections["params"]),
            scheme=_checked(SchemeConfig, **scheme),
            integrator=sections[""]["integrator"],
            **sections["time"],
            init=sections["init"],
            output_dir=sections["output"]["dir"],
        )
        _checked(check_run, scenario.scheme, scenario.integrator, scenario.T, scenario.dt,
                 scenario.sample_every)
        if scenario.init["kind"] not in INIT_KINDS:
            raise ConfigError(f"unknown init.kind {scenario.init['kind']!r}")
        return scenario

    def initial_state(self) -> State:
        return INIT_KINDS[self.init["kind"]](self.grid, self.params, self.init)

    def execute(self) -> RunResult:
        initial = _checked(self.initial_state)
        out = _output_dir(self.output_dir)
        result = run(initial, self.scheme, self.integrator, self.T, self.dt, self.sample_every)
        if out is not None:
            self.grid.to_csv(out / "grid.csv")
            result.diagnostics.to_csv(out / "diagnostics.csv")
            write_snapshots_csv(out / "snapshots.csv", result)
        return result
