import csv
import re
from pathlib import Path

import numpy as np
import pytest

from hyperac import model, scenarios
from hyperac.diagnostics import detect_stabilization, linf_distance
from hyperac.grid import Grid, build_graded_grid, build_uniform_grid, project_cell_averages
from hyperac.model import BracketError, FrontProfile, ModelParams, hyperbolic_front_speed_shooting
from hyperac.scenarios import (
    CONFIG_KEYS,
    RANDOM_RANGES,
    ConfigError,
    Scenario,
    initial_exact_front,
    initial_random,
    initial_riemann,
    parse_config_text,
    run_order_comparison,
    run_random_study,
    run_riemann_decay,
    run_speed_table,
    write_snapshots_csv,
)
from hyperac.schemes import SchemeConfig
from hyperac.timestepping import run


def test_riemann_jump_on_interface():
    grid = build_uniform_grid(-25.0, 25.0, 400)
    p = ModelParams(tau=1.0)
    st = initial_riemann(grid, p, 0.0)
    assert set(np.unique(st.a)) == {0.0, 1.0}
    assert np.count_nonzero(st.a == 0.0) == 200
    assert np.count_nonzero(st.a == 1.0) == 200
    assert np.array_equal(st.b, np.zeros(400))


def test_riemann_jump_in_cell_center():
    grid = build_uniform_grid(0.0, 1.0, 5)
    p = ModelParams(tau=1.0)
    st = initial_riemann(grid, p, grid.centers[2])
    assert st.a[2] == pytest.approx(0.5)
    assert st.a[1] == 0.0 and st.a[3] == 1.0


def test_riemann_jump_outside_domain():
    grid = build_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        initial_riemann(grid, ModelParams(tau=1.0), 2.0)


def test_exact_front_datum():
    grid = build_uniform_grid(-25.0, 25.0, 400)
    p = ModelParams(tau=4.0, alpha=0.5)
    st = initial_exact_front(grid, p, shift=0.0)
    center = np.argmin(np.abs(grid.centers))
    assert st.a[center] == pytest.approx(0.5, abs=0.02)
    assert st.a[0] == pytest.approx(0.0, abs=1e-6)
    assert st.a[-1] == pytest.approx(1.0, abs=1e-6)
    assert st.b[0] == pytest.approx(0.0, abs=1e-6)
    assert st.b[-1] == pytest.approx(0.0, abs=1e-6)
    # flux is everywhere non-positive: v = -mu u_x of an increasing front
    assert np.max(st.b) <= 1e-12


def test_exact_front_near_stationary_under_evolution():
    grid = build_uniform_grid(-25.0, 25.0, 400)
    p = ModelParams(tau=4.0, alpha=0.5)
    st = initial_exact_front(grid, p)
    front = FrontProfile(p, shift=0.0, increasing=True)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=5.0, dt=0.01)
    drift = linf_distance(out.final_state.u, project_cell_averages(front, grid))
    assert drift <= 2.0 * grid.dx_max


def test_random_datum_ranges_and_determinism():
    grid = build_uniform_grid(-25.0, 50.0, 600)
    p = ModelParams(tau=1.0, alpha=0.6)
    for variant in ("decay", "overlapping"):
        st = initial_random(grid, p, 25.0, seed=42, variant=variant)
        again = initial_random(grid, p, 25.0, seed=42, variant=variant)
        assert np.array_equal(st.a, again.a)
        x = grid.centers
        lo_hi = RANDOM_RANGES[variant]
        for part in range(3):
            lo, hi = lo_hi[part]
            mask = (x > part * 25.0 / 3) & (x < (part + 1) * 25.0 / 3)
            assert np.all((st.a[mask] >= lo) & (st.a[mask] <= hi))
        assert np.all(st.a[x < 0.0] == 0.0)
        assert np.all(st.a[x > 25.0] == 1.0)
    different = initial_random(grid, p, 25.0, seed=43)
    assert not np.array_equal(different.a, st.a)


def _initial_random_per_cell(grid, ell, seed, variant):
    """Reference datum: one draw per cell in ascending order, as specified."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = np.empty(grid.n_cells)
    for i, x in enumerate(grid.centers):
        if x < 0.0:
            u[i] = 0.0
        elif x > ell:
            u[i] = 1.0
        else:
            lo, hi = RANDOM_RANGES[variant][min(int(x // (ell / 3.0)), 2)]
            u[i] = rng.uniform(lo, hi)
    return u


@pytest.mark.parametrize("variant", sorted(RANDOM_RANGES))
def test_random_datum_equals_per_cell_draws(variant):
    p = ModelParams(tau=1.0, alpha=0.6)
    cases = [
        (build_uniform_grid(-25.0, 50.0, 600), 25.0),
        (build_graded_grid(-10.0, 40.0, 333, 1.004), 25.0),
        # centres exactly at 0, on both part boundaries and at ell
        (build_uniform_grid(-1.0, 7.0, 4), 6.0),
    ]
    for grid, ell in cases:
        for seed in (1, 7, 16):
            st = initial_random(grid, p, ell, seed=seed, variant=variant)
            assert np.array_equal(st.a, _initial_random_per_cell(grid, ell, seed, variant))


def test_random_datum_rejects_empty_region():
    grid = build_uniform_grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="random region"):
        initial_random(grid, ModelParams(tau=1.0), 0.0, seed=1)


def test_random_decay_variant_respects_decay_condition():
    grid = build_uniform_grid(-25.0, 50.0, 600)
    p = ModelParams(tau=1.0, alpha=0.6)
    st = initial_random(grid, p, 25.0, seed=1, variant="decay")
    x = grid.centers
    left = st.a[x < 25.0 / 3]
    right = st.a[x > 2 * 25.0 / 3]
    assert left.max() <= 0.5
    assert right.min() >= 0.5
    # overlapping variant violates those bounds by construction
    ov = initial_random(grid, p, 25.0, seed=1, variant="overlapping")
    assert ov.a[(x > 0) & (x < 25.0 / 3)].max() > 0.5
    assert ov.a[(x > 2 * 25.0 / 3) & (x < 25.0)].min() < 0.5


def test_parse_config_text():
    text = """
    # scenario
    domain.xmin = 0      # comment after value
    domain.xmax = 1.5
    grid.n = 40
    """
    values = parse_config_text(text)
    assert values == {"domain.xmin": "0", "domain.xmax": "1.5", "grid.n": "40"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")


def _base_config():
    return {
        "domain.xmin": "0",
        "domain.xmax": "1",
        "grid.n": "20",
        "params.tau": "1.0",
        "time.T": "0.1",
        "time.dt": "0.01",
        "init.kind": "constant",
        "init.value": "1.0",
    }


def test_scenario_from_dict_and_execute():
    scenario = Scenario.from_dict(_base_config())
    result = scenario.execute()
    assert np.allclose(result.final_state.u, 1.0, atol=1e-12)


def test_readme_schema_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    schema = readme.split("## Config file schema", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in schema.splitlines() if line.startswith("| `")]
    documented = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted(CONFIG_KEYS)


def test_scenario_rejects_unknown_and_missing_keys():
    bad = _base_config()
    bad["grid.m"] = "3"
    with pytest.raises(ConfigError):
        Scenario.from_dict(bad)
    missing = _base_config()
    del missing["params.tau"]
    with pytest.raises(ConfigError):
        Scenario.from_dict(missing)
    wrong = _base_config()
    wrong["time.dt"] = "soon"
    with pytest.raises(ConfigError):
        Scenario.from_dict(wrong)


def test_scenario_output_files(tmp_path):
    values = _base_config()
    values["output.dir"] = str(tmp_path / "out")
    values["time.sample_every"] = "5"
    scenario = Scenario.from_dict(values)
    scenario.execute()
    for name in ("grid.csv", "diagnostics.csv", "snapshots.csv"):
        assert (tmp_path / "out" / name).is_file()
    with open(tmp_path / "out" / "snapshots.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    # constant run stays constant to solver roundoff
    assert all(abs(float(r["u"]) - 1.0) < 1e-10 for r in rows)


def test_scenario_graded_grid_and_front_init():
    values = _base_config()
    values.update({"grid.ratio": "1.1", "init.kind": "exact_front",
                   "domain.xmin": "-10", "domain.xmax": "10", "grid.n": "64",
                   "params.alpha": "0.5", "params.tau": "2.0"})
    scenario = Scenario.from_dict(values)
    assert not scenario.grid.is_uniform()
    result = scenario.execute()
    assert result.final_state.u[0] < 0.1 and result.final_state.u[-1] > 0.9


def test_table_case_a_reaches_stabilization():
    # tau=1, alpha=0.9 Riemann run flattens its speed well before T=40
    grid = build_uniform_grid(0.0, 50.0, 400)
    p = ModelParams(tau=1.0, alpha=0.9)
    st = initial_riemann(grid, p, 12.5)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=40.0, dt=0.01)
    stabilized = detect_stabilization(out.diagnostics.times, out.diagnostics.speeds)
    assert stabilized is not None and stabilized < 40.0
    # the tabulated final speed for this resolution
    assert out.diagnostics.speeds[-1] == pytest.approx(0.5751, abs=3e-4)


def test_speed_table_rows_are_self_consistent(tmp_path):
    rows = run_speed_table(
        dx_list=[1.0],
        dt_list=[0.1],
        cases={"A": (1.0, 0.9, 2.0)},
        out_dir=tmp_path,
    )
    assert len(rows) == 1
    row = rows[0]
    # the whole speed series rides along in memory and stays out of the CSV
    assert row["speeds"].shape == (20,) and row["speed"] == row["speeds"][-1]
    # the emitted error always re-derives from the emitted speed and c_ref
    assert row["rel_error"] == pytest.approx(
        abs(row["speed"] - row["c_ref"]) / abs(row["c_ref"])
    )
    with open(tmp_path / "speed_table_full.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["case", "tau", "alpha", "T", "dt", "dx", "speed", "c_ref", "rel_error"]
    with open(tmp_path / "speed_table_errors.csv", newline="") as handle:
        pivot = list(csv.reader(handle))
    assert pivot[0] == ["dt", "case", "dx=1"]
    assert float(pivot[1][2]) == pytest.approx(row["rel_error"])


def test_speed_table_cells_equal_solo_runs(tmp_path):
    """Each (dt, dx) cell runs its cases as one ensemble that they leave at
    their own T; the rows come in (dt, case, dx) order, each the solo run's."""
    cases = {"B": (2.0, 0.6, 1.5), "A": (1.0, 0.9, 2.0), "C": (4.0, 0.7, 1.75)}
    rows = run_speed_table(dx_list=[1.0, 0.5], dt_list=[0.1, 0.04], cases=cases)
    order = [(dt, label, dx) for dt in (0.1, 0.04) for label in cases for dx in (1.0, 0.5)]
    assert [(r["dt"], r["case"], r["dx"]) for r in rows] == order
    for row in rows:
        tau, alpha, T = cases[row["case"]]
        params = ModelParams(tau=tau, alpha=alpha)
        grid = build_uniform_grid(0.0, 50.0, int(round(50.0 / row["dx"])))
        initial = initial_riemann(grid, params, 12.5)
        solo = run(initial, SchemeConfig("kinetic_first_order"), "imex", T=T, dt=row["dt"])
        assert row["T"] == T
        assert row["speeds"].tobytes() == solo.diagnostics.speeds.tobytes()
        assert row["speed"] == float(solo.diagnostics.speeds[-1])


def test_speed_rows_measure_a_datum_of_their_own():
    """The table core runs whatever datum a cell carries: the table's own next
    to a Riemann datum on (0, 100), each row the speed of that datum's run."""
    p, q = ModelParams(tau=2.0, alpha=0.6), ModelParams(tau=4.0, alpha=0.7)
    wide = initial_riemann(build_uniform_grid(0.0, 100.0, 200), q, 30.0)
    cells = [(scenarios._table_datum(p, 0.5), 2.0, {"cell": "table"}),
             (wide, 3.0, {"cell": "wide"})]
    c_refs = {p: 0.25, q: 0.5}
    scheme, integrator = scenarios.TABLE_ORDERS[1]
    rows = list(scenarios._speed_rows(cells, scheme, integrator, 0.05, c_refs))
    assert [row["cell"] for row, _ in rows] == ["table", "wide"]
    for (datum, T, _), (row, result) in zip(cells, rows):
        solo = run(datum, scheme, integrator, T=T, dt=0.05)
        assert row["speed"] == float(solo.diagnostics.speeds[-1])
        assert row["c_ref"] == c_refs[datum.params]
        assert result.final_state.grid is datum.grid


def test_scenario_runs_are_reproducible():
    values = _base_config()
    values.update({"init.kind": "random", "init.seed": "7", "init.ell": "0.5",
                   "domain.xmin": "-1", "domain.xmax": "1", "grid.n": "32"})
    first = Scenario.from_dict(values).execute()
    second = Scenario.from_dict(values).execute()
    assert np.array_equal(first.final_state.a, second.final_state.a)
    assert np.array_equal(first.final_state.b, second.final_state.b)
    assert np.array_equal(first.diagnostics.speeds, second.diagnostics.speeds)


def test_write_snapshots_csv_columns(tmp_path):
    grid = build_uniform_grid(0.0, 1.0, 8)
    p = ModelParams(tau=1.0)
    st = initial_riemann(grid, p, 0.5)
    out = run(st, SchemeConfig("kinetic_first_order"), "imex", T=0.05, dt=0.01,
              sample_every=2)
    path = tmp_path / "snap.csv"
    write_snapshots_csv(path, out)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    assert header == ["t", "x", "u", "v"]
    times = sorted({float(r[0]) for r in rows})
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.05)
    assert len(rows) % 8 == 0


@pytest.mark.parametrize("driver", ["speed-table", "order-table"])
def test_table_driver_raises_the_oracle_error_before_any_ensemble(monkeypatch, driver):
    """A (tau, alpha) that the oracle cannot bracket, (10, 0.3), stops a table
    driver with the error of a direct call, before any ensemble runs."""
    with pytest.raises(BracketError) as direct:
        hyperbolic_front_speed_shooting(ModelParams(tau=10.0, alpha=0.3), increasing=True)

    def no_ensemble(*args, **kwargs):
        raise AssertionError("an ensemble ran before the oracle")

    monkeypatch.setattr(scenarios, "run_ensemble", no_ensemble)
    with pytest.raises(BracketError) as raised:
        if driver == "speed-table":
            run_speed_table(dx_list=[1.0], dt_list=[0.1], cases={"X": (10.0, 0.3, 1.0)})
        else:
            run_order_comparison(2, taus=[10.0], alphas=[0.3])
    assert type(raised.value) is type(direct.value)
    assert str(raised.value) == str(direct.value)


_REFUSALS = {
    "random-variant": (lambda d: initial_random(build_uniform_grid(0.0, 3.0, 12),
                                                ModelParams(tau=1.0), 3.0, 1, variant="bogus"),
                       ValueError, "unknown random variant 'bogus'"),
    "table-order": (lambda d: run_order_comparison(3, out_dir=d), ValueError,
                    "order must be 1 or 2"),
    "table-dx": (lambda d: run_speed_table([0.0], [0.1], {"A": (1.0, 0.9, 1.0)}, out_dir=d),
                 ConfigError, "dx must be positive and finite"),
    "table-dt": (lambda d: run_speed_table([1.0], [0.0], {"A": (1.0, 0.9, 1.0)}, out_dir=d),
                 ConfigError, "T and dt must be positive and finite"),
    "table-tau": (lambda d: run_speed_table([1.0], [0.1], {"A": (-1.0, 0.9, 1.0)}, out_dir=d),
                  ConfigError, "tau must be positive and finite"),
    "order-alpha": (lambda d: run_order_comparison(1, alphas=(0.6, 1.0), out_dir=d), ConfigError,
                    "alpha must lie strictly inside (0, 1)"),
    "decay-tau": (lambda d: run_riemann_decay(tau=0.0, out_dir=d), ConfigError,
                  "tau must be positive and finite"),
    "study-alpha": (lambda d: run_random_study(alpha=1.2, out_dir=d), ConfigError,
                    "alpha must lie strictly inside (0, 1)"),
    "study-seed": (lambda d: run_random_study(seed=-1, out_dir=d), ConfigError,
                   "seed must be non-negative"),
    "study-variant": (lambda d: run_random_study(variant="mixed", out_dir=d), ConfigError,
                      "unknown random variant 'mixed'"),
    "grid-size": (lambda d: Grid([0.0, 1.0, 2.0]), ValueError,
                  "a grid needs at least 4 interfaces (3 cells)"),
    "grid-bound": (lambda d: Grid([0.0, 1.0, 2.0, 1e301]), ValueError,
                   "grid interfaces must lie within [-1e+300, 1e+300]"),
    # psi stays at -1 and phi = exp(-xi/10) ends at 2.5e-3 <= 1e-2 at xi = 60; a faster
    # decay, phi' = -phi to xi = 50, crosses zero on LSODA's atol noise instead
    "orbit-window": (lambda d: model._integrate_orbit(lambda _xi, y: (-0.1 * y[0], 0.0),
                                                      (1.0, -1.0), 60.0),
                     model.IntegrationError,
                     "orbit neither overshot nor turned around within the integration window"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusal_names_its_cause(tmp_path, monkeypatch, case):
    """Refusals that no other test reaches, each with its exact message and
    class; a driver's refusal comes before the output directory is made, and
    before any run or shooting call."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("run", "run_ensemble", "hyperbolic_front_speed_shooting"):
        monkeypatch.setattr(scenarios, name, no_work)
    call, error, message = _REFUSALS[case]
    out_dir = tmp_path / "out"
    with pytest.raises(error) as info:
        call(out_dir)
    assert type(info.value) is error and str(info.value) == message
    assert not out_dir.exists()
