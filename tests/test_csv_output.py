"""Every CSV writer against the value-by-value writers it replaced, byte for byte.

The ``_legacy_*`` functions are the earlier ``csv.writer`` + ``f"{x:.17g}"``
writers, kept here as the reference: each file the package writes must equal
theirs, CRLF row endings, quoting, ``-0``, ``nan``, ``inf`` and subnormals
included.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperac import scenarios
from hyperac.csvout import float_rows, write_csv
from hyperac.diagnostics import DiagnosticsRecord
from hyperac.grid import build_graded_grid, build_uniform_grid
from hyperac.model import ModelParams
from hyperac.scenarios import (
    Scenario,
    initial_random,
    initial_riemann,
    run_order_comparison,
    run_random_study,
    run_riemann_decay,
    run_speed_table,
    write_snapshots_csv,
)
from hyperac.schemes import ONEFIELD, SchemeConfig
from hyperac.timestepping import run

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.1, -2.5e-308]


def _legacy_write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])


def _legacy_snapshots(path, result):
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
    _legacy_write_rows(path, ["t", "x", "u", second], rows)


def _legacy_diagnostics(path, record):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "c_n", "l2", "linf", "g_min"])
        for row in zip(record.times, record.speeds, record.l2, record.linf, record.g_min):
            writer.writerow([f"{x:.17g}" for x in row])


def _legacy_grid(path, grid):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "x_left", "x_center", "x_right", "dx"])
        for i in range(grid.n_cells):
            writer.writerow([i] + [f"{x:.17g}" for x in (
                grid.interfaces[i], grid.centers[i], grid.interfaces[i + 1],
                grid.cell_lengths[i])])


def _same_bytes(got, want):
    assert got.read_bytes() == want.read_bytes()


@pytest.fixture
def counted_rows(monkeypatch):
    """Check every ``_write_rows`` call: a ``rows`` with a length holds that many
    data rows (the benchmark tracer's row count), and blocks come unsized."""
    original = scenarios._write_rows
    calls = []

    def checked(path, header, rows):
        original(path, header, rows)
        with open(path, "rb") as handle:
            written = handle.read().count(b"\r\n") - 1
        if hasattr(rows, "__len__"):
            assert len(rows) == written
        calls.append(path.name)

    monkeypatch.setattr(scenarios, "_write_rows", checked)
    return calls


def _riemann(grid, tau=1.0, alpha=0.7):
    params = ModelParams(tau=tau, alpha=alpha)
    return initial_riemann(grid, params, 0.5 * (grid.x_min + grid.x_max))


@pytest.mark.parametrize(
    "kind, integrator, dt, sample_every",
    [
        ("kinetic_first_order", "imex", 0.01, 3),  # misses T: the final state is appended
        ("kinetic_first_order", "imex", 0.01, 0),
        ("kinetic_first_order", "imex", 0.01, 5),  # lands on T
        ("kinetic_second_order", "heun", 0.005, 4),
        ("onefield_direct", "heun", 0.001, 30),  # the w column
        ("parabolic_reference", "heun", 0.001, 0),  # physical state
    ],
)
def test_snapshots_equal_legacy_writer(tmp_path, counted_rows, kind, integrator, dt,
                                       sample_every):
    grid = build_graded_grid(-5.0, 5.0, 40, 1.02)
    result = run(_riemann(grid), SchemeConfig(kind), integrator, T=0.1, dt=dt,
                 sample_every=sample_every)
    write_snapshots_csv(tmp_path / "new.csv", result)
    _legacy_snapshots(tmp_path / "old.csv", result)
    _same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")
    assert counted_rows == ["new.csv"]


def test_run_outputs_equal_legacy_writers(tmp_path):
    """``hyperac run``'s three files: a graded grid, NaN distance columns."""
    values = {
        "domain.xmin": "-5", "domain.xmax": "10", "grid.n": "60", "grid.ratio": "1.01",
        "params.tau": "2", "params.alpha": "0.6", "time.T": "0.25", "time.dt": "0.01",
        "time.sample_every": "7", "init.kind": "random", "init.ell": "5",
        "output.dir": str(tmp_path / "out"),
    }
    scenario = Scenario.from_dict(values)
    result = scenario.execute()
    assert np.isnan(result.diagnostics.l2).all()
    _legacy_grid(tmp_path / "grid.csv", scenario.grid)
    _legacy_diagnostics(tmp_path / "diagnostics.csv", result.diagnostics)
    _legacy_snapshots(tmp_path / "snapshots.csv", result)
    for name in ("grid.csv", "diagnostics.csv", "snapshots.csv"):
        _same_bytes(tmp_path / "out" / name, tmp_path / name)


def test_special_values_equal_legacy_writers(tmp_path):
    values = np.array(SPECIAL)
    record = DiagnosticsRecord(times=values, speeds=values[::-1], l2=values,
                               linf=np.full(values.size, math.nan), g_min=-values)
    record.to_csv(tmp_path / "new_diag.csv")
    _legacy_diagnostics(tmp_path / "old_diag.csv", record)
    _same_bytes(tmp_path / "new_diag.csv", tmp_path / "old_diag.csv")

    # strings that csv quotes, ints, numpy and Python floats, and float blocks
    rows = [["a,b", 'say "hi"', "cr\r", "lf\n", "", 3, -0.0, np.float64(5e-324)],
            ["plain", "x", "y", "z", "w", 0, math.inf, np.float64(-math.inf)]]
    scenarios._write_rows(tmp_path / "new_rows.csv", ["h,1", "h2"] + list("abcdef"), rows)
    _legacy_write_rows(tmp_path / "old_rows.csv", ["h,1", "h2"] + list("abcdef"), rows)
    _same_bytes(tmp_path / "new_rows.csv", tmp_path / "old_rows.csv")

    columns = (values, values[::-1], np.arange(values.size))
    write_csv(tmp_path / "new_block.csv", ["a", "b", "c"], float_rows(columns))
    _legacy_write_rows(tmp_path / "old_block.csv", ["a", "b", "c"],
                       [[float(x) for x in row] for row in zip(*columns)])
    _same_bytes(tmp_path / "new_block.csv", tmp_path / "old_block.csv")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=9))
def test_float_blocks_format_every_float_as_before(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("blocks")
    columns = (np.array(values), np.array(values[::-1]))
    write_csv(path / "new.csv", ["a", "b"], float_rows(columns))
    _legacy_write_rows(path / "old.csv", ["a", "b"], [list(r) for r in zip(*columns)])
    _same_bytes(path / "new.csv", path / "old.csv")


def test_float_blocks_split_long_tables(tmp_path, monkeypatch):
    monkeypatch.setattr("hyperac.csvout.BLOCK_ROWS", 4)
    values = np.linspace(-1.0, 1.0, 11)
    blocks = list(float_rows((values, values[:10])))  # rows up to the shorter column
    assert [block.count("\r\n") for block in blocks] == [4, 4, 2]
    write_csv(tmp_path / "new.csv", ["a", "b"], iter(blocks))
    _legacy_write_rows(tmp_path / "old.csv", ["a", "b"], list(zip(values, values[:10])))
    _same_bytes(tmp_path / "new.csv", tmp_path / "old.csv")


def test_speed_and_order_tables_equal_legacy_writer(tmp_path, counted_rows):
    # labels that csv quotes
    cases = {"A,1": (1.0, 0.9, 1.0), 'C "x"': (4.0, 0.7, 0.5)}
    rows = run_speed_table(dx_list=[1.0, 0.5], dt_list=[0.1], cases=cases,
                           out_dir=tmp_path / "new")
    header = ["case", "tau", "alpha", "T", "dt", "dx", "speed", "c_ref", "rel_error"]
    _legacy_write_rows(tmp_path / "speed_table_full.csv", header,
                       [[r[k] for k in header] for r in rows])
    pivot = [[0.1, label] + [next(r["rel_error"] for r in rows
                                  if r["case"] == label and r["dx"] == dx)
                             for dx in (1.0, 0.5)]
             for label in cases]
    _legacy_write_rows(tmp_path / "speed_table_errors.csv", ["dt", "case", "dx=1", "dx=0.5"],
                       pivot)
    for name in ("speed_table_full.csv", "speed_table_errors.csv"):
        _same_bytes(tmp_path / "new" / name, tmp_path / name)

    rows = run_order_comparison(1, taus=(1.0,), alphas=(0.6,), out_dir=tmp_path / "new")
    header = ["order", "tau", "alpha", "speed", "c_ref", "rel_error"]
    _legacy_write_rows(tmp_path / "order1_speeds.csv", header,
                       [[r[k] for k in header] for r in rows])
    _same_bytes(tmp_path / "new" / "order1_speeds.csv", tmp_path / "order1_speeds.csv")
    assert rows[0]["order"] == 1 and isinstance(rows[0]["order"], int)
    assert counted_rows == ["speed_table_full.csv", "speed_table_errors.csv",
                            "order1_speeds.csv"]


def test_random_study_and_riemann_decay_equal_legacy_writer(tmp_path, counted_rows):
    entries = run_random_study(taus=(5.0,), seed=2, out_dir=tmp_path / "new")
    grid = entries[0]["result"].final_state.grid
    rows = [[t, x, u, g]
            for t, prof in sorted(entries[0]["profiles"].items())
            for x, u, g in zip(grid.centers, prof["u"], prof["g"])]
    assert len(rows) == 2 * grid.n_cells
    name = "random_decay_seed2_tau5.csv"
    _legacy_write_rows(tmp_path / name, ["t", "x", "u", "g"], rows)
    _same_bytes(tmp_path / "new" / name, tmp_path / name)

    out = run_riemann_decay(out_dir=tmp_path / "new")
    curves = out["curves"]
    _legacy_write_rows(tmp_path / "riemann_decay_l2.csv", ["t", "l2_hyperbolic", "l2_parabolic"],
                       zip(curves["t"].tolist(), curves["l2_hyperbolic"].tolist(),
                           curves["l2_parabolic"].tolist()))
    _legacy_snapshots(tmp_path / "riemann_decay_hyperbolic.csv", out["hyperbolic"])
    _legacy_snapshots(tmp_path / "riemann_decay_parabolic.csv", out["parabolic"])
    for name in ("riemann_decay_l2.csv", "riemann_decay_hyperbolic.csv",
                 "riemann_decay_parabolic.csv"):
        _same_bytes(tmp_path / "new" / name, tmp_path / name)
    assert len(counted_rows) == 4


def test_snapshots_are_streamed(tmp_path):
    """101 snapshots at N = 600 (60,600 rows, 3.3 MB of text): the writer holds one
    snapshot's block at a time, never the whole file's rows."""
    grid = build_uniform_grid(-25.0, 50.0, 600)
    params = ModelParams(tau=5.0, alpha=0.6)
    result = run(initial_random(grid, params, 25.0, seed=3), SchemeConfig("kinetic_first_order"),
                 "imex", T=1.0, dt=0.01, sample_every=1)
    assert len(result.snapshots) == 101
    path = tmp_path / "snapshots.csv"
    write_snapshots_csv(path, result)  # warm: imports and first-call caches
    tracemalloc.start()
    try:
        write_snapshots_csv(path, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\r\n") == 1 + 101 * 600
    assert peak < 1_000_000
