import csv
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperac import scenarios
from hyperac.cli import cli_main
from hyperac.model import ModelParams, hyperbolic_front_speed_shooting
from hyperac.scenarios import CONFIG_KEYS, INIT_KINDS, RANDOM_RANGES
from hyperac.schemes import BOUNDARIES, LIMITERS, SCHEMES
from hyperac.timestepping import INTEGRATORS


def test_shoot_matches_reference_speed(capsys):
    rc = cli_main(["shoot", "--tau", "1", "--alpha", "0.9"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    # converged shooting value; the published 0.5646 is an erratum (criterion 1)
    assert float(out) == pytest.approx(0.562857, abs=5e-4)


def test_shoot_decreasing_orientation(capsys):
    rc = cli_main(["shoot", "--tau", "2", "--alpha", "0.6", "--decreasing"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(-0.173393, abs=5e-4)


def test_shoot_prints_the_digits_its_tol_resolves(capsys):
    """A speed of about 5e-8 prints as 0.000000 at six decimals; at
    ``--tol 1e-12`` the twelve decimals printed keep it, within tol."""
    argv = ["--tau", "37.54", "--alpha", "0.6417", "--mu", "2.65e-8", "--kappa", "2.08e-6"]
    assert cli_main(["shoot", *argv, "--tol", "1e-12"]) == 0
    out = capsys.readouterr().out.strip()
    p = ModelParams(tau=37.54, alpha=0.6417, mu=2.65e-8, kappa=2.08e-6)
    assert len(out.partition(".")[2]) == 12 and float(out) != 0.0
    assert abs(float(out) - hyperbolic_front_speed_shooting(p, 1e-12, True)) <= 1e-12


_TINY_SPEED = ["--tau", "37.54", "--alpha", "0.6417", "--mu", "2.65e-8", "--kappa", "2.08e-6"]


@pytest.mark.parametrize("argv, tol", [(["--tau", "4", "--alpha", "0.7"], "1e-20"),
                                       (["--tau", "4", "--alpha", "0.7"], "1e-300"),
                                       (_TINY_SPEED, "1e-300")])
def test_shoot_prints_no_digit_past_the_float(capsys, argv, tol):
    """A tol finer than the float's resolution prints the shortest text that
    reads back as the speed: repr's digits, at most 17, not one per decade of tol."""
    assert cli_main(["shoot", *argv, "--tol", tol]) == 0
    out = capsys.readouterr().out.strip()
    values = dict(zip(argv[::2], map(float, argv[1::2])))
    p = ModelParams(**{key[2:]: value for key, value in values.items()})
    speed = hyperbolic_front_speed_shooting(p, float(tol), True)
    assert float(out) == speed
    digits = out.lstrip("-0.").replace(".", "")
    assert digits == repr(speed).partition("e")[0].lstrip("-0.").replace(".", "")
    assert len(digits) <= 17


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: hyperac")


# each driver at a small size: its patched call, its stdout rows and the files it writes
_SMALL_DRIVERS = [
    (["speed-table"], "run_speed_table",
     functools.partial(scenarios.run_speed_table, dx_list=[1.0, 0.5], dt_list=[0.1]),
     6, ["speed_table_full.csv", "speed_table_errors.csv"]),
    (["order-table", "--order", "1"], "run_order_comparison",
     functools.partial(scenarios.run_order_comparison, taus=(1.0,), alphas=(0.9,)),
     1, ["order1_speeds.csv"]),
    (["riemann-decay"], None, None, 1,
     ["riemann_decay_l2.csv", "riemann_decay_hyperbolic.csv", "riemann_decay_parabolic.csv"]),
    (["random-study"], "run_random_study",
     functools.partial(scenarios.run_random_study, taus=(1.0,)),
     1, ["random_decay_seed1_tau1.csv"]),
]


@pytest.mark.parametrize("argv, name, small, n_rows, files", _SMALL_DRIVERS,
                         ids=[argv[0] for argv, *_ in _SMALL_DRIVERS])
def test_driver_prints_its_rows_and_writes_its_csv(tmp_path, capsys, monkeypatch,
                                                   argv, name, small, n_rows, files):
    """Each table driver, run by the CLI at a small size, exits 0 and prints
    one line per row and then where its CSV files went."""
    if name is not None:
        monkeypatch.setattr(f"hyperac.cli.{name}", small)
    out = tmp_path / "out"
    assert cli_main(argv + ["--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n_rows + 1
    assert lines[-1] == f"wrote CSV output to {out}"
    assert sorted(path.name for path in out.iterdir()) == sorted(files)


def test_missing_config_exits_2(capsys):
    rc = cli_main(["run", "/definitely/not/here.cfg"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("failure", ["not-utf-8", "os-error"])
def test_unreadable_config_exits_2(tmp_path, capsys, monkeypatch, failure):
    """A config file that is not UTF-8 (byte 0xff), or whose read fails, is
    invalid input: exit 2 with one stderr line and no traceback."""
    cfg = tmp_path / "unreadable.cfg"
    cfg.write_bytes(b"domain.xmin = 0\xff\n")
    if failure == "os-error":
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(cfg))

        monkeypatch.setattr("pathlib.Path.read_text", refuse)
    assert cli_main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: ")
    assert err.count("\n") == 1


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "domain.xmin = 0\ndomain.xmax = 1\ngrid.n = 20\nparams.tau = -1\n"
        "time.T = 0.1\ntime.dt = 0.01\ninit.kind = constant\n"
    )
    rc = cli_main(["run", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("time.T", "inf"), ("time.dt", "inf")]
    + [(key, "nan") for key, (cast, _) in CONFIG_KEYS.items() if cast is float]
    + [(key, "2.5") for key, (cast, _) in CONFIG_KEYS.items() if cast is int],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    """A non-finite float, or a fraction for an int, in any key of the table."""
    values = {"domain.xmin": "0", "domain.xmax": "1", "grid.n": "20", "params.tau": "1",
              "time.T": "0.1", "time.dt": "0.01", "init.kind": "constant",
              "init.value": "0.5", key: value}
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    rc = cli_main(["run", str(cfg)])
    assert rc == 2
    assert f"config error: bad value for '{key}'" in capsys.readouterr().err


def test_run_equilibrium_config_writes_constant_csv(tmp_path, capsys):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(
        "\n".join(
            [
                "domain.xmin = 0",
                "domain.xmax = 2",
                "grid.n = 16",
                "params.tau = 1.0",
                "params.alpha = 0.4",
                "time.T = 0.2",
                "time.dt = 0.02",
                "time.sample_every = 5",
                "init.kind = constant",
                "init.value = 0.4",
            ]
        )
    )
    out_dir = tmp_path / "results"
    rc = cli_main(["run", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    with open(out_dir / "snapshots.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(abs(float(r["u"]) - 0.4) < 1e-10 for r in rows)


def test_run_flag_overrides(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(
        "\n".join(
            [
                "domain.xmin = 0",
                "domain.xmax = 2",
                "grid.n = 16",
                "params.tau = 1.0",
                "time.T = 0.2",
                "time.dt = 0.02",
                "init.kind = constant",
                "init.value = 1.0",
            ]
        )
    )
    # override with a bogus value to prove the flag reaches the parser
    rc = cli_main(["run", str(cfg), "--set", "params.tau=-3"])
    assert rc == 2
    rc = cli_main(["run", str(cfg), "--set", "time.T=0.04"])
    assert rc == 0


def test_blow_up_exits_1(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(
        "\n".join(
            [
                "domain.xmin = 0",
                "domain.xmax = 1",
                "grid.n = 8",
                "params.tau = 1.0",
                "params.kappa = 500",
                "scheme.kind = parabolic_reference",
                "integrator = euler",
                "time.T = 10",
                "time.dt = 1.0",
                "init.kind = constant",
                "init.value = 2.0",
            ]
        )
    )
    rc = cli_main(["run", str(cfg)])
    assert rc == 1
    assert "run failed" in capsys.readouterr().err


def test_solve_residual_failure_exits_1(tmp_path, capsys):
    """At dt = 1000 (alpha = rho dt / dx = 16000) the factored solve is
    backward stable, yet its residual relative to the right-hand side exceeds
    the guard's 1e-12: a run failure, not a traceback."""
    cfg = tmp_path / "huge_dt.cfg"
    cfg.write_text(
        "\n".join(
            [
                "domain.xmin = 0",
                "domain.xmax = 50",
                "grid.n = 800",
                "params.tau = 1",
                "params.alpha = 0.9",
                "time.T = 1000",
                "time.dt = 1000",
                "init.kind = riemann",
            ]
        )
    )
    rc = cli_main(["run", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: linear solve residual")
    assert err.endswith(" at step 0\n")


def _write_config(path):
    path.write_text(
        "domain.xmin = 0\ndomain.xmax = 2\ngrid.n = 16\nparams.tau = 1.0\n"
        "time.T = 0.2\ntime.dt = 0.02\ninit.kind = riemann\n"
    )
    return str(path)


@pytest.mark.parametrize(
    "overrides",
    [
        ["time.sample_every=-3"],
        ["scheme.kind=gk_pseudo_kinetic"],  # IMEX, the default integrator
        ["scheme.kind=kinetic_second_order", "scheme.limiter=none", "integrator=euler"],
        ["time.dt=1e-320"],  # T / dt overflows to inf
        ["time.T=1e300"],  # 5e301 steps: more than an array can index
        ["grid.ratio=1e300", "grid.n=400"],  # ratio**n overflows a float
        ["params.tau=5e-324"],  # mu / tau overflows: rho = inf
        ["params.mu=5e-324"],  # tau / mu overflows: 1 / rho = inf
        ["params.tau=1e300", "params.mu=1e-300"],
        ["foo"],  # not KEY=VALUE
    ],
)
def test_invalid_run_exits_2_before_the_run_starts(tmp_path, capsys, overrides):
    """One ``config error:`` line and no warning (the suite makes warnings errors)."""
    argv = ["run", _write_config(tmp_path / "base.cfg"), "--out-dir", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["init.kind=step"], "unknown init.kind 'step'"),
        (["integrator=rk4"], "unknown integrator 'rk4'"),
        # a datum its generator refuses on the base config's (0, 2) or on (0, 10)
        (["domain.xmax=10", "init.jump=50"], "jump location must lie inside the domain"),
        (["init.kind=random", "init.ell=3"],
         "the random region (0, ell) must lie inside the domain"),
        (["domain.xmax=30", "init.kind=random", "init.seed=-1"], "seed must be non-negative"),
    ],
    ids=["init.kind", "integrator", "riemann-jump", "random-ell", "random-seed"],
)
def test_refused_name_or_datum_exits_2_with_its_message(tmp_path, capsys, overrides, message):
    argv = ["run", _write_config(tmp_path / "base.cfg"), "--out-dir", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_empty_key_exits_2_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "empty_key.cfg"
    cfg.write_text("domain.xmin = 0\n# a comment\n = 3\n")
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: line 3: empty key or value\n"


@pytest.mark.parametrize("argv", [["random-study", "--variant", "mixed"],
                                  ["order-table", "--order", "3"]])
def test_unknown_table_choice_exits_2(tmp_path, capsys, argv):
    assert cli_main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: argument {argv[1]}: invalid choice: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["shoot", "--tau", "-1", "--alpha", "0.9"],
        ["shoot", "--tau", "1", "--alpha", "1.5"],
        ["shoot", "--tau", "1", "--alpha", "0.9", "--tol", "0"],
        ["riemann-decay", "--tau", "0"],
        ["random-study", "--alpha", "1.2"],
        ["random-study", "--seed", "-1"],
        ["shoot", "--tau", "1", "--alpha", "0.7", "--tol", "inf"],
        ["shoot", "--tau", "1", "--alpha", "0.7", "--tol", "nan"],
        ["shoot", "--tau", "5e-324", "--alpha", "0.7"],  # rho = inf
        ["shoot", "--tau", "1", "--mu", "5e-324", "--alpha", "0.7"],  # 1 / rho = inf
        ["shoot", "--tau", "1e300", "--mu", "1e-300", "--alpha", "0.7"],
        ["shoot", "--tau", "1e200", "--kappa", "1e200", "--alpha", "0.7"],  # tau kappa = inf
        ["shoot", "--tau", "1e-200", "--kappa", "1e-200", "--alpha", "0.7"],  # tau kappa = 0
        ["shoot", "--tau", "1", "--mu", "1e300", "--kappa", "1e300", "--alpha", "0.7"],
    ],
)
def test_invalid_driver_arguments_exit_2(tmp_path, capsys, argv):
    if argv[0] != "shoot":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_shoot_with_a_stalled_orbit_exits_1(capsys):
    """At tau = 1e-300 the bracket end c = -0.99 rho is about -1e150, and
    LSODA's steps there leave xi unchanged: the orbit is refused, not stepped
    forever."""
    assert cli_main(["shoot", "--tau", "1e-300", "--alpha", "0.7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--tau", "1e306", "--alpha", "0.7"],  # the saddle's unstable eigenvalue overflows
        ["--tau", "1", "--mu", "1e-300", "--kappa", "1e300", "--alpha", "0.7"],  # stalls
    ],
)
def test_shoot_at_a_huge_dimensionless_tau_exits_1(capsys, argv):
    """At tau kappa = 1e306 the orbit's start is not finite, and at 1e300 its
    first step stalls: one ``run failed:`` line each, not a traceback."""
    assert cli_main(["shoot", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1


def test_shoot_with_an_lsoda_failure_exits_1(capsys):
    """At tau = 1e-250 LSODA reports repeated convergence failures: one
    stderr line that names them, and no scipy warning before it."""
    assert cli_main(["shoot", "--tau", "1e-250", "--alpha", "0.7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1
    assert "Repeated convergence failures" in err


def test_exact_front_on_a_huge_domain_runs_without_warnings(tmp_path, capsys):
    """Cells 1.25e7 wide put the front derivative's cosh past the float
    range; its 1 / inf**2 = 0 is exact, and the run prints no warning."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        "domain.xmin = -1e8\ndomain.xmax = 1e8\ngrid.n = 16\nparams.tau = 1.0\n"
        "time.T = 1\ntime.dt = 0.1\ninit.kind = exact_front\n"
    )
    assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "overrides",
    [
        ["time.T=1e17", "time.dt=1e17"],  # alpha = rho dt / dx = 8e17
        ["grid.ratio=1.5", "grid.n=400"],  # a first cell of 1e-70: alpha 5e68
    ],
)
def test_lost_gershgorin_bound_exits_1(tmp_path, capsys, overrides):
    """Past alpha of about 1e16, 1 + beta + alpha rounds to alpha + beta, and
    the operator's row margin reads 0: a run failure that names the alpha."""
    argv = ["run", _write_config(tmp_path / "base.cfg")]
    for item in overrides:
        argv += ["--set", item]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: implicit operator lost its Gershgorin row bound at alpha")
    assert err.count("\n") == 1


def test_unwritable_output_exits_1_without_a_traceback(tmp_path, capsys):
    """A CSV that cannot be written after the run (its name is taken by a
    directory) is a run failure: exit 1 with one stderr line naming the file."""
    out = tmp_path / "out"
    (out / "snapshots.csv").mkdir(parents=True)
    assert cli_main(["run", _write_config(tmp_path / "base.cfg"), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: cannot write {out / 'snapshots.csv'}: ")
    assert err.count("\n") == 1


def test_unallocatable_run_exits_1_without_a_traceback(tmp_path, capsys):
    """T = 1e15 at dt = 0.02 is 5e16 steps: a valid count whose per-step arrays
    (400 PB) fail to allocate at once."""
    argv = ["run", _write_config(tmp_path / "base.cfg"), "--set", "time.T=1e15"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: Unable to allocate ") and err.count("\n") == 1


def test_value_error_inside_a_run_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    from hyperac import timestepping

    def broken_step(*args, **kwargs):
        raise ValueError("bug deep in a run")

    monkeypatch.setattr(timestepping, "imex_step", broken_step)
    with pytest.raises(ValueError, match="bug deep in a run"):
        cli_main(["run", _write_config(tmp_path / "base.cfg")])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "CONFIG"],
        ["speed-table"],
        ["order-table", "--order", "1"],
        ["riemann-decay"],
        ["random-study"],
    ],
)
def test_unusable_out_dir_exits_2_before_the_run_starts(tmp_path, capsys, monkeypatch, argv):
    """An --out-dir under a file cannot be created: exit 2, a config error,
    and neither a run nor a shooting speed is started."""
    from hyperac import scenarios

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    for name in ("run", "run_ensemble", "hyperbolic_front_speed_shooting"):
        monkeypatch.setattr(scenarios, name, no_work)
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    argv = [_write_config(tmp_path / "base.cfg") if a == "CONFIG" else a for a in argv]
    assert cli_main(argv + ["--out-dir", str(afile / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory ")
    assert afile.read_text() == "not a directory"


_STARTUP_PROBE = """
import sys
import hyperac
from hyperac.cli import cli_main
assert cli_main(sys.argv[1:]) == 0
print("loaded:", *(m for m in ("scipy.integrate", "scipy.optimize", "scipy.sparse",
                               "scipy.sparse.linalg", "scipy.linalg", "numpy.f2py")
                   if m in sys.modules))
"""


def _fresh_cli(argv):
    """Run ``_STARTUP_PROBE`` with ``argv`` in a fresh interpreter; its last line of output."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [["run", "CONFIG", "--out-dir", "OUT"],
                                  ["shoot", "--tau", "4", "--alpha", "0.7"]], ids=["run", "shoot"])
def test_import_and_run_leave_the_shooting_stack_unloaded(tmp_path, argv):
    """``import hyperac`` with a zero-gradient ``hyperac run`` or a ``hyperac
    shoot``, in a fresh interpreter, loads neither scipy.integrate, scipy.optimize,
    scipy.sparse, scipy.linalg nor numpy.f2py: an orbit loads LSODA's extension
    alone, the two-event step imports ``brentq``, the IMEX step's four kernels
    come from their extensions alone, and ``splu`` is loaded on the periodic path."""
    paths = {"CONFIG": _write_config(tmp_path / "base.cfg"), "OUT": str(tmp_path / "out")}
    assert _fresh_cli([paths.get(a, a) for a in argv]) == "loaded:"


def test_periodic_run_loads_scipy_sparse_at_the_call(tmp_path):
    """A periodic IMEX ``hyperac run`` in a fresh interpreter imports scipy.sparse
    and SuperLU when it builds its operator, and writes the files that the same
    run writes in this process, where scipy.sparse was imported up front."""
    import scipy.sparse  # noqa: F401

    config = _write_config(tmp_path / "base.cfg")
    argv = ["run", config, "--set", "scheme.boundary=periodic", "--out-dir"]
    loaded = _fresh_cli(argv + [str(tmp_path / "fresh")]).split()
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(loaded)
    assert not {"scipy.integrate", "scipy.optimize"} & set(loaded)
    assert cli_main(argv + [str(tmp_path / "here")]) == 0
    names = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir()) and names
    for name in names:
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


@pytest.mark.parametrize("module", ["hyperac", "hyperac.cli"])
def test_python_m_hyperac_runs_the_cli(module):
    """``python -m hyperac`` and ``python -m hyperac.cli`` are the CLI, reachable
    from a checkout with PYTHONPATH=src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", module, "shoot", "--tau", "4", "--alpha", "0.7"]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.368070\n"


# valid values of every config key but output.dir (the test's --out-dir), the
# scheme/integrator pair and the two times, which are drawn together: at most 64
# cells and 1000 steps
_VALID = {
    "domain.xmin": st.floats(-20.0, 0.0), "domain.xmax": st.floats(0.5, 20.0),
    "grid.n": st.integers(3, 64), "grid.ratio": st.floats(0.9, 1.1),
    "params.tau": st.floats(0.01, 10.0), "params.mu": st.floats(0.1, 10.0),
    "params.kappa": st.floats(0.1, 10.0), "params.alpha": st.floats(0.05, 0.95),
    "params.nu": st.floats(0.0, 1.0),
    "scheme.boundary": st.sampled_from(BOUNDARIES),
    "scheme.limiter": st.sampled_from(sorted(LIMITERS)),
    "time.sample_every": st.integers(0, 50),
    "init.kind": st.sampled_from(list(INIT_KINDS)),
    "init.shift": st.floats(-5.0, 5.0), "init.jump": st.floats(0.1, 0.4),  # inside every domain
    "init.seed": st.integers(0, 2**32), "init.variant": st.sampled_from(list(RANDOM_RANGES)),
    "init.ell": st.floats(0.1, 0.5), "init.value": st.floats(-0.5, 1.5),
    "init.v0": st.floats(-1.0, 1.0),
}
# edge values, the largest magnitudes first: hypothesis favours a strategy's first choices
_EDGE = ["1e300", "-1e300", "1.7e308", "-1.7e308", "1e-300", "2.2e-308", "5e-324", "0", "-0.0",
         "0.0", "-1"]
# the pairs check_run accepts
_PAIRS = [(kind, integrator) for kind in sorted(SCHEMES) for integrator in INTEGRATORS
          if integrator != "imex" or SCHEMES[kind].imex]
# short strings of number-like characters, "#" and "=" among them; no line breaks
_JUNK = st.text("0123456789.eE+-xabn #=_", max_size=8)


@st.composite
def _configs(draw):
    """A config text over ``CONFIG_KEYS``: valid values, a scheme/integrator
    pair that runs and T = dt * (fewer than 1000 steps); then one to three
    float keys, the model's parameters first, set to an edge value, and in one
    config in five one key left out or set to junk.  An edge T or dt gives at
    most one step, or is refused."""
    values = {key: draw(strategy.map(str)) for key, strategy in _VALID.items()}
    values["scheme.kind"], values["integrator"] = draw(st.sampled_from(_PAIRS))
    dt = draw(st.floats(1e-3, 0.5))
    values["time.dt"] = repr(dt)
    values["time.T"] = repr(dt * draw(st.floats(0.5, 1000.0, exclude_max=True)))
    floats = sorted((key for key in values if CONFIG_KEYS[key][0] is float),
                    key=lambda key: (not key.startswith("params."), key))
    for key in draw(st.lists(st.sampled_from(floats), min_size=1, max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_EDGE))
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.none() | st.just("none") | _JUNK)
    lines = [f"{key} = {value}\n" for key, value in values.items() if value is not None]
    return "".join(draw(st.permutations(lines)))


def test_generated_configs_cover_every_key():
    pair = {"scheme.kind", "integrator"}
    assert set(_VALID) | pair | {"output.dir", "time.T", "time.dt"} == set(CONFIG_KEYS)
    assert {kind for kind, _ in _PAIRS} == set(SCHEMES)


_SMALL_RUN = "domain.xmin = -5\ngrid.n = 16\nparams.tau = 1\ntime.T = 0.1\ntime.dt = 0.01\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_configs())
# f(u) overflows in the first step (exit 1), and cell midpoints past 1e308 (exit 2)
@example(text=_SMALL_RUN + "domain.xmax = 5\ninit.kind = constant\ninit.value = 1e300\n")
@example(text=_SMALL_RUN + "domain.xmax = 1.7e308\ninit.kind = riemann\n")
# the exact front's argument overflows at the far cells of a wide, steep datum (exit 0)
@example(text="domain.xmin = -1e300\ndomain.xmax = 1\ngrid.n = 3\nparams.tau = 1\n"
         "params.mu = 1e-300\ntime.T = 0.5\ntime.dt = 0.5\ninit.kind = exact_front\n"
         "scheme.kind = gk_pseudo_kinetic\nintegrator = euler\n")
def test_run_on_generated_configs_exits_0_1_or_2(tmp_path, capsys, text):
    """Every config ends in a documented exit code, with no exception and no
    warning (the suite makes warnings errors); a failure prints one line."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = work / "run.cfg"
    cfg.write_text(text)
    code = cli_main(["run", str(cfg), "--out-dir", str(work / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert (err == "") if code == 0 else (err.count("\n") == 1)
