import csv

import pytest

from hyperac.cli import cli_main


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


def test_missing_config_exits_2(capsys):
    rc = cli_main(["run", "/definitely/not/here.cfg"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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
    [("time.T", "inf"), ("time.T", "nan"), ("time.dt", "inf"), ("time.dt", "nan"),
     ("init.value", "nan")],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    values = {"time.T": "0.1", "time.dt": "0.01", "init.value": "0.5", key: value}
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(
        "domain.xmin = 0\ndomain.xmax = 1\ngrid.n = 20\nparams.tau = 1\n"
        "init.kind = constant\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    )
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
    assert "run failed: linear solve residual" in capsys.readouterr().err


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
    ],
)
def test_invalid_run_exits_2_before_the_run_starts(tmp_path, capsys, overrides):
    argv = ["run", _write_config(tmp_path / "base.cfg"), "--out-dir", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
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
    ],
)
def test_invalid_driver_arguments_exit_2(tmp_path, capsys, argv):
    if argv[0] != "shoot":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


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
