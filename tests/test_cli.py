import json

import numpy as np
import pytest

from landau_lab import cli, rates
from landau_lab.errors import ConfigError
from landau_lab.grid import make_grid, maxwellian, write_field
from landau_lab.report import sha256_file
from landau_lab.solver import simulate


def minimal_config(**over):
    cfg = {
        "grid": {"dim": 3, "half_extent": 8.0, "points_per_axis": 12},
        "gamma": 0.0,
        "initial_profile": {"kind": "maxwellian"},
        "scheme": "imex",
        "t_final": 0.2,
        "snapshot_stride": 1,
        "seed": 3,
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_parse_config_reports_all_problems():
    # gamma = -1e-17 lies in [-3, 0], but 3 + gamma rounds to 3, where the Riesz constant diverges
    for extra in ({"scheme": "bogus"}, {"scheme": "explicit"}, {"scheme": "bogus", "gamma": -1e-17}):
        with pytest.raises(ConfigError) as err:
            cli.parse_config({"grid": {"dim": 3}, **extra})
        msg = str(err.value)
        assert "gamma" in msg
        if "gamma" in extra:
            assert "rounds to 3" in msg
        assert "t_final" in msg
        assert "half_extent" in msg
        assert "scheme" in msg
        assert "initial_profile" in msg


def test_parse_config_rejects_bad_step_settings():
    cfg = minimal_config(
        t_final=float("nan"), snapshot_stride=0, dt={"dt_max": "abc", "fixed": 0, "t_ramp": float("nan")}
    )
    with pytest.raises(ConfigError) as err:
        cli.parse_config(cfg)
    problems = err.value.problems
    assert len(problems) == 5
    assert any("'t_final'" in p for p in problems)
    assert any("'dt.dt_max'" in p and "invalid value" in p for p in problems)
    assert any("'dt.fixed'" in p and "> 0" in p for p in problems)
    assert any("'dt.t_ramp'" in p and "> 0" in p for p in problems)
    assert any("'snapshot_stride'" in p for p in problems)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(dt="fast"))
    assert err.value.problems == ["field 'dt' must be a table, got 'fast'"]
    assert cli.parse_config(minimal_config(dt={"dt_max": 0.1}))["dt_max"] == 0.1


def test_parse_config_rejects_non_integers():
    cfg = minimal_config(
        grid={"dim": True, "half_extent": 8.0, "points_per_axis": 16.9}, snapshot_stride=2.7, seed=1.5
    )
    with pytest.raises(ConfigError) as err:
        cli.parse_config(cfg)
    assert err.value.problems == [
        "field 'grid.dim' has invalid value True",
        "field 'grid.points_per_axis' has invalid value 16.9",
        "field 'snapshot_stride' has invalid value 2.7",
        "field 'seed' has invalid value 1.5",
    ]
    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(seed=False, snapshot_stride=float("inf")))
    assert len(err.value.problems) == 2
    ok = cli.parse_config(minimal_config(grid={"dim": 3.0, "half_extent": 8.0, "points_per_axis": 12.0}))
    assert (ok["dim"], ok["points_per_axis"]) == (3, 12)
    assert type(ok["points_per_axis"]) is int


def test_parse_config_rejects_other_dimensions():
    for dim in (2, 4):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(minimal_config(grid={"dim": dim, "half_extent": 8.0, "points_per_axis": 12}))
        assert err.value.problems == [f"field 'grid.dim' must be 3, got {dim}"]


def test_parse_config_checks_the_plan_budget():
    # a bundle stores 4 octants of (P/2 + 1)^3 float64 each, 3 at gamma = -3 (h = f);
    # N=322 pads to P=648: 4 * 325^3 * 8 = 1,098,500,000 bytes
    def grid(n):
        return {"dim": 3, "half_extent": 8.0, "points_per_axis": n}

    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(grid=grid(322), gamma=-1.0))
    assert err.value.problems == [
        "kernel spectra for N=322, gamma=-1.0 need 1098500000 bytes, "
        "over the plan cache budget of 1073741824 bytes"
    ]
    assert cli.parse_config(minimal_config(grid=grid(320), gamma=-1.0))["gamma"] == -1.0  # 1,058,437,152 B
    assert cli.parse_config(minimal_config(grid=grid(352), gamma=-3.0))["gamma"] == -3.0  # 1,055,687,448 B
    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(grid=grid(354), gamma=-3.0))  # P=720
    assert "need 1129101144 bytes" in err.value.problems[0]
    assert cli.parse_config(minimal_config(grid=grid(322), gamma=0.0))["gamma"] == 0.0  # no plan


def test_parse_config_checks_the_points_per_axis():
    for bad in (0, -4, 13):
        grid = {"dim": 3, "half_extent": 8.0, "points_per_axis": bad}
        cfg = minimal_config(grid=grid, gamma=-1.0, t_final=-1.0)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(cfg)
        assert err.value.problems == [
            f"field 'grid.points_per_axis' must be even and >= 4, got {bad}",
            "field 't_final' must be finite and nonnegative, got -1.0",
        ]


def test_parse_config_rejects_non_finite_half_extent():
    for bad in (float("nan"), float("inf"), 0.0):
        cfg = minimal_config(grid={"dim": 3, "half_extent": bad, "points_per_axis": 12}, gamma=-5.0)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(cfg)
        problems = err.value.problems
        assert len(problems) == 2  # reported together with the gamma range
        assert problems[0] == f"field 'grid.half_extent' must be finite and > 0, got {bad}"


def test_bad_thread_variable_is_a_clean_error(monkeypatch, capsys):
    for value, problem in (("abc", "must be an integer"), ("0", "must be >= 1"), ("-2", "must be >= 1")):
        monkeypatch.setenv("LANDAU_LAB_THREADS", value)
        assert cli.main(["verify", "--suite", "quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: LANDAU_LAB_THREADS " + problem) and repr(value) in err
    for value in ("0", "-2"):
        assert cli.main(["--threads", value, "verify", "--suite", "quick"]) == 2
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {value}\n"


def test_parse_config_gamma_range():
    cfg = minimal_config(gamma=-5.0)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(cfg)
    assert "gamma" in str(err.value)


def test_simulate_writes_run_dir(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "ledger.csv").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gamma"] == 0.0
    assert len(manifest["snapshots"]) >= 2
    # constant-entropy ledger for equilibrium data
    rows = (out / "ledger.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    h_idx = header.index("entropy")
    entropies = [float(r.split(",")[h_idx]) for r in rows[1:]]
    assert max(entropies) - min(entropies) < 1e-4  # coarse-grid slack


def test_simulate_t_final_zero(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(t_final=0.0))
    out = tmp_path / "run0"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["snapshots"]) == 1


def test_simulate_missing_gamma_exit_code(tmp_path):
    cfg = minimal_config()
    del cfg["gamma"]
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    cfg_path = write_config(tmp_path, minimal_config(gamma=-1e-17))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


def test_simulate_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
    for name in ["ledger.csv", "manifest.json", "snapshot_00000.llf"]:
        assert sha256_file(out1 / name) == sha256_file(out2 / name), name


def test_simulate_diagnostics_toggles(tmp_path):
    cfg = minimal_config(
        grid={"dim": 3, "half_extent": 8.0, "points_per_axis": 16},
        gamma=-1.0,
        initial_profile={"kind": "squeezed_gaussian", "sigma": 0.5},
        t_final=0.6,
        dt={"dt_max": 0.1, "t_ramp": 0.3},
        diagnostics={"weights": True, "poincare": {"n_epsilons": 4}, "rates": {"R": 4.0}, "moser": {"n_max": 3}},
    )
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert len((out / "lambda_curve.csv").read_text().splitlines()) == 1 + 4
    assert json.loads((out / "lambda_manifest.json").read_text())["gamma"] == -1.0
    assert json.loads((out / "rate_fit.json").read_text())["R"] == 4.0
    assert len(json.loads((out / "moser.json").read_text())["rows"]) == 1 + 3
    # the toggled weights report is the one the diagnose command writes for the run
    diag = tmp_path / "diag"
    assert cli.main(["diagnose", str(out), "--which", "weights", "--out", str(diag)]) == 0
    assert (out / "weights.json").read_bytes() == (diag / "weights.json").read_bytes()


def test_simulate_runs_diagnostics_given_as_empty_tables(tmp_path):
    # the README's form: an empty table runs a diagnostic with its defaults
    cfg = minimal_config(
        grid={"dim": 3, "half_extent": 8.0, "points_per_axis": 12},
        gamma=-1.0,
        initial_profile={"kind": "squeezed_gaussian", "sigma": 0.5},
        t_final=0.6,
        dt={"dt_max": 0.1, "t_ramp": 0.3},
        diagnostics={"weights": {}, "rates": {}, "poincare": False},
    )
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert json.loads((out / "weights.json").read_text())["gamma"] == -1.0
    assert json.loads((out / "rate_fit.json").read_text())["R"] == 4.0
    assert not (out / "lambda_curve.csv").exists()


def test_parse_config_checks_the_diagnostics():
    grid = {"dim": 3, "half_extent": 4.0, "points_per_axis": 8}
    bad = {
        "wieghts": {},
        "poincare": {"n_epsilons": 2, "n_eps": 8},
        "moser": {"n_max": 9},
        "rates": {"R": 9.0, "theorem_id": "main_2"},
    }
    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(grid=grid, diagnostics=bad))
    problems = err.value.problems
    assert len(problems) == 6, problems
    assert any("'diagnostics.wieghts'" in p and "unknown" in p for p in problems)
    assert any("'diagnostics.poincare.n_eps'" in p and "unknown" in p for p in problems)
    assert any("'diagnostics.poincare.n_epsilons'" in p and ">= 4" in p for p in problems)
    assert any("'diagnostics.moser.n_max'" in p and "0..8" in p for p in problems)
    assert any("'diagnostics.rates.R'" in p and "half extent 4.0" in p for p in problems)
    assert any("'diagnostics.rates.theorem_id'" in p and "main_2" in p for p in problems)
    # the defaults are checked too: the rate fit's R = 4 does not fit an L = 2 box
    small = {"dim": 3, "half_extent": 2.0, "points_per_axis": 8}
    with pytest.raises(ConfigError, match="rates.R' = 4.0 exceeds"):
        cli.parse_config(minimal_config(grid=small, diagnostics={"rates": {}}))
    for value, match in (
        ({"weights": 1}, "a table or a boolean"),
        ({"weights": {"base_side": 3.0}}, "diagnostics.weights"),
        ({"moser": {"n_max": 2.5}}, "invalid value 2.5"),
        ({"moser": {"R": float("inf")}}, "must be finite and > 0"),
        ([], "'diagnostics' must be a table"),
    ):
        with pytest.raises(ConfigError, match=match):
            cli.parse_config(minimal_config(grid=grid, diagnostics=value))
    ok = {"weights": {"base_side": 4.0, "levels": 1}, "poincare": False, "rates": {"R": 4.0}, "moser": True}
    assert cli.parse_config(minimal_config(grid=grid, diagnostics=ok))["diagnostics"] == ok


@pytest.mark.parametrize(
    "diagnostics",
    [{"poincare": {"n_epsilons": 2}}, {"moser": {"n_max": 9}}, {"rates": {"R": 9.0}}, {"wieghts": {}}],
)
def test_simulate_refuses_bad_diagnostics_before_the_run(tmp_path, capsys, diagnostics):
    cfg = minimal_config(grid={"dim": 3, "half_extent": 4.0, "points_per_axis": 8}, diagnostics=diagnostics)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert not out.exists()
    assert "diagnostics." in capsys.readouterr().err


def test_diagnose_on_field_and_run(tmp_path):
    grid = make_grid(3, 8.0, 12)
    M = maxwellian(grid)
    field_path = tmp_path / "M.llf"
    write_field(field_path, M)
    out = tmp_path / "diag"
    rc = cli.main(
        ["diagnose", str(field_path), "--which", "weights", "--out", str(out), "--gamma", "-1"]
    )
    assert rc == 0
    rep = json.loads((out / "weights.json").read_text())
    assert "doubling" in rep and rep["doubling"]["constant_name"] == "C_D"
    # gamma is mandatory for raw snapshots
    assert cli.main(["diagnose", str(field_path), "--which", "weights", "--out", str(out)]) == 2


def test_diagnose_unknown_kind_rejected(tmp_path):
    grid = make_grid(3, 8.0, 12)
    write_field(tmp_path / "f.llf", maxwellian(grid))
    with pytest.raises(SystemExit):
        cli.main(["diagnose", str(tmp_path / "f.llf"), "--which", "bogus", "--out", str(tmp_path)])


def test_diagnose_corrupt_snapshot(tmp_path):
    bad = tmp_path / "bad.llf"
    bad.write_bytes(b"XXXX" + b"\x00" * 64)
    rc = cli.main(["diagnose", str(bad), "--which", "weights", "--out", str(tmp_path), "--gamma", "-1"])
    assert rc == 1


def test_diagnose_poincare_and_coefficients(tmp_path):
    grid = make_grid(3, 6.0, 12)
    field_path = tmp_path / "M.llf"
    write_field(field_path, maxwellian(grid))
    out = tmp_path / "diag2"
    rc = cli.main(
        ["diagnose", str(field_path), "--which", "poincare", "--out", str(out), "--gamma", "-1"]
    )
    assert rc == 0
    lines = (out / "lambda_curve.csv").read_text().splitlines()
    assert lines[0] == "epsilon,lambda,iterations,residual"
    assert len(lines) == 1 + 8  # the default n_epsilons
    rc = cli.main(
        ["diagnose", str(field_path), "--which", "coefficients", "--out", str(out), "--gamma", "-1"]
    )
    assert rc == 0
    rep = json.loads((out / "coefficients.json").read_text())
    assert "constants" in rep and "comparability" in rep


def test_rates_command_requires_snapshots(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(t_final=0.0))
    out = tmp_path / "short"
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    rc = cli.main(["rates", str(out), "--out", str(tmp_path / "fits")])
    assert rc == 2


def test_rates_command_on_run(tmp_path):
    cfg = minimal_config(
        grid={"dim": 3, "half_extent": 4.0, "points_per_axis": 16},
        initial_profile={"kind": "squeezed_gaussian", "sigma": 0.3},
        t_final=1.5,
        dt={"t_ramp": 0.3, "dt_max": 0.1},
    )
    cfg_path = write_config(tmp_path, cfg)
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    rc = cli.main(["rates", str(run_dir), "--R", "1.0,2.0", "--out", str(tmp_path / "fits")])
    assert rc == 0
    fit = json.loads((tmp_path / "fits" / "rate_fit_R2.json").read_text())
    assert "alpha_hat" in fit
    assert (tmp_path / "fits" / "history_R2.csv").exists()


def test_rates_command_checks_every_radius_before_writing(tmp_path, capsys):
    cfg = minimal_config(
        grid={"dim": 3, "half_extent": 4.0, "points_per_axis": 12},
        initial_profile={"kind": "squeezed_gaussian", "sigma": 0.3},
        t_final=1.0,
        dt={"t_ramp": 0.3, "dt_max": 0.1},
    )
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(run_dir)]) == 0
    fits = tmp_path / "fits"
    capsys.readouterr()
    # the default radii 2, 3, 4, 6 on an L = 4 run: R = 6 fails before R = 2, 3 and 4 are fitted
    assert cli.main(["rates", str(run_dir), "--out", str(fits)]) == 1
    assert not list(tmp_path.glob("fits/rate_fit_R*")) and not list(tmp_path.glob("fits/history_R*"))
    assert "R=6 exceeds the domain half extent 4.0" in capsys.readouterr().err
    assert cli.main(["rates", str(run_dir), "--R", "2,6,8", "--out", str(fits)]) == 1
    assert "R=6, 8 exceed the domain half extent 4.0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def rates_run(tmp_path_factory):
    """An N=12, L=4 run with 14 snapshots that the rate fits accept at R = 2, 3 and 4."""
    tmp = tmp_path_factory.mktemp("rates")
    cfg = minimal_config(
        grid={"dim": 3, "half_extent": 4.0, "points_per_axis": 12},
        initial_profile={"kind": "squeezed_gaussian", "sigma": 0.3},
        t_final=1.0,
        dt={"t_ramp": 0.3, "dt_max": 0.1},
    )
    run_dir = tmp / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp, cfg)), "--out", str(run_dir)]) == 0
    return run_dir


@pytest.mark.parametrize(
    "radii, code, message",
    [
        ("0", 1, "R=0 must be finite and > 0"),
        ("nan", 1, "R=nan must be finite and > 0"),
        ("-1,2", 1, "R=-1 must be finite and > 0"),
        ("0,2,6,nan", 1, "R=0, nan must be finite and > 0; R=6 exceeds the domain half extent 4.0"),
        ("2,abc", 2, "--R must be comma-separated numbers, got '2,abc'"),
        ("", 2, "no ball radius given"),
    ],
)
def test_rates_command_refuses_bad_radii(rates_run, tmp_path, capsys, radii, code, message):
    fits = tmp_path / "fits"
    assert cli.main(["rates", str(rates_run), f"--R={radii}", "--out", str(fits)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not fits.exists()


def test_rates_command_computes_each_history_once(rates_run, tmp_path, monkeypatch):
    radii = [1.5, 2.0, 3.0, 4.0]
    traj = cli.load_trajectory(rates_run)
    expected = [rates.fit_decay(traj, R, "coulomb", R_sweep=tuple(radii)).to_dict() for R in radii]
    counts = {"linf_history": 0, "maxwellian": 0}

    def counted(name):
        original = getattr(rates, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(rates, name, wrapper)

    for name in counts:
        counted(name)
    fits = cli.cmd_rates(rates_run, "coulomb", radii, tmp_path / "fits")
    # one history per radius and one equilibrium for all four fits, each with its sweep
    assert counts == {"linf_history": 4, "maxwellian": 1}
    assert [fit.to_dict() for fit in fits] == expected


@pytest.mark.parametrize("which", ["rates", "diagnose"])
def test_missing_target_is_one_error_line(tmp_path, capsys, which):
    missing = tmp_path / "nothere"
    out = tmp_path / "out"
    args = ["rates", str(missing)] if which == "rates" else ["diagnose", str(missing), "--which", "weights"]
    assert cli.main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: No such file or directory: ") and err.count("\n") == 1
    assert str(missing) in err
    assert not out.exists()


def test_load_trajectory_roundtrip(tmp_path, monkeypatch):
    runs = []

    def recording_simulate(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    cfg_path = write_config(tmp_path, minimal_config())
    run_dir = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])
    traj = cli.load_trajectory(run_dir)
    assert traj.gamma == 0.0
    assert len(traj.times) == len(traj.snapshots)
    assert traj.ledger[0].mass == pytest.approx(1.0, abs=1e-12)
    (original,) = runs
    assert len(traj.ledger) == len(original.ledger) > 1
    for loaded, row in zip(traj.ledger, original.ledger):
        assert loaded == row
        # exact, down to the type and the sign of zero
        assert [repr(v) for v in loaded.as_list()] == [repr(v) for v in row.as_list()]


def test_public_names_resolve():
    import landau_lab

    missing = [name for name in landau_lab.__all__ if not hasattr(landau_lab, name)]
    assert missing == []


def test_no_unused_imports():
    import ast
    import pathlib

    import landau_lab

    unused = []
    sources = sorted(pathlib.Path(landau_lab.__file__).parent.glob("*.py"))
    sources += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    for path in sources:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py" and path.parent.name == "landau_lab":
            used |= set(landau_lab.__all__)  # re-exports
        unused += [f"{path.parent.name}/{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # a gamma = 0 run and its rate fit load neither scipy.optimize nor scipy.linalg;
    # the first Lanczos eigenvalue loads scipy.linalg
    import os
    import pathlib
    import subprocess
    import sys
    import textwrap

    import landau_lab

    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.linalg")
    config = minimal_config(grid={"dim": 3, "half_extent": 4.0, "points_per_axis": 8}, dt={"fixed": 0.05}, t_final=0.5)
    cfg_path = write_config(tmp_path, config)
    code = textwrap.dedent(
        f"""
        import sys
        from landau_lab import cli
        from landau_lab.coefficients import build_coefficients
        from landau_lab.grid import make_grid, maxwellian, squeezed_gaussian
        from landau_lab.poincare import lambda_curve

        def loaded():
            return [m for m in {heavy!r} if m in sys.modules]

        print(loaded())
        grid = make_grid(3, 4.0, 8)
        maxwellian(grid)
        squeezed_gaussian(grid, 0.35)
        cli.cmd_simulate({str(cfg_path)!r}, {str(tmp_path / "run")!r})
        cli.cmd_rates({str(tmp_path / "run")!r}, "main_1", [2.0], {str(tmp_path / "fits")!r})
        print(loaded())
        lambda_curve(build_coefficients(maxwellian(grid), 0.0), [0.1])
        print(loaded())
        """
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(landau_lab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "[]", "['scipy.linalg']"]


def test_profile_kinds(tmp_path):
    grid = make_grid(3, 8.0, 16)
    for prof in (
        {"kind": "maxwellian"},
        {"kind": "squeezed_gaussian", "sigma": 0.5},
        {"kind": "counterexample", "m": 2.0},
        {"kind": "shell"},
    ):
        f = cli.build_profile(grid, prof)
        assert np.all(f.values >= 0)
    path = tmp_path / "f.llf"
    write_field(path, maxwellian(grid))
    f = cli.build_profile(grid, {"kind": "file", "path": str(path)})
    assert f.values.max() > 0


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "bogus"])
