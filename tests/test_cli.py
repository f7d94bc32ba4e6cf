import json

import numpy as np
import pytest

from landau_lab import cli
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
    for scheme in ("bogus", "explicit"):
        with pytest.raises(ConfigError) as err:
            cli.parse_config({"grid": {"dim": 3}, "scheme": scheme})
        msg = str(err.value)
        assert "gamma" in msg
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
    # N=232 pads to P=480: 241^3 * 8 = 111,980,168 bytes per cached spectrum
    grid = {"dim": 3, "half_extent": 8.0, "points_per_axis": 232}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(minimal_config(grid=grid, gamma=-1.0))
    assert err.value.problems == [
        "kernel spectra for N=232, gamma=-1.0 need 1119801680 bytes, "
        "over the plan cache budget of 1073741824 bytes"
    ]
    assert cli.parse_config(minimal_config(grid=grid, gamma=-3.0))["gamma"] == -3.0  # 9 kinds: 1,007,821,512 B
    assert cli.parse_config(minimal_config(grid=grid, gamma=0.0))["gamma"] == 0.0  # no plan


def test_parse_config_rejects_non_finite_half_extent():
    for bad in (float("nan"), float("inf"), 0.0):
        cfg = minimal_config(grid={"dim": 3, "half_extent": bad, "points_per_axis": 12}, gamma=-5.0)
        with pytest.raises(ConfigError) as err:
            cli.parse_config(cfg)
        problems = err.value.problems
        assert len(problems) == 2  # reported together with the gamma range
        assert problems[0] == f"field 'grid.half_extent' must be finite and > 0, got {bad}"


def test_bad_thread_variable_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setenv("LANDAU_LAB_THREADS", "abc")
    assert cli.main(["verify", "--suite", "quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "LANDAU_LAB_THREADS" in err and "'abc'" in err


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


def test_import_leaves_heavy_scipy_modules_unloaded():
    import os
    import pathlib
    import subprocess
    import sys

    import landau_lab

    heavy = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")
    code = f"import sys, landau_lab; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(landau_lab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
