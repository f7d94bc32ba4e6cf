"""
Command-line front end: run simulations, diagnose snapshots or runs, fit
rates, and execute the verification suite.  All randomized sweeps derive
from the single seed recorded in the manifest, outputs are written
atomically, and re-running a command on the same inputs reproduces the
output bytes.  The one exception is ``verify_<suite>_timing.json``, which
records the gates' wall-clock seconds next to the reproducible
``verify_<suite>.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import coefficients as coeff
from .errors import ConfigError, GammaRangeError, GridError, LandauLabError
from .grid import (
    ScalarField,
    counterexample_profile,
    make_dyadic_cubes,
    make_grid,
    maxwellian,
    read_field,
    shell_profile,
    squeezed_gaussian,
    write_field,
)
from .poincare import verify_eps_poincare
from .rates import PREDICTED_EXPONENTS, fit_decay, fit_radii, moser_report
from .report import sha256_file, write_csv, write_json
from .solver import LedgerRow, Trajectory, simulate
from .weights import a1_constant, ap_constant, doubling_constant, morrey_ratio_family

PROFILE_KINDS = ("maxwellian", "squeezed_gaussian", "counterexample", "shell", "file")
#: each ``diagnostics`` entry and the defaults of the parameters its table may set
DIAGNOSTIC_DEFAULTS = {
    "weights": {"base_side": 2.0, "levels": 2},
    "poincare": {"n_epsilons": 8},
    "rates": {"R": 4.0, "theorem_id": "main_1"},
    "moser": {"n_max": 6, "R": 4.0},
}


def _integer(value) -> int:
    """int(value), refusing a bool and a number with a fractional part instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def parse_config(raw: dict) -> dict:
    """Validate a run configuration, accumulating every offending field."""
    problems: list[str] = []
    cfg = {}

    def need(path, caster, default=None, required=True):
        node = raw
        for key in path.split(".")[:-1]:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        leaf = path.split(".")[-1]
        if not isinstance(node, dict) or leaf not in node:
            if required:
                problems.append(f"missing field {path!r}")
            return default
        try:
            return caster(node[leaf])
        except (TypeError, ValueError):
            problems.append(f"field {path!r} has invalid value {node[leaf]!r}")
            return default

    cfg["dim"] = need("grid.dim", _integer)
    if cfg["dim"] is not None and cfg["dim"] != 3:
        problems.append(f"field 'grid.dim' must be 3, got {cfg['dim']}")
    cfg["half_extent"] = need("grid.half_extent", float)
    if cfg["half_extent"] is not None and not 0 < cfg["half_extent"] < np.inf:
        problems.append(f"field 'grid.half_extent' must be finite and > 0, got {cfg['half_extent']}")
    cfg["points_per_axis"] = need("grid.points_per_axis", _integer)
    n = cfg["points_per_axis"]
    n_valid = n is not None and n >= 4 and n % 2 == 0
    if n is not None and not n_valid:
        problems.append(f"field 'grid.points_per_axis' must be even and >= 4, got {n}")
    cfg["gamma"] = need("gamma", float)
    cfg["scheme"] = need("scheme", str, default="imex", required=False)
    if cfg["scheme"] != "imex":
        problems.append(f"field 'scheme' must be imex, got {cfg['scheme']!r}")
    cfg["t_final"] = need("t_final", float)
    cfg["snapshot_stride"] = need("snapshot_stride", _integer, default=1, required=False)
    if cfg["snapshot_stride"] < 1:
        problems.append(f"field 'snapshot_stride' must be >= 1, got {cfg['snapshot_stride']}")
    cfg["seed"] = need("seed", _integer, default=0, required=False)
    if not isinstance(raw.get("dt", {}), dict):
        problems.append(f"field 'dt' must be a table, got {raw['dt']!r}")
    for key, path, default in (
        ("dt_max", "dt.dt_max", np.inf),
        ("dt_fixed", "dt.fixed", None),
        ("t_ramp", "dt.t_ramp", None),
    ):
        value = need(path, float, default=default, required=False)
        if value is not None and not value > 0:
            problems.append(f"field {path!r} must be > 0, got {value}")
        cfg[key] = value
    prof = raw.get("initial_profile")
    if not isinstance(prof, dict) or "kind" not in prof:
        problems.append("missing field 'initial_profile.kind'")
        prof = {"kind": None}
    if prof.get("kind") not in PROFILE_KINDS and prof.get("kind") is not None:
        problems.append(
            f"field 'initial_profile.kind' must be one of {PROFILE_KINDS}, got {prof.get('kind')!r}"
        )
    cfg["initial_profile"] = prof
    cfg["diagnostics"] = raw.get("diagnostics", {})
    problems += _diagnostics_problems(cfg)
    if cfg["gamma"] is not None and cfg["dim"] is not None:
        if not -cfg["dim"] <= cfg["gamma"] <= 0:
            problems.append(f"field 'gamma' must lie in [-{cfg['dim']}, 0], got {cfg['gamma']}")
        else:
            try:
                coeff.kernel_constants(cfg["gamma"])
            except GammaRangeError as exc:
                problems.append(f"field 'gamma': {exc}")
            if n_valid and (over := coeff.plan_budget_problem(n, cfg["gamma"])):
                problems.append(over)
    if cfg["t_final"] is not None and not 0 <= cfg["t_final"] < np.inf:
        problems.append(f"field 't_final' must be finite and nonnegative, got {cfg['t_final']}")
    if problems:
        raise ConfigError(problems)
    return cfg


def _diagnostics_problems(cfg: dict) -> list[str]:
    """
    What is wrong with the ``diagnostics`` table of a parsed config, checked
    with each parameter's default in place, so that no diagnostic fails
    after the run: unknown entries and parameters, values of the wrong type,
    n_epsilons < 4, n_max outside 0..8, a radius that is not finite and
    > 0, or exceeds half_extent for the rate fit, an unknown
    theorem id, and a cube family that does not tile the grid.
    """
    diags = cfg["diagnostics"]
    if diags is None:
        return []
    if not isinstance(diags, dict):
        return [f"field 'diagnostics' must be a table, got {diags!r}"]
    problems = []
    for key, value in diags.items():
        path = f"diagnostics.{key}"
        if key not in DIAGNOSTIC_DEFAULTS:
            problems.append(f"unknown field {path!r}; the diagnostics are {', '.join(DIAGNOSTIC_DEFAULTS)}")
            continue
        if value is False:
            continue
        if not isinstance(value, (dict, bool)):
            problems.append(f"field {path!r} must be a table or a boolean, got {value!r}")
            continue
        params = value if isinstance(value, dict) else {}
        unknown = [name for name in params if name not in DIAGNOSTIC_DEFAULTS[key]]
        problems += [f"unknown field '{path}.{name}'" for name in unknown]
        args = {}
        for name, default in DIAGNOSTIC_DEFAULTS[key].items():
            caster = _integer if isinstance(default, int) else type(default)
            try:
                args[name] = caster(params.get(name, default))
            except (TypeError, ValueError):
                problems.append(f"field '{path}.{name}' has invalid value {params[name]!r}")
        if "n_epsilons" in args and args["n_epsilons"] < 4:
            problems.append(f"field '{path}.n_epsilons' must be >= 4, got {args['n_epsilons']}")
        if "n_max" in args and not 0 <= args["n_max"] <= 8:
            problems.append(f"field '{path}.n_max' must lie in 0..8, got {args['n_max']}")
        if "theorem_id" in args and args["theorem_id"] not in PREDICTED_EXPONENTS:
            problems.append(
                f"field '{path}.theorem_id' must be one of {tuple(PREDICTED_EXPONENTS)}, got {args['theorem_id']!r}"
            )
        if "R" in args and not 0 < args["R"] < np.inf:
            problems.append(f"field '{path}.R' must be finite and > 0, got {args['R']}")
        elif key == "rates" and "R" in args and cfg["half_extent"] is not None and args["R"] > cfg["half_extent"]:
            problems.append(f"field '{path}.R' = {args['R']} exceeds the domain half extent {cfg['half_extent']}")
        if key == "weights" and ("base_side" in params or "levels" in params) and len(args) == 2:
            try:
                grid = make_grid(cfg["dim"], cfg["half_extent"], cfg["points_per_axis"])
            except (LandauLabError, TypeError):
                continue  # the grid fields report their own problems
            try:
                make_dyadic_cubes(grid, args["base_side"], args["levels"])
            except (LandauLabError, ValueError, OverflowError) as exc:  # a nan or infinite base_side
                problems.append(f"field {path!r}: {exc}")
    return problems


def load_config(path) -> dict:
    with open(path, "rb") as fh:
        if str(path).endswith(".toml"):
            import tomllib

            raw = tomllib.load(fh)
        else:
            raw = json.load(fh)
    return parse_config(raw)


def build_profile(grid, prof: dict) -> ScalarField:
    kind = prof["kind"]
    if kind == "maxwellian":
        return maxwellian(grid)
    if kind == "squeezed_gaussian":
        return squeezed_gaussian(grid, float(prof.get("sigma", 0.35)))
    if kind == "counterexample":
        return counterexample_profile(grid, float(prof.get("m", 2.9)))
    if kind == "shell":
        return shell_profile(grid, float(prof.get("radius", 2.0)), float(prof.get("width", 0.25)))
    if kind == "file":
        return read_field(prof["path"])
    raise ConfigError([f"unknown profile kind {kind!r}"])


def _write_trajectory(traj: Trajectory, out_dir, cfg: dict):
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "ledger.csv"),
        LedgerRow.header(),
        [row.as_list() for row in traj.ledger],
    )
    snap_names = []
    for k, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        name = f"snapshot_{k:05d}.llf"
        write_field(os.path.join(out_dir, name), snap)
        snap_names.append({"file": name, "time": t})
    manifest = {
        "config": cfg,
        "gamma": traj.gamma,
        "grid": list(traj.grid.key()),
        "scheme": cfg["scheme"],
        "snapshots": snap_names,
        "constants": coeff.kernel_constants(traj.gamma),
        "hashes": {},
        "format": {"ledger": "csv", "snapshot": "LLF1"},
    }
    for entry in snap_names:
        manifest["hashes"][entry["file"]] = sha256_file(os.path.join(out_dir, entry["file"]))
    manifest["hashes"]["ledger.csv"] = sha256_file(os.path.join(out_dir, "ledger.csv"))
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_trajectory(run_dir) -> Trajectory:
    """Rebuild a trajectory (snapshots + ledger) from a run directory."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    snaps, times = [], []
    for entry in manifest["snapshots"]:
        snaps.append(read_field(os.path.join(run_dir, entry["file"])))
        times.append(float(entry["time"]))
    with open(os.path.join(run_dir, "ledger.csv"), newline="") as fh:
        ledger = [LedgerRow.from_csv(record) for record in csv.DictReader(fh)]
    return Trajectory(float(manifest["gamma"]), snaps[0].grid, times, snaps, ledger)


def cmd_simulate(config_path, out_dir, seed: int | None = None) -> str:
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    grid = make_grid(cfg["dim"], cfg["half_extent"], cfg["points_per_axis"])
    f0 = build_profile(grid, cfg["initial_profile"])
    traj = simulate(
        f0,
        cfg["gamma"],
        cfg["t_final"],
        dt_max=cfg["dt_max"],
        dt_fixed=cfg["dt_fixed"],
        t_ramp=cfg["t_ramp"],
        snapshot_stride=cfg["snapshot_stride"],
    )
    _write_trajectory(traj, out_dir, cfg)
    _run_toggled_diagnostics(traj, cfg, out_dir)
    return out_dir


def _run_toggled_diagnostics(traj: Trajectory, cfg: dict, out_dir):
    """
    Each diagnostic whose key the ``diagnostics`` table holds, with a table
    value as its parameters: an empty table runs it with its defaults, and
    only ``false`` skips it.
    """
    diags = {
        key: value if isinstance(value, dict) else {}
        for key, value in (cfg.get("diagnostics") or {}).items()
        if value is not False
    }
    if "weights" in diags:
        _diagnose_weights(traj.final, traj.gamma, out_dir, params=diags["weights"])
    if "poincare" in diags:
        _diagnose_poincare(traj.final, traj.gamma, out_dir, params=diags["poincare"])
    if "rates" in diags:
        params = {**DIAGNOSTIC_DEFAULTS["rates"], **diags["rates"]}
        fit = fit_decay(traj, float(params["R"]), params["theorem_id"])
        write_json(os.path.join(out_dir, "rate_fit.json"), fit.to_dict())
    if "moser" in diags:
        params = {**DIAGNOSTIC_DEFAULTS["moser"], **diags["moser"]}
        rep = moser_report(traj, int(params["n_max"]), float(params["R"]))
        write_json(os.path.join(out_dir, "moser.json"), rep)


def default_cube_family(grid):
    """Largest lattice-aligned dyadic family with at most 2 refinements."""
    cells = max(grid.points_per_axis // 8, 2)
    levels = 0
    c = cells
    while levels < 2 and c % 2 == 0 and c // 2 >= 2:
        c //= 2
        levels += 1
    return make_dyadic_cubes(grid, cells * grid.spacing, levels)


def _diagnose_weights(f: ScalarField, gamma: float, out_dir, params=None):
    params = params if isinstance(params, dict) else {}
    if "base_side" in params or "levels" in params:
        params = {**DIAGNOSTIC_DEFAULTS["weights"], **params}
        cubes = make_dyadic_cubes(f.grid, float(params["base_side"]), int(params["levels"]))
    else:
        cubes = default_cube_family(f.grid)
    bundle = coeff.build_coefficients(f, gamma)
    out = {
        "gamma": gamma,
        "doubling": doubling_constant(f).to_dict(),
        "a1_of_a": a1_constant(bundle.a, cubes, weight_id="a").to_dict(),
        "ap2_of_a": ap_constant(bundle.a, 2.0, cubes, weight_id="a").to_dict(),
        "morrey_max_s1": float(np.max(morrey_ratio_family(bundle.h, bundle.a, cubes, s=1.0))),
    }
    write_json(os.path.join(out_dir, "weights.json"), out)
    return out


def _diagnose_poincare(f: ScalarField, gamma: float, out_dir, params=None):
    params = params if isinstance(params, dict) else {}
    n_eps = int(params.get("n_epsilons", DIAGNOSTIC_DEFAULTS["poincare"]["n_epsilons"]))
    eps = np.logspace(-3, 0, n_eps)
    rep = verify_eps_poincare(f, gamma, epsilons=eps)
    curve = rep["curve"]
    write_csv(
        os.path.join(out_dir, "lambda_curve.csv"),
        ["epsilon", "lambda", "iterations", "residual"],
        list(zip(curve.epsilons, curve.lambdas, curve.iterations, curve.residuals)),
    )
    write_json(
        os.path.join(out_dir, "lambda_manifest.json"),
        {
            "gamma": gamma,
            "slope": rep["slope"],
            "predicted_slope": rep["predicted_slope"],
            "weighted_slope": rep["weighted_slope"],
            "lambda_floor": rep["lambda_floor"],
            "grid": list(f.grid.key()),
            "f_hash": f.content_hash(),
        },
    )
    return rep


def _diagnose_coefficients(f: ScalarField, gamma: float, out_dir):
    bundle = coeff.build_coefficients(f, gamma)
    rep = coeff.comparability_report(bundle)
    names = {"h": bundle.h, "a": bundle.a, "a_star": bundle.a_star}
    files = {}
    for name, fld in names.items():
        fname = f"coeff_{name}.llf"
        write_field(os.path.join(out_dir, fname), fld)
        files[name] = fname
    write_json(
        os.path.join(out_dir, "coefficients.json"),
        {
            "gamma": gamma,
            "constants": coeff.kernel_constants(gamma),
            "comparability": rep,
            "fields": files,
        },
    )
    return rep


def cmd_diagnose(target, which: str, out_dir, gamma: float | None = None) -> dict:
    if os.path.isdir(target):
        traj = load_trajectory(target)
        f, g = traj.final, traj.gamma
    else:
        f = read_field(target)
        if gamma is None:
            raise ConfigError(["field snapshots need an explicit --gamma"])
        g = gamma
    os.makedirs(out_dir, exist_ok=True)  # after the target loaded, so a bad one leaves no directory
    if which == "weights":
        return _diagnose_weights(f, g, out_dir)
    if which == "poincare":
        return _diagnose_poincare(f, g, out_dir)
    if which == "coefficients":
        return _diagnose_coefficients(f, g, out_dir)
    raise ConfigError([f"unknown diagnostic {which!r} (weights | poincare | coefficients)"])


def cmd_rates(run_dir, theorem_id: str, R_list, out_dir) -> list:
    if not R_list:
        raise ConfigError(["no ball radius given; rate fits need at least one"])
    traj = load_trajectory(run_dir)
    if len(traj.snapshots) < 6:
        raise ConfigError([f"run has {len(traj.snapshots)} snapshots; rate fits need >= 6"])
    # every radius is checked before any fit is written, so a bad list leaves no partial output
    half = traj.grid.half_extent
    not_positive = [R for R in R_list if not 0 < R < math.inf]
    too_large = [R for R in R_list if half < R < math.inf]
    problems = []
    if not_positive:
        problems.append(f"R={', '.join(f'{R:g}' for R in not_positive)} must be finite and > 0")
    if too_large:
        verb = "exceeds" if len(too_large) == 1 else "exceed"
        problems.append(f"R={', '.join(f'{R:g}' for R in too_large)} {verb} the domain half extent {half}")
    if problems:
        raise GridError("; ".join(problems))
    os.makedirs(out_dir, exist_ok=True)
    fits = []
    for fit, times, sups in fit_radii(traj, theorem_id, R_list):
        R = fit.R
        write_json(os.path.join(out_dir, f"rate_fit_R{R:g}.json"), fit.to_dict())
        fitted = fit.amplitude * (1.0 + 1.0 / np.maximum(times, 1e-12)) ** fit.alpha_hat
        write_csv(
            os.path.join(out_dir, f"history_R{R:g}.csv"),
            ["t", "sup_norm", "fitted"],
            zip(times.tolist(), sups.tolist(), fitted.tolist()),
        )
        fits.append(fit)
    return fits


def cmd_verify(suite: str, out_dir=None) -> int:
    from .verify import run_suite

    if suite not in ("quick", "full"):
        raise ConfigError([f"unknown suite {suite!r} (quick | full)"])
    results = run_suite(suite)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:6.1f}s  {r.detail}")
    n_fail = sum(0 if r.passed else 1 for r in results)
    print(f"{len(results) - n_fail}/{len(results)} gates passed")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_json(
            os.path.join(out_dir, f"verify_{suite}.json"),
            {"suite": suite, "results": [r.to_dict() for r in results]},
        )
        # wall-clock seconds live apart, so the results file stays byte-reproducible
        write_json(
            os.path.join(out_dir, f"verify_{suite}_timing.json"),
            {"suite": suite, "gates": [r.timing() for r in results]},
        )
    return 0 if n_fail == 0 else 1


def _radii(text: str) -> list[float]:
    """The ball radii of a comma-separated ``--R`` list; blank items are skipped."""
    try:
        return [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ConfigError([f"--R must be comma-separated numbers, got {text!r}"]) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landau-lab",
        description="Simulations and diagnostics for the homogeneous collision dynamics",
    )
    parser.add_argument("--threads", type=int, default=None, help="FFT worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)

    p_diag = sub.add_parser("diagnose", help="diagnostics on a run directory or snapshot")
    p_diag.add_argument("target", help="run directory or .llf snapshot")
    p_diag.add_argument("--which", required=True, choices=["weights", "poincare", "coefficients"])
    p_diag.add_argument("--out", required=True)
    p_diag.add_argument("--gamma", type=float, default=None)

    p_rates = sub.add_parser("rates", help="fit decay exponents of a run")
    p_rates.add_argument("run_dir")
    p_rates.add_argument("--theorem", default="main_1", choices=["main_1", "very_soft", "coulomb"])
    p_rates.add_argument("--R", default="2,3,4,6", help="comma-separated ball radii")
    p_rates.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the acceptance gate suite")
    p_ver.add_argument("--suite", default="quick", choices=["quick", "full"])
    p_ver.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.threads is None:
        source, raw = "LANDAU_LAB_THREADS", os.environ.get("LANDAU_LAB_THREADS") or "1"
    else:
        source, raw = "--threads", args.threads
    try:
        threads = int(raw)
    except ValueError:
        print(f"error: {source} must be an integer, got {raw!r}", file=sys.stderr)
        return 2
    if threads < 1:
        print(f"error: {source} must be >= 1, got {raw!r}", file=sys.stderr)
        return 2
    coeff.set_fft_workers(threads)

    try:
        if args.command == "simulate":
            out = cmd_simulate(args.config, args.out, seed=args.seed)
            print(f"run written to {out}")
            return 0
        if args.command == "diagnose":
            cmd_diagnose(args.target, args.which, args.out, gamma=args.gamma)
            print(f"reports written to {args.out}")
            return 0
        if args.command == "rates":
            fits = cmd_rates(args.run_dir, args.theorem, _radii(args.R), args.out)
            for fit in fits:
                print(
                    f"R={fit.R:g}: alpha_hat={fit.alpha_hat:.3f} "
                    f"(predicted {fit.alpha_predicted}) rms={fit.residual_rms:.3f}"
                )
            return 0
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LandauLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable input, an unwritable output
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
