"""
The three benchmark workloads: seeded inputs, the program calls of one
round, and the correctness checks of every unit.

A round is one complete measurement as a researcher runs it:

- relax: one trajectory plus its rate fit, through the command-line path;
- coercivity: the plain and bracket-weighted curves of two densities;
- sweep: one coefficient bundle and its weight constants per gamma.

Each round consists of units (one per program result that is checked). The
checks are tolerance checks on the results, never byte comparisons against
stored outputs, so a change of arithmetic stays measurable; the one byte
comparison is between repeats of the same unit inside one process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from landau_lab import cli, coefficients, grid, poincare, weights

# Points per axis by profile: "full" is the benchmark, "tiny" the self-test.
# The relax run needs N >= 20 at L=4: at N=16 the entropy of most seeds rises
# by ~1e-5 in the last steps, which its H-theorem check rejects.
SIZES = {
    "full": {"relax": 32, "coercivity": 20, "sweep": 64, "sweep_pool": 8},
    "tiny": {"relax": 20, "coercivity": 12, "sweep": 16, "sweep_pool": 2},
}

RATE_RADII = (1.0, 1.5, 2.0, 3.0)
SWEEP_GAMMAS = (-3.0, -2.5, -2.0, -1.0)
MORREY_FROZEN_BOUND = 2.0  # criterion-5 frozen bound of the s=1 ratio with the trace weight


def seeded_blend(g: grid.VelocityGrid, rng: np.random.Generator) -> grid.ScalarField:
    """0.9 x squeezed Gaussian (sigma 0.15, half the mass narrow) + 0.1 x a seeded random density."""
    narrow = grid.squeezed_gaussian(g, 0.15, 0.5).values
    rough = grid.random_density(g, rng).values
    return grid.ScalarField(g, 0.9 * narrow + 0.1 * rough)


@dataclass
class Unit:
    """One program call of a round and the label its failures carry."""

    label: str
    run: Callable[[], object]


class Relax:
    """IMEX trajectory and rate fit through ``cmd_simulate`` and ``cmd_rates``."""

    name = "relax"
    units_per_round = 1

    def __init__(self, seed: int, profile: str, workdir: str):
        n = SIZES[profile]["relax"]
        self.n = n
        self.workdir = workdir
        g = grid.make_grid(3, 4.0, n)
        init = os.path.join(workdir, "init.llf")
        grid.write_field(init, seeded_blend(g, np.random.default_rng(seed)))
        config = {
            "grid": {"dim": 3, "half_extent": 4.0, "points_per_axis": n},
            "gamma": 0.0,
            "t_final": 1.0,
            "scheme": "imex",
            "snapshot_stride": 1,
            "seed": seed,
            "dt": {"dt_max": 0.1, "t_ramp": 0.3},
            "initial_profile": {"kind": "file", "path": init},
        }
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self.first_hashes = None

    def plan(self, k: int) -> list[Unit]:
        out = os.path.join(self.workdir, f"round{k}")

        def run():
            run_dir = cli.cmd_simulate(self.config_path, os.path.join(out, "run"))
            fits = cli.cmd_rates(run_dir, "main_1", list(RATE_RADII), os.path.join(out, "fits"))
            return {"dir": out, "run_dir": run_dir, "fits": fits}

        return [Unit(f"relax#{k}", run)]

    def check(self, res: dict, corrupt: bool = False) -> tuple[list[str], float, int]:
        """Problems found, work done (lattice-node steps) and bytes written."""
        with open(os.path.join(res["run_dir"], "ledger.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(res["run_dir"], "manifest.json")) as fh:
            hashes = json.load(fh)["hashes"]
        written = sum(
            os.path.getsize(os.path.join(d, name))
            for d, _, names in os.walk(res["dir"])
            for name in names
        )
        shutil.rmtree(res["dir"])
        mass = [float(r["mass"]) for r in rows]
        ent = [float(r["entropy"]) for r in rows]
        if corrupt:
            mass[-1] *= 1.0 + 1e-6
        problems = []
        drift = max(abs(m - mass[0]) for m in mass) / mass[0]
        if not drift <= 1e-8:
            problems.append(f"relative mass drift {drift:.3g} > 1e-8")
        rise = max((b - a for a, b in zip(ent, ent[1:])), default=0.0)
        if not rise <= 1e-6:
            problems.append(f"entropy rose by {rise:.3g} in one step (> 1e-6)")
        for fit in res["fits"]:
            if not (fit.alpha_hat > 0 and fit.residual_rms <= 0.15):
                problems.append(
                    f"rate fit at R={fit.R:g}: alpha_hat={fit.alpha_hat:.4g} rms={fit.residual_rms:.4g}"
                )
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("run-directory hashes differ from the first unit")
        steps = len(rows) - 1
        return problems, float(self.n**3 * steps), written


class Coercivity:
    """Plain and bracket-weighted coercivity curves, gamma=0 Maxwellian and gamma=-1 blend."""

    name = "coercivity"
    units_per_round = 2

    def __init__(self, seed: int, profile: str, workdir: str):
        g = grid.make_grid(3, 8.0, SIZES[profile]["coercivity"])
        self.inputs = {
            "gamma0": (0.0, grid.maxwellian(g)),
            "gamma-1": (-1.0, seeded_blend(g, np.random.default_rng(seed))),
        }
        self._h_bounds: dict[str, tuple[float, float]] = {}

    def plan(self, k: int) -> list[Unit]:
        return [
            Unit(
                f"coercivity#{k}/{key}",
                lambda key=key, gamma=gamma, f=f: (key, poincare.verify_eps_poincare(f, gamma)),
            )
            for key, (gamma, f) in self.inputs.items()
        ]

    def _bounds(self, key: str) -> tuple[float, float]:
        """max h and max h/<v>^gamma: no Rayleigh quotient of either curve exceeds them."""
        if key not in self._h_bounds:
            gamma, f = self.inputs[key]
            h = coefficients.h_field(f, gamma).values
            weight = (1.0 + f.grid.radius_squared()) ** (gamma / 2.0)
            self._h_bounds[key] = (float(np.max(h)), float(np.max(h / weight)))
        return self._h_bounds[key]

    def check(self, res, corrupt: bool = False) -> tuple[list[str], float, int]:
        key, rep = res
        curve, wcurve = rep["curve"], rep["weighted_curve"]
        lams, wlams = list(curve.lambdas), list(wcurve.lambdas)
        if corrupt:
            lams[0] += 1.0
        hmax, hwmax = self._bounds(key)
        problems = []
        for tag, values, bound in (("plain", lams, hmax), ("weighted", wlams, hwmax)):
            if max(values) > bound * (1.0 + 1e-9):
                problems.append(f"{tag} lambda {max(values):.6g} exceeds its bound {bound:.6g}")
            # eigsh converges to relative tolerance 1e-6, so allow that much rise
            if any(b > a + 1e-6 * abs(a) for a, b in zip(values, values[1:])):
                problems.append(f"{tag} lambda increases with epsilon")
        if not all(math.isfinite(r) for r in list(curve.residuals) + list(wcurve.residuals)):
            problems.append("non-finite eigen residual")
        if key == "gamma0":
            gap = max(abs(a - b) for a, b in zip(lams, wlams))
            if not gap <= 1e-9:
                problems.append(f"gamma=0 weighted curve differs from the plain one by {gap:.3g}")
            if not -0.15 <= rep["slope"] <= 0.05:
                problems.append(f"gamma=0 slope {rep['slope']:.4g} outside [-0.15, 0.05]")
        return problems, float(len(curve.epsilons) + len(wcurve.epsilons)), 0


class Sweep:
    """Coefficient bundles and weight constants over the dyadic cube family, gamma inner."""

    name = "sweep"
    units_per_round = len(SWEEP_GAMMAS)

    def __init__(self, seed: int, profile: str, workdir: str):
        size = SIZES[profile]
        g = grid.make_grid(3, 8.0, size["sweep"])
        rng = np.random.default_rng(seed)
        self.pool = [grid.random_density(g, rng) for _ in range(size["sweep_pool"])]
        self.cubes = cli.default_cube_family(g)

    def plan(self, k: int) -> list[Unit]:
        f = self.pool[k % len(self.pool)]
        return [
            Unit(f"sweep#{k}/gamma{gamma:g}", lambda gamma=gamma: self._unit(f, gamma))
            for gamma in SWEEP_GAMMAS
        ]

    def _unit(self, f, gamma: float) -> dict:
        b = coefficients.build_coefficients(f, gamma)
        cubes = self.cubes
        return {
            "bundle": b,
            "morrey_a": weights.morrey_ratio_family(b.h, b.a, cubes),
            "morrey_astar": weights.morrey_ratio_family(b.h, b.a_star, cubes),
            "ap2": weights.ap_constant(b.a, 2.0, cubes).value,
            "a1": weights.a1_constant(b.a, cubes).value,
            "rh2": weights.reverse_holder(b.a, 2.0, cubes).value,
        }

    def check(self, res: dict, corrupt: bool = False) -> tuple[list[str], float, int]:
        b = res["bundle"]
        a = b.a.values
        a_star = a.copy() if corrupt else b.a_star.values
        problems = []
        scale = float(np.max(np.abs(a)))
        tr_gap = float(np.max(np.abs(a - b.A.trace())))
        if not tr_gap <= 1e-10 * scale:
            problems.append(f"a differs from tr A by {tr_gap:.3g}")
        # tr A bounds the largest eigenvalue of the positive semidefinite node matrices
        if not float(np.min(a_star)) >= -1e-12 * scale:
            problems.append(f"a* reaches {float(np.min(a_star)):.3g} < 0")
        if not float(np.max(a_star - a / 3.0)) <= 1e-12 * scale:
            problems.append("a* exceeds a/3")
        constants = {
            "morrey_a": float(np.max(res["morrey_a"])),
            "morrey_astar": float(np.max(res["morrey_astar"])),
            "ap2": res["ap2"],
            "a1": res["a1"],
            "rh2": res["rh2"],
        }
        bad = [name for name, v in constants.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite weight constants: {', '.join(bad)}")
        if not constants["morrey_a"] <= MORREY_FROZEN_BOUND:
            problems.append(f"Morrey ratio {constants['morrey_a']:.4g} > frozen bound {MORREY_FROZEN_BOUND}")
        return problems, 1.0, 0


def lambda_curves(res) -> list:
    """The coercivity curves held by a unit result (none for the other workloads)."""
    if isinstance(res, tuple):
        return [res[1]["curve"], res[1]["weighted_curve"]]
    return []


WORKLOADS = {cls.name: cls for cls in (Relax, Coercivity, Sweep)}
