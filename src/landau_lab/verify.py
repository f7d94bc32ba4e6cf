"""
Self-verification gates: push-button renditions of the acceptance checks at
two sizes (``quick`` on 32-point grids for CI-style runs, ``full`` at the
benchmark sizes).  Every randomized sweep is seeded, so repeated runs produce
identical results and identical output bytes.  Elapsed wall-clock times are
kept out of the serialized results: each gate's seconds (and the seconds of
the section a gate times against its own limit) go to a separate timing
record, which makes no reproducibility claim.

Tolerances marked as frozen are regression values measured on this
implementation (the claims they guard are comparability statements without
universal constants); resolution-limited tolerances carry the grid size that
pinned them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import coefficients as co
from .grid import (
    Cube,
    counterexample_profile,
    make_dyadic_cubes,
    make_grid,
    maxwellian,
    random_density,
    shell_profile,
    squeezed_gaussian,
)
from .operators import dot, nondivergence_apply
from .poincare import gks_check, verify_eps_poincare
from .rates import energy_drift, fit_decay, moser_report
from .solver import collision_operator, make_split_operator, reference_gaussian, simulate
from .weights import morrey_ratio, morrey_ratio_family

DEFAULT_SEED = 20260809


@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str
    measures: dict = field(default_factory=dict)
    seconds: float = 0.0
    section_seconds: float | None = None  # the section a gate times against its limit

    def to_dict(self) -> dict:
        """Seeded results only: identical bytes on every repeated run."""
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "measures": self.measures,
        }

    def timing(self) -> dict:
        """Wall-clock record of the gate (not reproducible)."""
        out = {"name": self.name, "seconds": self.seconds}
        if self.section_seconds is not None:
            out["section_seconds"] = self.section_seconds
        return out


# frozen regression bounds (measured on this implementation, margin applied)
FROZEN = {
    # criterion 5: sup of the s=1 cube ratio with the trace weight over the
    # seeded sweep; a single constant covers every gamma and size
    # (measured maxima 1.59 - 1.82 across N = 32 / 64, gamma in [-3, -2])
    "morrey_sweep_bound": 2.0,
    # criterion 5: ratio floor of the near-critical profile relative to the
    # equilibrium maximum, small cubes at the origin
    "morrey_floor_factor": 0.25,
    # criterion 7: coercivity ratio caps by grid size (continuum value <= 1;
    # measured suite maxima 1.45 / 1.10 / 1.04 / 1.02 at N = 24 / 32 / 48 / 64)
    "gks_cap": {24: 1.5, 32: 1.15, 48: 1.06, 64: 1.05},
    # criterion 2: interior residual of the spectral Laplacian chain, by N
    "laplacian_chain_tol": {32: 3.0e-2, 48: 2.5e-2, 64: 2.0e-2},
    # criterion 9: finite-iteration deficit factor against the cylinder sup
    # (measured E_n/sup = 0.56-0.86 for n >= 4 at N = 32/64)
    "moser_deficit": 0.5,
}


def _gate(name, fn):
    """Run one gate; its ``"seconds"`` measure moves to the timing record."""
    t0 = time.perf_counter()
    try:
        passed, detail, measures = fn()
    except Exception as exc:  # a crashed gate is a failed gate
        return GateResult(name, False, f"error: {exc}", {}, time.perf_counter() - t0)
    measures = dict(measures)
    section = measures.pop("seconds", None)
    return GateResult(name, passed, detail, measures, time.perf_counter() - t0, section)


def _time_limit_note(took: float, limit: float) -> str:
    return f"limit {limit:g}s" + ("; time limit exceeded" if took >= limit else "")


def _norm(x: np.ndarray) -> float:
    flat = x.ravel()
    return math.sqrt(dot(flat, flat))


def gate_oracle_equivalence(n=16):
    grid = make_grid(3, 4.0, n)
    gamma = -1.0
    f = counterexample_profile(grid, 2.0)
    kinds = ["h", "a"] + [f"A{i}{j}" for i, j in co.COMPONENT_PAIRS] + ["D0", "D1", "D2"]
    t0 = time.perf_counter()
    fast = co.fft_convolve(f, gamma, kinds)
    direct = co.direct_convolve_many(f, gamma, kinds)
    worst = 0.0
    for fa, di in zip(fast, direct):
        scale = float(np.max(np.abs(di)))
        if scale > 0:
            worst = max(worst, float(np.max(np.abs(fa - di))) / scale)
    took = time.perf_counter() - t0
    ok = worst <= 1e-9 and took < 10.0
    return ok, f"max rel {worst:.2e} (tol 1e-9, {_time_limit_note(took, 10.0)})", {
        "max_rel": worst,
        "seconds": took,
    }


def gate_structural_identities(n=32):
    grid = make_grid(3, 8.0, n)
    M = maxwellian(grid)
    worst = {"trace": 0.0, "psd": 0.0, "chain": 0.0, "field": 0.0, "astar": 0.0}
    details = []
    for gamma in (-1.0, -2.0, -2.5):
        bundle = co.build_coefficients(M, gamma)
        a_own = co.a_field(M, gamma)
        scale = float(np.max(np.abs(a_own.values)))
        worst["trace"] = max(worst["trace"], float(np.max(np.abs(bundle.A.trace() - a_own.values))) / scale)
        lmin, lmax = co.eigenvalue_range(bundle.A)
        worst["psd"] = max(worst["psd"], float(-np.min(lmin) / np.max(lmax)))
        chain = co.verify_constant_chain(gamma)
        worst["chain"] = max(worst["chain"], chain["max_rel_err"])
        # sign-resolved spectral residual: -Delta a = -(2+gamma) h
        mda = co.spectral_laplacian(bundle.a)
        target = -(2.0 + gamma) * bundle.h.values
        m = n // 4
        core = (slice(m, n - m),) * 3
        res = float(
            np.max(np.abs(mda.values[core] - target[core])) / np.max(np.abs(bundle.h.values[core]))
        )
        worst["field"] = max(worst["field"], res)
        details.append(f"g={gamma}: lap_res={res:.1e}")
        # least-eigenvalue cross-checks: LAPACK route and direction sampling
        dense = np.linalg.eigvalsh(bundle.A.as_dense().reshape(-1, 3, 3))[:, 0].reshape(grid.shape)
        worst["astar"] = max(
            worst["astar"], float(np.max(np.abs(dense - bundle.a_star.values)) / np.max(dense))
        )
        # direction sampling cross-check: (A e, e) = sum_m coef_m(e) A_m over the
        # six stacked components, one einsum contraction of every direction
        # per block of 512 nodes, whose component block stays in cache
        dirs = co.fibonacci_sphere(2000)
        coef = np.stack(
            [(1.0 if i == j else 2.0) * dirs[:, i] * dirs[:, j] for i, j in co.COMPONENT_PAIRS],
            axis=1,
        )
        comps = bundle.A.comps.reshape(coef.shape[1], -1)
        best = np.empty(comps.shape[1])
        for start in range(0, comps.shape[1], 512):
            block = slice(start, start + 512)
            np.min(np.einsum("bm,mn->bn", coef, comps[:, block]), axis=0, out=best[block])
        best = best.reshape(grid.shape)
        gap = (best - bundle.a_star.values) / np.maximum(lmax - lmin, 1e-300)
        worst.setdefault("sampling_gap", 0.0)
        worst["sampling_gap"] = max(worst["sampling_gap"], float(np.max(gap)))
        if not np.all(best >= bundle.a_star.values - 1e-12 * np.max(lmax)):
            return False, "direction sampling fell below the closed-form minimum", worst
    tol_field = FROZEN["laplacian_chain_tol"].get(n, 3.0e-2)
    ok = (
        worst["trace"] <= 1e-10
        and worst["psd"] <= 1e-12
        and worst["chain"] <= 1e-6
        and worst["field"] <= tol_field
        and worst["astar"] <= 1e-4
        and worst["sampling_gap"] <= 6e-3
    )
    detail = (
        f"trace={worst['trace']:.1e} psd={worst['psd']:.1e} chain={worst['chain']:.1e} "
        f"lap_field={worst['field']:.1e}@tol{tol_field} astar={worst['astar']:.1e} "
        f"sample_gap={worst['sampling_gap']:.1e}"
    )
    return ok, detail, worst


def gate_conservation(n=32, t_final=0.5):
    grid = make_grid(3, 8.0, n)
    M = maxwellian(grid)
    t0 = time.perf_counter()
    traj = simulate(M, 0.0, t_final, snapshot_stride=4)
    took = time.perf_counter() - t0
    led = traj.ledger
    mass_drift = abs(led[-1].mass - led[0].mass)
    energy_drift = abs(led[-1].energy - led[0].energy) / abs(led[0].energy)
    hs = [r.entropy for r in led]
    worst_h = max(hs[i + 1] - hs[i] for i in range(len(hs) - 1))
    d_min = min(r.entropy_production_collision for r in led)
    stationarity = _norm(traj.final.values - M.values) / _norm(M.values)
    ok = (
        mass_drift <= 1e-8
        and energy_drift <= 1e-3
        and worst_h <= 1e-6
        and d_min >= -1e-6
        and stationarity <= 1e-3
        and took < 300.0
    )
    detail = (
        f"mass={mass_drift:.1e} energy={energy_drift:.1e} dH={worst_h:.1e} "
        f"Dmin={d_min:.1e} |f-M|={stationarity:.1e} ({_time_limit_note(took, 300.0)})"
    )
    return ok, detail, {
        "mass_drift": mass_drift,
        "energy_drift": energy_drift,
        "worst_entropy_increase": worst_h,
        "min_entropy_production": d_min,
        "stationarity": stationarity,
        "seconds": took,
        "gradient_form_D_at_M": led[0].entropy_production,
    }


def gate_equilibrium_refinement(sizes=(16, 24, 32)):
    norms = []
    for n in sizes:
        grid = make_grid(3, 8.0, n)
        M = maxwellian(grid)
        split = make_split_operator(co.build_coefficients(M, -1.0), reference_gaussian(M))
        norms.append(float(np.max(np.abs(collision_operator(split).values))))
    orders = [
        math.log(norms[i] / norms[i + 1]) / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(norms) - 1)
    ]
    agree = []
    for n in sizes:
        grid = make_grid(3, 8.0, n)
        f = squeezed_gaussian(grid, 0.5, 0.5)
        bundle = co.build_coefficients(f, 0.0)
        qd = collision_operator(make_split_operator(bundle, reference_gaussian(f))).values
        qn = nondivergence_apply(bundle.A, bundle.h.values, f.values)
        agree.append(_norm(qd - qn) / _norm(qd))
    agree_orders = [
        math.log(agree[i] / agree[i + 1]) / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(agree) - 1)
    ]
    decreasing = all(norms[i + 1] < norms[i] for i in range(len(norms) - 1))
    ok = decreasing and min(orders) >= 1.5 and min(agree_orders) >= 1.0
    detail = (
        f"|Q(M,M)| orders {['%.2f' % o for o in orders]}, "
        f"form-agreement orders {['%.2f' % o for o in agree_orders]}"
    )
    return ok, detail, {"norms": norms, "orders": orders, "agreement": agree}


def gate_morrey_sweep(n=32, n_random=20, levels=None):
    grid = make_grid(3, 8.0, n)
    if levels is None:
        levels = 2 if n >= 64 else 1
    cubes = make_dyadic_cubes(grid, 2.0, levels)
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for gamma in (-2.0, -2.5, -3.0):
        for _ in range(n_random):
            f = random_density(grid, rng)
            bundle_h = co.h_field(f, gamma)
            bundle_a = co.a_field(f, gamma)
            vals = morrey_ratio_family(bundle_h, bundle_a, cubes, s=1.0)
            worst = max(worst, float(np.max(vals)))
    # near-critical profile: the ratio over shrinking origin cubes stays away
    # from zero at a definite fraction of the equilibrium sweep maximum
    M = maxwellian(grid)
    mh, ma = co.h_field(M, -3.0), co.a_field(M, -3.0)
    m_vals = morrey_ratio_family(mh, ma, cubes, s=1.0)
    m_max = float(np.max(m_vals))
    fc = counterexample_profile(grid, 2.9)
    ch, ca = co.h_field(fc, -3.0), co.a_field(fc, -3.0)
    center = grid.points_per_axis // 2
    floors = []
    for m_cells in (8, 4, 2):
        anchor = tuple(center - m_cells // 2 for _ in range(3))
        floors.append(morrey_ratio(ch, ca, Cube(anchor, m_cells), s=1.0))
    floor = min(floors)
    ok = worst <= FROZEN["morrey_sweep_bound"] and floor >= FROZEN["morrey_floor_factor"] * m_max
    detail = (
        f"sweep max {worst:.3f} (frozen {FROZEN['morrey_sweep_bound']}), "
        f"shrinking-cube floor {floor:.3f} >= {FROZEN['morrey_floor_factor']} x {m_max:.3f}"
    )
    return ok, detail, {"sweep_max": worst, "floor": floor, "equilibrium_max": m_max}


def gate_poincare_scaling(n=32):
    grid = make_grid(3, 8.0, n)
    M = maxwellian(grid)
    rep0 = verify_eps_poincare(M, 0.0)
    rep1 = verify_eps_poincare(M, -1.0)
    ok = -0.15 <= rep0["slope"] <= 0.05 and rep1["lambda_floor"] > 0
    detail = (
        f"gamma=0 slope {rep0['slope']:.3f} in [-0.15, 0.05]; "
        f"gamma=-1 slope {rep1['slope']:.3f} (saturated; bounded curve "
        f"floor {rep1['lambda_floor']:.3g})"
    )
    return ok, detail, {
        "slope_gamma0": rep0["slope"],
        "slope_gamma_m1": rep1["slope"],
        "lambda_max_m1": rep1["lambda_max"],
    }


def gate_gks(sizes=(24, 32)):
    caps = FROZEN["gks_cap"]
    worst_by_n = {}
    for n in sizes:
        grid = make_grid(3, 8.0, n)
        suite = [
            maxwellian(grid),
            squeezed_gaussian(grid, 0.75, 0.5),
            shell_profile(grid, 2.0, 0.5),
            random_density(grid, np.random.default_rng(DEFAULT_SEED + 1)),
        ]
        worst = 0.0
        for f in suite:
            bundle = co.build_coefficients(f, -3.0)
            for p in (1.0, 2.0, 4.0):
                ratio = gks_check(bundle, p)["ratio"]
                worst = max(worst, ratio)
        worst_by_n[n] = worst
    ns = sorted(worst_by_n)
    slacks = [worst_by_n[n] - 1.0 for n in ns]
    monotone = all(slacks[i + 1] <= slacks[i] + 1e-12 for i in range(len(slacks) - 1))
    ok = monotone and all(worst_by_n[n] <= caps.get(n, 1.05) for n in ns)
    detail = "  ".join(f"N={n}: {worst_by_n[n]:.4f}<= {caps.get(n, 1.05)}" for n in ns)
    return ok, f"{detail}; slack monotone: {monotone}", {"ratios": worst_by_n}


def gate_rates(n=32, sigma=0.2, band=None):
    grid = make_grid(3, 4.0, n)
    f0 = squeezed_gaussian(grid, sigma, 0.5)
    traj = simulate(f0, 0.0, 2.5, snapshot_stride=1, t_ramp=0.3, dt_max=0.1)
    fit = fit_decay(traj, 2.0, "main_1", R_sweep=(1.0, 1.5, 2.0, 3.0))
    ok = fit.residual_rms <= 0.15 and fit.alpha_hat > 0
    if band is not None:
        ok = ok and band[0] <= fit.alpha_hat <= band[1]
    detail = (
        f"alpha={fit.alpha_hat:.3f} (pred {fit.alpha_predicted}"
        + (f", band {band}" if band else "")
        + f") rms={fit.residual_rms:.3f} window={tuple(round(x, 3) for x in fit.t_window)}"
    )
    return ok, detail, {"alpha_hat": fit.alpha_hat, "rms": fit.residual_rms, "energy_drift": energy_drift(traj)}


def gate_moser(n=32, t_final=1.0):
    grid = make_grid(3, 8.0, n)
    f0 = squeezed_gaussian(grid, 0.35, 0.5)
    traj = simulate(f0, -1.0, t_final, snapshot_stride=2, dt_max=0.1)
    rep = moser_report(traj, 6, 4.0)
    es = [row["E_n"] for row in rep["rows"]]
    sup = rep["limit_cylinder_sup"]
    finite = all(np.isfinite(e) and e > 0 for e in es)
    late_ok = all(e >= FROZEN["moser_deficit"] * sup for e in es[4:])
    ok = finite and late_ok
    detail = (
        f"E_n={['%.3g' % e for e in es]} sup={sup:.3g} "
        f"(E_n >= {FROZEN['moser_deficit']} sup for n>=4: {late_ok})"
    )
    return ok, detail, {"E_n": es, "cylinder_sup": sup, "energy_drift": energy_drift(traj)}


def gate_reproducibility(n=24):
    grid = make_grid(3, 8.0, n)
    f0 = squeezed_gaussian(grid, 0.5, 0.5)

    def run_once():
        traj = simulate(f0, -1.0, 0.2, snapshot_stride=2)
        blob = b"".join(np.ascontiguousarray(s.values).tobytes() for s in traj.snapshots)
        rows = tuple(tuple(r.as_list()) for r in traj.ledger)
        return blob, rows

    blob1, rows1 = run_once()
    blob2, rows2 = run_once()
    ok = blob1 == blob2 and rows1 == rows2
    return ok, "repeat run bytes identical" if ok else "runs differ", {}


def run_suite(suite: str = "quick") -> list[GateResult]:
    """Run every gate at the requested size profile."""
    if suite == "quick":
        plan = [
            ("oracle-equivalence", lambda: gate_oracle_equivalence(n=12)),
            ("structural-identities", lambda: gate_structural_identities(n=32)),
            ("conservation-h-theorem", lambda: gate_conservation(n=32, t_final=0.5)),
            ("equilibrium-refinement", lambda: gate_equilibrium_refinement((24, 32, 48))),
            ("cube-ratio-sweep", lambda: gate_morrey_sweep(n=32, n_random=8, levels=1)),
            ("coercivity-scaling", lambda: gate_poincare_scaling(n=32)),
            ("nonlinear-coercivity", lambda: gate_gks((24, 32))),
            ("regularization-rates", lambda: gate_rates(n=32, sigma=0.2)),
            ("iteration-diagnostics", lambda: gate_moser(n=32, t_final=1.0)),
            ("reproducibility", lambda: gate_reproducibility(n=24)),
        ]
    elif suite == "full":
        plan = [
            ("oracle-equivalence", lambda: gate_oracle_equivalence(n=16)),
            ("structural-identities", lambda: gate_structural_identities(n=64)),
            ("conservation-h-theorem", lambda: gate_conservation(n=64, t_final=1.0)),
            ("equilibrium-refinement", lambda: gate_equilibrium_refinement((32, 48, 64))),
            ("cube-ratio-sweep", lambda: gate_morrey_sweep(n=64, n_random=20, levels=2)),
            ("coercivity-scaling", lambda: gate_poincare_scaling(n=48)),
            ("nonlinear-coercivity", lambda: gate_gks((32, 48, 64))),
            ("regularization-rates", lambda: gate_rates(n=64, sigma=0.1, band=(1.2, 1.9))),
            ("iteration-diagnostics", lambda: gate_moser(n=64, t_final=1.0)),
            ("reproducibility", lambda: gate_reproducibility(n=24)),
        ]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [_gate(name, fn) for name, fn in plan]
