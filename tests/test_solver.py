import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from diffusion_oracle import matrix_free

from landau_lab import coefficients, solver
from landau_lab.coefficients import build_coefficients
from landau_lab.errors import IterationError, NonNegativityError
from landau_lab.grid import ScalarField, counterexample_profile, make_grid, maxwellian, moments, squeezed_gaussian
from landau_lab.operators import nondivergence_apply
from landau_lab.solver import (
    CG_TOL,
    collision_operator,
    entropy,
    entropy_production,
    make_split_operator,
    reference_gaussian,
    simulate,
    step,
)


def split_of(f, gamma):
    """The split operator at ``f`` around its own reference Gaussian."""
    return make_split_operator(build_coefficients(f, gamma), reference_gaussian(f))


# ---------------------------------------------------------------------------
# collision operator and stepping
# ---------------------------------------------------------------------------


def test_interior_supported_divergence_integrates_to_zero(grid16):
    f = counterexample_profile(grid16, 1.0)
    q = collision_operator(split_of(f, -1.0))
    total = abs(np.sum(q.values)) * grid16.spacing**3
    assert total < 1e-10


def test_collision_forms_agree_under_refinement():
    agree = []
    for n in (16, 32):
        g = make_grid(3, 8.0, n)
        f = squeezed_gaussian(g, 0.5, 0.5)
        b = build_coefficients(f, 0.0)
        qd = collision_operator(make_split_operator(b, reference_gaussian(f))).values
        qn = nondivergence_apply(b.A, b.h.values, f.values)
        agree.append(np.linalg.norm(qd - qn) / np.linalg.norm(qd))
    order = math.log(agree[0] / agree[1]) / math.log(2)
    assert order >= 1.0


def test_step_reports_solve_telemetry(grid16):
    _, stats = step(split_of(squeezed_gaussian(grid16, 0.5, 0.5), 0.0), 0.05)
    assert 0 < stats.iterations
    assert 1 <= stats.passes <= stats.iterations
    assert 0.0 <= stats.residual <= 1e-10


def test_maxwellian_stationary_100_steps(grid16):
    M = maxwellian(grid16)
    traj = simulate(M, 0.0, 1.0, dt_fixed=0.01, snapshot_stride=100)
    assert len(traj.ledger) == 101
    rel = np.linalg.norm(traj.final.values - M.values) / np.linalg.norm(M.values)
    assert rel <= 1e-3


def test_first_step_defect_halves_with_dt(grid16):
    f0 = squeezed_gaussian(grid16, 0.5, 0.5)

    def advance(dt, n):
        return simulate(f0, 0.0, n * dt, dt_fixed=dt).final.values

    dt = 0.04
    coarse = advance(dt, 1)
    fine = advance(dt / 2, 2)
    finest = advance(dt / 4, 4)
    d1 = np.linalg.norm(coarse - finest)
    d2 = np.linalg.norm(fine - finest)
    assert 1.5 < d1 / d2 < 3.5  # first order in time


def test_simulate_builds_reference_once_and_drift_once_per_row(grid16, monkeypatch):
    calls = {"cell_corner_geomean": 0, "drift_divergence": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    for name in calls:
        counted(name)
    traj = simulate(squeezed_gaussian(grid16, 0.5, 0.5), 0.0, 0.2, dt_fixed=0.01)
    assert len(traj.ledger) == 21  # 20 steps
    # one reference per run; the ledger's Q and the step's drift share one divergence
    assert calls == {"cell_corner_geomean": 1, "drift_divergence": 21}


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_simulate_makes_one_coefficient_pass_per_state(grid16, gamma, monkeypatch):
    # every state's bundle convolves A, h and the drift in one call, so
    # reading the drift in the split operator convolves nothing more
    calls = []
    convolve = coefficients.fft_convolve

    def recording(f, g, kinds):
        calls.append(list(kinds))
        return convolve(f, g, kinds)

    monkeypatch.setattr(coefficients, "fft_convolve", recording)
    traj = simulate(squeezed_gaussian(grid16, 0.5, 0.5), gamma, 0.05, dt_fixed=0.01)
    assert len(traj.ledger) == 6  # 5 steps
    assert calls == [coefficients._built_kinds(gamma) + coefficients._DRIFT_KINDS] * 6


def test_simulate_rejects_nonterminating_settings(maxwellian16):
    # each of these would keep the stepping loop from ending, or divide by zero in it
    for name, value in (
        ("t_final", float("nan")),
        ("dt_max", 0.0),
        ("dt_fixed", 0.0),
        ("t_ramp", 0.0),
        ("dt_fixed", float("nan")),
        ("snapshot_stride", 0),
    ):
        with pytest.raises(ValueError, match=name):
            simulate(maxwellian16, 0.0, **{"t_final": 1.0, name: value})


def test_conserved_moments_values(grid16, maxwellian16):
    m, mom, e = moments(maxwellian16)
    assert m == pytest.approx(1.0, abs=1e-13)
    assert e == pytest.approx(3.0, abs=1e-11)
    zero = ScalarField(grid16, np.zeros(grid16.shape))
    m0, mom0, e0 = moments(zero)
    assert m0 == 0.0 and e0 == 0.0 and np.all(mom0 == 0)
    # translated Gaussian: momentum tracks the shift
    shift = np.array([0.5, 0.0, -0.25])
    r2 = np.zeros(grid16.shape)
    for ax, c in enumerate(grid16.coords()):
        r2 = r2 + (c - shift[ax]) ** 2
    vals = np.exp(-r2 / 2.0)
    f = ScalarField(grid16, vals / (np.sum(vals) * grid16.spacing**3))
    _, mom_s, _ = moments(f)
    assert np.allclose(mom_s, shift, atol=5e-3)


def test_entropy_values(grid16):
    zero = ScalarField(grid16, np.zeros(grid16.shape))
    assert entropy(zero) == 0.0
    g = make_grid(3, 8.0, 32)
    M = maxwellian(g)
    closed_form = -1.5 * (1.0 + math.log(2 * math.pi))
    assert entropy(M) == pytest.approx(closed_form, abs=1e-4)
    with pytest.raises(NonNegativityError):
        entropy(ScalarField(grid16, -np.ones(grid16.shape)))


def test_entropy_production_forms(maxwellian24):
    split = split_of(maxwellian24, 0.0)
    d_grad = entropy_production(split)
    d_coll = entropy_production(split, method="collision")
    # the collision form vanishes at the discrete equilibrium; the gradient
    # form carries its quadrature floor
    assert abs(d_coll) < 1e-10
    assert abs(d_grad) < 0.2
    # gradient-form floor shrinks under refinement
    g16 = make_grid(3, 8.0, 16)
    d16 = abs(entropy_production(split_of(maxwellian(g16), 0.0)))
    assert abs(d_grad) < d16


def test_entropy_production_nonnegative_on_suite(grid16, rng):
    from landau_lab.grid import random_density, shell_profile

    suite = [
        maxwellian(grid16),
        squeezed_gaussian(grid16, 0.75, 0.5),
        shell_profile(grid16, 2.0, 0.5),
        random_density(grid16, rng),
    ]
    for f in suite:
        for gamma in (0.0, -1.0, -3.0):
            # derived slack at this resolution (criterion-level gate runs at N=64)
            assert entropy_production(split_of(f, gamma), method="collision") >= -1e-3


def _entropy_balance(traj):
    """Entropy drop over the run, trapezoid of the collision-form production
    over the ledger times, and the drop to the equilibrium entropy."""
    rows = traj.ledger
    h0 = entropy(traj.snapshots[0])
    production = [r.entropy_production_collision for r in rows]
    integral = float(np.trapezoid(production, [r.time for r in rows]))
    return h0 - rows[-1].entropy, integral, h0 - entropy(maxwellian(traj.grid))


def test_trajectory_ledger_and_balance(grid16):
    f0 = squeezed_gaussian(grid16, 0.6, 0.5)
    traj = simulate(f0, 0.0, 1.0, snapshot_stride=1, dt_max=0.015)
    led = traj.ledger
    assert abs(led[-1].mass - led[0].mass) < 1e-8
    hs = [r.entropy for r in led]
    # derived per-step slack at this coarse resolution
    assert max(hs[i + 1] - hs[i] for i in range(len(hs) - 1)) <= 1e-4
    drop, integral, budget = _entropy_balance(traj)
    assert abs(drop - integral) <= 0.02 * max(abs(drop), abs(integral), 1e-12)
    assert integral <= budget + 0.02 * max(abs(budget), 1.0)


def test_stationary_run_balance(maxwellian16):
    traj = simulate(maxwellian16, 0.0, 0.3, snapshot_stride=2)
    # an unclipped step records +0.0, never -0.0
    assert all(math.copysign(1.0, r.clipped_mass) == 1.0 for r in traj.ledger)
    drop, integral, _ = _entropy_balance(traj)
    assert abs(drop) < 1e-7
    assert abs(integral) < 1e-7


def _imex_setup(rng):
    g = make_grid(3, 4.0, 8)
    M = maxwellian(g)
    split = split_of(M, 0.0)
    rhs = M.values * rng.uniform(0.5, 1.5, size=g.shape)
    return split, rhs


def _oracle_of(split):
    """The matrix-free form of the split's weighted diffusion operator."""
    return matrix_free(split.bundle.A, cell_weight=reference_gaussian(split.bundle.f).cell_weight)


def test_imex_solve_failure_reports_residual(rng, monkeypatch):
    split, rhs = _imex_setup(rng)
    monkeypatch.setattr(solver, "CG_MAXITER", 2)
    with pytest.raises(IterationError) as info:
        solver._imex_solve(split, 0.1, rhs)
    x = info.value.iterate
    resid = np.linalg.norm(rhs - (split.mref.values * x - 0.1 * _oracle_of(split)(x))) / np.linalg.norm(rhs)
    assert info.value.residual == pytest.approx(resid, rel=1e-12)
    # the reported residual is the einsum reduction, not a threaded-BLAS norm
    b, mref, u = rhs.ravel(), split.mref.values.ravel(), x.ravel()
    r = b - (mref * u - 0.1 * (split.matrix @ u))
    assert info.value.residual == math.sqrt(np.einsum("i,i->", r, r)) / math.sqrt(np.einsum("i,i->", b, b))
    assert f"relative residual {resid:.3g}" in str(info.value)
    assert "after 2 iterations" in str(info.value)


def test_imex_solve_matches_dense_solve(rng):
    split, rhs = _imex_setup(rng)
    shape, dt = rhs.shape, 0.1
    L = _oracle_of(split)
    columns = [L(e.reshape(shape)).ravel() for e in np.eye(rhs.size)]
    system = np.diag(split.mref.values.ravel()) - dt * np.stack(columns, axis=1)
    u = np.linalg.solve(system, rhs.ravel())
    f, iterations, residual, _ = solver._imex_solve(split, dt, rhs)
    ref = split.mref.values * u.reshape(shape)
    assert np.linalg.norm(f - ref) <= 1e-9 * np.linalg.norm(ref)
    assert 0 < iterations < 4000
    assert residual <= 1e-10
    x = f / split.mref.values
    true = np.linalg.norm(rhs.ravel() - system @ x.ravel()) / np.linalg.norm(rhs)
    assert true == pytest.approx(residual, rel=1e-3, abs=1e-14)


def _relative_residual(split, dt, rhs, f):
    """||rhs - T u|| / ||rhs|| in float64, u = f/M, T = diag(M) - dt S the implicit system."""
    mref = split.mref.values.ravel()
    u = f.ravel() / mref
    r = rhs.ravel() - (mref * u - dt * (split.matrix @ u))
    return np.linalg.norm(r) / np.linalg.norm(rhs)


def test_imex_solve_refines_to_the_float64_tolerance(rng):
    split, rhs = _imex_setup(rng)
    f, iterations, residual, passes = solver._imex_solve(split, 0.1, rhs)
    assert 2 <= passes <= iterations
    assert residual <= CG_TOL
    assert _relative_residual(split, 0.1, rhs, f) <= CG_TOL


def test_imex_solve_scales_a_diagonal_below_float32(rng):
    # at L=8 the Maxwellian tail puts diag(T) below float32's range, so an
    # unscaled float32 copy of T (or of 1/diag(T)) would overflow
    M = maxwellian(make_grid(3, 8.0, 32))
    split = split_of(M, 0.0)
    dt = 0.01
    diag = split.mref.values.ravel() - dt * split.matrix.diagonal()
    with np.errstate(over="ignore", divide="ignore"):
        assert np.isinf(1.0 / diag.astype(np.float32)).any()
    rhs = M.values * rng.uniform(0.5, 1.5, size=M.grid.shape)
    f, _, residual, _ = solver._imex_solve(split, dt, rhs)
    assert np.all(np.isfinite(f))
    assert residual <= CG_TOL
    assert _relative_residual(split, dt, rhs, f) <= CG_TOL


def test_imex_solve_memory(rng):
    # T = diag(M) - dt S is never stored: beside a few vectors, a solve holds only
    # its float32 Krylov system, half the size of S's data
    M = maxwellian(make_grid(3, 8.0, 32))
    split = split_of(M, 0.0)
    rhs = M.values * rng.uniform(0.5, 1.5, size=M.grid.shape)
    solver._imex_solve(split, 0.05, rhs)
    tracemalloc.start()
    try:
        solver._imex_solve(split, 0.05, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * split.matrix.data.nbytes


def test_imex_solve_stalled_pass_raises(rng, monkeypatch):
    split, rhs = _imex_setup(rng)
    # above the norm of every (unit, float32) pass right-hand side: each pass stops at once
    monkeypatch.setattr(solver, "INNER_TOL", 2.0)
    with pytest.raises(IterationError) as info:
        solver._imex_solve(split, 0.1, rhs)
    x = info.value.iterate
    assert np.array_equal(x, rhs / split.mref.values)  # the starting iterate, never moved
    assert info.value.residual == pytest.approx(_relative_residual(split, 0.1, rhs, rhs), rel=1e-12)
    assert info.value.residual > CG_TOL
    assert "after 0 iterations" in str(info.value)


def test_imex_solve_finishes_a_large_step_in_float64():
    # a float32 pass that does not lower the residual hands the rest of the
    # solve to float64 passes: at dt=0.4 on this gamma=-1 state the second
    # float32 pass raises ||r||, and auto_dt allows the step
    f0 = squeezed_gaussian(make_grid(3, 8.0, 24), 0.5)
    split = split_of(f0, -1.0)
    assert solver.auto_dt(split) > 0.4
    f, stats = step(split, 0.4)
    assert stats.residual <= CG_TOL and stats.passes > 2
    rhs = f0.values - 0.4 * split.drift_div
    assert _relative_residual(split, 0.4, rhs, f.values) <= CG_TOL
    traj = simulate(f0, -1.0, 0.4)
    assert [row.dt for row in traj.ledger] == [0.0, 0.4]


def bkw_values(grid, K):
    """Node values of the BKW solution f_K of the gamma=0 equation (C_A = 1/6, unit temperature); K may be complex."""
    r2 = grid.radius_squared()
    shape = (5.0 * K - 3.0) / (2.0 * K) + (1.0 - K) * r2 / (2.0 * K**2)
    return (2.0 * np.pi * K) ** -1.5 * np.exp(-r2 / (2.0 * K)) * shape


def bkw_profile(grid, K):
    return ScalarField(grid, bkw_values(grid, K))


@pytest.mark.parametrize("K", [0.6, 0.85])
def test_bkw_static_operator_orders(K):
    # exact operator oracle: Q(f_K, f_K) = df_K/dt = (2/3)(1 - K) d f_K/dK, the
    # K-derivative by complex step (exact to roundoff); split around f_K's own
    # reference Gaussian, as a run starting at f_K would be
    sizes = (24, 32, 48, 64)
    l1, sup, energy = [], [], []
    for n in sizes:
        grid = make_grid(3, 8.0, n)
        f = bkw_profile(grid, K)
        q = collision_operator(split_of(f, 0.0)).values
        dfdt = (2.0 / 3.0) * (1.0 - K) * bkw_values(grid, K + 1e-20j).imag / 1e-20
        err = np.abs(q - dfdt)
        l1.append(float(np.sum(err) / np.sum(np.abs(dfdt))))
        sup.append(float(np.max(err) / np.max(np.abs(dfdt))))
        energy.append(abs(float(np.sum(grid.radius_squared() * q))) * grid.spacing**3)  # exact value 0

    def order(errs):
        return -np.polyfit(np.log(sizes), np.log(errs), 1)[0]

    for row in zip(sizes, l1, sup, energy):
        print("BKW K={} N={}: L1 {:.4g}, max {:.4g}, energy moment {:.3g}".format(K, *row))
    # frozen bounds, least-squares orders over N = 24..64 set with margin below
    # the measured ones: L1 1.898 (K=0.6) and 1.830 (K=0.85), max 1.738 and
    # 1.799, energy moment 1.889 and 1.925
    assert order(l1) >= 1.7
    assert order(sup) >= 1.6
    assert order(energy) >= 1.75
    # and the N=64 level, above the measured relative L1 0.0401 and 0.0373
    assert l1[-1] <= 0.045


def test_bkw_time_marching_errors():
    # exact non-equilibrium oracle: f_K with K(t) = 1 - (1 - K0) exp(-2t/3)
    sizes = (32, 48)
    K0, t_final = 0.6, 0.5
    sup, l1 = [], []
    for n in sizes:
        grid = make_grid(3, 8.0, n)
        traj = simulate(bkw_profile(grid, K0), 0.0, t_final, dt_fixed=0.01, snapshot_stride=50)
        assert traj.times[-1] == pytest.approx(t_final, abs=1e-12)
        exact = bkw_profile(grid, 1.0 - (1.0 - K0) * math.exp(-2.0 * t_final / 3.0)).values
        err = np.abs(traj.final.values - exact)
        sup.append(float(np.max(err) / np.max(np.abs(exact))))
        l1.append(float(np.sum(err) / np.sum(np.abs(exact))))
        rows = traj.ledger
        drift = (rows[-1].energy - rows[0].energy) / rows[0].energy
        clipped = sum(r.clipped_mass for r in rows)
        negatives = max(r.negative_nodes for r in rows)
        print(
            f"BKW N={n}: max {sup[-1]:.5g}, L1 {l1[-1]:.5g}, energy drift {drift:.4g}, "
            f"clipped mass {clipped:.4g}, most negative nodes in a step {negatives}"
        )
    sup_order = math.log(sup[0] / sup[1]) / math.log(sizes[1] / sizes[0])
    l1_order = math.log(l1[0] / l1[1]) / math.log(sizes[1] / sizes[0])
    print(f"BKW orders N=32 -> 48: max {sup_order:.4g}, L1 {l1_order:.4g}")
    # frozen bounds, set with margin above the errors of these runs.  The
    # energy drift (3.429e-3 at N=32, 1.564e-3 at N=48), the clipped mass
    # (4.730e-6, 3.917e-7) and the most negative nodes in a step (12,392,
    # 34,710) are printed, not gated: the scheme conserves energy only at
    # equilibrium, and the implicit operator is not monotone, so tail nodes
    # turn negative and are clipped.
    assert sup[0] <= 6.4e-2  # measured 6.1263e-2
    assert l1[0] <= 1.1e-2  # measured 1.0586e-2
    assert sup[1] <= 3.7e-2  # measured 3.5003e-2
    assert l1[1] <= 5.3e-3  # measured 5.0066e-3
    assert sup_order >= 1.25  # measured 1.380
    assert l1_order >= 1.7  # measured 1.847


def test_simulate_bytes_independent_of_blas_threads(tmp_path):
    config = {
        "grid": {"dim": 3, "half_extent": 8.0, "points_per_axis": 16},
        "gamma": 0.0,
        "initial_profile": {"kind": "squeezed_gaussian", "sigma": 0.5},
        "t_final": 0.3,
        "dt": {"dt_max": 0.05},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    code = "import sys\nfrom landau_lab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    package_root = os.path.dirname(os.path.dirname(solver.__file__))  # what the child imports from
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package_root}
        subprocess.run(
            [sys.executable, "-c", code, "simulate", "--config", str(config_path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        snapshots = sorted(out.glob("snapshot_*.llf"))
        blobs.append(((out / "ledger.csv").read_bytes(), snapshots[-1].name, snapshots[-1].read_bytes()))
    assert len(blobs[0][0].splitlines()) == 8  # header and 7 rows: 6 steps of 0.05
    assert blobs[0] == blobs[1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_repeated_run_faults_only_where_its_heap_grows():
    # a fresh interpreter, so the allocator state is the run's own
    code = """
import resource
from landau_lab import grid, solver
f0 = grid.squeezed_gaussian(grid.make_grid(3, 4.0, 16), 0.15, 0.5)
solver.simulate(f0, 0.0, 0.5, dt_max=0.1, t_ramp=0.3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
solver.simulate(f0, 0.0, 0.5, dt_max=0.1, t_ramp=0.3)
print(solver._pin_heap(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    package_root = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    pinned, faults = out.stdout.split()
    assert pinned == "True"
    assert int(faults) < 100, faults  # measured 3-6; 646 under glibc's self-adjusting thresholds


def test_conservation_error_reports_clipping(grid16, monkeypatch):
    from landau_lab.solver import ConservationError

    f0 = squeezed_gaussian(grid16, 0.35, 0.5)
    run = dict(gamma=0.0, t_final=0.3, dt_max=0.1, t_ramp=0.3)
    rows = simulate(f0, **run).ledger
    drift = [abs(r.mass - rows[0].mass) / rows[0].mass for r in rows]
    k = int(np.argmax(drift))  # the run aborts at its largest drift
    monkeypatch.setattr(solver, "MASS_DRIFT_TOL", drift[k] * (1.0 - 1e-6))
    with pytest.raises(ConservationError) as info:
        simulate(f0, **run)
    exc = info.value
    assert exc.clipped_mass == sum(r.clipped_mass for r in rows[: k + 1])
    assert exc.negative_nodes == max(r.negative_nodes for r in rows[: k + 1]) > 0
    assert f"clipping added {exc.clipped_mass:.3g} of mass" in str(exc)
    assert f"at most {exc.negative_nodes} negative nodes" in str(exc)
