import math

import numpy as np
import pytest

from landau_lab.coefficients import build_coefficients
from landau_lab.errors import NonNegativityError
from landau_lab.grid import ScalarField, counterexample_profile, make_grid, maxwellian, moments, squeezed_gaussian
from landau_lab.operators import folded_matrix, nondivergence_apply
from landau_lab.solver import (
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
    from landau_lab import solver

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


def test_imex_solve_failure_reports_residual(rng):
    from landau_lab import solver
    from landau_lab.errors import IterationError

    split, rhs = _imex_setup(rng)
    with pytest.raises(IterationError) as info:
        solver._imex_solve(split, 0.1, rhs, maxiter=2)
    x = info.value.iterate
    resid = np.linalg.norm(rhs - (split.mref.values * x - 0.1 * split.diffusion.apply(x))) / np.linalg.norm(rhs)
    assert info.value.residual == pytest.approx(resid, rel=1e-12)
    # the reported residual is the einsum reduction, not a threaded-BLAS norm
    b = rhs.ravel()
    r = b - folded_matrix(split.matrix, split.mref.values.ravel(), -0.1) @ x.ravel()
    assert info.value.residual == math.sqrt(np.einsum("i,i->", r, r)) / math.sqrt(np.einsum("i,i->", b, b))
    assert f"relative residual {resid:.3g}" in str(info.value)
    assert "after 2 iterations" in str(info.value)


def test_imex_solve_matches_dense_solve(rng):
    from landau_lab import solver

    split, rhs = _imex_setup(rng)
    shape, dt = rhs.shape, 0.1
    L = split.diffusion
    columns = [L.apply(e.reshape(shape)).ravel() for e in np.eye(rhs.size)]
    system = np.diag(split.mref.values.ravel()) - dt * np.stack(columns, axis=1)
    u = np.linalg.solve(system, rhs.ravel())
    f, iterations, residual = solver._imex_solve(split, dt, rhs)
    ref = split.mref.values * u.reshape(shape)
    assert np.linalg.norm(f - ref) <= 1e-9 * np.linalg.norm(ref)
    assert 0 < iterations < 4000
    assert residual <= 1e-10
    x = f / split.mref.values
    true = np.linalg.norm(rhs.ravel() - system @ x.ravel()) / np.linalg.norm(rhs)
    assert true == pytest.approx(residual, rel=1e-3, abs=1e-14)


def test_conservation_error_reports_clipping(grid16):
    from landau_lab.solver import ConservationError

    f0 = squeezed_gaussian(grid16, 0.35, 0.5)
    run = dict(gamma=0.0, t_final=0.3, dt_max=0.1, t_ramp=0.3)
    rows = simulate(f0, **run).ledger
    drift = [abs(r.mass - rows[0].mass) / rows[0].mass for r in rows]
    k = int(np.argmax(drift))  # the run aborts at its largest drift
    with pytest.raises(ConservationError) as info:
        simulate(f0, **run, mass_drift_tol=drift[k] * (1.0 - 1e-6))
    exc = info.value
    assert exc.clipped_mass == sum(r.clipped_mass for r in rows[: k + 1])
    assert exc.negative_nodes == max(r.negative_nodes for r in rows[: k + 1]) > 0
    assert f"clipping added {exc.clipped_mass:.3g} of mass" in str(exc)
    assert f"at most {exc.negative_nodes} negative nodes" in str(exc)
