import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from diffusion_oracle import matrix_free

from landau_lab import poincare
from landau_lab.coefficients import CoefficientBundle, build_coefficients
from landau_lab.errors import GammaRangeError, IterationError, NonNegativityError
from landau_lab.grid import ScalarField, counterexample_profile, make_grid, maxwellian
from landau_lab.operators import diffusion_matrix
from landau_lab.poincare import BASIS, gks_check, lambda_curve, verify_eps_poincare


def dense_top_eigenvalue(bundle: CoefficientBundle, eps: float, mass_weight: np.ndarray | None = None) -> float:
    """
    Full dense eigensolve of the coercivity operator, generalized with the
    mass weight when one is given (oracle for small grids).  Built from
    matrix-free columns, independent of the assembled matrix.
    """
    grid = bundle.grid
    n = grid.n_nodes
    if n > 4096:
        raise ValueError("dense oracle limited to tiny grids")
    L = matrix_free(bundle.A, bc="dirichlet")
    mat = np.zeros((n, n))
    e = np.zeros(grid.shape)
    flat = e.ravel()
    for j in range(n):
        flat[j] = 1.0
        mat[:, j] = (bundle.h.values * e + eps * L(e)).ravel()
        flat[j] = 0.0
    mass = None if mass_weight is None else np.diag(mass_weight.ravel())
    w = scipy.linalg.eigh(0.5 * (mat + mat.T), mass, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return float(w[0])


@pytest.fixture(scope="module")
def grid12():
    return make_grid(3, 6.0, 12)


@pytest.fixture(scope="module")
def bundle12(grid12):
    return build_coefficients(maxwellian(grid12), -1.0)


def test_lambda_of_zero_density(grid12):
    zero = ScalarField(grid12, np.zeros(grid12.shape))
    curve = lambda_curve(build_coefficients(zero, -1.0), epsilons=[0.5, 0.1])
    # the first Lanczos check meets a zero residual: one step and the residual apply
    assert curve.lambdas == [0.0, 0.0]
    assert curve.iterations == [2, 2]


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
def test_non_positive_epsilon_is_refused_before_any_assembly(bad, bundle12, monkeypatch):
    f = maxwellian(make_grid(3, 4.0, 8))

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the epsilons were checked")

    monkeypatch.setattr(poincare, "build_coefficients", no_assembly)
    monkeypatch.setattr(poincare, "diffusion_matrix", no_assembly)
    with pytest.raises(ValueError, match=f"epsilon must be finite and > 0, got {bad!r}"):
        verify_eps_poincare(f, -1.0, epsilons=[bad, 0.01, 0.1, 1.0])
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        lambda_curve(bundle12, [0.5, bad])


def test_lambda_monotone_in_epsilon(bundle12, monkeypatch):
    monkeypatch.setattr(poincare, "LANCZOS_TOL", 1e-8)
    curve = lambda_curve(bundle12, epsilons=[1e-3, 1e-2, 1e-1, 1.0])
    lams = curve.lambdas
    assert all(lams[i] >= lams[i + 1] - 1e-10 for i in range(len(lams) - 1))
    assert min(lams) > -1e-8


def test_lambda_scaling_in_density(grid12, bundle12, monkeypatch):
    monkeypatch.setattr(poincare, "LANCZOS_TOL", 1e-10)
    c = 3.7
    f2 = ScalarField(grid12, c * bundle12.f.values)
    b2 = build_coefficients(f2, -1.0)
    for eps in (0.01, 0.3):
        l1 = lambda_curve(bundle12, epsilons=[eps]).lambdas[0]
        l2 = lambda_curve(b2, epsilons=[eps]).lambdas[0]
        assert l2 == pytest.approx(c * l1, rel=1e-7)


def test_lambda_matches_dense_oracle(bundle12, monkeypatch):
    monkeypatch.setattr(poincare, "LANCZOS_TOL", 1e-10)
    epsilons = [0.01, 0.3, 1.0]
    dense = {eps: dense_top_eigenvalue(bundle12, eps) for eps in epsilons}
    for eps in (0.01, 0.3):
        lam = lambda_curve(bundle12, epsilons=[eps]).lambdas[0]
        assert lam == pytest.approx(dense[eps], rel=1e-6)
    # warm-started curve, plain and bracket-weighted at gamma = -1
    bracket = (1.0 + bundle12.grid.radius_squared()) ** -0.5
    curve = lambda_curve(bundle12, epsilons=epsilons)
    wcurve = lambda_curve(bundle12, epsilons=epsilons, mass_weight=bracket)
    for eps, lam, wlam in zip(epsilons, curve.lambdas, wcurve.lambdas):
        assert lam == pytest.approx(dense[eps], rel=1e-6)
        assert wlam == pytest.approx(dense_top_eigenvalue(bundle12, eps, mass_weight=bracket), rel=1e-6)
    # the weighted solves outgrow one Lanczos basis, so the thick restart is exercised
    assert max(wcurve.iterations) > BASIS


def test_lambda_refinement_stability():
    vals = []
    for n in (12, 24):
        g = make_grid(3, 6.0, n)
        b = build_coefficients(maxwellian(g), -1.0)
        vals.append(lambda_curve(b, epsilons=[0.1]).lambdas[0])
    assert abs(vals[1] - vals[0]) / vals[1] < 0.05


def oracle_residual(bundle: CoefficientBundle, eps: float, lam: float, phi: np.ndarray, mass_weight) -> float:
    """||h phi + eps L phi - lam W phi|| / |lam| with the matrix-free L, in the original variables."""
    r = bundle.h.values * phi + eps * matrix_free(bundle.A, bc="dirichlet")(phi) - lam * mass_weight * phi
    return float(np.linalg.norm(r)) / abs(lam)


def test_lambda_iteration_cap(bundle12, monkeypatch):
    # a zero tolerance never converges: the cap raises with the last Ritz pair and its
    # residual in the original variables, which the matrix-free oracle recomputes
    monkeypatch.setattr(poincare, "LANCZOS_TOL", 0.0)
    monkeypatch.setattr(poincare, "LANCZOS_MAXITER", 1)
    bracket = (1.0 + bundle12.grid.radius_squared()) ** -0.5
    for weight in (np.ones(bundle12.grid.shape), bracket):
        with pytest.raises(IterationError) as info:
            lambda_curve(bundle12, epsilons=[0.3], mass_weight=weight)
        res = info.value.residual
        assert np.isfinite(res) and 0.0 < res < 1e-3
        lam, phi = info.value.iterate
        assert res == pytest.approx(oracle_residual(bundle12, 0.3, lam, phi, weight), rel=1e-8)
        assert f"within 1 restarts (last Ritz residual {res:.3g})" in str(info.value)


def test_lambda_residuals_match_the_oracle(bundle12):
    # each reported residual is the Ritz pair's, in the original variables: replay the
    # curve's warm-started solves and recompute every residual with the matrix-free form
    epsilons = [1e-3, 1e-2, 0.1, 0.3, 1.0]
    bracket = (1.0 + bundle12.grid.radius_squared()) ** -0.5
    S = diffusion_matrix(bundle12.A, bc="dirichlet")
    for weight in (np.ones(bundle12.grid.shape), bracket):
        curve = lambda_curve(bundle12, epsilons=epsilons, mass_weight=weight)
        v0 = None
        for eps, lam, res in zip(epsilons, curve.lambdas, curve.residuals):
            replay, _, replay_res, v0 = poincare._top_eigenvalue(bundle12.h.values, S, eps, weight, v0)
            assert (replay, replay_res) == (lam, res)
            phi = (v0 / np.sqrt(weight.ravel())).reshape(weight.shape)
            assert 0.0 < res <= poincare.LANCZOS_TOL * np.sqrt(weight.max())  # r / s = sqrt(W) r
            assert res == pytest.approx(oracle_residual(bundle12, eps, lam, phi, weight), rel=1e-8)


def test_lambda_curve_bytes_independent_of_blas_threads():
    code = (
        "import json\n"
        "from landau_lab.coefficients import build_coefficients\n"
        "from landau_lab.grid import make_grid, maxwellian\n"
        "from landau_lab.poincare import lambda_curve\n"
        "bundle = build_coefficients(maxwellian(make_grid(3, 8.0, 32)), 0.0)\n"
        "curve = lambda_curve(bundle, epsilons=[1e-3, 1e-2, 1e-1, 1.0])\n"
        "print(json.dumps({'lambdas': curve.lambdas}))\n"
    )
    package_root = os.path.dirname(os.path.dirname(poincare.__file__))  # what the child imports from
    blobs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        blobs.append(proc.stdout)
    assert len(json.loads(blobs[0])["lambdas"]) == 4
    assert blobs[0] == blobs[1]


def test_verify_eps_poincare_structure(grid12):
    M = maxwellian(grid12)
    with pytest.raises(ValueError):
        verify_eps_poincare(M, -1.0, epsilons=[0.1, 0.5])
    rep = verify_eps_poincare(M, 0.0, epsilons=np.logspace(-3, 0, 5))
    assert rep["predicted_slope"] == 0.0
    assert -0.15 <= rep["slope"] <= 0.05
    assert rep["lambda_max"] <= 1.0 + 1e-6  # gamma = 0 reaction is the mass
    assert len(rep["weighted_curve"].lambdas) == 5
    # gamma = 0: the bracket weight is 1, so the weighted curve is the plain one, unsolved
    assert rep["weighted_curve"].lambdas == rep["curve"].lambdas
    assert rep["weighted_curve"].iterations == [0] * 5


def test_verify_eps_poincare_slope_invariant_under_scaling(grid12):
    M = maxwellian(grid12)
    f2 = ScalarField(grid12, 2.5 * M.values)
    eps = np.logspace(-3, 0, 5)
    r1 = verify_eps_poincare(M, -1.0, epsilons=eps)
    r2 = verify_eps_poincare(f2, -1.0, epsilons=eps)
    assert r1["slope"] == pytest.approx(r2["slope"], abs=1e-4)


def test_counterexample_lambda_floor(grid12):
    f = counterexample_profile(grid12, 2.9)
    rep = verify_eps_poincare(f, -3.0, epsilons=np.logspace(-3, 0, 5))
    assert rep["predicted_slope"] is None
    assert rep["lambda_floor"] > 0.1 * rep["lambda_max"]  # no decay to zero


def test_gks_basics(grid12):
    zero = ScalarField(grid12, np.zeros(grid12.shape))
    rep = gks_check(build_coefficients(zero, -3.0), 1.0)
    assert rep["degenerate"] and np.isnan(rep["ratio"])
    with pytest.raises(NonNegativityError):
        gks_check(build_coefficients(ScalarField(grid12, -np.ones(grid12.shape)), -3.0), 1.0)
    with pytest.raises(ValueError):
        gks_check(build_coefficients(maxwellian(grid12), -3.0), 0.0)
    # the check is the Coulomb one: any other bundle is refused
    with pytest.raises(GammaRangeError, match="gamma = -3"):
        gks_check(build_coefficients(maxwellian(grid12), -1.0), 1.0)


def test_gks_constant_p1():
    # at p = 1 the prefactor is ((p+1)/p)^2 = 4 and the inequality is the
    # entropy-production sign: check the assembled rhs uses exactly 4x
    g = make_grid(3, 6.0, 12)
    M = maxwellian(g)
    b = build_coefficients(M, -3.0)
    from landau_lab.operators import energy_form

    rep = gks_check(b, 1.0)
    energy = energy_form(b.A, np.sqrt(M.values))
    assert rep["rhs"] == pytest.approx(4.0 * energy, rel=1e-12)


def test_gks_ratio_decreases_with_resolution():
    ratios = []
    for n in (16, 24, 32):
        g = make_grid(3, 8.0, n)
        M = maxwellian(g)
        ratios.append(gks_check(build_coefficients(M, -3.0), 2.0)["ratio"])
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1.15


def test_lambda_curve_serialization(bundle12):
    from landau_lab.poincare import lambda_curve

    curve = lambda_curve(bundle12, epsilons=[0.01, 0.1, 1.0])
    man = json.loads(json.dumps({"gamma": curve.gamma, "lambdas": curve.lambdas}))
    assert man["gamma"] == -1.0 and len(man["lambdas"]) == 3
