"""
Spectral coercivity diagnostics: the sharp constant of the epsilon-split
coercivity inequality as a top eigenvalue, its scaling in epsilon, weighted
Sobolev verification on random test functions, and the nonlinear Coulomb
coercivity check.

The functional is

    Lambda(eps) = sup { int h phi^2 - eps (A grad phi, grad phi) : ||phi||_2 = 1 },

realized as the largest eigenvalue of the symmetric operator
phi -> h phi + eps div(A grad phi) with a ghost layer of zeros standing in
for compact support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .coefficients import CoefficientBundle, build_coefficients
from .errors import IterationError, NonNegativityError
from .grid import ScalarField, VelocityGrid
from .operators import DiffusionOperator, centered_gradient, energy_form


@dataclass
class LambdaCurve:
    """Top-eigenvalue curve of the coercivity functional over an epsilon grid."""

    gamma: float
    grid_key: tuple
    epsilons: list[float]
    lambdas: list[float]
    iterations: list[int]
    residuals: list[float]
    weight: str = "none"

    def manifest(self) -> dict:
        return {
            "gamma": self.gamma,
            "grid": list(self.grid_key),
            "weight": self.weight,
            "epsilons": self.epsilons,
            "lambdas": self.lambdas,
        }


def _top_eigenvalue(
    h: np.ndarray,
    diffusion: DiffusionOperator,
    S,
    eps: float,
    mass_weight: np.ndarray | None = None,
    tol: float = 1e-6,
    maxiter: int = 10_000,
    v0: np.ndarray | None = None,
) -> tuple[float, int, float, np.ndarray]:
    """
    Largest eigenvalue of K = diag(h) + eps * L, or of the pencil (K, W) when
    a mass weight W is given.  ``S`` is ``diffusion.matrix()``.  The pencil is
    solved as the standard symmetric problem W^{-1/2} K W^{-1/2}.  Returns the
    eigenvalue, the operator applies, the relative residual of the Ritz pair
    recomputed with the matrix-free ``diffusion.apply`` in the original
    variables, and the eigenvector in the solved variables (a warm start for
    the next epsilon).
    """
    shape = h.shape
    n = h.size
    hflat = h.ravel()
    s = None if mass_weight is None else 1.0 / np.sqrt(mass_weight.ravel())
    counter = {"applies": 0}

    def matvec(x):
        counter["applies"] += 1
        if s is None:
            return hflat * x + eps * (S @ x)
        sx = s * x
        return s * (hflat * sx + eps * (S @ sx))

    def residual(lam, y):
        phi = y if s is None else s * y
        lhs = hflat * phi + eps * diffusion.apply(phi.reshape(shape)).ravel()
        rhs = lam * phi if mass_weight is None else lam * mass_weight.ravel() * phi
        return float(np.linalg.norm(lhs - rhs) / max(abs(lam), 1e-300))

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    if v0 is None:
        v0 = 1.0 + hflat / (1.0 + np.max(np.abs(h)))
    try:
        vals, vecs = eigsh(op, k=1, which="LA", tol=tol, maxiter=maxiter, v0=v0)
    except ArpackNoConvergence as exc:
        if exc.eigenvectors is None or not exc.eigenvectors.size:
            raise IterationError(
                f"eigenvalue iteration did not converge: no Ritz pair converged within {maxiter} restarts",
                residual=float("nan"),
            ) from exc
        res = residual(float(exc.eigenvalues[-1]), exc.eigenvectors[:, -1])
        raise IterationError(
            f"eigenvalue iteration did not converge within {maxiter} restarts "
            f"(last Ritz residual {res:.3g})",
            residual=res,
        ) from exc
    lam = float(vals[0])
    return lam, counter["applies"], residual(lam, vecs[:, 0]), vecs[:, 0]


def lambda_f(
    f_or_bundle,
    gamma: float | None = None,
    epsilon: float = 1.0,
    mass_weight: np.ndarray | None = None,
    tol: float = 1e-6,
    maxiter: int = 10_000,
) -> float:
    """The coercivity functional at one epsilon (conveniency wrapper)."""
    bundle = _as_bundle(f_or_bundle, gamma)
    if bundle is None:
        return 0.0
    L = DiffusionOperator(bundle.A, bc="dirichlet")
    lam, _, _, _ = _top_eigenvalue(bundle.h.values, L, L.matrix(), epsilon, mass_weight, tol, maxiter)
    return lam


def _as_bundle(f_or_bundle, gamma) -> CoefficientBundle | None:
    if isinstance(f_or_bundle, CoefficientBundle):
        return f_or_bundle
    f: ScalarField = f_or_bundle
    if float(np.max(np.abs(f.values))) == 0.0:
        return None
    if gamma is None:
        raise ValueError("gamma is required when passing a raw density")
    return build_coefficients(f, gamma)


def lambda_curve(
    f_or_bundle,
    gamma: float | None = None,
    epsilons=None,
    mass_weight: np.ndarray | None = None,
    tol: float = 1e-6,
    maxiter: int = 10_000,
    weight_name: str = "none",
) -> LambdaCurve:
    """
    Evaluate the functional on a grid of epsilons (default 8 points in
    [1e-3, 1]).  The operator is assembled once per curve, and each epsilon
    starts from the eigenvector of the one before.
    """
    bundle = _as_bundle(f_or_bundle, gamma)
    if epsilons is None:
        epsilons = np.logspace(-3, 0, 8)
    epsilons = [float(e) for e in epsilons]
    if bundle is None:
        zeros = [0.0] * len(epsilons)
        return LambdaCurve(gamma or 0.0, (), epsilons, zeros, [0] * len(epsilons), zeros, weight_name)
    L = DiffusionOperator(bundle.A, bc="dirichlet")
    S = L.matrix()
    lams, iters, resids = [], [], []
    v0 = None
    for eps in sorted(epsilons):
        lam, it, res, v0 = _top_eigenvalue(bundle.h.values, L, S, eps, mass_weight, tol, maxiter, v0)
        lams.append(lam)
        iters.append(it)
        resids.append(res)
    return LambdaCurve(
        bundle.gamma, bundle.grid.key(), sorted(epsilons), lams, iters, resids, weight_name
    )


def _slope(epsilons, lambdas, n_points: int) -> tuple[float, float]:
    """Least-squares slope of log(lambda) against log(eps) on the smallest epsilons."""
    eps = np.asarray(epsilons[:n_points])
    lam = np.asarray(lambdas[:n_points])
    good = lam > 0
    if good.sum() < 2:
        return float("nan"), float("nan")
    x, y = np.log(eps[good]), np.log(lam[good])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    rms = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[0]), rms


def verify_eps_poincare(
    f: ScalarField,
    gamma: float,
    epsilons=None,
    fit_points: int = 4,
    tol: float = 1e-6,
    bundle: CoefficientBundle | None = None,
) -> dict:
    """
    Fit the scaling of the coercivity curve: for gamma in (-2, 0) the
    predicted small-epsilon exponent is gamma/(2+gamma) (-1 at gamma = -1);
    at gamma = 0 the curve stays bounded; for gamma <= -2 the small-epsilon
    floor is recorded.  Also evaluates the bracket-weighted variant (mass
    weight <v>^gamma on the right-hand side).
    """
    if epsilons is None:
        epsilons = np.logspace(-3, 0, 8)
    if len(epsilons) < 4:
        raise ValueError("need at least 4 epsilon samples")
    if bundle is None:
        bundle = build_coefficients(f, gamma)
    curve = lambda_curve(bundle, epsilons=epsilons, tol=tol)
    bracket = (1.0 + f.grid.radius_squared()) ** (gamma / 2.0)
    if np.all(bracket == 1.0):  # gamma = 0: the weighted problem is the plain one
        wcurve = replace(
            curve,
            epsilons=list(curve.epsilons),
            lambdas=list(curve.lambdas),
            iterations=[0] * len(curve.epsilons),
            residuals=list(curve.residuals),
            weight="bracket_gamma",
        )
    else:
        wcurve = lambda_curve(bundle, epsilons=epsilons, mass_weight=bracket, tol=tol, weight_name="bracket_gamma")
    slope, rms = _slope(curve.epsilons, curve.lambdas, fit_points)
    wslope, wrms = _slope(wcurve.epsilons, wcurve.lambdas, fit_points)
    out = {
        "gamma": gamma,
        "curve": curve,
        "weighted_curve": wcurve,
        "slope": slope,
        "slope_rms": rms,
        "weighted_slope": wslope,
        "weighted_slope_rms": wrms,
        "lambda_floor": float(min(curve.lambdas)),
        "lambda_max": float(max(curve.lambdas)),
    }
    if -2.0 < gamma < 0.0:
        out["predicted_slope"] = gamma / (2.0 + gamma)
    elif gamma == 0.0:
        out["predicted_slope"] = 0.0
    else:
        out["predicted_slope"] = None  # only existence of a finite curve is claimed
    return out


def _random_test_function(grid: VelocityGrid, rng: np.random.Generator, radius: float, n_modes: int = 4) -> np.ndarray:
    """Random smooth compactly supported function: low Fourier modes under a bump."""
    from .operators import smoothstep_cutoff

    bump = smoothstep_cutoff(grid, 0.7 * radius, radius).values
    coords = grid.coords()
    wave = np.zeros(grid.shape)
    L = grid.half_extent
    for _ in range(n_modes):
        k = rng.integers(-3, 4, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.normal()
        arg = np.zeros(grid.shape)
        for ax in range(grid.dim):
            arg = arg + (np.pi / L) * k[ax] * coords[ax]
        wave = wave + amp * np.cos(arg + phase)
    return bump * wave


def verify_weighted_sobolev(
    f: ScalarField,
    gamma: float,
    trials: int = 50,
    seed: int = 0,
    m_coulomb: float = 2.0,
    bundle: CoefficientBundle | None = None,
) -> dict:
    """
    Empirical constants of the weighted Sobolev inequalities with the least
    eigenvalue field as weight: stationary exponent 2d/(d-2) for gamma > -d,
    exponent 2m (m < d/(d-2)) at gamma = -d, plus the space-time variant on
    synthetic slices.  Reports the max ratio of left to right side.
    """
    if bundle is None:
        bundle = build_coefficients(f, gamma)
    grid = f.grid
    d = grid.dim
    if d <= 2:
        raise ValueError("the stationary exponent needs d >= 3")
    rng = np.random.default_rng(seed)
    astar = bundle.a_star.values
    h = grid.spacing
    vol = h**d
    if gamma == -float(d):
        m = m_coulomb
        if not 0 < m < d / (d - 2):
            raise ValueError(f"m must lie in (0, {d/(d-2)}), got {m}")
        weight = astar**m
        q_st = 0.9 * 2.0 * (1.0 + 2.0 / d)
    else:
        m = d / (d - 2)
        weight = astar ** (1.0 / m)  # exponent (d-2)/d
        q_st = 2.0 * (1.0 + 2.0 / d)
    from .weights import doubling_constant

    worst, worst_st = 0.0, 0.0
    for _ in range(trials):
        phi = _random_test_function(grid, rng, radius=0.8 * grid.half_extent)
        lhs = (np.sum(np.abs(phi) ** (2 * m) * weight) * vol) ** (1.0 / m)
        g = centered_gradient(phi, h)
        grad_term = float(sum(np.sum(gi**2 * astar) for gi in g) * vol)
        mass_term = float(np.sum(phi**2) * vol)
        rhs = grad_term + mass_term
        if rhs > 0:
            worst = max(worst, lhs / rhs)
        # synthetic time slices phi(t) = phi * cos(w t + theta) on t in [0, 1]
        tgrid = np.linspace(0.0, 1.0, 9)
        w0 = rng.uniform(0.5, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        amp = np.cos(w0 * tgrid + th)
        q = q_st
        lhs_t = 0.0
        grad_t = 0.0
        sup_t = 0.0
        for k, t in enumerate(tgrid):
            wgt = 1.0 if k in (0, len(tgrid) - 1) else 2.0
            wgt *= (tgrid[1] - tgrid[0]) / 2.0
            lhs_t += wgt * float(np.sum(np.abs(amp[k] * phi) ** q * astar) * vol)
            grad_t += wgt * amp[k] ** 2 * grad_term
            sup_t = max(sup_t, amp[k] ** 2 * mass_term)
        rhs_t = grad_t + sup_t
        if rhs_t > 0:
            worst_st = max(worst_st, lhs_t ** (2.0 / q) / rhs_t)
    report = {
        "gamma": gamma,
        "exponent_m": m,
        "stationary_constant": worst,
        "space_time_constant": worst_st,
        "trials": trials,
    }
    if gamma < -2.0:
        report["doubling_constant"] = doubling_constant(f).value
    return report


def gks_check(f: ScalarField, p: float, bundle: CoefficientBundle | None = None) -> dict:
    """
    Nonlinear Coulomb coercivity: int f^(p+1) against ((p+1)/p)^2 times the
    diffusion energy of f^(p/2), with centered gradients.  The ratio is at
    most 1 in the continuum; the constant is sharp as p -> 1.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if np.any(f.values < 0):
        raise NonNegativityError("the coercivity check needs a nonnegative density")
    gamma = -float(f.grid.dim)
    if bundle is None:
        bundle = build_coefficients(f, gamma)
    vol = f.grid.spacing**f.grid.dim
    lhs = float(np.sum(f.values ** (p + 1.0)) * vol)
    fp2 = f.values ** (p / 2.0)
    rhs = ((p + 1.0) / p) ** 2 * energy_form(bundle.A, fp2)
    if rhs == 0.0:
        return {"lhs": lhs, "rhs": rhs, "ratio": float("nan"), "degenerate": True}
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "degenerate": False}


def dense_top_eigenvalue(bundle: CoefficientBundle, eps: float, mass_weight: np.ndarray | None = None) -> float:
    """
    Full dense eigensolve of the coercivity operator, generalized with the
    mass weight when one is given (oracle for small grids).  Built from
    ``apply`` columns, independent of the assembled matrix.
    """
    grid = bundle.grid
    n = grid.n_nodes
    if n > 4096:
        raise ValueError("dense oracle limited to tiny grids")
    L = DiffusionOperator(bundle.A, bc="dirichlet")
    mat = np.zeros((n, n))
    e = np.zeros(grid.shape)
    flat = e.ravel()
    for j in range(n):
        flat[j] = 1.0
        mat[:, j] = (bundle.h.values * e + eps * L.apply(e)).ravel()
        flat[j] = 0.0
    mass = None if mass_weight is None else np.diag(mass_weight.ravel())
    w = scipy.linalg.eigh(0.5 * (mat + mat.T), mass, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return float(w[0])
