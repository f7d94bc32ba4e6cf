"""
Spectral coercivity diagnostics: the sharp constant of the epsilon-split
coercivity inequality as a top eigenvalue, its scaling in epsilon, and the
nonlinear Coulomb coercivity check.

The functional is

    Lambda(eps) = sup { int h phi^2 - eps (A grad phi, grad phi) : ||phi||_2 = 1 },

realized as the largest eigenvalue of the symmetric operator
phi -> h phi + eps div(A grad phi) with a ghost layer of zeros standing in
for compact support, assembled once per curve by ``diffusion_matrix``.  Each
eigenvalue reports the relative residual of its Ritz pair in the original
variables, read off the residual its acceptance test computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientBundle, build_coefficients
from .errors import GammaRangeError, IterationError
from .grid import ScalarField
from .operators import diffusion_matrix, dot, energy_form, krylov_matrix
from .rates import line_fit

BASIS = 40  # Lanczos vectors per cycle: one (BASIS + 1, n) array
KEPT = 10  # Ritz pairs kept at each thick restart
FIT_POINTS = 4  # smallest epsilons the coercivity slopes are fitted on
LANCZOS_TOL = 1e-6  # relative residual at which a Ritz pair is accepted
LANCZOS_MAXITER = 10_000  # thick restarts per eigenvalue before IterationError


@dataclass
class LambdaCurve:
    """Top-eigenvalue curve of the coercivity functional over an epsilon grid."""

    gamma: float
    epsilons: list[float]
    lambdas: list[float]
    iterations: list[int]
    residuals: list[float]


def _top_eigenvalue(
    h: np.ndarray,
    S,
    eps: float,
    mass_weight: np.ndarray,
    v0: np.ndarray | None,
) -> tuple[float, int, float, np.ndarray]:
    """
    Largest eigenvalue of the pencil (K, W), K = diag(h) + eps * L and W the
    mass weight (all ones for the plain functional), and L the Dirichlet
    ``diffusion_matrix`` ``S``.  The pencil is solved as the standard
    symmetric problem s K s, s = W^{-1/2}, which ``krylov_matrix`` builds as
    one matrix with the diagonals of S; at W = 1 the scaling multiplies by
    exactly 1.0, so the plain curve takes no branch of its own.  Returns the
    eigenvalue, the operator applies, the relative residual of the Ritz pair
    in the original variables, and the eigenvector in the solved variables
    (a warm start for the next epsilon).  For a Ritz pair (lam, y) of s K s
    and phi = s y, K phi - lam W phi = (s K s y - lam y) / s, so the
    residual in the original variables is read off the one the acceptance
    test computed, with no further apply; at W = 1 it is that residual.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000)
    without reorthogonalization: a cycle grows the basis to ``BASIS``
    vectors, then keeps the top ``KEPT`` Ritz pairs, and the projected matrix
    restarts as their Ritz values coupled to the next Lanczos vector (an
    arrowhead).  Every 5 steps only the top Ritz pair of the projection is
    computed; the top ``KEPT`` pairs are computed only at a restart.  A pair
    is accepted only when its residual, recomputed with K, meets
    ``LANCZOS_TOL``, so lost orthogonality can cost applies but cannot pass a
    wrong pair.  ``LANCZOS_MAXITER`` caps the restarts.  The reductions run
    in einsum, never on threaded BLAS, so the result does not depend on the
    BLAS thread count.
    """
    import scipy.linalg  # loaded by the first eigenvalue, not by every command

    shape = h.shape
    hflat = h.ravel()
    weight = mass_weight.ravel()
    s = 1.0 / np.sqrt(weight)
    K = krylov_matrix(S, hflat, eps, s)

    def ritz_residual(lam, y):  # the residual vector and its relative norm in the original variables
        r = K @ y - lam * y
        rs = r / s
        return r, math.sqrt(dot(rs, rs)) / max(abs(lam), 1e-300)

    V = np.empty((BASIS + 1, hflat.size))  # row j is Lanczos vector j
    T = np.zeros((BASIS, BASIS))  # the projection of K on the basis

    def ritz_vector(coef):
        y = np.einsum("j,jn->n", coef, V[: coef.size])
        return y / math.sqrt(dot(y, y))

    if v0 is None:
        v0 = 1.0 + hflat / (1.0 + np.max(np.abs(h)))
    V[0] = v0 / math.sqrt(dot(v0, v0))
    applies = restarts = 0
    k = j = 0  # k Ritz vectors kept at the head of the basis; j the vector to expand
    while True:
        w = V[j + 1]
        w[:] = K @ V[j]
        applies += 1
        # the first step after a restart couples to every kept vector, later ones to j-1
        lo = 0 if j == k else j - 1
        w -= np.einsum("i,in->n", T[j, lo:j], V[lo:j])
        T[j, j] = alpha = dot(V[j], w)
        w -= alpha * V[j]
        beta = math.sqrt(dot(w, w))
        size = j + 1
        if size % 5 == 0 or beta == 0.0:
            theta, u = scipy.linalg.eigh(T[:size, :size], subset_by_index=[size - 1, size - 1])
            lam = float(theta[-1])
            estimated = abs(beta * u[-1, -1]) <= LANCZOS_TOL * abs(lam)
            if estimated:
                y = ritz_vector(u[:, -1])
                r, res = ritz_residual(lam, y)
                applies += 1
                if math.sqrt(dot(r, r)) <= LANCZOS_TOL * abs(lam):
                    return lam, applies, res, y
            if estimated or size == BASIS:
                if restarts == LANCZOS_MAXITER:
                    y = ritz_vector(u[:, -1])
                    res = ritz_residual(lam, y)[1]
                    raise IterationError(
                        f"eigenvalue iteration did not converge within {LANCZOS_MAXITER} restarts "
                        f"(last Ritz residual {res:.3g})",
                        residual=res,
                        iterate=(lam, (s * y).reshape(shape)),
                    )
                restarts += 1
                k = j = min(KEPT, size - 1)
                theta, top = scipy.linalg.eigh(T[:size, :size], subset_by_index=[size - k, size - 1])
                V[:k] = np.einsum("ji,jn->in", top, V[:size])
                V[k] = w / beta
                T[:] = 0.0
                T[:k, :k] = np.diag(theta)
                T[k, :k] = T[:k, k] = beta * top[-1]
                continue
        w /= beta
        T[j, j + 1] = T[j + 1, j] = beta
        j += 1


def _positive_epsilons(epsilons) -> list[float]:
    """The epsilons in increasing order, each checked to be finite and > 0."""
    epsilons = sorted(float(e) for e in epsilons)
    bad = [e for e in epsilons if not 0 < e < math.inf]
    if bad:
        raise ValueError(f"every epsilon must be finite and > 0, got {', '.join(map(repr, bad))}")
    return epsilons


def lambda_curve(
    bundle: CoefficientBundle,
    epsilons,
    mass_weight: np.ndarray | None = None,
) -> LambdaCurve:
    """
    Evaluate the functional of the bundle on a grid of epsilons, each finite
    and > 0, with the mass weight on the right-hand side if one is given.
    The operator is assembled once per curve, and each epsilon starts from
    the eigenvector of the one before.  A zero bundle gives the zero curve:
    the first Lanczos step meets a zero residual.
    """
    epsilons = _positive_epsilons(epsilons)
    if mass_weight is None:
        mass_weight = np.ones(bundle.grid.shape)
    S = diffusion_matrix(bundle.A, bc="dirichlet")
    lams, iters, resids = [], [], []
    v0 = None
    for eps in epsilons:
        lam, it, res, v0 = _top_eigenvalue(bundle.h.values, S, eps, mass_weight, v0)
        lams.append(lam)
        iters.append(it)
        resids.append(res)
    return LambdaCurve(bundle.gamma, epsilons, lams, iters, resids)


def _slope(epsilons, lambdas, n_points: int) -> tuple[float, float]:
    """Least-squares slope of log(lambda) against log(eps) on the smallest epsilons."""
    eps = np.asarray(epsilons[:n_points])
    lam = np.asarray(lambdas[:n_points])
    good = lam > 0
    if good.sum() < 2:
        return float("nan"), float("nan")
    slope, _, rms = line_fit(np.log(eps[good]), np.log(lam[good]))
    return slope, rms


def verify_eps_poincare(f: ScalarField, gamma: float, epsilons=None) -> dict:
    """
    Fit the scaling of the coercivity curve: for gamma in (-2, 0) the
    predicted small-epsilon exponent is gamma/(2+gamma) (-1 at gamma = -1);
    at gamma = 0 the curve stays bounded; for gamma <= -2 the small-epsilon
    floor is recorded.  Also evaluates the bracket-weighted variant (mass
    weight <v>^gamma on the right-hand side).  The slopes are fitted on the
    FIT_POINTS smallest epsilons.
    """
    if epsilons is None:
        epsilons = np.logspace(-3, 0, 8)
    if len(epsilons) < 4:
        raise ValueError("need at least 4 epsilon samples")
    _positive_epsilons(epsilons)  # before any assembly
    bundle = build_coefficients(f, gamma)
    curve = lambda_curve(bundle, epsilons=epsilons)
    bracket = (1.0 + f.grid.radius_squared()) ** (gamma / 2.0)
    if np.all(bracket == 1.0):  # gamma = 0: the weighted problem is the plain one
        wcurve = replace(
            curve,
            epsilons=list(curve.epsilons),
            lambdas=list(curve.lambdas),
            iterations=[0] * len(curve.epsilons),
            residuals=list(curve.residuals),
        )
    else:
        wcurve = lambda_curve(bundle, epsilons=epsilons, mass_weight=bracket)
    slope, rms = _slope(curve.epsilons, curve.lambdas, FIT_POINTS)
    wslope, wrms = _slope(wcurve.epsilons, wcurve.lambdas, FIT_POINTS)
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


def gks_check(bundle: CoefficientBundle, p: float) -> dict:
    """
    Nonlinear Coulomb coercivity of the bundle's density: int f^(p+1)
    against ((p+1)/p)^2 times the diffusion energy of f^(p/2), with centered
    gradients.  The ratio is at most 1 in the continuum; the constant is
    sharp as p -> 1.  The bundle must be the Coulomb one, gamma = -d.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    f = bundle.f
    if bundle.gamma != -f.grid.dim:
        raise GammaRangeError(
            f"the coercivity check needs the Coulomb bundle, gamma = -{f.grid.dim}; got {bundle.gamma}"
        )
    vol = f.grid.spacing**f.grid.dim
    lhs = float(np.sum(f.values ** (p + 1.0)) * vol)
    fp2 = f.values ** (p / 2.0)
    rhs = ((p + 1.0) / p) ** 2 * energy_form(bundle.A, fp2)
    if rhs == 0.0:
        return {"lhs": lhs, "rhs": rhs, "ratio": float("nan"), "degenerate": True}
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "degenerate": False}
