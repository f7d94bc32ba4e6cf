"""
Time integration of the homogeneous collision dynamics df/dt = Q(f, f) in
divergence or non-divergence form, with a conservation/entropy ledger,
weak-form residual evaluation, truncated power functions for the energy
machinery, and the isotropic model variant.

The default stepper freezes the nonlocal coefficients at the step start,
treats diffusion implicitly (Jacobi-preconditioned conjugate gradients on
the symmetric positive definite system, with the diffusion operator
assembled once per step) and the drift explicitly; zero flux through the
truncation boundary keeps the lattice mass constant to solver tolerance,
and negative nodes are clipped to zero with the clipped mass logged, never
silently renormalized.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .coefficients import CoefficientBundle, a_field, build_coefficients
from .errors import (
    GammaRangeError,
    GridError,
    IterationError,
    LandauLabError,
    LedgerTimeError,
    NonNegativityError,
    StabilityError,
)
from .grid import ScalarField, VelocityGrid, maxwellian, moments
from .operators import (
    DiffusionOperator,
    boundary_drift_flux,
    cell_corner_geomean,
    centered_gradient,
    drift_divergence,
    energy_form,
    nondivergence_apply,
    second_derivatives,
    smoothstep_cutoff,
)


class ConservationError(LandauLabError, RuntimeError):
    """Ledger mass drift exceeded the configured tolerance; carries the run's clipping record."""

    def __init__(self, message: str, clipped_mass: float, negative_nodes: int):
        super().__init__(message)
        self.clipped_mass = clipped_mass  # mass added by clipping, summed over the run
        self.negative_nodes = negative_nodes  # most nodes clipped in one step


# ---------------------------------------------------------------------------
# truncated powers
# ---------------------------------------------------------------------------


def _chi(s):
    """Smooth step-down: 1 below 0, 0 above 1, quintic in between (0 <= -chi' <= 1.875)."""
    t = np.clip(s, 0.0, 1.0)
    return 1.0 - (6.0 * t**5 - 15.0 * t**4 + 10.0 * t**3)


def _chi_antiderivative(t):
    """int_0^t chi(s) ds for t >= 0 (t - t^4 (2.5 - 3 t + t^2) on [0,1], 1/2 beyond)."""
    t = np.asarray(t, dtype=float)
    tt = np.clip(t, 0.0, 1.0)
    inner = tt - (tt**6 - 3.0 * tt**5 + 2.5 * tt**4)
    return np.where(t <= 1.0, inner, 0.5)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panel_integral(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized fixed Gauss panel of fn over [lo, hi] elementwise."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    acc = np.zeros_like(mid)
    for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        acc = acc + w * fn(mid + half * x)
    return acc * half


@dataclass
class TruncationFn:
    """
    Smooth truncated power family: phi(u) = u^p / p below the cap h, bending
    to linear growth above it through a smooth cutoff.  Exposes phi, phi',
    phi'', the square-root-compatible primitive phi_bar = int (phi'')^(1/2),
    and phi_under = int s phi''(s) ds, which satisfies s phi'(s) - phi_under(s)
    = phi(s).
    """

    p: float
    h: float
    mesh_points: int = 257

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        # chi_h is constant = h + 1/2 above h + 1
        self._chi_inf = self.h + 0.5
        self.mesh = np.concatenate(
            [
                np.linspace(0.0, self.h, self.mesh_points // 2),
                self.h + np.logspace(-3, math.log10(max(self.h, 1.0) * 10.0), self.mesh_points // 2),
            ]
        )
        self.table = {
            "chi_h": self.chi_h(self.mesh),
            "phi": self.phi(self.mesh),
            "phi1": self.phi1(self.mesh),
            "phi2": self.phi2(self.mesh),
            "phi_bar": self.phi_bar(self.mesh),
            "phi_under": self.phi_under(self.mesh),
        }

    def chi_h(self, u):
        """Smooth surrogate for min(u, h+1): identity below h, constant above h+1."""
        u = np.asarray(u, dtype=float)
        return np.where(u <= self.h, u, self.h + _chi_antiderivative(np.maximum(u - self.h, 0.0)))

    def phi1(self, u):
        """phi'(u) = chi_h(u)^(p-1)."""
        return self.chi_h(u) ** (self.p - 1.0)

    def phi2(self, u):
        """phi''(u) = (p-1) chi_h(u)^(p-2) chi(u-h)."""
        u = np.asarray(u, dtype=float)
        return (self.p - 1.0) * self.chi_h(u) ** (self.p - 2.0) * _chi(u - self.h)

    def _upper_panel(self, fn, u):
        """int_h^min(u, h+1) fn, vanishing contribution above h+1 handled by caller."""
        u = np.asarray(u, dtype=float)
        hi = np.minimum(u, self.h + 1.0)
        lo = np.full_like(hi, self.h)
        out = np.where(hi > lo, _panel_integral(fn, lo, np.maximum(hi, lo)), 0.0)
        return out

    def _phi_scalar_block(self, u):
        below = np.minimum(u, self.h)
        out = below**self.p / self.p
        mid = self._upper_panel(self.phi1, u)
        out = out + mid
        above = np.maximum(u - (self.h + 1.0), 0.0)
        out = out + above * self._chi_inf ** (self.p - 1.0)
        return out

    def phi(self, u):
        """Truncated p-th power (exactly u^p/p below the cap)."""
        return self._phi_scalar_block(np.asarray(u, dtype=float))

    def phi_bar(self, u):
        """int_0^u sqrt(phi''): (2/p) sqrt(p-1) u^(p/2) below the cap."""
        u = np.asarray(u, dtype=float)
        below = np.minimum(u, self.h)
        out = (2.0 / self.p) * math.sqrt(self.p - 1.0) * below ** (self.p / 2.0)
        out = out + self._upper_panel(lambda s: np.sqrt(self.phi2(s)), u)
        return out

    def phi_under(self, u):
        """int_0^u s phi''(s) ds: equals (p-1)/p u^p below the cap."""
        u = np.asarray(u, dtype=float)
        below = np.minimum(u, self.h)
        out = (self.p - 1.0) / self.p * below**self.p
        out = out + self._upper_panel(lambda s: s * self.phi2(s), u)
        return out

    def identity_residual(self, u) -> np.ndarray:
        """s phi'(s) - phi_under(s) - phi(s), zero in exact arithmetic."""
        u = np.asarray(u, dtype=float)
        return u * self.phi1(u) - self.phi_under(u) - self.phi(u)


# ---------------------------------------------------------------------------
# state, ledger, trajectory
# ---------------------------------------------------------------------------


@dataclass
class LedgerRow:
    """
    One ledger line.  Its CSV columns follow the field order; a per-axis
    field (``list[float]``, the momentum) takes one column per axis,
    suffixed _0 .. _{d-1}.
    """

    step: int
    time: float
    dt: float
    mass: float
    momentum: list[float]
    energy: float
    entropy: float
    entropy_production: float
    entropy_production_collision: float
    boundary_flux_leak: float
    clipped_mass: float
    negative_nodes: int
    h_max: float

    def as_list(self) -> list:
        out = []
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            if fld.type == "list[float]":
                out.extend(value)
            else:
                out.append(value)
        return out

    @classmethod
    def header(cls, dim: int) -> list[str]:
        out = []
        for fld in dataclasses.fields(cls):
            if fld.type == "list[float]":
                out.extend(f"{fld.name}_{i}" for i in range(dim))
            else:
                out.append(fld.name)
        return out

    @classmethod
    def from_csv(cls, record: dict[str, str], dim: int) -> "LedgerRow":
        """Inverse of ``as_list`` for one ``csv.DictReader`` record of a ``header(dim)`` file."""
        values = {}
        for fld in dataclasses.fields(cls):
            if fld.type == "list[float]":
                values[fld.name] = [float(record[f"{fld.name}_{i}"]) for i in range(dim)]
            else:
                values[fld.name] = (int if fld.type == "int" else float)(record[fld.name])
        return cls(**values)


@dataclass
class StepStats:
    """What a step did besides advancing f: its size, the drift flux out of the box, and the clipping."""

    dt: float
    leak: float
    clipped_mass: float
    negative_nodes: int


@dataclass
class SolverState:
    f: ScalarField
    time: float
    gamma: float
    step_index: int


@dataclass
class Trajectory:
    """Snapshots plus the per-step ledger of one run."""

    gamma: float
    grid: VelocityGrid
    times: list[float]
    snapshots: list[ScalarField]
    ledger: list[LedgerRow]
    scheme: str = "imex"

    def snapshot_at(self, t: float) -> ScalarField:
        for tt, snap in zip(self.times, self.snapshots):
            if abs(tt - t) <= 1e-12 * max(1.0, abs(t)):
                return snap
        raise LedgerTimeError(f"time {t} has no stored snapshot")

    @property
    def final(self) -> ScalarField:
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# collision operator and stepping
# ---------------------------------------------------------------------------


def entropy(f: ScalarField) -> float:
    """int f log f with the continuous extension 0 log 0 = 0."""
    vals = f.values
    if np.any(vals < 0):
        raise NonNegativityError("entropy of a signed field")
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(vals > 0, vals * np.log(np.where(vals > 0, vals, 1.0)), 0.0)
    return float(np.sum(integrand)) * f.grid.spacing**f.grid.dim


def entropy_production(
    f: ScalarField,
    gamma: float,
    bundle: CoefficientBundle | None = None,
    method: str = "gradient",
    split: "SplitOperator | None" = None,
) -> float:
    """
    Entropy production D(f).  ``gradient`` evaluates the displayed integrand
    4 (A grad sqrt f, grad sqrt f) - f h with centered gradients (its
    discretization error does not vanish at the sampled equilibrium);
    ``collision`` evaluates the equal expression -int Q(f,f) log f with the
    discrete collision operator, which is exactly zero at the discrete
    steady state.
    """
    if bundle is None:
        bundle = build_coefficients(f, gamma)
    vol = f.grid.spacing**f.grid.dim
    if method == "gradient":
        root = np.sqrt(np.maximum(f.values, 0.0))
        quad = 4.0 * energy_form(bundle.A, root)
        reaction = float(np.sum(f.values * bundle.h.values)) * vol
        return quad - reaction
    if method == "collision":
        if split is None:
            split = make_split_operator(bundle, reference_gaussian(f))
        q = split.q_divergence(f.values)
        pos = f.values > 0
        return -float(np.sum(q[pos] * np.log(f.values[pos]))) * vol
    raise ValueError(f"unknown method {method!r}")


def reference_gaussian(f: ScalarField) -> ScalarField:
    """Gaussian sharing the discrete mass, mean, and energy of ``f`` (strictly positive)."""
    mass, mom, ener = moments(f)
    if mass <= 0:
        raise NonNegativityError("reference state of a massless density")
    mean = mom / mass
    T = (ener / mass - float(np.dot(mean, mean))) / f.grid.dim
    T = max(T, 1e-12)
    r2 = np.zeros(f.grid.shape)
    for ax, c in enumerate(f.grid.coords()):
        r2 = r2 + (c - mean[ax]) ** 2
    vals = mass * (2.0 * np.pi * T) ** (-f.grid.dim / 2.0) * np.exp(-r2 / (2.0 * T))
    # keep strictly positive: the split form divides by this field
    vals = np.maximum(vals, 1e-290)
    return ScalarField(f.grid, vals)


@dataclass
class SplitOperator:
    """
    Equilibrium-compatible realization of the divergence form.  With M the
    moment-matched Gaussian of the evolving density, the exact rewriting

        A grad f - f b  =  A M grad(f / M)  -  f (b - A grad log M)

    is discretized termwise: the first flux through the symmetric weighted
    form (vanishing identically at f = M, so the sampled equilibrium is a
    discrete steady state), the bounded remainder drift through conservative
    face fluxes.  ``matrix`` is the weighted diffusion operator assembled
    once; the ledger and the implicit solve both use it.
    """

    diffusion: DiffusionOperator
    mref: ScalarField
    drift_rest: list[np.ndarray]
    matrix: sparse.csr_matrix

    def q_divergence(self, f: np.ndarray) -> np.ndarray:
        u = f / self.mref.values
        return (self.matrix @ u.ravel()).reshape(f.shape) - drift_divergence(
            f, self.drift_rest, self.mref.grid.spacing
        )


def make_split_operator(bundle: CoefficientBundle, mref: ScalarField) -> SplitOperator:
    grid = bundle.grid
    weight = cell_corner_geomean(mref.values)
    L = DiffusionOperator(bundle.A, bc="flux", cell_weight=weight)
    mass, mom, ener = moments(mref)
    mean = mom / mass
    T = (ener / mass - float(np.dot(mean, mean))) / grid.dim
    vec = [np.broadcast_to(c, grid.shape) - mean[ax] for ax, c in enumerate(grid.coords())]
    Av = bundle.A.apply(vec)
    drift_rest = [bundle.drift[ax].values + Av[ax] / T for ax in range(grid.dim)]
    return SplitOperator(L, mref, drift_rest, L.matrix())


def collision_operator(
    f: ScalarField,
    gamma: float,
    form: str = "divergence",
    bundle: CoefficientBundle | None = None,
    mref: ScalarField | None = None,
) -> ScalarField:
    """Q(f, f) via symmetric fluxes (divergence) or tr(A D^2 f) + f h (nondivergence)."""
    if bundle is None:
        bundle = build_coefficients(f, gamma)
    if form == "divergence":
        if mref is None:
            mref = reference_gaussian(f)
        split = make_split_operator(bundle, mref)
        out = split.q_divergence(f.values)
    elif form == "nondivergence":
        out = nondivergence_apply(bundle.A, bundle.h.values, f.values)
    else:
        raise ValueError(f"unknown form {form!r}")
    return ScalarField(f.grid, out)


def _ledger_row(
    state: SolverState, stats: StepStats, bundle: CoefficientBundle, split: "SplitOperator"
) -> LedgerRow:
    """Row describing ``state`` and the step into it, with coefficients built from ``state``."""
    mass, mom, ener = moments(state.f)
    return LedgerRow(
        step=state.step_index,
        time=state.time,
        dt=stats.dt,
        mass=mass,
        momentum=[float(x) for x in mom],
        energy=ener,
        entropy=entropy(state.f),
        entropy_production=entropy_production(state.f, state.gamma, bundle),
        entropy_production_collision=entropy_production(
            state.f, state.gamma, bundle, method="collision", split=split
        ),
        boundary_flux_leak=stats.leak,
        clipped_mass=stats.clipped_mass,
        negative_nodes=stats.negative_nodes,
        h_max=float(np.max(bundle.h.values)),
    )


def _imex_solve(
    split: SplitOperator, dt: float, rhs: np.ndarray, tol: float = 1e-10, maxiter: int = 4000
) -> tuple[np.ndarray, int, float]:
    """
    Solve (diag(M) - dt S) u = rhs for u = f/M by conjugate gradients with
    the Jacobi preconditioner, from u = rhs/M until ||r|| <= tol ||rhs||.
    Returns f = M u, the iteration count and the relative residual the stop
    rule measured.  The reductions run in einsum, never on threaded BLAS.
    """
    mref = split.mref.values.ravel()
    S = split.matrix
    b = rhs.ravel()

    def matvec(x):
        return mref * x - dt * (S @ x)

    def dot(x, y):
        return float(np.einsum("i,i->", x, y))

    inv_diag = 1.0 / (mref - dt * S.diagonal())
    bnorm = math.sqrt(dot(b, b))
    x = b / mref
    r = b - matvec(x)
    z = inv_diag * r
    p = z
    rz = dot(r, z)
    rnorm = math.sqrt(dot(r, r))
    iterations = 0
    while rnorm > tol * bnorm and iterations < maxiter:
        q = matvec(p)
        alpha = rz / dot(p, q)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz, rz_prev = dot(r, z), rz
        p = z + (rz / rz_prev) * p
        rnorm = math.sqrt(dot(r, r))
        iterations += 1
    if rnorm > tol * bnorm:
        res = float(np.linalg.norm(b - matvec(x)) / bnorm)
        raise IterationError(
            f"implicit diffusion solve failed after {iterations} iterations (relative residual {res:.3g})",
            residual=res,
            iterate=x.reshape(rhs.shape),
        )
    return (mref * x).reshape(rhs.shape), iterations, rnorm / bnorm if bnorm else 0.0


def step(
    state: SolverState,
    dt: float,
    scheme: str = "imex",
    bundle: CoefficientBundle | None = None,
    split: SplitOperator | None = None,
    explicit_guard: float = 0.5,
    cg_tol: float = 1e-10,
) -> tuple[SolverState, StepStats]:
    """
    Advance one step: implicit diffusion with frozen coefficients and explicit
    drift (imex), or forward Euler with a stability guard (explicit).
    Negative nodes are clipped and counted in the returned stats, never
    renormalized.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        same = SolverState(state.f.copy(), state.time, state.gamma, state.step_index + 1)
        return same, StepStats(0.0, 0.0, 0.0, 0)
    if bundle is None:
        bundle = build_coefficients(state.f, state.gamma)
    if split is None:
        split = make_split_operator(bundle, reference_gaussian(state.f))
    f = state.f.values
    spacing = state.f.grid.spacing
    leak = boundary_drift_flux(f, split.drift_rest, spacing) * dt
    if scheme == "imex":
        rhs = f - dt * drift_divergence(f, split.drift_rest, spacing)
        fnew, _, _ = _imex_solve(split, dt, rhs, tol=cg_tol)
    elif scheme == "explicit":
        amax = float(np.max(bundle.a.values))
        if amax > 0 and dt > explicit_guard * spacing**2 / amax:
            raise StabilityError(
                f"dt={dt} violates the explicit guard {explicit_guard} h^2 / max(a)"
            )
        fnew = f + dt * split.q_divergence(f)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    neg = fnew < 0
    nneg = int(np.count_nonzero(neg))
    # summing the negated values keeps an unclipped step at +0.0, not -0.0
    clipped = float(np.sum(-fnew[neg])) * state.f.grid.spacing**state.f.grid.dim
    if nneg:
        fnew = np.where(neg, 0.0, fnew)
    new = SolverState(
        ScalarField(state.f.grid, fnew), state.time + dt, state.gamma, state.step_index + 1
    )
    return new, StepStats(dt, leak, clipped, nneg)


def auto_dt(
    bundle: CoefficientBundle,
    scheme: str,
    spacing: float,
    split: SplitOperator | None = None,
    reaction_cap: float = 0.1,
    drift_cfl: float = 0.5,
    dt_max: float = math.inf,
    explicit_safety: float = 0.15,
) -> float:
    """Step-size policy: reaction cap 0.1/max(h), drift CFL on the explicit drift, diffusion guard when explicit."""
    hmax = float(np.max(bundle.h.values))
    if split is not None:
        bmax = max(float(np.max(np.abs(b))) for b in split.drift_rest)
    else:
        bmax = max(float(np.max(np.abs(b.values))) for b in bundle.drift)
    dt = dt_max
    if hmax > 0:
        dt = min(dt, reaction_cap / hmax)
    if bmax > 0:
        dt = min(dt, drift_cfl * spacing / bmax)
    if scheme == "explicit":
        amax = float(np.max(bundle.a.values))
        if amax > 0:
            dt = min(dt, explicit_safety * spacing**2 / amax)
    if not math.isfinite(dt):
        raise GridError("cannot choose a step size for vanishing coefficients")
    return dt


def simulate(
    f0: ScalarField,
    gamma: float,
    t_final: float,
    scheme: str = "imex",
    dt_max: float = math.inf,
    dt_fixed: float | None = None,
    t_ramp: float | None = None,
    snapshot_stride: int = 1,
    mass_drift_tol: float = 1e-5,
    cg_tol: float = 1e-10,
) -> Trajectory:
    """
    March to t_final recording snapshots every ``snapshot_stride`` steps.
    ``t_ramp`` bounds dt by ramp * (t + first step) so early times stay
    resolved.  Aborts when the ledger mass drifts beyond tolerance, reporting
    the mass clipping has added so far and the most nodes clipped in a step.
    """
    f0.require_density("initial data")
    state = SolverState(f0.copy(), 0.0, float(gamma), 0)
    times = [0.0]
    snaps = [f0.copy()]
    mass0, _, _ = moments(f0)
    mref = reference_gaussian(f0)  # moments are conserved, so one reference serves the run
    stats = StepStats(0.0, 0.0, 0.0, 0)  # the step into the current state
    ledger: list[LedgerRow] = []
    clipped_total, negatives_max = 0.0, 0
    k = 0
    while True:
        bundle = build_coefficients(state.f, gamma)
        split = make_split_operator(bundle, mref)
        row = _ledger_row(state, stats, bundle, split)
        ledger.append(row)
        clipped_total += row.clipped_mass
        negatives_max = max(negatives_max, row.negative_nodes)
        if abs(row.mass - mass0) > mass_drift_tol * max(mass0, 1e-300):
            raise ConservationError(
                f"mass drifted to {row.mass} from {mass0} at t={state.time}; clipping added "
                f"{clipped_total:.3g} of mass, with at most {negatives_max} negative nodes in a step",
                clipped_mass=clipped_total,
                negative_nodes=negatives_max,
            )
        if state.time >= t_final - 1e-14:
            break
        if dt_fixed is not None:
            dt = dt_fixed
        else:
            dt = auto_dt(bundle, scheme, f0.grid.spacing, split=split, dt_max=dt_max)
            if t_ramp is not None:
                dt = min(dt, t_ramp * max(state.time, dt / 4.0))
        dt = min(dt, t_final - state.time)
        state, stats = step(state, dt, scheme=scheme, bundle=bundle, split=split, cg_tol=cg_tol)
        del bundle, split  # release this step's operator before the next one is built
        k += 1
        if k % snapshot_stride == 0 or state.time >= t_final - 1e-14:
            times.append(state.time)
            snaps.append(state.f.copy())
    return Trajectory(float(gamma), f0.grid, times, snaps, ledger, scheme)


# ---------------------------------------------------------------------------
# trajectory diagnostics
# ---------------------------------------------------------------------------


def entropy_production_bound_check(traj: Trajectory, slack: float = 0.02) -> dict:
    """
    Check the entropy balance along the ledger: the entropy drop between the
    run endpoints matches the time integral of the production, the cumulative
    production stays below the distance to the equilibrium entropy, and the
    entropy never increases beyond a per-step slack.
    """
    if len(traj.ledger) < 2:
        raise ValueError("need at least two ledger entries")
    rows = traj.ledger
    h0 = entropy(traj.snapshots[0])
    h_end = rows[-1].entropy
    # trapezoid of the collision-form D over ledger times (the discretization
    # that matches the scheme's own dissipation)
    d_int = 0.0
    prev_t, prev_d = 0.0, None
    for row in rows:
        if prev_d is None:
            prev_d = row.entropy_production_collision
        d_int += 0.5 * (prev_d + row.entropy_production_collision) * (row.time - prev_t)
        prev_t, prev_d = row.time, row.entropy_production_collision
    drop = h0 - h_end
    rel_err = abs(drop - d_int) / max(abs(drop), abs(d_int), 1e-12)
    eq = maxwellian(traj.grid)
    budget = h0 - entropy(eq)
    increases = 0
    worst_increase = 0.0
    prev_h = h0
    for row in rows:
        inc = row.entropy - prev_h
        if inc > 1e-6:
            increases += 1
        worst_increase = max(worst_increase, inc)
        prev_h = row.entropy
    return {
        "entropy_drop": drop,
        "production_integral": d_int,
        "balance_rel_err": rel_err,
        "balance_ok": rel_err <= slack or abs(drop) < 1e-10,
        "production_budget": budget,
        "budget_ok": d_int <= budget + slack * max(abs(budget), 1.0),
        "entropy_increases": increases,
        "worst_increase": worst_increase,
    }


def weak_form_residual(
    traj: Trajectory,
    trunc: TruncationFn,
    t1: float,
    t2: float,
    eta: ScalarField | None = None,
    pairing: str = "discrete",
) -> float:
    """
    Residual of the weak formulation between two snapshot times, scaled by the
    larger side: |[int eta^2 phi(f)] + int int (A grad f - f b, grad(eta^2 phi'(f)))|.

    ``pairing='discrete'`` evaluates the flux pairing through the discrete
    divergence operator (its exact summation by parts), leaving a pure
    time-quadrature residual; ``'centered'`` quadratures the displayed
    integrand with centered node gradients.
    """
    if t1 == t2:
        return 0.0
    if t2 < t1:
        t1, t2 = t2, t1
    grid = traj.grid
    if eta is None:
        eta = smoothstep_cutoff(grid, 0.55 * grid.half_extent, 0.8 * grid.half_extent)
    eta2 = eta.values**2
    sel = [(t, s) for t, s in zip(traj.times, traj.snapshots) if t1 - 1e-12 <= t <= t2 + 1e-12]
    if len(sel) < 2 or abs(sel[0][0] - t1) > 1e-10 or abs(sel[-1][0] - t2) > 1e-10:
        raise LedgerTimeError(f"[{t1}, {t2}] are not snapshot times of this trajectory")
    vol = grid.spacing**grid.dim
    mref = reference_gaussian(traj.snapshots[0])

    def boundary_term(snap):
        return float(np.sum(eta2 * trunc.phi(snap.values))) * vol

    def flux_pairing(snap):
        b = build_coefficients(snap, traj.gamma)
        test = eta2 * trunc.phi1(snap.values)
        if pairing == "discrete":
            split = make_split_operator(b, mref)
            return -float(np.sum(test * split.q_divergence(snap.values))) * vol
        gf = centered_gradient(snap.values, grid.spacing)
        flux = b.A.apply(gf)
        for ax in range(grid.dim):
            flux[ax] = flux[ax] - snap.values * b.drift[ax].values
        gt = centered_gradient(test, grid.spacing)
        return float(sum(np.sum(flux[ax] * gt[ax]) for ax in range(grid.dim))) * vol

    side1 = boundary_term(sel[-1][1]) - boundary_term(sel[0][1])
    integrand = [(t, flux_pairing(s)) for t, s in sel]
    side2 = 0.0
    for k in range(len(integrand) - 1):
        ta, va = integrand[k]
        tb, vb = integrand[k + 1]
        side2 += 0.5 * (va + vb) * (tb - ta)
    return abs(side1 + side2) / max(abs(side1), abs(side2), 1e-300)


def lp_energy_tracker(
    traj: Trajectory,
    p: float,
    R: float,
    lambda_samples: int = 3,
) -> dict:
    """
    Track sup_t int eta^2 f^p and the cumulative diffusion energy of
    eta f^(p/2) against the coercivity-driven upper bound, reporting the
    margin at every checkpoint (nonnegative when the energy inequality holds).
    """
    d = traj.grid.dim
    if p < 1.0 + 2.0 / d:
        raise ValueError(f"p must be at least 1 + 2/d = {1 + 2/d}, got {p}")
    from .poincare import lambda_f

    grid = traj.grid
    eta = smoothstep_cutoff(grid, 0.75 * R, R)
    eta2 = eta.values**2
    vol = grid.spacing**grid.dim
    grad_eta = centered_gradient(eta.values, grid.spacing)
    grad_eta_sup = max(float(np.max(np.abs(g))) for g in grad_eta)
    d2 = second_derivatives(eta.values**2, grid.spacing)
    d2_sup = max(float(np.max(np.abs(v))) for v in d2.values())
    spt = eta.values > 0
    bundles = [build_coefficients(s, traj.gamma) for s in traj.snapshots]
    lam_idx = np.unique(np.linspace(0, len(bundles) - 1, lambda_samples).astype(int))
    lam = max(lambda_f(bundles[i], epsilon=1.0 / (2.0 * p)) for i in lam_idx)
    cp = p / (4.0 * (p - 1.0))
    Cp = 8.0 * cp * (6.0 + 16.0 * cp)

    mass_p = [float(np.sum(eta2 * s.values**p)) * vol for s in traj.snapshots]
    energy_terms = []
    weight_terms = []
    for b, s in zip(bundles, traj.snapshots):
        psi = eta.values * s.values ** (p / 2.0)
        L = DiffusionOperator(b.A, bc="flux")
        energy_terms.append(L.quadratic_form(psi))
        weight_terms.append(float(np.sum((s.values**p * b.a.values)[spt])) * vol)

    times = traj.times
    rows = []
    t0, t_end = times[0], times[-1]
    for k in range(1, len(times) - 1):
        t2 = times[k]
        sup_term = max(mass_p[k:])
        energy_int = float(np.trapezoid(energy_terms[k:], times[k:]))
        lhs = sup_term + (p - 1.0) / p * energy_int
        massp_int = float(np.trapezoid(mass_p, times))
        weight_int = float(np.trapezoid(weight_terms, times))
        rhs = (1.0 / max(t2 - t0, 1e-12) + 0.5 * p * lam) * massp_int + Cp * (
            grad_eta_sup**2 + d2_sup
        ) * weight_int
        rows.append(
            {
                "t": t2,
                "sup_mass_p": sup_term,
                "energy_integral": energy_int,
                "lhs": lhs,
                "rhs": rhs,
                "margin": rhs - lhs,
            }
        )
    return {
        "p": p,
        "R": R,
        "lambda": lam,
        "constant": Cp,
        "grad_eta_sup": grad_eta_sup,
        "d2_eta2_sup": d2_sup,
        "rows": rows,
    }


def krieger_strain_rhs(f: ScalarField, alpha: float) -> ScalarField:
    """
    Isotropic model right-hand side a_f Laplacian(f) + alpha f^2 on d = 3,
    with a_f the Newtonian potential of f.
    """
    if f.grid.dim != 3:
        raise GridError("the isotropic model is defined for d = 3")
    if not 0.0 <= alpha <= 1.0:
        raise GammaRangeError(f"alpha must lie in [0, 1], got {alpha}")
    af = a_field(f, -3.0)
    d2 = second_derivatives(f.values, f.grid.spacing)
    lap = sum(d2[(i, i)] for i in range(3))
    return ScalarField(f.grid, af.values * lap + alpha * f.values**2)
