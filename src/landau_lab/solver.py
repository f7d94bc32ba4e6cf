"""
Time integration of the homogeneous collision dynamics df/dt = Q(f, f) in
the split divergence form, with a conservation/entropy ledger.

``simulate`` owns the run: it builds the reference Gaussian of the initial
data once (its cell weight, temperature and centred velocities with it),
and at every step one coefficient bundle and one split operator, which the
ledger row and the step both read; nothing below ``simulate`` rebuilds
either.  The bundle is one coefficient pass per state: A, h and the drift
come from one ``fft_convolve`` call (one forward transform of f for gamma
< 0, one moment pass at gamma = 0).  The stepper freezes the nonlocal
coefficients at the step start, treats diffusion implicitly and the drift
explicitly.  The diffusion operator S is assembled once per step by
``diffusion_matrix``, its 13-point stencil written straight into diagonal
storage, and the split operator keeps only that matrix.  The implicit
system T = diag(M) - dt S is never stored: it is solved in two
precisions, an outer refinement loop keeping the residual
rhs - (M u - dt S u) in float64 and stopping on it, and each of its passes
running conjugate gradients in float32 on the Jacobi-scaled system
diag(w) T diag(w), w = diag(T)^(-1/2), which ``krylov_matrix`` builds once
per step from the diagonals of S.  The scaling is what makes float32 usable:
T's diagonal follows the reference Gaussian down below float32's range,
while the scaled matrix has a unit diagonal.  A float32 pass that does not
lower the float64 residual, as on large steps, hands the remaining passes
to the scaled system built in float64.  Each step reports the CG
iterations, the outer passes and the final float64 residual.  Zero flux
through the truncation boundary keeps the lattice mass constant to solver
tolerance, and negative nodes are clipped to zero with the clipped mass
logged, never silently renormalized.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .coefficients import CoefficientBundle, _build_bundle
from .errors import GridError, IterationError, LandauLabError, NonNegativityError
from .grid import ScalarField, VelocityGrid, moments
from .operators import (
    boundary_drift_flux,
    cell_corner_geomean,
    diffusion_matrix,
    dot,
    drift_divergence,
    energy_form,
    krylov_matrix,
)


CG_TOL = 1e-10  # relative float64 residual at which the implicit solve stops
INNER_TOL = 1e-3  # relative residual at which each refinement pass stops
CG_MAXITER = 4000  # CG iterations of all refinement passes of one solve together
MASS_DRIFT_TOL = 1e-5  # relative ledger mass drift at which a run aborts
# glibc's mallopt parameters (malloc.h) and the values a run pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_MMAP_BYTES = 32 << 20  # the ceiling of glibc's own dynamic mmap threshold
_HEAP_TRIM_BYTES = 64 << 20


class ConservationError(LandauLabError, RuntimeError):
    """Ledger mass drift exceeded ``MASS_DRIFT_TOL``; carries the run's clipping record."""

    def __init__(self, message: str, clipped_mass: float, negative_nodes: int):
        super().__init__(message)
        self.clipped_mass = clipped_mass  # mass added by clipping, summed over the run
        self.negative_nodes = negative_nodes  # most nodes clipped in one step


# ---------------------------------------------------------------------------
# ledger, trajectory
# ---------------------------------------------------------------------------


@dataclass
class LedgerRow:
    """One ledger line.  Its CSV columns are the fields, in field order."""

    step: int
    time: float
    dt: float
    mass: float
    momentum_0: float
    momentum_1: float
    momentum_2: float
    energy: float
    entropy: float
    entropy_production: float
    entropy_production_collision: float
    boundary_flux_leak: float
    clipped_mass: float
    negative_nodes: int
    h_max: float

    def as_list(self) -> list:
        return [getattr(self, fld.name) for fld in dataclasses.fields(self)]

    @classmethod
    def header(cls) -> list[str]:
        return [fld.name for fld in dataclasses.fields(cls)]

    @classmethod
    def from_csv(cls, record: dict[str, str]) -> "LedgerRow":
        """Inverse of ``as_list`` for one ``csv.DictReader`` record of a ``header()`` file."""
        return cls(
            **{fld.name: (int if fld.type == "int" else float)(record[fld.name]) for fld in dataclasses.fields(cls)}
        )


@dataclass
class StepStats:
    """
    What a step did besides advancing f: its size, the drift flux out of the
    box, the clipping, and the implicit solve's CG iteration count,
    final float64 relative residual and number of refinement passes.
    """

    dt: float
    leak: float
    clipped_mass: float
    negative_nodes: int
    iterations: int
    residual: float
    passes: int


@dataclass
class Trajectory:
    """Snapshots plus the per-step ledger of one run."""

    gamma: float
    grid: VelocityGrid
    times: list[float]
    snapshots: list[ScalarField]
    ledger: list[LedgerRow]

    @property
    def final(self) -> ScalarField:
        return self.snapshots[-1]


@functools.cache
def _pin_heap() -> bool:
    """
    Pin glibc's mmap and trim thresholds for the rest of the process; returns
    whether the C library took them.  A run frees and re-allocates its node
    arrays and diagonal storage at every step.  Left to adjust itself, glibc
    raises both thresholds with the largest mapped block freed so far, so
    whether the freed heap top goes back to the system at a step boundary, to
    be faulted in again by the next step, depends on what the process
    allocated before the run: one relax run (N=32, gamma=0, t_final=1)
    faulted 5.0k, 5.9k or 13.6k times, by process, where the thresholds
    were left alone.  Pinned, blocks below 32 MiB come from the heap and at
    most 64 MiB of free heap top is kept, so a repeated run faults only where
    its heap grows.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES) and mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES))


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


def entropy_production(split: SplitOperator, method: str = "gradient") -> float:
    """
    Entropy production D(f) of the split's density.  ``gradient`` evaluates
    the displayed integrand 4 (A grad sqrt f, grad sqrt f) - f h with
    centered gradients (its discretization error does not vanish at the
    sampled equilibrium); ``collision`` evaluates the equal expression
    -int Q(f,f) log f with the discrete collision operator, which is exactly
    zero at the discrete steady state.
    """
    bundle = split.bundle
    f = bundle.f
    vol = f.grid.spacing**f.grid.dim
    if method == "gradient":
        root = np.sqrt(np.maximum(f.values, 0.0))
        quad = 4.0 * energy_form(bundle.A, root)
        reaction = float(np.sum(f.values * bundle.h.values)) * vol
        return quad - reaction
    if method == "collision":
        q = collision_operator(split).values
        pos = f.values > 0
        return -float(np.sum(q[pos] * np.log(f.values[pos]))) * vol
    raise ValueError(f"unknown method {method!r}")


@dataclass
class Reference:
    """
    The reference Gaussian M of a run and what every split operator of the
    run reads from it: its corner-geometric cell weight, and its temperature
    and centred velocities taken from the discrete moments of M itself.
    """

    gaussian: ScalarField
    cell_weight: np.ndarray
    temperature: float
    centred: list[np.ndarray]


def reference_gaussian(f: ScalarField) -> Reference:
    """Reference on the Gaussian sharing the discrete mass, mean, and energy of ``f`` (strictly positive)."""
    grid = f.grid
    mass, mom, ener = moments(f)
    if mass <= 0:
        raise NonNegativityError("reference state of a massless density")
    mean = mom / mass
    T = (ener / mass - float(np.dot(mean, mean))) / grid.dim
    T = max(T, 1e-12)
    r2 = np.zeros(grid.shape)
    for ax, c in enumerate(grid.coords()):
        r2 = r2 + (c - mean[ax]) ** 2
    vals = mass * (2.0 * np.pi * T) ** (-grid.dim / 2.0) * np.exp(-r2 / (2.0 * T))
    # keep strictly positive: the split form divides by this field
    M = ScalarField(grid, np.maximum(vals, 1e-290))
    mass, mom, ener = moments(M)
    mean = mom / mass
    T = (ener / mass - float(np.dot(mean, mean))) / grid.dim
    centred = [c - mean[ax] for ax, c in enumerate(grid.coords())]  # broadcastable axes, not N^3 arrays
    return Reference(M, cell_corner_geomean(M.values), T, centred)


@dataclass
class SplitOperator:
    """
    Equilibrium-compatible realization of the divergence form at the
    bundle's density f.  With M the run's reference Gaussian, the exact
    rewriting

        A grad f - f b  =  A M grad(f / M)  -  f (b - A grad log M)

    is discretized termwise: the first flux through the symmetric weighted
    form (vanishing identically at f = M, so the sampled equilibrium is a
    discrete steady state), the bounded remainder drift through conservative
    face fluxes.  ``matrix`` is the weighted diffusion operator assembled
    once in diagonal storage; the ledger reads it and the implicit solve
    builds its Krylov system from it.  ``drift_div`` is div(f b_rest) at the
    bundle's f, shared by the ledger's Q and the step's explicit drift.
    """

    bundle: CoefficientBundle
    mref: ScalarField
    drift_rest: list[np.ndarray]
    matrix: sparse.dia_matrix
    drift_div: np.ndarray


def make_split_operator(bundle: CoefficientBundle, ref: Reference) -> SplitOperator:
    grid = bundle.grid
    Av = bundle.A.apply(ref.centred)
    drift_rest = [bundle.drift[ax].values + Av[ax] / ref.temperature for ax in range(grid.dim)]
    drift_div = drift_divergence(bundle.f.values, drift_rest, grid.spacing)
    S = diffusion_matrix(bundle.A, bc="flux", cell_weight=ref.cell_weight)
    return SplitOperator(bundle, ref.gaussian, drift_rest, S, drift_div)


def collision_operator(split: SplitOperator) -> ScalarField:
    """Q(f, f) of the split's density in the split divergence form, with symmetric fluxes around the reference."""
    f = split.bundle.f
    u = f.values / split.mref.values
    return ScalarField(f.grid, (split.matrix @ u.ravel()).reshape(f.grid.shape) - split.drift_div)


def _ledger_row(k: int, time: float, stats: StepStats, split: SplitOperator) -> LedgerRow:
    """Row describing the split's density at step ``k`` and the step into it."""
    f = split.bundle.f
    mass, mom, ener = moments(f)
    return LedgerRow(
        step=k,
        time=time,
        dt=stats.dt,
        mass=mass,
        momentum_0=float(mom[0]),
        momentum_1=float(mom[1]),
        momentum_2=float(mom[2]),
        energy=ener,
        entropy=entropy(f),
        entropy_production=entropy_production(split),
        entropy_production_collision=entropy_production(split, method="collision"),
        boundary_flux_leak=stats.leak,
        clipped_mass=stats.clipped_mass,
        negative_nodes=stats.negative_nodes,
        h_max=float(np.max(split.bundle.h.values)),
    )


def _cg(K: sparse.dia_matrix, b: np.ndarray, maxiter: int) -> tuple[np.ndarray, int]:
    """
    Plain conjugate gradients on the system K y = b, ||b|| = 1, from y = 0
    until ||b - K y|| <= INNER_TOL or ``maxiter`` iterations.  Returns y and
    the iteration count.  The reductions run in einsum, the vector updates in
    place and in the precision of ``b``.
    """
    y = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    scaled = np.empty_like(b)
    rr = dot(r, r)
    iterations = 0
    while rr > INNER_TOL**2 and iterations < maxiter:
        q = K @ p
        alpha = rr / dot(p, q)
        y += np.multiply(alpha, p, out=scaled)
        r -= np.multiply(alpha, q, out=scaled)
        rr, rr_prev = dot(r, r), rr
        p *= rr / rr_prev
        p += r
        iterations += 1
    return y, iterations


def _imex_solve(split: SplitOperator, dt: float, rhs: np.ndarray) -> tuple[np.ndarray, int, float, int]:
    """
    Solve T u = rhs, T = diag(M) - dt S, for u = f/M by iterative refinement
    in two precisions, from u = rhs/M until ||r|| <= CG_TOL ||rhs|| for the
    float64 residual r = rhs - (M u - dt S u).  T is never stored: the
    residual multiplies by S, the split's matrix.

    Each outer pass solves the Jacobi-scaled correction system
    K y = (w r)/||w r||, with w = diag(T)^(-1/2) and K = diag(w) T diag(w)
    built by ``krylov_matrix`` in float32, by ``_cg`` and adds ||w r|| w y to
    u.  K has a unit diagonal and entries bounded by 1, so the float32 copy
    holds the system although diag(T) itself lies below float32's range in
    the tail of a wide box (3e-40 at the corners of an N=32, L=8 box at
    dt=0.01).  On a large step float32 rounding can hold a pass back
    (gamma=-1, N=24, L=8, dt=0.4: the second pass raises ||r||); the first
    float32 pass that does not lower ||r|| switches the remaining passes to
    K built in float64, through the same CG.  ``CG_MAXITER`` caps the CG
    iterations of all passes together; the cap, or a float64 pass that does
    not lower ||r||, raises ``IterationError`` with the float64 residual and
    the iterate.  Returns f = M u, the CG iteration count, the relative
    residual the stop rule measured and the number of passes.
    """
    S = split.matrix
    mref = split.mref.values.ravel()
    w = 1.0 / np.sqrt(mref - dt * S.diagonal())
    K = krylov_matrix(S, mref, -dt, w, np.float32)
    b = rhs.ravel()
    bnorm = math.sqrt(dot(b, b))
    x = b / mref
    r = b - (mref * x - dt * (S @ x))
    rnorm = math.sqrt(dot(r, r))
    iterations = passes = 0
    while not rnorm <= CG_TOL * bnorm:  # a nan residual enters, then fails as a stall
        previous = rnorm
        if iterations < CG_MAXITER:
            s = w * r
            snorm = math.sqrt(dot(s, s))
            y, count = _cg(K, (s / snorm).astype(K.dtype), CG_MAXITER - iterations)
            iterations += count
            passes += 1
            x += snorm * (w * y)
            r = b - (mref * x - dt * (S @ x))
            rnorm = math.sqrt(dot(r, r))
        if not rnorm < previous:
            if K.dtype == np.float32 and iterations < CG_MAXITER:
                K = krylov_matrix(S, mref, -dt, w)
                continue
            res = rnorm / bnorm
            raise IterationError(
                f"implicit diffusion solve failed after {iterations} iterations (relative residual {res:.3g})",
                residual=res,
                iterate=x.reshape(rhs.shape),
            )
    return (mref * x).reshape(rhs.shape), iterations, rnorm / bnorm if bnorm else 0.0, passes


def step(split: SplitOperator, dt: float) -> tuple[ScalarField, StepStats]:
    """
    Advance the split's density by one step: implicit diffusion with the
    split's frozen coefficients and explicit drift.  Negative nodes are
    clipped and counted in the returned stats, never renormalized; the stats
    also carry the solve's telemetry.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    grid = split.bundle.grid
    f = split.bundle.f.values
    leak = boundary_drift_flux(f, split.drift_rest, grid.spacing) * dt
    rhs = f - dt * split.drift_div
    fnew, iterations, residual, passes = _imex_solve(split, dt, rhs)
    neg = fnew < 0
    nneg = int(np.count_nonzero(neg))
    # summing the negated values keeps an unclipped step at +0.0, not -0.0
    clipped = float(np.sum(-fnew[neg])) * grid.spacing**grid.dim
    if nneg:
        fnew = np.where(neg, 0.0, fnew)
    return ScalarField(grid, fnew), StepStats(dt, leak, clipped, nneg, iterations, residual, passes)


def auto_dt(split: SplitOperator, dt_max: float = math.inf) -> float:
    """Step-size policy: reaction cap 0.1/max(h) and CFL number 0.5 on the explicit drift."""
    hmax = float(np.max(split.bundle.h.values))
    bmax = max(float(np.max(np.abs(b))) for b in split.drift_rest)
    dt = dt_max
    if hmax > 0:
        dt = min(dt, 0.1 / hmax)
    if bmax > 0:
        dt = min(dt, 0.5 * split.bundle.grid.spacing / bmax)
    if not math.isfinite(dt):
        raise GridError("cannot choose a step size for vanishing coefficients")
    return dt


def simulate(
    f0: ScalarField,
    gamma: float,
    t_final: float,
    dt_max: float = math.inf,
    dt_fixed: float | None = None,
    t_ramp: float | None = None,
    snapshot_stride: int = 1,
) -> Trajectory:
    """
    March to t_final recording snapshots every ``snapshot_stride`` steps.
    Each state's coefficients, the drift included, come from one
    ``fft_convolve`` call, and its split operator reads them all.
    ``t_ramp`` bounds dt by ramp * (t + first step) so early times stay
    resolved.  Aborts when the ledger mass drifts beyond ``MASS_DRIFT_TOL``,
    reporting the mass clipping has added so far and the most nodes clipped
    in a step.
    t_final must be finite, step sizes positive and the stride at least 1,
    else the loop would never end.
    """
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final!r}")
    for name, value in (("dt_max", dt_max), ("dt_fixed", dt_fixed), ("t_ramp", t_ramp)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride!r}")
    f0.require_density("initial data")
    _pin_heap()
    f, time = f0.copy(), 0.0
    times = [time]
    snaps = [f]
    mass0, _, _ = moments(f0)
    ref = reference_gaussian(f0)  # moments are conserved, so one reference serves the run
    stats = StepStats(0.0, 0.0, 0.0, 0, 0, 0.0, 0)  # the step into the current state
    ledger: list[LedgerRow] = []
    clipped_total, negatives_max = 0.0, 0
    k = 0
    split = make_split_operator(_build_bundle(f, gamma, drift=True), ref)
    while True:
        row = _ledger_row(k, time, stats, split)
        ledger.append(row)
        clipped_total += row.clipped_mass
        negatives_max = max(negatives_max, row.negative_nodes)
        if abs(row.mass - mass0) > MASS_DRIFT_TOL * max(mass0, 1e-300):
            raise ConservationError(
                f"mass drifted to {row.mass} from {mass0} at t={time}; clipping added "
                f"{clipped_total:.3g} of mass, with at most {negatives_max} negative nodes in a step",
                clipped_mass=clipped_total,
                negative_nodes=negatives_max,
            )
        if time >= t_final - 1e-14:
            break
        if dt_fixed is not None:
            dt = dt_fixed
        else:
            dt = auto_dt(split, dt_max=dt_max)
            if t_ramp is not None:
                dt = min(dt, t_ramp * max(time, dt / 4.0))
        dt = min(dt, t_final - time)
        f, stats = step(split, dt)
        # hold this step's matrix until the next one is assembled, so the two same-size
        # matrix blocks alternate.  Released with its operator, its block is split by the
        # next step's temporaries and the heap grows (N=32: a 4-5 MB higher peak)
        held = split.matrix
        del split
        split = make_split_operator(_build_bundle(f, gamma, drift=True), ref)
        del held
        time += dt
        k += 1
        if k % snapshot_stride == 0 or time >= t_final - 1e-14:
            times.append(time)
            snaps.append(f)
    return Trajectory(float(gamma), f0.grid, times, snaps, ledger)
