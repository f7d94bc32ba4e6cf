"""
Nonlocal coefficient fields of the collision operator and their closed-form
test oracles.

For a density f on R^d, d = 3, and exponent gamma in [-d, 0] the diffusion
matrix is

    A(v) = C_A(d, gamma) * int |v-w|^(2+gamma) Pi(v-w) f(w) dw,

with Pi(z) the projection onto the orthogonal complement of z.  Everything
else is derived from A by exact kernel identities, so a single constant pins
the whole bundle:

    a      = tr A                 (kernel (d-1) C_A |z|^(2+gamma))
    b      = div A                (kernel -(d-1) C_A z |z|^gamma), the drift
    h      = -div div A           (kernel (d-1)(d+gamma) C_A |z|^gamma)
    grad a = -(2+gamma) b         (kernel (2+gamma)(d-1) C_A z |z|^gamma)

C_A is normalized so that h is the Riesz potential of order d + gamma of f
(h = f in the limit gamma = -d, and h = mass for gamma = 0 where the Riesz
constant degenerates).  With this convention the entropy production
4 (A grad sqrt f, grad sqrt f) - f h integrates -Q(f,f) log f exactly, and
the Laplacian of the trace satisfies

    -Delta a = -(2+gamma) * h,

the factor -(2+gamma) being forced: no positive multiple of f * |z|^(2+gamma)
has -Delta a = h for gamma > -2 (the sign of Delta |z|^(2+gamma) flips at
gamma = -2), while at gamma = -d the distributional Laplacian of the kernel
gives the factor d-2, which is again -(2+gamma).

At gamma = 0 (Maxwell molecules) every kernel is a polynomial of degree at
most 2 in the offset, so each convolution is computed in closed form from the
mass, mean and covariance of f, with no transform.  For gamma < 0 the
convolutions are linear FFT convolutions on a box of P = 2 next_fast_len(N)
points per axis, the smallest even fast length >= 2N-1; the offset-zero cell
of each kernel carries its analytic average over the cell, reducing the
matrix-kernel cell averages to the scalar one by parity.  Each kernel table is
wrapped, offset k at index k mod P, so it is exactly even or odd in every
axis (A_ij, i != j, is odd in axes i and j, D_i in axis i, the rest are even),
and its spectrum is real times (-i) per odd axis, with the same parities.  A
plan stores only the parity octant [:m, :m, :m], m = P/2 + 1, of that real
factor, computed from the table's own octant of offsets 0..m-1 (the sampled
offsets 0..N-1, then zeros) by one real transform per axis: a DCT-I along an
even axis, a DST-I of the inner rows 1..m-2 along an odd one (Martucci, IEEE
Trans. Signal Process. 42, 1994).  No P^3 table and no complex spectrum is
built.  The kernels are isotropic, so a plan stores one octant per
axis-permutation class, A00, A01, D0 and h (and a when asked), and serves
A11, A22, A02, A12, D1 and D2 as axis transposes of them, whose odd axes move
with the transpose.  A bundle's build stores A00, A01 and h, and the time
stepper's build, or any bundle's first drift read, adds D0.  The four
octants of an N=64 run take 8.4 MiB, and the 1 GiB budget first refuses a
gamma < 0 bundle at N=322.  f fills [0, N)^3 of
the box, so the forward transform runs only over its nonzero lines, and each
inverse transform keeps only the N output lines it needs on every axis: the
result is [0, N)^3.  The spectrum of f is the only buffer of the box's size.
Each kind multiplies it by the octant, unfolded through reversed views and
negated where an odd axis flips, a slab of a few axis-1 columns at a time, and
each slab's axis-0 inverse keeps its N rows in one buffer shared by all kinds.
The axis-1 inverse runs in place there, and the axis-2 inverse writes a few
planes at a time into the kind's row of one (kinds, N, N, N) block.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import EigenSolveError, GammaRangeError, GridError, MemoryCapError, NonNegativityError
from .grid import ScalarField, VelocityGrid
from .weights import doubling_constant

_DEF_WORKERS = 1


def set_fft_workers(n: int):
    """Set the worker count passed to scipy.fft (thread parallelism); n must be >= 1."""
    global _DEF_WORKERS
    if n < 1:
        raise ValueError(f"the FFT worker count must be >= 1, got {n}")
    _DEF_WORKERS = int(n)


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not -3 <= g <= 0:
        raise GammaRangeError(f"gamma must lie in [-3, 0], got {g}")
    return g


def kernel_constants(gamma: float) -> dict[str, float]:
    """
    Normalization constants of the coefficient bundle at gamma, in d = 3.

    Returns C_A (matrix kernel), c_a (trace kernel), c_h (reaction kernel),
    c_drift and c_grad_a (vector kernels z|z|^gamma).
    """
    g = _check_gamma(gamma)
    if g == -3:
        C_A = 1.0 / (8.0 * math.pi)  # 1 / ((d-1) |S^2|), |S^2| = 4 pi
        c_h = 1.0  # h is f itself
    elif g == 0.0:
        C_A = 1.0 / 6
        c_h = 1.0  # h is the mass
    else:
        # Riesz constant of order s = 3 + gamma: (-Delta)^(-s/2) f = c_h (f conv |z|^gamma)
        s = 3 + g
        if not s < 3:  # 3 + gamma rounds to 3 for gamma within 2.3e-16 of 0
            raise GammaRangeError(
                f"gamma = {g} is too close to 0: 3 + gamma rounds to 3, where the Riesz constant diverges"
            )
        c_h = math.gamma((3 - s) / 2.0) / (2.0**s * math.pi**1.5 * math.gamma(s / 2.0))
        C_A = c_h / (2 * s)
    c_a = 2 * C_A
    return {
        "C_A": C_A,
        "c_a": c_a,
        "c_h": c_h,
        "c_drift": -c_a,
        "c_grad_a": (2.0 + g) * c_a,
        "laplace_factor": -(2.0 + g),  # -Delta a = laplace_factor * h
    }


# ---------------------------------------------------------------------------
# singular-cell averages
# ---------------------------------------------------------------------------

def unit_cell_power_average(p: float) -> float:
    """
    Average of |u|^p over the unit cell [-1/2, 1/2]^3 (exact face reduction:
    the cell integral equals 3/(p+3) times the integral of (|x|^2 + 1/4)^(p/2)
    over a face), requiring p + 3 > 0.
    """
    if p + 3 <= 0:
        raise ValueError(f"|u|^{p} is not integrable over the cell in d=3")
    if p == 0:
        return 1.0
    nodes, wts = np.polynomial.legendre.leggauss(64)
    x = 0.5 * nodes  # map to [-1/2, 1/2]
    w = 0.5 * wts
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    face = float(np.sum(ww * (xx**2 + yy**2 + 0.25) ** (p / 2.0)))
    return 3 / (p + 3) * face


# ---------------------------------------------------------------------------
# kernel tables on the offset lattice
# ---------------------------------------------------------------------------

#: upper-triangle index pairs of a symmetric 3 x 3 matrix, in storage order
COMPONENT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
#: storage row of component (i, j), in either index order
COMPONENT_ROW = {(a, b): k for k, (i, j) in enumerate(COMPONENT_PAIRS) for a, b in ((i, j), (j, i))}


def kernel_point_values(
    spacing: float,
    gamma: float,
    kind: str,
    coords: tuple[np.ndarray, ...],
    r2: np.ndarray,
) -> np.ndarray:
    """
    The kernel ``kind`` at offset vectors with components ``coords`` (d arrays
    broadcasting against ``r2``, the squared offset lengths).  ``kind`` is one
    of 'h' (|z|^gamma), 'a' (|z|^(2+gamma)), 'Aij' (projection matrix
    component) or 'Di' (vector component z_i |z|^gamma).  The offset-zero
    entry carries the analytic cell average (zero for odd kernels,
    parity-reduced for 'Aij').  Sampled on the offset lattice this is the FFT
    kernel table; at node differences it is the direct-summation oracle.
    """
    d = len(coords)
    zero = r2 == 0.0
    r2s = np.where(zero, 1.0, r2)
    smooth = gamma == 0.0  # polynomial kernels: midpoint value is the consistent choice
    if kind == "h":
        out = r2s ** (gamma / 2.0)
        fill = 1.0 if smooth else spacing**gamma * unit_cell_power_average(gamma)
    elif kind == "a":
        out = r2s ** ((2.0 + gamma) / 2.0)
        fill = 0.0 if smooth else spacing ** (2.0 + gamma) * unit_cell_power_average(2.0 + gamma)
    elif kind.startswith("A"):
        i, j = int(kind[1]), int(kind[2])
        rg = r2s ** (gamma / 2.0)
        if i == j:
            out = rg * (r2s - coords[i] ** 2)
            # cell average of |z|^(2+g) Pi_ii: odd cross moments vanish and
            # z_i^2 averages to |z|^2 / d
            fill = (
                0.0
                if smooth
                else (1.0 - 1.0 / d)
                * spacing ** (2.0 + gamma)
                * unit_cell_power_average(2.0 + gamma)
            )
        else:
            out = -rg * (coords[i] * coords[j])
            fill = 0.0
    elif kind.startswith("D"):
        i = int(kind[1])
        out = r2s ** (gamma / 2.0) * coords[i]
        fill = 0.0
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    out[zero] = fill  # out is a fresh array in every branch
    return out


# ---------------------------------------------------------------------------
# FFT convolution engine with a byte-bounded plan cache
# ---------------------------------------------------------------------------

_PLAN_BYTE_BUDGET = 2**30  # bytes of kernel spectra the plan cache may hold


def _pad(n: int) -> int:
    """FFT box side of the plan for an N = n lattice: the smallest even fast length >= 2n - 1."""
    return 2 * sfft.next_fast_len(n)


#: the six kinds of the diffusion matrix A, in ``COMPONENT_PAIRS`` order
_A_KINDS = [f"A{i}{j}" for i, j in COMPONENT_PAIRS]
#: the three kinds of the drift b, read apart from the build
_DRIFT_KINDS = [f"D{i}" for i in range(3)]


def _built_kinds(gamma: float) -> list[str]:
    """The kinds ``build_coefficients`` convolves: six A_ij, and h unless gamma = -3."""
    return _A_KINDS if gamma == -3 else _A_KINDS + ["h"]


#: kinds served as an axis transpose of their class representative's spectrum.
#: The kernels are isotropic, so permuting the offset axes permutes the
#: components: A11(z) = A00(z1, z0, z2), A12(z) = A01(z2, z1, z0), and so on.
_TRANSPOSED = {
    "A11": ("A00", (1, 0, 2)),
    "A22": ("A00", (2, 1, 0)),
    "A02": ("A01", (0, 2, 1)),
    "A12": ("A01", (2, 1, 0)),
    "D1": ("D0", (1, 0, 2)),
    "D2": ("D0", (2, 1, 0)),
}


def _stored_kinds(kinds) -> set[str]:
    """The kinds a plan stores to serve ``kinds``: the class representative of each."""
    return {_TRANSPOSED[k][0] if k in _TRANSPOSED else k for k in kinds}


def _spectra_bytes(n: int, n_kinds: int) -> int:
    """Bytes of ``n_kinds`` cached spectra on an N = n lattice: a (P/2 + 1)^3 float64 octant each."""
    return (_pad(n) // 2 + 1) ** 3 * 8 * n_kinds


def plan_budget_problem(n: int, gamma: float, kinds=None) -> str | None:
    """
    Why the spectra a plan stores to serve ``kinds`` (default: what a run
    reads of one bundle, the built kinds and the drift) on an N = n lattice
    would overflow the plan cache budget, or None if they fit.  gamma = 0
    builds no plan.
    """
    if gamma == 0:
        return None
    if kinds is None:
        kinds = _built_kinds(gamma) + _DRIFT_KINDS
    need = _spectra_bytes(n, len(_stored_kinds(kinds)))
    if need <= _PLAN_BYTE_BUDGET:
        return None
    return (
        f"kernel spectra for N={n}, gamma={gamma} need {need} bytes, "
        f"over the plan cache budget of {_PLAN_BYTE_BUDGET} bytes"
    )


def _odd_axes(kind: str) -> tuple[int, ...]:
    """Axes in which the wrapped table of ``kind`` is odd: i and j for A_ij with i != j, i for D_i."""
    if kind.startswith("D"):
        return (int(kind[1]),)
    if kind.startswith("A") and kind[1] != kind[2]:
        return (int(kind[1]), int(kind[2]))
    return ()


class _ConvPlan:
    def __init__(self, grid: VelocityGrid, gamma: float):
        self.grid = grid
        self.gamma = gamma
        self.pad = _pad(grid.points_per_axis)
        self.kernel_ffts: dict[str, np.ndarray] = {}

    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.kernel_ffts.values())

    def kernel_fft(self, kind: str) -> np.ndarray:
        """
        Parity octant [:m, :m, :m], m = P//2 + 1, of the real part (even
        kernels and A_ij) or imaginary part ('Di') of the wrapped table's
        spectrum: a DCT-I of the table's own octant along each even axis, a
        DST-I of its inner rows 1..m-2 along each odd axis (rows 0 and m-1
        are zero there), negated if any axis is odd, since each odd axis
        contributes a factor -i.  Only class representatives are stored; the
        other kinds are transposed views of them.
        """
        if kind in _TRANSPOSED:
            rep, axes = _TRANSPOSED[kind]
            return self.kernel_fft(rep).transpose(axes)
        if kind not in self.kernel_ffts:
            n, m = self.grid.points_per_axis, self.pad // 2 + 1
            z1 = np.arange(n) * self.grid.spacing  # the octant of offsets 0..n-1
            coords = np.ix_(z1, z1, z1)
            r2 = sum(c**2 for c in coords)
            spec = np.zeros((m, m, m))
            spec[:n, :n, :n] = kernel_point_values(self.grid.spacing, self.gamma, kind, coords, r2)
            del r2  # one table-sized array fewer while the transforms run
            odd = _odd_axes(kind)
            for ax in range(3):
                transform, rows = (sfft.dst, slice(1, m - 1)) if ax in odd else (sfft.dct, slice(None))
                sel = (slice(None),) * ax + (rows,)
                # in place where scipy allows it: numpy skips assigning a view to itself
                spec[sel] = transform(spec[sel], type=1, axis=ax, overwrite_x=True, workers=_DEF_WORKERS)
            if odd:
                np.negative(spec, out=spec)  # (-i)^2 = -1 for A_ij; the D_i store the imaginary part
            self.kernel_ffts[kind] = spec
        return self.kernel_ffts[kind]


_plan_cache: "OrderedDict[tuple, _ConvPlan]" = OrderedDict()


def _get_plan(grid: VelocityGrid, gamma: float, kinds: list[str]) -> _ConvPlan:
    """The (grid, gamma) plan, with least-recently-used plans evicted until its spectra fit."""
    key = (grid.key(), round(gamma, 12))
    plan = _plan_cache.get(key) or _ConvPlan(grid, gamma)
    held = plan.kernel_ffts.keys() | _stored_kinds(kinds)
    problem = plan_budget_problem(grid.points_per_axis, gamma, held)
    if problem:
        raise MemoryCapError(problem)
    need = _spectra_bytes(grid.points_per_axis, len(held))
    _plan_cache.pop(key, None)
    while need + sum(p.nbytes() for p in _plan_cache.values()) > _PLAN_BYTE_BUDGET:
        _plan_cache.popitem(last=False)
    _plan_cache[key] = plan
    return plan


def _moment_convolve(f: ScalarField, kinds: list[str]) -> np.ndarray:
    """
    The gamma = 0 convolutions in closed form.  Every kernel is then a
    polynomial of degree at most 2 in the offset z, sampled exactly (offset
    zero included), so each discrete convolution is fixed by the discrete
    moments of f about a centre u.  With x = v - u, the mass m0, the first
    moment P and the second moments M about u,

        G_ij = sum_w f(w) z_i z_j = m0 x_i x_j - x_i P_j - x_j P_i + M_ij,

    and h = m0, D_i = m0 x_i - P_i, a = tr G, A = tr(G) I - G.  u is the mean
    of |f|: for a density it is the mean, so P vanishes up to roundoff and the
    centred terms are free of the cancellation raw moments suffer at large
    |v|; for any f it lies inside the box.  Every reduction is an einsum,
    never threaded BLAS.
    """
    grid = f.grid
    w = grid.spacing**grid.dim
    axis = grid.axis
    fabs = np.abs(f.values)
    u = []
    for sub in ("ijk->i", "ijk->j", "ijk->k"):
        m = np.einsum(sub, fabs)
        total = float(np.einsum("i->", m))
        u.append(float(np.einsum("i,i->", m, axis)) / total if total else 0.0)
    del fabs
    y = [axis - c for c in u]  # centred node coordinates along each axis
    marg2 = {
        (0, 1): w * np.einsum("ijk->ij", f.values),
        (0, 2): w * np.einsum("ijk->ik", f.values),
        (1, 2): w * np.einsum("ijk->jk", f.values),
    }
    marg = [np.einsum("ij->i", marg2[0, 1]), np.einsum("ij->j", marg2[0, 1]), np.einsum("ij->j", marg2[0, 2])]
    m0 = float(np.einsum("i->", marg[0]))
    P = [float(np.einsum("i,i->", m, yk)) for m, yk in zip(marg, y)]
    M = {(i, i): float(np.einsum("i,i,i->", marg[i], y[i], y[i])) for i in range(3)}
    M.update({(i, j): float(np.einsum("ij,i,j->", m, y[i], y[j])) for (i, j), m in marg2.items()})
    x = [c - uk for c, uk in zip(grid.coords(), u)]  # broadcastable v - u

    @functools.cache
    def G(i, j):  # built only for the kinds asked for: a drift block needs none
        return m0 * x[i] * x[j] - x[i] * P[j] - x[j] * P[i] + M[i, j]

    out = np.empty((len(kinds),) + grid.shape)
    for row, kind in zip(out, kinds):
        if kind == "h":
            val = m0
        elif kind == "a":
            val = G(0, 0) + G(1, 1) + G(2, 2)
        elif kind.startswith("A"):
            i, j = sorted((int(kind[1]), int(kind[2])))
            val = sum(G(k, k) for k in range(3) if k != i) if i == j else -G(i, j)
        elif kind.startswith("D"):
            i = int(kind[1])
            val = m0 * x[i] - P[i]
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
        row[...] = val
    return out


_SLAB = 4  # axis-1 columns per octant product and axis-0 inverse pass
_PLANES = 4  # axis-0 planes per axis-2 inverse pass, and per block of the closed-form eigenvalues


def _unfold(P: int, lo: int, hi: int) -> list[tuple[slice, slice, bool]]:
    """
    (rows of lo..hi-1, octant rows, flipped) for each half of the unfolded
    axis that lo..hi-1 meets: rows m..P-1, m = P/2 + 1, read octant rows
    P-m..1 in reverse.
    """
    m = P // 2 + 1
    parts = []
    if lo < m:
        parts.append((slice(0, min(hi, m) - lo), slice(lo, min(hi, m)), False))
    if hi > m:
        start = max(lo, m)
        parts.append((slice(start - lo, hi - lo), slice(P - start, P - hi, -1), True))
    return parts


def fft_convolve(f: ScalarField, gamma: float, kinds: list[str]) -> np.ndarray:
    """
    Linear convolutions of ``f`` with the requested kernel tables, sharing one
    forward transform, as one (len(kinds), N, N, N) block.  Results include
    the quadrature weight spacing^d but no normalization constant.  At gamma
    = 0 the kernels are polynomials, and the results come in closed form from
    the moments of f, with no plan and no transform.
    """
    if gamma == 0.0:
        return _moment_convolve(f, kinds)
    grid = f.grid
    plan = _get_plan(grid, gamma, kinds)
    n, P = grid.points_per_axis, plan.pad
    m = P // 2 + 1
    # f fills [0, n)^3 of the P^3 box: transform only its nonzero lines
    fhat = sfft.rfft(f.values, P, axis=2, workers=_DEF_WORKERS)
    fhat = sfft.fft(fhat, P, axis=0, workers=_DEF_WORKERS)
    fhat = sfft.fft(fhat, P, axis=1, workers=_DEF_WORKERS)
    w = grid.spacing**grid.dim
    out = np.empty((len(kinds),) + grid.shape)
    # the n output rows of the axis-0 pass, shared by all kinds; the axis-1 pass runs in place
    rows = np.empty((n, P, m), dtype=complex)
    # flat so that the narrower last slab is contiguous too, and transforms in place
    kslab_flat = np.empty(P * _SLAB * m)
    slab_flat = np.empty(P * _SLAB * m, dtype=complex)
    row_halves = _unfold(P, 0, P)
    for k, kind in enumerate(kinds):
        octant = plan.kernel_fft(kind)
        odd = _odd_axes(kind)
        for j0 in range(0, P, _SLAB):
            j1 = min(j0 + _SLAB, P)
            shape = (P, j1 - j0, m)
            kslab = kslab_flat[: math.prod(shape)].reshape(shape)
            for (rows0, oct0, flip0), (cols, oct1, flip1) in itertools.product(row_halves, _unfold(P, j0, j1)):
                if (flip0 and 0 in odd) != (flip1 and 1 in odd):
                    np.negative(octant[oct0, oct1], out=kslab[rows0, cols])
                else:
                    kslab[rows0, cols] = octant[oct0, oct1]
            slab = np.multiply(fhat[:, j0:j1], kslab, out=slab_flat[: kslab.size].reshape(shape))
            rows[:, j0:j1] = sfft.ifft(slab, axis=0, overwrite_x=True, workers=_DEF_WORKERS)[:n]
        sfft.ifft(rows, axis=1, overwrite_x=True, workers=_DEF_WORKERS)
        for i0 in range(0, n, _PLANES):
            block = rows[i0 : i0 + _PLANES, :n]  # keep only the n output lines of each pass
            if kind.startswith("D"):
                block *= 1j  # the D spectra are imaginary: apply the factor i to the pruned lines
            conv = sfft.irfft(block, P, axis=2, workers=_DEF_WORKERS)[:, :, :n]
            np.multiply(conv, w, out=out[k, i0 : i0 + _PLANES])
    return out


def direct_convolve_many(f: ScalarField, gamma: float, kinds: list[str]) -> np.ndarray:
    """
    O(N^(2d)) pairwise summation with the same kernel values as the fast
    path, sharing the offset geometry across kernels, 512 targets at a time.
    Independent oracle for small grids; returns the block ``fft_convolve``
    does.
    """
    grid = f.grid
    pts = np.stack([np.broadcast_to(c, grid.shape).ravel() for c in grid.coords()], axis=-1)
    fv = f.values.ravel()
    out = np.empty((len(kinds), pts.shape[0]))
    for start in range(0, pts.shape[0], 512):
        tgt = pts[start : start + 512]
        z = tgt[:, None, :] - pts[None, :, :]
        r2 = np.einsum("abi,abi->ab", z, z)
        coords = tuple(z[..., i] for i in range(grid.dim))
        for k_idx, kind in enumerate(kinds):
            k = kernel_point_values(grid.spacing, gamma, kind, coords, r2)
            out[k_idx, start : start + 512] = k @ fv
    out *= grid.spacing**grid.dim
    return out.reshape((len(kinds),) + grid.shape)


# ---------------------------------------------------------------------------
# matrix field and eigenvalues
# ---------------------------------------------------------------------------


@dataclass
class MatrixField:
    """Symmetric 3 x 3 matrix per node, stored as the upper triangle in ``COMPONENT_PAIRS`` order."""

    grid: VelocityGrid
    comps: np.ndarray  # shape (6, N, N, N)

    def __post_init__(self):
        if self.comps.shape != (len(COMPONENT_PAIRS),) + self.grid.shape:
            raise GridError("matrix component array has the wrong shape")

    def component(self, i: int, j: int) -> np.ndarray:
        return self.comps[COMPONENT_ROW[i, j]]

    def trace(self) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        for i in range(self.grid.dim):
            out += self.component(i, i)
        return out

    def apply(self, vec: list[np.ndarray]) -> list[np.ndarray]:
        """Matrix-vector product per node with a vector of node arrays."""
        d = self.grid.dim
        return [
            sum(self.component(i, j) * vec[j] for j in range(d)) for i in range(d)
        ]

    def as_dense(self) -> np.ndarray:
        """Dense (..., d, d) array of the node matrices."""
        d = self.grid.dim
        out = np.empty(self.grid.shape + (d, d))
        for i in range(d):
            for j in range(d):
                out[..., i, j] = self.component(i, j)
        return out


def _eig3_sym_minmax(A: MatrixField) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of symmetric 3x3 node matrices, closed form, a few planes at a time."""
    lam_min, lam_max = np.empty(A.grid.shape), np.empty(A.grid.shape)
    for i0 in range(0, A.grid.points_per_axis, _PLANES):
        planes = slice(i0, i0 + _PLANES)
        lam_min[planes], lam_max[planes] = _eig3_block(*A.comps[:, planes])
    return lam_min, lam_max


def _eig3_block(a00, a01, a02, a11, a12, a22) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of the symmetric 3x3 matrices with these upper-triangle entries."""
    p1 = a01**2 + a02**2 + a12**2
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = p > 0
    pinv = np.where(safe, 1.0 / np.where(safe, p, 1.0), 0.0)
    b00, b11, b22 = (a00 - q) * pinv, (a11 - q) * pinv, (a22 - q) * pinv
    b01, b02, b12 = a01 * pinv, a02 * pinv, a12 * pinv
    detb = (
        b00 * (b11 * b22 - b12**2)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam_max = np.where(safe, lam_max, q)
    lam_min = np.where(safe, lam_min, q)
    return lam_min, lam_max


def _require_finite(A: MatrixField) -> None:
    if not np.all(np.isfinite(A.comps)):
        bad = np.argwhere(~np.isfinite(A.comps))[0]
        raise EigenSolveError(
            f"non-finite matrix entry at node {tuple(bad[1:])}", node=tuple(bad[1:])
        )


def eigenvalue_range(A: MatrixField) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) per node, in closed form."""
    _require_finite(A)
    return _eig3_sym_minmax(A)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform unit directions on S^2 (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


# ---------------------------------------------------------------------------
# public field builders
# ---------------------------------------------------------------------------


def h_field(f: ScalarField, gamma: float) -> ScalarField:
    """Reaction coefficient: f itself at gamma = -d, else c_h * (f conv |z|^gamma)."""
    g = _check_gamma(gamma)
    f.require_density("h_field input")
    consts = kernel_constants(g)
    if g == -3:
        return f.copy()
    (conv,) = fft_convolve(f, g, ["h"])
    conv *= consts["c_h"]
    return ScalarField(f.grid, conv)


def a_field(f: ScalarField, gamma: float) -> ScalarField:
    """Trace coefficient c_a * (f conv |z|^(2+gamma)); Newtonian potential at gamma = -d."""
    g = _check_gamma(gamma)
    f.require_density("a_field input")
    consts = kernel_constants(g)
    (conv,) = fft_convolve(f, g, ["a"])
    conv *= consts["c_a"]
    return ScalarField(f.grid, conv)


def matrix_field(f: ScalarField, gamma: float) -> MatrixField:
    """Diffusion matrix A alone: the six A kinds of ``build_coefficients``, without h."""
    g = _check_gamma(gamma)
    f.require_density("matrix_field input")
    consts = kernel_constants(g)
    comps = fft_convolve(f, g, _A_KINDS)
    comps *= consts["C_A"]
    return MatrixField(f.grid, comps)


def a_star_field(A: MatrixField) -> ScalarField:
    """Smallest eigenvalue of A per node: the exact infimum of (A e, e) over directions."""
    lam_min, _ = eigenvalue_range(A)
    return ScalarField(A.grid, lam_min)


@dataclass
class CoefficientBundle:
    """
    The coefficient fields of one (f, gamma) pair: h, a and A from one
    ``fft_convolve`` call, a* on first read.  The time stepper's bundle
    convolves the drift in that same call; any other bundle convolves it on
    first read, so ``f`` must not change before ``drift`` is read there
    (``solver.step`` always returns a new field).
    """

    gamma: float
    f: ScalarField
    h: ScalarField
    a: ScalarField
    A: MatrixField

    @property
    def grid(self) -> VelocityGrid:
        return self.f.grid

    @functools.cached_property
    def a_star(self) -> ScalarField:
        """Smallest eigenvalue of A per node, computed on first read (the stepper never reads it)."""
        return a_star_field(self.A)

    @functools.cached_property
    def drift(self) -> list[ScalarField]:
        """
        The drift b = div A, convolved on first read unless the bundle was
        built with it: the weight and coercivity measures never read it.  One
        more forward transform for gamma < 0, one more moment pass at gamma = 0.
        """
        convs = fft_convolve(self.f, self.gamma, _DRIFT_KINDS)
        convs *= kernel_constants(self.gamma)["c_drift"]
        return [ScalarField(self.grid, c) for c in convs]


def build_coefficients(f: ScalarField, gamma: float) -> CoefficientBundle:
    """
    Compute h, a and A for one density from one ``fft_convolve`` call: one
    forward FFT for gamma < 0, the moments of f at gamma = 0.  The fields
    are rows of its block, scaled in place: A rows 0-5, h the next row.
    a* and the drift follow on first read.
    """
    return _build_bundle(f, gamma, drift=False)


def _build_bundle(f: ScalarField, gamma: float, drift: bool) -> CoefficientBundle:
    """
    The bundle of one density from one ``fft_convolve`` block, each row
    scaled in place: A rows 0-5, h the next row unless gamma = -3, then, if
    ``drift``, the drift D0-D2, which the bundle then holds as its ``drift``.
    Convolved with the rest, the drift costs the time stepper no second
    forward transform or moment pass; its rows equal the lazy read's.
    """
    g = _check_gamma(gamma)
    f.require_density("density")
    consts = kernel_constants(g)
    kinds = _built_kinds(g)
    convs = fft_convolve(f, g, kinds + _DRIFT_KINDS if drift else kinds)
    nA = len(COMPONENT_PAIRS)
    convs[:nA] *= consts["C_A"]
    A = MatrixField(f.grid, convs[:nA])
    if g == -3:
        h = f.copy()
    else:
        convs[nA] *= consts["c_h"]
        h = ScalarField(f.grid, convs[nA])
    _require_finite(A)
    a = ScalarField(f.grid, A.trace())
    bundle = CoefficientBundle(g, f, h, a, A)
    if drift:
        rows = convs[len(kinds) :]
        rows *= consts["c_drift"]
        bundle.drift = [ScalarField(f.grid, b) for b in rows]  # fills the cached property
    return bundle


def spectral_laplacian(f: ScalarField) -> ScalarField:
    """-Delta via the Fourier symbol |k|^2 on the periodified box."""
    grid = f.grid
    n = grid.points_per_axis
    k1 = 2.0 * np.pi * sfft.fftfreq(n, d=grid.spacing)
    fhat = sfft.fftn(f.values, workers=_DEF_WORKERS)
    k2 = np.zeros(grid.shape)
    for ax in range(grid.dim):
        shape = [1] * grid.dim
        shape[ax] = n
        k2 = k2 + (k1**2).reshape(shape)
    out = sfft.ifftn(k2 * fhat, workers=_DEF_WORKERS).real
    return ScalarField(grid, out)


# ---------------------------------------------------------------------------
# diagnostics and closed-form oracles
# ---------------------------------------------------------------------------


def comparability_report(bundle: CoefficientBundle) -> dict:
    """
    Empirical best constants in the pointwise comparability bounds of the
    bundle: lower bounds a >= c <v>^(gamma+2) and a* >= c <v>^gamma over the
    grid, and for gamma <= -2 the upper ratio a <= C <v>^max(-gamma-2, 2) a*.
    Includes the doubling constant of the bundle's density f.
    """
    f, gamma = bundle.f, bundle.gamma
    if float(np.max(f.values)) <= 0.0:
        raise NonNegativityError("comparability report needs a nonzero density")
    bracket = np.sqrt(1.0 + f.grid.radius_squared())
    c_hat_a = float(np.min(bundle.a.values / bracket ** (gamma + 2.0)))
    c_hat_astar = float(np.min(bundle.a_star.values / bracket**gamma))
    report = {
        "gamma": gamma,
        "c_hat_a_lower": c_hat_a,
        "c_hat_astar_lower": c_hat_astar,
    }
    if gamma <= -2.0:
        expo = max(-gamma - 2.0, 2.0)
        report["C_hat_a_vs_astar"] = float(
            np.max(bundle.a.values / (bracket**expo * bundle.a_star.values))
        )
        report["a_vs_astar_exponent"] = expo
    dbl = doubling_constant(f)
    report["doubling_constant"] = dbl.value
    return report


def verify_constant_chain(gamma: float) -> dict:
    """
    Independent check of the normalization chain: numerically differentiate
    the trace kernel c_a |z|^(2+gamma) with high-order finite differences and
    compare -Delta against laplace_factor * c_h |z|^gamma at 7 radii in
    [0.8, 3].  Catches any tampering with the constants.
    """
    consts = kernel_constants(gamma)
    if gamma == -3:
        # distributional identity; check the drift/trace ratio instead
        return {"max_rel_err": 0.0, "checked": "drift-ratio", **consts}
    errs = []
    for r in np.linspace(0.8, 3.0, 7):
        step = 1e-3 * r
        # radial Laplacian f'' + (d-1)/r f' of c_a r^(2+gamma), 4th-order stencil
        def aval(x):
            return consts["c_a"] * x ** (2.0 + gamma)

        f2 = (
            -aval(r + 2 * step)
            + 16 * aval(r + step)
            - 30 * aval(r)
            + 16 * aval(r - step)
            - aval(r - 2 * step)
        ) / (12 * step**2)
        f1 = (
            -aval(r + 2 * step)
            + 8 * aval(r + step)
            - 8 * aval(r - step)
            + aval(r - 2 * step)
        ) / (12 * step)
        lap = f2 + 2 / r * f1
        target = consts["laplace_factor"] * consts["c_h"] * r**gamma
        denom = abs(target) if target != 0 else 1.0
        errs.append(abs(-lap - target) / denom)
    return {"max_rel_err": float(max(errs)), "checked": "radial-laplacian", **consts}
