"""
Discrete differential operators on the velocity lattice.

The anisotropic diffusion operator div(A grad .) is realized through an
exactly symmetric, negative-semidefinite quadratic form: per forward cell the
gradient is taken twice, once as forward differences at the base corner and
once as backward differences at the far corner, each contracted with the
cell-averaged matrix.  Averaging the two staggered copies cancels the O(h)
offset of the evaluation points, so the form (and the induced operator) is
second-order consistent while keeping

    x . (L x) <= 0        exactly (sum of per-cell PSD forms),
    sum_v (L x)_v = 0      exactly in the zero-flux variant.

Two boundary treatments: 'flux' (no flux through the box boundary, used by
the time stepper; conserves mass to roundoff) and 'dirichlet' (a ghost layer
of zeros, used by the spectral functional where test functions are compactly
supported).
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from .coefficients import COMPONENT_ROW, MatrixField
from .grid import ScalarField, VelocityGrid


def centered_gradient(values: np.ndarray, spacing: float) -> list[np.ndarray]:
    """Centered differences per axis, zero extension outside the box."""
    out = []
    for ax in range(values.ndim):
        g = np.zeros_like(values)
        sl_in = [slice(None)] * values.ndim
        sl_up = [slice(None)] * values.ndim
        sl_dn = [slice(None)] * values.ndim
        sl_in[ax] = slice(1, -1)
        sl_up[ax] = slice(2, None)
        sl_dn[ax] = slice(0, -2)
        g[tuple(sl_in)] = (values[tuple(sl_up)] - values[tuple(sl_dn)]) / (2 * spacing)
        first = [slice(None)] * values.ndim
        first[ax] = 0
        second = [slice(None)] * values.ndim
        second[ax] = 1
        g[tuple(first)] = values[tuple(second)] / (2 * spacing)
        last = [slice(None)] * values.ndim
        last[ax] = -1
        penult = [slice(None)] * values.ndim
        penult[ax] = -2
        g[tuple(last)] = -values[tuple(penult)] / (2 * spacing)
        out.append(g)
    return out


def second_derivatives(values: np.ndarray, spacing: float) -> dict[tuple[int, int], np.ndarray]:
    """Centered second derivatives (pure and cross), zero extension outside."""
    d = values.ndim
    padded = np.pad(values, 1)
    out: dict[tuple[int, int], np.ndarray] = {}
    core = tuple(slice(1, -1) for _ in range(d))

    def shifted(offsets):
        sl = tuple(slice(1 + o, (-1 + o) or None) for o in offsets)
        return padded[sl]

    for i in range(d):
        off = [0] * d
        off[i] = 1
        up = shifted(off)
        off[i] = -1
        dn = shifted(off)
        out[(i, i)] = (up - 2.0 * padded[core] + dn) / spacing**2
    for i in range(d):
        for j in range(i + 1, d):
            off = [0] * d
            off[i], off[j] = 1, 1
            pp = shifted(off)
            off[i], off[j] = 1, -1
            pm = shifted(off)
            off[i], off[j] = -1, 1
            mp = shifted(off)
            off[i], off[j] = -1, -1
            mm = shifted(off)
            out[(i, j)] = (pp - pm - mp + mm) / (4.0 * spacing**2)
    return out


def nondivergence_apply(A: MatrixField, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """tr(A D^2 f) + f h with centered second differences."""
    spacing = A.grid.spacing
    d2 = second_derivatives(f, spacing)
    d = A.grid.dim
    out = f * h
    for i in range(d):
        out += A.component(i, i) * d2[(i, i)]
    for i in range(d):
        for j in range(i + 1, d):
            out += 2.0 * A.component(i, j) * d2[(i, j)]
    return out


def drift_divergence(f: np.ndarray, drift: list[np.ndarray], spacing: float) -> np.ndarray:
    """
    div(f b) with symmetric two-point face values and zero flux through the
    box boundary.  Face fluxes telescope, so the node sum vanishes.  The
    geometric face mean of f (second order, exact on exponentials) keeps
    steep tails from ringing; the drift is always the arithmetic face mean.
    """
    out = np.zeros_like(f)
    d = f.ndim
    for ax in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        fface = np.sqrt(np.maximum(f[tuple(lo)], 0.0) * np.maximum(f[tuple(hi)], 0.0))
        flux = fface * 0.5 * (drift[ax][tuple(lo)] + drift[ax][tuple(hi)])
        up = [slice(None)] * d
        dn = [slice(None)] * d
        up[ax] = slice(1, None)
        dn[ax] = slice(0, -1)
        out[tuple(dn)] += flux / spacing
        out[tuple(up)] -= flux / spacing
    return out


def cell_corner_geomean(values: np.ndarray) -> np.ndarray:
    """Geometric mean of the 2^d corner values of every forward cell."""
    d = values.ndim
    n = values.shape[0]
    logv = np.log(values)
    acc = np.zeros((n - 1,) * d)
    for offsets in itertools.product((0, 1), repeat=d):
        acc += logv[tuple(slice(o, n - 1 + o) for o in offsets)]
    return np.exp(acc / 2.0**d)


def boundary_drift_flux(f: np.ndarray, drift: list[np.ndarray], spacing: float) -> float:
    """Magnitude of the drift flux the zero-flux boundary suppressed (per unit time)."""
    d = f.ndim
    total = 0.0
    area = spacing ** (d - 1)
    for ax in range(d):
        for side, idx in ((0, 0), (1, -1)):
            sl = [slice(None)] * d
            sl[ax] = idx
            total += area * float(np.sum(np.abs(f[tuple(sl)] * drift[ax][tuple(sl)])))
    return total


def _cell_average_comps(comps: np.ndarray) -> np.ndarray:
    """Average matrix components over the 2^d corners of each forward cell."""
    d = comps.ndim - 1
    n = comps.shape[1]
    acc = np.zeros((comps.shape[0],) + (n - 1,) * d)
    for offsets in itertools.product((0, 1), repeat=d):
        sl = (slice(None),) + tuple(slice(o, n - 1 + o) for o in offsets)
        acc += comps[sl]
    return acc / 2.0**d


class DiffusionOperator:
    """
    Matrix-free symmetric discretization of x -> div(A grad x).

    Negative semidefinite by construction; ``bc='flux'`` conserves the node
    sum exactly, ``bc='dirichlet'`` clamps a ghost layer to zero.
    """

    def __init__(self, A: MatrixField, bc: str = "flux", cell_weight: np.ndarray | None = None):
        if bc not in ("flux", "dirichlet"):
            raise ValueError(f"unknown boundary treatment {bc!r}")
        self.grid: VelocityGrid = A.grid
        self.bc = bc
        self.spacing = A.grid.spacing
        if bc == "flux":
            comps = A.comps
        else:
            comps = np.stack([np.pad(c, 1, mode="edge") for c in A.comps])
        self._abar = _cell_average_comps(comps)
        if cell_weight is not None:
            if cell_weight.shape != self._abar[0].shape:
                raise ValueError("cell_weight must live on forward cells")
            self._abar = self._abar * cell_weight

    def _cell_gradients(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        d, h = self.grid.dim, self.spacing
        base = tuple(slice(0, -1) for _ in range(d))
        far = tuple(slice(1, None) for _ in range(d))
        gp, gm = [], []
        for ax in range(d):
            up = list(base)
            up[ax] = slice(1, None)
            gp.append((x[tuple(up)] - x[base]) / h)
            dn = list(far)
            dn[ax] = slice(0, -1)
            gm.append((x[far] - x[tuple(dn)]) / h)
        return gp, gm

    def _scatter(self, out: np.ndarray, flux: np.ndarray, ax: int, corner: str):
        d, h = self.grid.dim, self.spacing
        if corner == "base":
            lo = tuple(slice(0, -1) for _ in range(d))
            hi = list(lo)
            hi[ax] = slice(1, None)
        else:
            hi = tuple(slice(1, None) for _ in range(d))
            lo = list(hi)
            lo[ax] = slice(0, -1)
            hi, lo = list(hi), lo
        out[tuple(hi)] += flux / h
        out[tuple(lo)] -= flux / h

    def apply(self, x: np.ndarray) -> np.ndarray:
        """L x on node arrays (returns div(A grad x) discretely)."""
        if self.bc == "dirichlet":
            x = np.pad(x, 1)
        gp, gm = self._cell_gradients(x)
        d = self.grid.dim
        out = np.zeros_like(x)
        for i in range(d):
            flux_p = sum(self._abar[COMPONENT_ROW[i, j]] * gp[j] for j in range(d))
            flux_m = sum(self._abar[COMPONENT_ROW[i, j]] * gm[j] for j in range(d))
            self._scatter(out, flux_p, i, "base")
            self._scatter(out, flux_m, i, "far")
        out *= -0.5
        if self.bc == "dirichlet":
            core = tuple(slice(1, -1) for _ in range(d))
            out = out[core]
        return out

    def matrix(self) -> sparse.dia_matrix:
        """
        The operator assembled in diagonal storage from its closed-form
        stencil.  The base-corner gradient of a cell couples its base node c
        with c+e_i, and c+e_i with c+e_j; the far-corner gradient does the
        same around the far node.  A node therefore couples to itself, to its
        neighbours at +-e_i and to those at +-(e_i - e_j): 1 + d + d^2
        diagonals, each a sum of cell-averaged components read at shifted
        cells.  Couplings that leave the lattice (Dirichlet ghost layer
        included) are stored as zeros.
        """
        d, h = self.grid.dim, self.spacing
        n = self.grid.points_per_axis
        # cells padded with a zero layer: node p reads cell p + s, s in {-1, 0}^d
        cells = np.pad(self._abar, [(0, 0)] + [(1, 1)] * d)
        m = cells.shape[1] - 1  # nodes per axis, ghost layer included
        core = 1 if self.bc == "dirichlet" else 0

        def at(i, j, shift):  # a_ij of cell p + shift, on every node p
            comp = cells[COMPONENT_ROW[i, j]]
            return comp[tuple(slice(s + 1 + core, s + 1 + m - core) for s in shift)]

        zero, down = (0,) * d, (-1,) * d
        unit = [tuple(int(k == i) for k in range(d)) for i in range(d)]
        back = [tuple(-e for e in u) for u in unit]  # p - e_i
        far = [tuple(e - 1 for e in u) for u in unit]  # p + e_i - 1
        scale = -0.5 / h**2
        centre = sum(at(i, j, zero) + at(i, j, down) for i in range(d) for j in range(d))
        centre = scale * (centre + sum(at(i, i, back[i]) + at(i, i, far[i]) for i in range(d)))
        stencil = {zero: centre}
        for j in range(d):
            stencil[unit[j]] = -scale * sum(at(i, j, zero) + at(i, j, far[j]) for i in range(d))
            for i in range(j):
                off = tuple(a - b for a, b in zip(unit[i], unit[j]))
                stencil[off] = scale * (at(i, j, back[j]) + at(i, j, far[i]))
        for off, w in list(stencil.items()):
            if off == zero:
                continue
            # no coupling leaves the lattice; the matrix is symmetric
            for ax, o in enumerate(off):
                if o:
                    w[(slice(None),) * ax + (-1 if o > 0 else 0,)] = 0.0
            stencil[tuple(-o for o in off)] = _shift(w, tuple(-o for o in off))
        size = self.grid.n_nodes
        strides = [n ** (d - 1 - ax) for ax in range(d)]
        steps = {off: int(np.dot(off, strides)) for off in stencil}  # column minus row
        offsets = sorted(stencil, key=steps.get)  # a product then sums each row in column order
        # diagonal k holds A[p, p + step_k] at column p + step_k, which by symmetry is the
        # weight of the opposite offset at node p + step_k; each weight array is released once copied
        data = np.empty((len(offsets), size))
        for k, off in enumerate(offsets):
            data[k] = stencil.pop(tuple(-o for o in off)).ravel()
        return sparse.dia_matrix((data, [steps[o] for o in offsets]), shape=(size, size))


def folded_matrix(S: sparse.dia_matrix, c: np.ndarray, s: float) -> sparse.dia_matrix:
    """
    diag(c) + s S in float64 with the diagonals of ``S`` (a
    ``DiffusionOperator.matrix()``): the Krylov systems of the implicit step
    and of the coercivity functional as one matrix each.
    """
    data = s * S.data
    data[np.flatnonzero(S.offsets == 0)[0]] += c
    return sparse.dia_matrix((data, S.offsets), shape=S.shape)


def scaled_matrix(T: sparse.dia_matrix, w: np.ndarray, dtype=np.float64) -> sparse.dia_matrix:
    """
    diag(w) T diag(w) for ``T`` in diagonal storage, computed in float64 and
    stored in ``dtype``.
    """
    size = T.shape[0]
    scaled = np.zeros(T.data.shape, dtype)
    pair = np.empty(size)
    for k, step in enumerate(T.offsets):
        # column j of diagonal k is the entry in row j - step; the others are never read
        lo, hi = max(step, 0), min(size, size + step)
        np.multiply(w[lo:hi], w[lo - step : hi - step], out=pair[lo:hi])
        np.multiply(T.data[k, lo:hi], pair[lo:hi], out=scaled[k, lo:hi], casting="same_kind")
    return sparse.dia_matrix((scaled, T.offsets), shape=T.shape)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """
    Inner product of two flat vectors, summed in einsum and never on threaded
    BLAS, so the Krylov results do not depend on the BLAS thread count.
    """
    return float(np.einsum("i,i->", x, y))


def _shift(values: np.ndarray, off: tuple[int, ...]) -> np.ndarray:
    """out[p] = values[p + off], zero where p + off leaves the array."""
    out = np.zeros_like(values)
    dst = tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(off, values.shape))
    src = tuple(slice(max(o, 0), s - max(-o, 0)) for o, s in zip(off, values.shape))
    out[dst] = values[src]
    return out


def energy_form(A: MatrixField, phi: np.ndarray) -> float:
    """int (A grad phi, grad phi) dv with centered node gradients and nodal A."""
    g = centered_gradient(phi, A.grid.spacing)
    Ag = A.apply(g)
    acc = sum(float(np.sum(gi * Agi)) for gi, Agi in zip(g, Ag))
    return acc * A.grid.spacing**A.grid.dim


def smoothstep_cutoff(grid: VelocityGrid, r_inner: float, r_outer: float) -> ScalarField:
    """
    Radial cutoff: 1 inside r_inner, 0 outside r_outer, quintic smoothstep in
    between (two continuous derivatives; |grad| <= 1.875/(r_outer-r_inner)).
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    r = grid.radius()
    t = np.clip((r - r_inner) / (r_outer - r_inner), 0.0, 1.0)
    s = 1.0 - (6.0 * t**5 - 15.0 * t**4 + 10.0 * t**3)
    return ScalarField(grid, s)
