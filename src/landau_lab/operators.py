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

The operator exists only assembled: ``diffusion_matrix`` writes the form's
closed-form 13-point stencil straight into diagonal storage, and
``krylov_matrix`` builds from those diagonals, in one pass, the Krylov
system diag(w) (diag(c) + s S) diag(w) of the implicit step and of the
coercivity functional.
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
    fpos = np.maximum(f, 0.0)
    d = f.ndim
    for ax in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        fface = np.sqrt(fpos[tuple(lo)] * fpos[tuple(hi)])
        flux = fface * 0.5 * (drift[ax][tuple(lo)] + drift[ax][tuple(hi)])
        flux /= spacing
        out[tuple(lo)] += flux
        out[tuple(hi)] -= flux
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


def diffusion_matrix(A: MatrixField, bc: str = "flux", cell_weight: np.ndarray | None = None) -> sparse.dia_matrix:
    """
    The form's operator x -> div(A grad x), assembled in diagonal storage
    from its closed-form stencil.  ``bc='flux'`` conserves the node sum
    exactly; ``bc='dirichlet'`` clamps a ghost layer of nodes to zero, its
    cells averaging the edge-extended A.  ``cell_weight``, if given,
    multiplies the averaged matrix of every forward cell.

    The base-corner gradient of a cell couples its base node c with c+e_i,
    and c+e_i with c+e_j; the far-corner gradient does the same around the
    far node.  A node therefore couples to itself, to its neighbours at
    +-e_i and to those at +-(e_i - e_j): 1 + d + d^2 diagonals, each a sum of
    cell-averaged components read at shifted cells.  Couplings that leave
    the lattice (Dirichlet ghost layer included) are stored as zeros.

    Every sum of shifted views, the 8-corner cell average and the centre,
    axis and cross weights read from the cell array, is one contiguous pass
    over the flattened array: in a C-ordered block of side m a shift s is
    the flat offset s0 m^2 + s1 m + s2, so the sum adds flat slices that
    reach the last wanted node, and the positions that wrap across a row
    are never copied out.  The operands and their order are those of the
    3-D views, so the entries are the same to the bit.  The cell averages
    are copied into a zero layer once, and every weight is written straight
    into its row of the diagonal data and mirrored into the row of the
    opposite offset: besides the data, the assembly holds one cell array
    and a few node arrays of temporaries.
    """
    if bc not in ("flux", "dirichlet"):
        raise ValueError(f"unknown boundary treatment {bc!r}")
    grid = A.grid
    d, h, n = grid.dim, grid.spacing, grid.points_per_axis
    comps = A.comps if bc == "flux" else np.pad(A.comps, [(0, 0)] + [(1, 1)] * d, mode="edge")
    m = comps.shape[1]  # nodes per axis, ghost layer included
    if cell_weight is not None and cell_weight.shape != (m - 1,) * d:
        raise ValueError("cell_weight must live on forward cells")
    # cell averages inside a zero layer: node p reads cell p + s, s in {-1, 0}^d
    cells = np.zeros((comps.shape[0],) + (m + 1,) * d)
    inner = cells[(slice(None),) + (slice(1, -1),) * d]
    corners = _flat_sum(comps, itertools.product((0, 1), repeat=d), m - 1)
    np.divide(corners, 2.0**d, out=inner)
    del corners, comps  # the accumulator, and the edge-extended copy of a Dirichlet A
    if cell_weight is not None:
        inner *= cell_weight
    core = 1 if bc == "dirichlet" else 0
    side = m + 1  # of the cell array
    flat = cells.reshape(cells.shape[0], -1)
    span = _span(n, side)

    def at(i, j, shift):  # a_ij of cell p + shift, on every node p, at flat position p
        start = _flat_offset([s + 1 + core for s in shift], side)
        return flat[COMPONENT_ROW[i, j], start : start + span]

    zero, down = (0,) * d, (-1,) * d
    unit = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    back = [_negated(u) for u in unit]  # p - e_i
    far = [tuple(e - 1 for e in u) for u in unit]  # p + e_i - 1
    pairs = [(i, j) for j in range(d) for i in range(j)]
    cross = [tuple(a - b for a, b in zip(unit[i], unit[j])) for i, j in pairs]  # e_i - e_j
    steps = {o: _flat_offset(o, n) for off in [zero] + unit + cross for o in (off, _negated(off))}
    offsets = sorted(steps, key=steps.get)  # column minus row; a product then sums each row in column order
    size = grid.n_nodes
    data = np.zeros((len(offsets), size))
    # diagonal k holds A[p, p + step_k] at column p + step_k, which by symmetry is the
    # weight of the opposite offset at node p + step_k: the row of -off holds the
    # weight of off at its own node, the row of off that weight moved by off
    row = {off: data[k].reshape(grid.shape) for k, off in enumerate(offsets)}
    scale = -0.5 / h**2
    centre = sum(at(i, j, zero) + at(i, j, down) for i in range(d) for j in range(d))
    centre += sum(at(i, i, back[i]) + at(i, i, far[i]) for i in range(d))
    np.multiply(scale, _nodes(centre, n, side), out=row[zero])
    weight = {}
    for j in range(d):
        w = weight[unit[j]] = row[back[j]]
        np.multiply(-scale, _nodes(sum(at(i, j, zero) + at(i, j, far[j]) for i in range(d)), n, side), out=w)
    for (i, j), off in zip(pairs, cross):
        w = weight[off] = row[_negated(off)]
        np.multiply(scale, _nodes(at(i, j, back[j]) + at(i, j, far[i]), n, side), out=w)
    for off, w in weight.items():
        # no coupling leaves the lattice; the matrix is symmetric
        for ax, o in enumerate(off):
            if o:
                w[(slice(None),) * ax + (-1 if o > 0 else 0,)] = 0.0
        dst = tuple(slice(max(o, 0), n - max(-o, 0)) for o in off)
        row[off][dst] = w[tuple(slice(max(-o, 0), n - max(o, 0)) for o in off)]
    return sparse.dia_matrix((data, [steps[o] for o in offsets]), shape=(size, size))


def _negated(off: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-o for o in off)


def _flat_offset(shift, m: int) -> int:
    """Flat index of node ``shift`` in a C-ordered block of side m."""
    return sum(s * m ** (len(shift) - 1 - ax) for ax, s in enumerate(shift))


def _span(n: int, m: int) -> int:
    """Flat length from node 0 through node (n-1, n-1, n-1) of a C-ordered block of side m."""
    return _flat_offset((n - 1,) * 3, m) + 1


def _nodes(flat: np.ndarray, n: int, m: int) -> np.ndarray:
    """
    The (n, n, n) nodes of a flat pass over a C-ordered block of side m,
    as a read-only view of its last axis; the positions a row wraps into
    lie between them and are never read.
    """
    item = flat.strides[-1]
    shape, strides = flat.shape[:-1] + (n,) * 3, flat.strides[:-1] + (m * m * item, m * item, item)
    return np.lib.stride_tricks.as_strided(flat, shape, strides, writeable=False)


def _flat_sum(block: np.ndarray, shifts, n: int) -> np.ndarray:
    """
    The sum, in ``shifts`` order, of the views block[..., s0:s0+n, s1:s1+n,
    s2:s2+n] over the shifts (s0, s1, s2) of the last three axes, as an
    (..., n, n, n) view.  Each view is one contiguous slice of the flattened
    block, so the sum runs over one flat accumulator of ``_span`` entries.
    """
    m = block.shape[-1]
    flat = block.reshape(block.shape[:-3] + (-1,))
    span = _span(n, m)
    acc = np.zeros(flat.shape[:-1] + (span,))
    for shift in shifts:
        start = _flat_offset(shift, m)
        acc += flat[..., start : start + span]
    return _nodes(acc, n, m)


def krylov_matrix(S: sparse.dia_matrix, c: np.ndarray, s: float, w: np.ndarray, dtype=np.float64) -> sparse.dia_matrix:
    """
    diag(w) (diag(c) + s S) diag(w) with the diagonals of ``S`` (a
    ``diffusion_matrix``), computed in float64 and stored in ``dtype``: the
    Krylov systems of the implicit step and of the coercivity functional,
    built in one pass over the diagonals of ``S``.
    """
    size = S.shape[0]
    data = np.zeros(S.data.shape, dtype)
    entry = np.empty(size)
    pair = np.empty(size)
    for k, step in enumerate(S.offsets):
        # column j of diagonal k is the entry in row j - step; the others are never read
        lo, hi = max(step, 0), min(size, size + step)
        np.multiply(s, S.data[k, lo:hi], out=entry[lo:hi])
        if step == 0:
            entry += c
        np.multiply(w[lo:hi], w[lo - step : hi - step], out=pair[lo:hi])
        np.multiply(entry[lo:hi], pair[lo:hi], out=data[k, lo:hi], casting="same_kind")
    return sparse.dia_matrix((data, S.offsets), shape=S.shape)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """
    Inner product of two flat vectors, summed in einsum and never on threaded
    BLAS, so the Krylov results do not depend on the BLAS thread count.
    """
    return float(np.einsum("i,i->", x, y))


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
