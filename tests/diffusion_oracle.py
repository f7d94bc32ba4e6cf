"""
Matrix-free oracle of the diffusion form, independent of the assembled
``operators.diffusion_matrix``.

Per forward cell the gradient is taken twice, as forward differences at the
base corner and as backward differences at the far corner, each contracted
with the cell-averaged matrix; x -> L x is minus the gradient of half the
sum of the two per-cell PSD forms.  ``bc='flux'`` keeps the node sum,
``bc='dirichlet'`` pads a ghost layer of zeros (its cells averaging the
edge-extended matrix).
"""

from __future__ import annotations

import itertools

import numpy as np

from landau_lab.coefficients import COMPONENT_ROW, MatrixField


def matrix_free(A: MatrixField, bc: str = "flux", cell_weight: np.ndarray | None = None):
    """The function x -> L x on node arrays of ``A``'s grid."""
    d, h = A.grid.dim, A.grid.spacing
    comps = A.comps if bc == "flux" else np.stack([np.pad(c, 1, mode="edge") for c in A.comps])
    m = comps.shape[1]
    abar = sum(
        comps[(slice(None),) + tuple(slice(o, m - 1 + o) for o in corner)]
        for corner in itertools.product((0, 1), repeat=d)
    ) / 2.0**d
    if cell_weight is not None:
        abar = abar * cell_weight
    base = (slice(0, -1),) * d
    far = (slice(1, None),) * d

    def towards(corner, ax, sl):  # the corner's slices with axis ``ax`` replaced
        out = list(corner)
        out[ax] = sl
        return tuple(out)

    def apply(x: np.ndarray) -> np.ndarray:
        if bc == "dirichlet":
            x = np.pad(x, 1)
        gp = [(x[towards(base, ax, slice(1, None))] - x[base]) / h for ax in range(d)]
        gm = [(x[far] - x[towards(far, ax, slice(0, -1))]) / h for ax in range(d)]
        out = np.zeros_like(x)
        for i in range(d):
            flux_p = sum(abar[COMPONENT_ROW[i, j]] * gp[j] for j in range(d))
            flux_m = sum(abar[COMPONENT_ROW[i, j]] * gm[j] for j in range(d))
            out[towards(base, i, slice(1, None))] += flux_p / h
            out[base] -= flux_p / h
            out[far] += flux_m / h
            out[towards(far, i, slice(0, -1))] -= flux_m / h
        out *= -0.5
        return out[(slice(1, -1),) * d] if bc == "dirichlet" else out

    return apply
