"""
Weight functionals over finite cube families: Muckenhoupt constants, reverse
Hölder constants, local doubling, and the cube ratio coupling the reaction
and diffusion coefficients.

All suprema run over explicit lattice-aligned families (deterministic and
reproducible).  Each reports the supremum itself, with the first cube in
family order within a roundoff tie tolerance of it as the witness.  Each level
of a family tiles the box in C order, and each cube is the union of 2^d cubes
of the level below, so the cube sums and minima of a family form a dyadic
pyramid: the finest level is reduced from the nodes and every coarser level
from the one below it.  A family costs one pass over the nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import EmptyRegionError, NonNegativityError, WeightPositivityError
from .grid import Cube, CubeSet, ScalarField, VelocityGrid

#: cubes whose weight integral falls below this fraction of the global one
#: are excluded from suprema (and counted) instead of emitting infinities
DEGENERATE_FRACTION = 1e-14
#: (centre, radius) pairs whose inner ball holds less than this fraction of the
#: mass are excluded from the doubling supremum (and counted): below it the
#: ratio compares tail masses that roundoff decides
BULK_FRACTION = 1e-6
#: ball radii the doubling supremum runs over
DOUBLING_RADII = (0.25, 0.5, 1.0)
#: ball sums carry an FFT roundoff of about eps times the mass, so admitted
#: doubling ratios this close to the supremum tie; the witness is the first
_TIE_RTOL = 1e3 * np.finfo(float).eps / BULK_FRACTION
#: mirror cubes of a symmetric weight tie up to roundoff: on the N=24 Maxwellian
#: their cube constants spread by 6.7e-15 relative, and the next
#: distinct value lies 1.2e-3 below, so cube constants this close to the
#: supremum tie; the witness is the first in family order
_CUBE_TIE_RTOL = 1e-12


@dataclass
class WeightReport:
    """One measured weight constant with its witness cube."""

    weight_id: str
    constant_name: str
    value: float
    argmax_cube: int | None
    cube_set: dict
    parameters: dict
    excluded_cubes: int = 0
    clipped: bool = False
    per_cube: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "weight_id": self.weight_id,
            "constant_name": self.constant_name,
            "value": self.value,
            "argmax_cube": self.argmax_cube,
            "cube_set": self.cube_set,
            "parameters": self.parameters,
            "excluded_cubes": self.excluded_cubes,
            "clipped": self.clipped,
        }


def _per_cube(values: np.ndarray, cubes: CubeSet, ufunc: np.ufunc) -> np.ndarray:
    """The binary ``ufunc`` folded over every cube of the family, in family order.

    A dyadic pyramid: the finest level is reduced from the nodes, each coarser
    level from the 2x2x2 blocks of the level below.  Along each axis in turn
    it combines one strided view per offset within a block, several times
    faster than ``ufunc.reduce`` over a reshaped block axis.
    """
    levels = []
    level, step = values, cubes.cells[-1]
    for _ in cubes.cells:
        # a level's cubes tile the box in C order, so the result is in family order
        for axis in range(values.ndim):
            offsets = [level[(slice(None),) * axis + (slice(k, None, step),)] for k in range(step)]
            level = functools.reduce(ufunc, offsets)
        levels.append(level.ravel())
        step = 2
    return np.concatenate(levels[::-1])


def _cube_cells(cubes: CubeSet) -> np.ndarray:
    """Side in cells of every cube of the family, in family order."""
    return np.repeat(cubes.cells, [len(a) for a in cubes.anchors])


def cube_family_averages(values: np.ndarray, cubes: CubeSet) -> np.ndarray:
    """Mean of ``values`` over every cube of the family, in family order."""
    return _per_cube(values, cubes, np.add) / _cube_cells(cubes) ** values.ndim


def cube_family_minima(values: np.ndarray, cubes: CubeSet) -> np.ndarray:
    """Minimum of ``values`` over every cube of the family, in family order."""
    return _per_cube(values, cubes, np.minimum)


def _supremum(vals: np.ndarray, rtol: float) -> tuple[float, int]:
    """The largest of ``vals`` (NaN ignored; positive) and the first flat index within ``rtol`` of it."""
    best = float(np.nanmax(vals))
    return best, int(np.argmax(vals >= best * (1.0 - rtol)))


def _cube_set_summary(cubes: CubeSet) -> dict:
    return {
        "base_side": cubes.base_side,
        "levels": cubes.levels,
        "count": len(cubes),
        "grid": list(cubes.grid.key()),
    }


def _check_positive_weight(w: ScalarField):
    bad = np.count_nonzero(w.values <= 0)
    if bad > 0:
        frac = bad / w.values.size
        raise WeightPositivityError(
            f"weight is nonpositive on {bad} nodes ({frac:.2e} of the grid)"
        )


def ap_constant(w: ScalarField, p: float, cubes: CubeSet, weight_id: str = "w") -> WeightReport:
    """Muckenhoupt constant: sup over cubes of avg(w) * avg(w^(-1/(p-1)))^(p-1)."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    _check_positive_weight(w)
    avg_w = cube_family_averages(w.values, cubes)
    avg_dual = cube_family_averages(w.values ** (-1.0 / (p - 1.0)), cubes)
    vals = avg_w * avg_dual ** (p - 1.0)
    best, k = _supremum(vals, _CUBE_TIE_RTOL)
    return WeightReport(
        weight_id=weight_id,
        constant_name="Ap",
        value=best,
        argmax_cube=k,
        cube_set=_cube_set_summary(cubes),
        parameters={"p": p},
        per_cube=vals,
    )


def a1_constant(w: ScalarField, cubes: CubeSet, weight_id: str = "w") -> WeightReport:
    """sup over cubes and their nodes of avg(w) / w(node) = avg(w) / min(w)."""
    _check_positive_weight(w)
    avg_w = cube_family_averages(w.values, cubes)
    min_w = cube_family_minima(w.values, cubes)
    vals = avg_w / min_w
    best, k = _supremum(vals, _CUBE_TIE_RTOL)
    return WeightReport(
        weight_id=weight_id,
        constant_name="A1",
        value=best,
        argmax_cube=k,
        cube_set=_cube_set_summary(cubes),
        parameters={},
        per_cube=vals,
    )


def reverse_holder(w: ScalarField, m: float, cubes: CubeSet) -> WeightReport:
    """sup over cubes of avg(w^m)^(1/m) / avg(w); all-zero cubes excluded and counted."""
    if m <= 0:
        raise ValueError(f"exponent m must be positive, got {m}")
    if np.any(w.values < 0):
        raise NonNegativityError("reverse Hölder weight must be nonnegative")
    avg_w = cube_family_averages(w.values, cubes)
    avg_wm = cube_family_averages(w.values**m, cubes)
    total = float(np.mean(w.values))
    alive = avg_w > DEGENERATE_FRACTION * max(total, np.finfo(float).tiny)
    vals = np.full(len(cubes), np.nan)
    vals[alive] = avg_wm[alive] ** (1.0 / m) / avg_w[alive]
    if not alive.any():
        raise EmptyRegionError("every cube is degenerate for this weight")
    best, k = _supremum(vals, _CUBE_TIE_RTOL)
    return WeightReport(
        weight_id="w",
        constant_name=f"RH({m})",
        value=best,
        argmax_cube=k,
        cube_set=_cube_set_summary(cubes),
        parameters={"m": m},
        excluded_cubes=int(np.count_nonzero(~alive)),
        per_cube=vals,
    )


def _ball_offsets(grid: VelocityGrid, radius: float) -> np.ndarray:
    k = int(np.floor(radius / grid.spacing + 1e-12))
    ax = np.arange(-k, k + 1) * grid.spacing
    mesh = np.meshgrid(*([ax] * grid.dim), indexing="ij")
    r2 = sum(c**2 for c in mesh)
    return (r2 <= radius**2 + 1e-12).astype(float)


def ball_sum_field(f: ScalarField, radius: float) -> np.ndarray:
    """Integral of f over the ball of given radius centered at every node."""
    kernel = _ball_offsets(f.grid, radius)
    n, k = f.grid.points_per_axis, kernel.shape[0]
    w = f.grid.spacing**f.grid.dim
    if k == 1:
        return f.values * w  # the ball holds its centre node alone
    # linear convolution on a fast real-FFT length, cropped to the centred N^d block
    fshape = [sfft.next_fast_len(n + k - 1, True)] * f.grid.dim
    conv = sfft.irfftn(sfft.rfftn(f.values, fshape) * sfft.rfftn(kernel, fshape), fshape)
    return conv[(slice(k // 2, k // 2 + n),) * f.grid.dim] * w


def doubling_constant(f: ScalarField) -> WeightReport:
    """
    sup over grid centers and ``DOUBLING_RADII`` of the mass ratio of the
    double ball to the ball.  Pairs whose inner integral is below ``BULK_FRACTION`` of the
    total mass are excluded and counted.  Mirror nodes of a symmetric density
    tie up to roundoff, so the witness is the first pair (radius order, then C
    order) within ``_TIE_RTOL`` of the supremum.
    """
    f.require_density("doubling input")
    mass = float(np.sum(f.values)) * f.grid.spacing**f.grid.dim
    if mass <= 0:
        raise NonNegativityError("doubling constant of the zero density")
    radii = DOUBLING_RADII
    ratios = np.empty((len(radii),) + f.grid.shape)
    for ratio, r in zip(ratios, radii):
        inner = ball_sum_field(f, r)
        alive = inner > BULK_FRACTION * mass
        ratio[...] = np.where(alive, ball_sum_field(f, 2.0 * r) / np.where(alive, inner, 1.0), -np.inf)
    best, first = _supremum(ratios, _TIE_RTOL)
    if best == -np.inf:
        raise EmptyRegionError("no admissible (center, radius) pair")
    k, *node = np.unravel_index(first, ratios.shape)
    return WeightReport(
        weight_id="f",
        constant_name="C_D",
        value=best,
        argmax_cube=None,
        cube_set={"radii": list(radii)},
        parameters={"argmax_radius": radii[k], "argmax_node": [int(i) for i in node]},
        excluded_cubes=int(np.count_nonzero(ratios == -np.inf)),
    )


def morrey_ratio(
    h: ScalarField,
    w: ScalarField,
    cube: Cube,
    s: float = 1.0,
) -> float:
    """
    |Q|^(1/d) * avg_Q(h^s)^(1/2s) * avg_Q(w^-s)^(1/2s): the scale-invariant
    cube ratio of reaction to diffusion strength.  ``w`` is the trace
    coefficient for the unconditional bound, or the least eigenvalue field
    for the coercivity sufficient condition.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    grid = h.grid
    block_h = h.values[cube.slices()]
    block_w = w.values[cube.slices()]
    if block_h.size == 0:
        raise EmptyRegionError("cube lies outside the grid")
    if np.any(block_w <= 0):
        raise WeightPositivityError("weight vanishes on the cube")
    side = cube.side(grid)
    return float(
        side
        * np.mean(block_h**s) ** (1.0 / (2 * s))
        * np.mean(block_w ** (-s)) ** (1.0 / (2 * s))
    )


def morrey_ratio_family(h: ScalarField, w: ScalarField, cubes: CubeSet, s: float = 1.0) -> np.ndarray:
    """Vectorized :func:`morrey_ratio` over a cube family."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _check_positive_weight(w)
    avg_hs = cube_family_averages(h.values**s, cubes)
    avg_ws = cube_family_averages(w.values ** (-s), cubes)
    sides = _cube_cells(cubes) * cubes.grid.spacing
    return sides * avg_hs ** (1.0 / (2 * s)) * avg_ws ** (1.0 / (2 * s))
