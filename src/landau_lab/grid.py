"""
Truncated velocity-space lattice, quadrature, dyadic cube families, and
canonical initial profiles.

Nodes are cell centers, v_i = -L + (i + 1/2) * spacing, so no node ever sits
at the origin and power-law kernels stay finite on the lattice.  All integrals
are midpoint quadrature: spacing^d times a node sum.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegionError,
    GridError,
    MemoryCapError,
    MisalignedCubeError,
    NonNegativityError,
    SnapshotFormatError,
)
from .report import atomic_write_bytes

#: refuse to allocate lattices above this node count
DEFAULT_NODE_CAP = 2**25

_SNAPSHOT_MAGIC = b"LLF1"


@dataclass(frozen=True)
class VelocityGrid:
    """
    Uniform cell-centered lattice on [-L, L]^3.

    Attributes
    ----------
    dim : int
        Spatial dimension d; the lattice is three-dimensional, so d = 3.
    half_extent : float
        Finite domain half width L > 0.
    points_per_axis : int
        Even node count N >= 4 per axis.
    """

    dim: int
    half_extent: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim != 3:
            raise GridError(f"the velocity lattice is three-dimensional, got d = {self.dim}")
        if not 0 < self.half_extent < np.inf:  # NaN compares false both ways
            raise GridError(f"half_extent must be finite and > 0, got {self.half_extent}")
        n = self.points_per_axis
        if n < 4 or n % 2 != 0:
            raise GridError(f"points_per_axis must be even and >= 4, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def axis(self) -> np.ndarray:
        """1-D node coordinates along one axis (cell centers)."""
        i = np.arange(self.points_per_axis)
        return -self.half_extent + (i + 0.5) * self.spacing

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        out = []
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.points_per_axis
            out.append(self.axis.reshape(shape))
        return tuple(out)

    def radius_squared(self) -> np.ndarray:
        r2 = np.zeros(self.shape)
        for c in self.coords():
            r2 = r2 + c**2
        return r2

    def radius(self) -> np.ndarray:
        return np.sqrt(self.radius_squared())

    def key(self) -> tuple:
        return (self.dim, float(self.half_extent), self.points_per_axis)


@dataclass
class ScalarField:
    """Real values on a velocity grid, one per node."""

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def require_density(self, what: str = "field"):
        if np.any(self.values < 0):
            raise NonNegativityError(f"{what} has negative node values")

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()


@dataclass(frozen=True)
class Cube:
    """Lattice-aligned cube: a block of whole cells.

    ``anchor`` is the lowest-index corner cell, ``n_cells`` the cell count per
    axis, ``level`` the dyadic refinement depth it came from.
    """

    anchor: tuple[int, ...]
    n_cells: int
    level: int = 0

    def side(self, grid: VelocityGrid) -> float:
        return self.n_cells * grid.spacing

    def center(self, grid: VelocityGrid) -> np.ndarray:
        lo = np.array(self.anchor, dtype=float) * grid.spacing - grid.half_extent
        return lo + 0.5 * self.n_cells * grid.spacing

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, a + self.n_cells) for a in self.anchor)


@dataclass(eq=False)
class CubeSet:
    """Dyadic hierarchy of lattice-aligned cubes, stored level by level.

    Level-0 cubes tile the whole box with side ``base_side``; level-k cubes
    have side ``base_side / 2**k`` and children tile their parent exactly.
    ``cells[k]`` is the level-k side in cells and ``anchors[k]`` the
    read-only ``(K_k, d)`` array of their lowest-index corners, in C order.
    The family order is level-major: level 0 first.
    """

    grid: VelocityGrid
    base_side: float
    cells: tuple[int, ...]
    anchors: tuple[np.ndarray, ...]

    @property
    def levels(self) -> int:
        return len(self.cells) - 1

    @functools.cached_property
    def cubes(self) -> list[Cube]:
        """The family as :class:`Cube` objects in family order, built on first read."""
        return [
            Cube(tuple(int(a) for a in anchor), m, level)
            for level, (m, anchors) in enumerate(zip(self.cells, self.anchors))
            for anchor in anchors
        ]

    def __len__(self) -> int:
        return sum(len(a) for a in self.anchors)


def make_grid(dim: int, half_extent: float, points_per_axis: int) -> VelocityGrid:
    """Build a cell-centered velocity lattice, rejecting d != 3, odd N and oversized requests."""
    g = VelocityGrid(dim, float(half_extent), int(points_per_axis))
    if g.n_nodes > DEFAULT_NODE_CAP:
        raise MemoryCapError(
            f"lattice with {g.n_nodes} nodes exceeds the cap of {DEFAULT_NODE_CAP}"
        )
    return g


def make_dyadic_cubes(grid: VelocityGrid, base_side: float, levels: int) -> CubeSet:
    """
    Lattice-aligned tiling by cubes of side ``base_side`` plus all dyadic
    refinements down to ``levels`` generations.
    """
    h = grid.spacing
    cells = base_side / h
    cells_int = int(round(cells))
    if abs(cells - cells_int) > 1e-9 * max(1.0, cells) or cells_int < 1:
        raise MisalignedCubeError(
            f"base_side {base_side} is not a multiple of spacing {h}"
        )
    per_axis = grid.points_per_axis / cells_int
    if abs(per_axis - round(per_axis)) > 1e-9:
        raise MisalignedCubeError(
            f"base_side {base_side} does not tile the box [-L, L]^d"
        )
    if levels < 0:
        raise MisalignedCubeError("levels must be >= 0")
    smallest = cells_int // 2**levels
    if cells_int % 2**levels != 0 or smallest < 2:
        raise MisalignedCubeError(
            f"level-{levels} cubes would not hold >= 2^d whole cells"
        )

    level_cells = tuple(cells_int // 2**level for level in range(levels + 1))
    anchors = []
    for m in level_cells:
        axis = np.arange(0, grid.points_per_axis, m)
        mesh = np.meshgrid(*([axis] * grid.dim), indexing="ij")
        level_anchors = np.stack([g.ravel() for g in mesh], axis=1)
        level_anchors.flags.writeable = False
        anchors.append(level_anchors)
    return CubeSet(grid, float(base_side), level_cells, tuple(anchors))


def moments(f: ScalarField) -> tuple[float, np.ndarray, float]:
    """(mass, momentum vector, energy) by midpoint quadrature."""
    w = f.grid.spacing**f.grid.dim
    mass = w * float(np.sum(f.values))
    mom = np.array(
        [w * float(np.sum(f.values * c)) for c in f.grid.coords()]
    )
    energy = w * float(np.sum(f.values * f.grid.radius_squared()))
    return mass, mom, energy


_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """
    A root of ``f`` in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4).

    It follows scipy's C routine ``brentq`` step for step, with the same
    float64 operations in the same order, so it returns scipy's root
    bit for bit.  Raises GridError if f(xa) and f(xb) have the same sign or
    if ``_BRENT_MAXITER`` iterations pass without convergence.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise GridError(f"no sign change of the root function on [{xa}, {xb}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise GridError(f"root iteration did not converge within {_BRENT_MAXITER} iterations on [{xa}, {xb}]")


def _renormalize_isotropic(grid: VelocityGrid, sampler) -> ScalarField:
    """
    Rescale an isotropic profile family ``sampler(scale)`` so the discrete
    moments are (1, 0, d), solving for the velocity scale by Brent's method
    and normalizing mass by division.
    """
    r2 = grid.radius_squared()

    def ratio(s: float) -> float:
        vals = sampler(s, r2)
        m = float(np.sum(vals))
        e = float(np.sum(vals * r2))
        return e / m - grid.dim

    lo, hi = 0.25, 4.0
    flo, fhi = ratio(lo), ratio(hi)
    while flo > 0 and lo > 1e-4:
        lo *= 0.5
        flo = ratio(lo)
    while fhi < 0 and hi < 1e4:
        hi *= 2.0
        fhi = ratio(hi)
    if flo > 0 or fhi < 0:
        raise GridError("cannot match the energy moment on this grid")
    s = _brentq(ratio, lo, hi, xtol=1e-14, rtol=8.9e-16)
    vals = sampler(s, r2)
    vals = vals / (float(np.sum(vals)) * grid.spacing**grid.dim)
    return ScalarField(grid, vals)


def maxwellian(grid: VelocityGrid) -> ScalarField:
    """
    Gaussian equilibrium sampled at nodes, then rescaled so the discrete
    moments are exactly (mass, mean, energy) = (1, 0, d).
    """

    def sampler(s, r2):
        return np.exp(-r2 / (2.0 * s))

    return _renormalize_isotropic(grid, sampler)


def squeezed_gaussian(grid: VelocityGrid, sigma: float, narrow_mass: float = 0.8) -> ScalarField:
    """
    Concentrated initial profile: a blend of a narrow isotropic Gaussian
    (width ``sigma``, carrying the ``narrow_mass`` fraction) and a wide one
    chosen so the pair carries total energy d, then discretely renormalized
    to moments (1, 0, d).

    The narrow component makes the sup norm large while the wide component
    keeps the energy at its reference value, so relaxation toward equilibrium
    is visible in the running maximum.
    """
    if not 0 < sigma < 1:
        raise GridError(f"sigma must lie in (0, 1), got {sigma}")
    if not 0 < narrow_mass < 1:
        raise GridError(f"narrow_mass must lie in (0, 1), got {narrow_mass}")
    mu = narrow_mass
    tau2 = (1.0 - mu * sigma**2) / (1.0 - mu)

    def sampler(s, r2):
        a = mu * np.exp(-r2 / (2.0 * s * sigma**2)) / (sigma**2) ** (grid.dim / 2)
        b = (1.0 - mu) * np.exp(-r2 / (2.0 * s * tau2)) / tau2 ** (grid.dim / 2)
        return a + b

    return _renormalize_isotropic(grid, sampler)


def counterexample_profile(grid: VelocityGrid, m: float) -> ScalarField:
    """
    Unit-mass density |v|^(-m) restricted to the unit ball.  For m close to d
    this is the near-critical spike whose reaction coefficient stays of the
    same order as the diffusion on every scale.
    """
    if not 0 <= m < grid.dim:
        raise GridError(f"m must lie in [0, d), got {m} at d = {grid.dim}")
    r = grid.radius()
    vals = np.where(r <= 1.0, r ** (-m) if m > 0 else np.ones_like(r), 0.0)
    total = float(np.sum(vals)) * grid.spacing**grid.dim
    if total <= 0:
        raise EmptyRegionError("unit ball contains no lattice nodes")
    return ScalarField(grid, vals / total)


def shell_profile(grid: VelocityGrid, radius: float = 2.0, width: float = 0.25) -> ScalarField:
    """Thin spherical shell (Gaussian in |v| - radius), unit mass."""
    if radius <= 0 or width <= 0:
        raise GridError("shell radius and width must be positive")
    r = grid.radius()
    vals = np.exp(-(((r - radius) / width) ** 2))
    total = float(np.sum(vals)) * grid.spacing**grid.dim
    if total <= 0:
        raise EmptyRegionError("shell misses every lattice node")
    return ScalarField(grid, vals / total)


def random_density(grid: VelocityGrid, rng: np.random.Generator) -> ScalarField:
    """
    Seeded random smooth density: a squared sum of four low-mode
    trigonometric waves under a Gaussian envelope, unit mass.
    """
    L = grid.half_extent
    coords = grid.coords()
    wave = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(-3, 4, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.3, 1.0)
        arg = np.zeros(grid.shape)
        for ax in range(grid.dim):
            arg = arg + (np.pi / L) * k[ax] * coords[ax]
        wave = wave + amp * np.cos(arg + phase)
    vals = (wave**2 + 0.05) * np.exp(-grid.radius_squared() / 2.0)
    total = float(np.sum(vals)) * grid.spacing**grid.dim
    return ScalarField(grid, vals / total)


def write_field(path, f: ScalarField):
    """
    Write the binary snapshot atomically: magic "LLF1", dim, N, L
    (little-endian 64-bit), then float64 values in C order.
    """
    header = _SNAPSHOT_MAGIC + struct.pack(
        "<qqd", f.grid.dim, f.grid.points_per_axis, f.grid.half_extent
    )
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_field(path) -> ScalarField:
    """Read a binary snapshot written by :func:`write_field`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 28 or blob[:4] != _SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic string")
    dim, n, L = struct.unpack("<qqd", blob[4:28])
    if dim != 3 or n < 4:
        raise SnapshotFormatError(f"{path}: unsupported header (dim={dim}, N={n}); need dim 3 and N >= 4")
    expected = 28 + 8 * n**dim
    if len(blob) != expected:
        raise SnapshotFormatError(
            f"{path}: payload size {len(blob)} does not match header ({expected})"
        )
    grid = make_grid(int(dim), float(L), int(n))
    values = np.frombuffer(blob[28:], dtype="<f8").reshape(grid.shape).copy()
    return ScalarField(grid, values)
