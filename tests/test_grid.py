import math
import os
import stat
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from landau_lab.errors import (
    GridError,
    MemoryCapError,
    MisalignedCubeError,
    SnapshotFormatError,
)
from landau_lab.grid import (
    ScalarField,
    _brentq,
    counterexample_profile,
    make_dyadic_cubes,
    make_grid,
    maxwellian,
    moments,
    random_density,
    read_field,
    shell_profile,
    squeezed_gaussian,
    write_field,
)


def test_nodes_are_cell_centers_1d():
    g = make_grid(3, 1.0, 4)
    centres = [-0.75, -0.25, 0.25, 0.75]
    assert np.allclose(g.axis, centres)
    assert all(np.allclose(c.ravel(), centres) for c in g.coords())


def test_grid_spacing_and_counts():
    g = make_grid(3, 8.0, 64)
    assert g.spacing == 0.25
    assert g.n_nodes == 64**3
    assert g.spacing * g.points_per_axis == 2 * g.half_extent


def test_no_node_at_origin(grid16):
    assert np.min(grid16.radius()) > 0


@pytest.mark.parametrize("n", [3, 5, 2])
def test_odd_or_tiny_n_rejected(n):
    with pytest.raises(GridError):
        make_grid(3, 8.0, n)


@pytest.mark.parametrize("half_extent", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_half_extent_rejected(half_extent):
    with pytest.raises(GridError, match="half_extent"):
        make_grid(3, half_extent, 8)


def test_memory_cap():
    # 324^3 = 34,012,224 nodes, over DEFAULT_NODE_CAP = 2^25; nothing is allocated
    with pytest.raises(MemoryCapError, match="34012224 nodes"):
        make_grid(3, 8.0, 324)


def test_maxwellian_mass_vs_1d_quadrature(grid16):
    # unnormalized Gaussian sampled by midpoint quadrature versus the exact
    # integral, per axis; the 3-D discrete mass is the product of 1-D sums
    g = grid16
    one_d = np.sum(np.exp(-g.axis**2 / 2.0)) * g.spacing
    exact, err = quad(lambda v: math.exp(-(v**2) / 2.0), -8, 8, epsabs=1e-13)
    assert abs(one_d - exact) < 5e-3
    disc_mass = (one_d / math.sqrt(2 * math.pi)) ** 3
    assert abs(disc_mass - 1.0) < 1e-2


def test_maxwellian_moments_enforced(grid16):
    m, mom, e = moments(maxwellian(grid16))
    assert m == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(mom)) < 1e-13
    assert e == pytest.approx(3.0, abs=1e-11)


def test_maxwellian_pointwise_prefactor(grid16):
    # before renormalization the node nearest the origin carries the plain
    # Gaussian value; after it, the deviation is the tiny moment correction
    M = maxwellian(grid16)
    idx = np.unravel_index(np.argmax(M.values), M.values.shape)
    v2 = grid16.radius_squared()[idx]
    expected = (2 * math.pi) ** -1.5 * math.exp(-v2 / 2.0)
    assert M.values[idx] == pytest.approx(expected, rel=5e-3)


def test_maxwellian_bit_stable(grid16):
    a = maxwellian(grid16)
    b = maxwellian(grid16)
    assert a.values.tobytes() == b.values.tobytes()



def test_brentq_port_matches_scipy(monkeypatch):
    # the port must return scipy's root bit for bit, so profiles keep their bytes
    from scipy.optimize import brentq

    tol = {"xtol": 1e-14, "rtol": 8.9e-16}
    roots = []

    def record(f, xa, xb, **kw):
        roots.append((f, xa, xb))
        return _brentq(f, xa, xb, **kw)

    monkeypatch.setattr("landau_lab.grid._brentq", record)
    for half_extent in (4.0, 8.0):
        for n in (8, 16, 32):
            grid = make_grid(3, half_extent, n)
            maxwellian(grid)
            squeezed_gaussian(grid, 0.35)
    assert len(roots) == 12
    analytic = [
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 10, 0.0, 5.0),
        (lambda x: math.atan(x - 0.3), -10.0, 100.0),
        (lambda x: x, 0.0, 1.0),  # root at an endpoint
    ]
    for f, xa, xb in roots + analytic:
        assert _brentq(f, xa, xb, **tol) == brentq(f, xa, xb, **tol)
    with pytest.raises(GridError, match="no sign change"):
        _brentq(lambda x: x * x + 1, -1.0, 1.0, **tol)
    # roundoff around the triple root stalls both after 100 iterations
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(lambda x: (x - 1) ** 3, 0.0, 3.0, **tol)
    with pytest.raises(GridError, match="100 iterations"):
        _brentq(lambda x: (x - 1) ** 3, 0.0, 3.0, **tol)

def _cube_average(f, cube):
    return float(np.mean(f.values[cube.slices()]))


def test_cube_average_constant_linear(grid16):
    cubes = make_dyadic_cubes(grid16, 4.0, 0)
    c = cubes.cubes[0]
    const = ScalarField(grid16, np.full(grid16.shape, 2.5))
    assert _cube_average(const, c) == pytest.approx(2.5, rel=1e-14)
    x = ScalarField(grid16, np.broadcast_to(grid16.coords()[0], grid16.shape).copy())
    center = c.center(grid16)
    assert _cube_average(x, c) == pytest.approx(center[0], abs=1e-12)


def test_cube_average_inverse_radius_comparability(grid16):
    # far from the origin the cube mean of 1/|v| is comparable to
    # max(|center|, side)^(-1)
    w = ScalarField(grid16, 1.0 / grid16.radius())
    cubes = make_dyadic_cubes(grid16, 2.0, 0)
    for cube in cubes.cubes:
        center = cube.center(grid16)
        r = np.linalg.norm(center)
        if r < 4.0:
            continue
        ref = max(r, cube.side(grid16)) ** -1.0
        ratio = _cube_average(w, cube) / ref
        assert 0.25 < ratio < 4.0


def test_dyadic_counts_and_alignment():
    g = make_grid(3, 8.0, 16)
    cs0 = make_dyadic_cubes(g, 2.0, 0)
    assert len(cs0) == 512
    g64 = make_grid(3, 8.0, 64)
    cs1 = make_dyadic_cubes(g64, 2.0, 1)
    assert len(cs1) == 512 + 4096
    with pytest.raises(MisalignedCubeError):
        make_dyadic_cubes(g64, 0.3, 0)
    with pytest.raises(MisalignedCubeError):
        make_dyadic_cubes(g, 2.0, 3)  # smallest cube would be sub-cell


def test_children_tile_parent(grid16, rng):
    f = ScalarField(grid16, rng.random(grid16.shape))
    cubes = make_dyadic_cubes(grid16, 4.0, 1)
    parents = [c for c in cubes.cubes if c.level == 0]
    children = [c for c in cubes.cubes if c.level == 1]
    parent = parents[3]
    kids = [c for c in children if all(
        parent.anchor[ax] <= c.anchor[ax] < parent.anchor[ax] + parent.n_cells for ax in range(3)
    )]
    assert len(kids) == 8
    avg_kids = np.mean([_cube_average(f, k) for k in kids])
    assert avg_kids == pytest.approx(_cube_average(f, parent), rel=1e-12)


def test_counterexample_profile(grid16):
    f0 = counterexample_profile(grid16, 0.0)
    inside = grid16.radius() <= 1.0
    vals = f0.values[inside]
    assert np.allclose(vals, vals[0])  # uniform on the unit ball
    assert np.all(f0.values[~inside] == 0)
    assert moments(f0)[0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(GridError):
        counterexample_profile(grid16, 3.0)


def test_counterexample_normalization_constant():
    # discrete normalization against the closed-form integral of |v|^(-m)
    # over the unit ball (only loosely, the profile is singular)
    g = make_grid(3, 2.0, 64)
    m = 2.0
    f = counterexample_profile(g, m)
    peak = np.max(f.values)
    r_near = np.min(g.radius())
    exact_norm = 4.0 * math.pi / (3.0 - m)  # int_{B1} |v|^-m dv
    expected_peak = r_near**-m / exact_norm
    assert peak == pytest.approx(expected_peak, rel=0.2)


def test_squeezed_gaussian_moments(grid24):
    f = squeezed_gaussian(grid24, 0.5, 0.5)
    m, mom, e = moments(f)
    assert m == pytest.approx(1.0, abs=1e-12)
    assert e == pytest.approx(3.0, abs=1e-10)
    assert np.max(np.abs(mom)) < 1e-12
    assert f.values.max() > 2.0 * maxwellian(grid24).values.max()


def test_shell_and_random_density(grid16, rng):
    s = shell_profile(grid16, 2.0, 0.5)
    assert moments(s)[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(s.values >= 0)
    f = random_density(grid16, rng)
    assert moments(f)[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(f.values >= 0)


def test_snapshot_roundtrip(tmp_path, grid16, rng):
    f = ScalarField(grid16, rng.random(grid16.shape))
    path = tmp_path / "f.llf"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == grid16
    assert np.array_equal(g.values, f.values)


def test_snapshot_write_is_atomic(tmp_path, grid16, monkeypatch):
    from landau_lab import report

    path = tmp_path / "f.llf"
    write_field(path, maxwellian(grid16))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(report.os, "replace", fail)
    with pytest.raises(OSError):
        write_field(path, ScalarField(grid16, np.zeros(grid16.shape)))
    assert path.read_bytes() == before  # the old snapshot survives whole
    assert [p.name for p in tmp_path.iterdir()] == ["f.llf"]  # and no temporary is left


def test_outputs_get_the_umask_mode(tmp_path, grid16):
    from landau_lab.report import write_json

    old = os.umask(0o022)
    try:
        write_field(tmp_path / "f.llf", maxwellian(grid16))
        write_json(tmp_path / "r.json", {"a": 1})
    finally:
        os.umask(old)
    for name in ("f.llf", "r.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name


def test_snapshot_format_errors(tmp_path, grid16):
    f = ScalarField(grid16, np.zeros(grid16.shape))
    path = tmp_path / "f.llf"
    write_field(path, f)
    blob = path.read_bytes()
    bad_magic = tmp_path / "bad1.llf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SnapshotFormatError):
        read_field(bad_magic)
    truncated = tmp_path / "bad2.llf"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(SnapshotFormatError):
        read_field(truncated)


def test_snapshot_of_another_dimension_rejected(tmp_path):
    # a consistent 2-d file, packed by hand since no grid can write it: only its dimension is wrong
    path = tmp_path / "plane.llf"
    path.write_bytes(b"LLF1" + struct.pack("<qqd", 2, 16, 8.0) + np.ones(16 * 16).astype("<f8").tobytes())
    with pytest.raises(SnapshotFormatError, match="dim=2"):
        read_field(path)
