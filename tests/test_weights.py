import itertools

import numpy as np
import pytest

from landau_lab import coefficients as co
from landau_lab.errors import WeightPositivityError
from landau_lab.grid import (
    CubeSet,
    ScalarField,
    make_dyadic_cubes,
    make_grid,
    maxwellian,
    random_density,
)
from landau_lab.report import write_json
from landau_lab.weights import (
    a1_constant,
    ap_constant,
    cube_family_averages,
    cube_family_minima,
    doubling_constant,
    morrey_ratio,
    morrey_ratio_family,
    reverse_holder,
)


@pytest.fixture(scope="module")
def cubes16(grid16):
    return make_dyadic_cubes(grid16, 4.0, 1)


def test_ap_of_constant_is_one(grid16, cubes16):
    ones = ScalarField(grid16, np.ones(grid16.shape))
    for p in (1.5, 2.0, 3.0):
        assert ap_constant(ones, p, cubes16).value == pytest.approx(1.0, abs=1e-12)
    assert a1_constant(ones, cubes16).value == pytest.approx(1.0, abs=1e-12)
    assert reverse_holder(ones, 1.0, cubes16).value == pytest.approx(1.0, abs=1e-12)


def test_ap_inverse_power_weight(grid16, cubes16):
    w = ScalarField(grid16, grid16.radius() ** -1.5)
    rep = ap_constant(w, 2.0, cubes16)
    assert np.isfinite(rep.value) and rep.value < 20.0
    # value does not blow up with cube location: per-cube values bounded
    assert np.nanmax(rep.per_cube) / np.nanmin(rep.per_cube) < 50.0


def test_ap_exponential_weight_grows_with_cube_size(grid16):
    w = ScalarField(grid16, np.exp(grid16.radius()))
    small = make_dyadic_cubes(grid16, 2.0, 0)
    big = make_dyadic_cubes(grid16, 8.0, 0)
    assert ap_constant(w, 2.0, big).value > 3.0 * ap_constant(w, 2.0, small).value


def test_weight_positivity_checked(grid16, cubes16):
    w = ScalarField(grid16, np.ones(grid16.shape))
    w.values[0, 0, 0] = -1.0
    with pytest.raises(WeightPositivityError):
        ap_constant(w, 2.0, cubes16)


def test_ap_monotone_in_p_and_below_a1(grid16, cubes16, rng):
    w = ScalarField(grid16, 0.1 + rng.random(grid16.shape))
    a1 = a1_constant(w, cubes16).value
    prev = np.inf
    for p in (1.5, 2.0, 3.0, 5.0):
        val = ap_constant(w, p, cubes16).value
        assert val <= prev + 1e-12
        assert val <= a1 + 1e-12
        prev = val


def test_constants_scale_invariant(grid16, cubes16, rng):
    w = ScalarField(grid16, 0.1 + rng.random(grid16.shape))
    w2 = ScalarField(grid16, 7.3 * w.values)
    assert ap_constant(w, 2.0, cubes16).value == pytest.approx(
        ap_constant(w2, 2.0, cubes16).value, rel=1e-12
    )
    assert a1_constant(w, cubes16).value == pytest.approx(
        a1_constant(w2, cubes16).value, rel=1e-12
    )
    assert reverse_holder(w, 2.0, cubes16).value == pytest.approx(
        reverse_holder(w2, 2.0, cubes16).value, rel=1e-12
    )


def test_a1_of_trace_weight_over_random_densities(grid16, cubes16):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        f = random_density(grid16, rng)
        a = co.a_field(f, -3.0)
        worst = max(worst, a1_constant(a, cubes16, weight_id="a").value)
    assert worst < 5.0  # frozen regression bound (measured ~2.6)


def test_a1_of_least_eigenvalue_weight(maxwellian16, cubes16):
    b = co.build_coefficients(maxwellian16, -3.0)
    rep = a1_constant(b.a_star, cubes16, weight_id="a_star")
    assert np.isfinite(rep.value) and rep.value >= 1.0


def test_reverse_holder_trace_weight(grid16, cubes16):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        f = random_density(grid16, rng)
        a = co.a_field(f, -3.0)
        worst = max(worst, reverse_holder(a, 2.0, cubes16).value)
    assert worst < 2.0  # m = 2 < d/|2+gamma| = 3; frozen (measured ~1.3)


def test_reverse_holder_convolution_monotone(grid16, cubes16, rng):
    # averaging through a nonnegative density can only shrink the constant
    gamma = -3.0
    kernel = ScalarField(grid16, grid16.radius() ** (2.0 + gamma))
    base = reverse_holder(kernel, 2.0, cubes16).value
    for _ in range(5):
        g = random_density(grid16, rng)
        conv = co.a_field(g, gamma)
        assert reverse_holder(conv, 2.0, cubes16).value <= base * 1.01


def test_reverse_holder_excludes_empty_cubes(grid16, cubes16):
    w = ScalarField(grid16, np.zeros(grid16.shape))
    w.values[8, 8, 8] = 1.0
    rep = reverse_holder(w, 2.0, cubes16)
    assert rep.excluded_cubes > 0
    assert np.isfinite(rep.value)


def test_doubling_constant_const_field():
    g = make_grid(3, 8.0, 32)
    ones = ScalarField(g, np.ones(g.shape))
    interior = g.radius() < 5.0
    rep = doubling_constant(ones, radii=(1.0,), centers_mask=interior)
    assert rep.value == pytest.approx(8.0, rel=0.1)


def test_doubling_maxwellian_vs_shell(grid24, maxwellian24):
    from landau_lab.grid import shell_profile

    rep_m = doubling_constant(maxwellian24, radii=(0.25, 0.5, 1.0))
    assert np.isfinite(rep_m.value) and rep_m.value > 1.0
    # thin spherical shell: hollow interior makes the doubling much worse
    shell = shell_profile(grid24, 2.0, 0.2)
    rep_s = doubling_constant(shell, radii=(0.25, 0.5, 1.0))
    assert rep_s.value >= 10.0 * rep_m.value


def test_doubling_ignores_roundoff_in_the_tail(maxwellian24):
    # noise of at most 1e-13 max f on the nodes below 1e-12 max f: without the
    # bulk floor the constant went 3337.03 at (20, 6, 4) -> 2368.85 at (19, 4, 18)
    ref = doubling_constant(maxwellian24)
    top = float(maxwellian24.values.max())
    for seed in range(3):
        vals = maxwellian24.values.copy()
        tail = vals < 1e-12 * top
        vals[tail] += 1e-13 * top * np.random.default_rng(seed).random(np.count_nonzero(tail))
        rep = doubling_constant(ScalarField(maxwellian24.grid, vals))
        assert abs(rep.value - ref.value) <= 1e-9 * ref.value, seed
        assert rep.parameters == ref.parameters, seed
    assert ref.excluded_cubes > 0


def test_doubling_rejects_zero(grid16):
    zero = ScalarField(grid16, np.zeros(grid16.shape))
    with pytest.raises(Exception):
        doubling_constant(zero)


def test_morrey_ratio_scale_invariant(grid16, cubes16, rng):
    f = random_density(grid16, rng)
    h1, a1 = co.h_field(f, -3.0), co.a_field(f, -3.0)
    c = 4.2
    f2 = ScalarField(grid16, c * f.values)
    h2, a2 = co.h_field(f2, -3.0), co.a_field(f2, -3.0)
    v1 = morrey_ratio_family(h1, a1, cubes16, s=1.0)
    v2 = morrey_ratio_family(h2, a2, cubes16, s=1.0)
    # far cubes hold only roundoff-level mass; compare the resolved ones
    resolved = v1 > 1e-3 * np.nanmax(v1)
    assert resolved.sum() > 100
    assert np.allclose(v1[resolved], v2[resolved], rtol=1e-9)


def test_morrey_ratio_side_scaling_moderately_soft():
    # with the least-eigenvalue weight and s > 1 the ratio scales like
    # side^(2+gamma) for moderately soft exponents
    g = make_grid(3, 8.0, 32)
    M = maxwellian(g)
    gamma = -1.0
    b = co.build_coefficients(M, gamma)
    cubes = make_dyadic_cubes(g, 4.0, 2)
    vals = morrey_ratio_family(b.h, b.a_star, cubes, s=1.2)
    sides = np.array([c.side(g) for c in cubes.cubes])
    logs = {}
    for s_val in np.unique(sides):
        logs[s_val] = np.max(vals[sides == s_val])
    xs = np.log(list(logs.keys()))
    ys = np.log(list(logs.values()))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - (2.0 + gamma)) < 0.2


def test_morrey_ratio_errors(grid16, maxwellian16, cubes16):
    b = co.build_coefficients(maxwellian16, -1.0)
    w = ScalarField(grid16, np.zeros(grid16.shape))
    with pytest.raises(WeightPositivityError):
        morrey_ratio(b.h, w, cubes16.cubes[0])
    with pytest.raises(ValueError):
        morrey_ratio(b.h, b.a, cubes16.cubes[0], s=0.5)


def test_cube_family_averages_match_direct(grid16, rng):
    cubes = make_dyadic_cubes(grid16, 8.0, 2)  # 8 + 64 + 512 cubes of 8, 4 and 2 cells
    assert len(cubes.cubes) == len(cubes) == 584
    # level-major, anchors in C order within a level
    assert [c.level for c in cubes.cubes] == [0] * 8 + [1] * 64 + [2] * 512
    assert [c.n_cells for c in cubes.cubes] == [8] * 8 + [4] * 64 + [2] * 512
    assert [c.anchor for c in cubes.cubes[8:72]] == list(itertools.product(range(0, 16, 4), repeat=3))
    vals = rng.random(grid16.shape)
    avg = cube_family_averages(vals, cubes)
    low = cube_family_minima(vals, cubes)
    for k in (0, 7, 8, 41, 71, 72, 300, 583):
        block = vals[cubes.cubes[k].slices()]
        assert avg[k] == pytest.approx(float(np.mean(block)), rel=1e-12)
        assert low[k] == np.min(block)


@pytest.mark.parametrize("n, base_cells", [(16, 8), (24, 12)])  # sides 8, 4, 2 and 12, 6, 3 cells
@pytest.mark.parametrize("field", ["random", "gaussian_tail"])
def test_pyramid_matches_every_block(n, base_cells, field):
    g = make_grid(3, 8.0, n)
    cubes = make_dyadic_cubes(g, base_cells * g.spacing, 2)
    assert cubes.cells == (base_cells, base_cells // 2, base_cells // 4)
    if field == "random":
        vals = np.random.default_rng(n).random(g.shape)
    else:  # from 1 at the centre down to 1e-300 in the corners
        r2 = g.radius_squared()
        vals = np.exp(np.log(1e-300) * (r2 - r2.min()) / (r2.max() - r2.min()))
        assert vals.max() == 1.0 and vals.min() == pytest.approx(1e-300, rel=1e-9)
    avg = cube_family_averages(vals, cubes)
    low = cube_family_minima(vals, cubes)
    assert avg.shape == low.shape == (len(cubes),)
    for k, cube in enumerate(cubes.cubes):
        block = vals[cube.slices()]
        assert low[k] == np.min(block), k
        assert abs(avg[k] - np.mean(block)) <= 1e-14 * np.mean(block), k


def test_weight_functionals_read_only_the_level_arrays(grid16, monkeypatch, rng):
    cubes = make_dyadic_cubes(grid16, 8.0, 2)
    w = ScalarField(grid16, 0.1 + rng.random(grid16.shape))

    def no_cube_objects(self):
        raise AssertionError("weight functionals must not build Cube objects")

    monkeypatch.setattr(CubeSet, "cubes", property(no_cube_objects), raising=False)
    assert ap_constant(w, 2.0, cubes).per_cube.shape == (584,)
    assert a1_constant(w, cubes).per_cube.shape == (584,)
    assert reverse_holder(w, 2.0, cubes).per_cube.shape == (584,)
    assert morrey_ratio_family(w, w, cubes).shape == (584,)


def test_reverse_holder_jensen_below_one(grid16, cubes16, rng):
    w = ScalarField(grid16, 0.1 + rng.random(grid16.shape))
    rep = reverse_holder(w, 0.5, cubes16)
    assert rep.value <= 1.0 + 1e-12


def test_weight_report_serialization(tmp_path, grid16, cubes16):
    ones = ScalarField(grid16, np.ones(grid16.shape))
    rep = ap_constant(ones, 2.0, cubes16)
    write_json(tmp_path / "w.json", rep)
    import json

    loaded = json.loads((tmp_path / "w.json").read_text())
    assert loaded["constant_name"] == "Ap"
    assert loaded["value"] == pytest.approx(1.0)
