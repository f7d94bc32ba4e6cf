import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import dblquad

from landau_lab import coefficients as co
from landau_lab.errors import EigenSolveError, GammaRangeError, GridError, MemoryCapError, NonNegativityError
from landau_lab.grid import ScalarField, VelocityGrid, make_grid, maxwellian, random_density

ALL_KINDS = ["h", "a", "A00", "A01", "A02", "A11", "A12", "A22", "D0", "D1", "D2"]


def test_constants_coulomb():
    c = co.kernel_constants(-3.0)
    assert c["C_A"] == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
    assert c["c_a"] == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    assert c["c_h"] == 1.0
    assert c["laplace_factor"] == 1.0


def test_constants_chain_sweep():
    for gamma in (-2.9, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0):
        rep = co.verify_constant_chain(gamma)
        assert rep["max_rel_err"] < 1e-6, gamma


def test_constants_continuity_at_coulomb():
    near = co.kernel_constants(-3.0 + 1e-9)
    at = co.kernel_constants(-3.0)
    assert near["C_A"] == pytest.approx(at["C_A"], rel=1e-6)


def test_gamma_range_checked(grid16, maxwellian16):
    with pytest.raises(GammaRangeError):
        co.h_field(maxwellian16, 0.5)
    with pytest.raises(GammaRangeError):
        co.a_field(maxwellian16, -3.5)


def test_cell_average_values():
    assert co.unit_cell_power_average(2.0) == pytest.approx(0.25, rel=1e-12)
    assert co.unit_cell_power_average(0.0) == 1.0
    # independent oracle: face reduction evaluated by adaptive quadrature
    for p in (-1.0, -2.5):
        face, _ = dblquad(
            lambda y, x: (x * x + y * y + 0.25) ** (p / 2.0), -0.5, 0.5, -0.5, 0.5
        )
        expected = 3.0 / (p + 3.0) * face
        assert co.unit_cell_power_average(p) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_coefficients_require_three_dimensions(dim):
    # no field of another dimension reaches the engine: the lattice itself refuses d != 3
    with pytest.raises(GridError, match=f"got d = {dim}$"):
        make_grid(dim, 2.0, 4)
    with pytest.raises(GridError, match=f"got d = {dim}$"):
        VelocityGrid(dim, 2.0, 4)


def _tilted_gaussian(grid):
    """Off-centre, anisotropic Gaussian: nonzero mean and off-diagonal covariance."""
    x = [c - m for c, m in zip(grid.coords(), (0.3, -0.2, 0.1))]
    Q = np.array([[1.5, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.7]])  # inverse covariance
    return ScalarField(grid, np.exp(-0.5 * sum(Q[i, j] * x[i] * x[j] for i in range(3) for j in range(3))))


@pytest.mark.parametrize("gamma", [-1.0, -2.5, 0.0])
def test_fast_matches_direct_summation(gamma):
    # pads 16, 20 and 24 at n = 8, 10 and 12: P = 2n leaves one zero row, the
    # row P/2, between the wrapped kernel's positive and negative offsets, the
    # least gap an even pad allows.  At gamma = 0
    # the moment closed form is exact, and the tilted density exercises its
    # mean and off-diagonal covariance terms.
    tol = 1e-12 if gamma == 0.0 else 1e-9
    for n in (8, 10, 12):
        grid = make_grid(3, 2.0, n)
        for f in (maxwellian(grid), _tilted_gaussian(grid)):
            fast = co.fft_convolve(f, gamma, ALL_KINDS)
            direct = co.direct_convolve_many(f, gamma, ALL_KINDS)
            for fa, di, kind in zip(fast, direct, ALL_KINDS):
                scale = max(np.max(np.abs(di)), 1e-300)
                assert np.max(np.abs(fa - di)) / scale < tol, (n, kind)


def test_gamma0_signed_zero_mass_field_matches_direct_summation(rng):
    # f has no mean to centre at; roundoff is measured against the sums for |f|
    grid = make_grid(3, 2.0, 8)
    vals = rng.normal(size=grid.shape)
    vals -= vals.mean()
    fast = co.fft_convolve(ScalarField(grid, vals), 0.0, ALL_KINDS)
    direct = co.direct_convolve_many(ScalarField(grid, vals), 0.0, ALL_KINDS)
    bound = co.direct_convolve_many(ScalarField(grid, np.abs(vals)), 0.0, ALL_KINDS)
    for fa, di, bo, kind in zip(fast, direct, bound, ALL_KINDS):
        assert np.max(np.abs(fa - di)) / np.max(np.abs(bo)) < 1e-12, kind


@pytest.mark.parametrize("gamma", [-1.0, 0.0])
def test_unknown_kernel_kind_rejected(gamma, maxwellian16):
    with pytest.raises(ValueError, match="unknown kernel kind"):
        co.fft_convolve(maxwellian16, gamma, ["h", "B0"])


def test_gamma0_builds_without_a_plan(monkeypatch, rng):
    monkeypatch.setattr(co, "_plan_cache", OrderedDict())
    monkeypatch.setattr(co, "_PLAN_BYTE_BUDGET", 0)
    f = random_density(make_grid(3, 4.0, 16), rng)
    b = co.build_coefficients(f, 0.0)
    assert len(co._plan_cache) == 0
    assert np.all(b.h.values == b.h.values[0, 0, 0]) and np.all(np.isfinite(b.A.comps))


def test_fft_results_identical_for_any_worker_count(monkeypatch, rng):
    f = random_density(make_grid(3, 4.0, 16), rng)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(co, "_plan_cache", OrderedDict())
        monkeypatch.setattr(co, "_DEF_WORKERS", workers)
        runs.append(co.fft_convolve(f, -1.0, ALL_KINDS))
    for one, two, kind in zip(*runs, ALL_KINDS):
        assert np.array_equal(one, two), kind


@pytest.mark.parametrize("gamma", [-1.0, -3.0])
@pytest.mark.parametrize("n", [16, 24])  # pads 32 and 48: 48 is even but no power of two
def test_each_kind_of_a_block_equals_its_single_kind_call(gamma, n, rng):
    # the kinds share the spectrum of f and the row buffer of the axis-0
    # pass: no kind may read what the one before it left there
    f = random_density(make_grid(3, 4.0, n), rng)
    kinds = [k for k in ALL_KINDS if not (gamma == -3.0 and k == "h")]
    single = {kind: co.fft_convolve(f, gamma, [kind])[0] for kind in kinds}
    for order in (kinds, kinds[::-1]):  # D kinds after and before the A kinds
        block = co.fft_convolve(f, gamma, order)
        assert block.shape == (len(order),) + f.grid.shape
        for row, kind in zip(block, order):
            assert np.array_equal(row, single[kind]), (n, kind)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bundle_memory_in_fields(rng):
    # the spectrum of f is the only buffer of the box's size; the bundle's
    # fields are rows of one 7-row block (A and h, no drift), scaled in
    # place, and a* runs a few planes at a time.  A field is one N^3
    # float64 array.  The spectrum of f takes 8.25 of them at N=32 (P=64).
    f = random_density(make_grid(3, 8.0, 32), rng)
    field = f.values.nbytes
    co.build_coefficients(f, -1.0).drift  # a warm plan, D0 included
    assert _traced_peak(lambda: co.build_coefficients(f, -1.0)) <= 22 * field  # 21.4
    # gamma = 0 holds the 7-row block and a
    assert _traced_peak(lambda: co.build_coefficients(f, 0.0)) <= 9 * field  # 8.0
    bundle = co.build_coefficients(f, -1.0)
    assert _traced_peak(lambda: bundle.a_star) <= 6 * field
    assert _traced_peak(lambda: bundle.drift) <= 23 * field  # 21.6: a second spectrum of f


def test_cached_spectra_are_real_half_spectra(monkeypatch, maxwellian16):
    # a bundle stores one spectrum per axis-permutation class; the rest are
    # transposed views.  The build stores no drift class: the first drift read adds D0
    for gamma, built in ((-1.0, ["A00", "A01", "h"]), (-3.0, ["A00", "A01"])):
        monkeypatch.setattr(co, "_plan_cache", OrderedDict())
        bundle = co.build_coefficients(maxwellian16, gamma)
        (plan,) = co._plan_cache.values()
        m = plan.pad // 2 + 1
        assert sorted(plan.kernel_ffts) == built
        bundle.drift
        assert list(co._plan_cache.values()) == [plan]
        stored = sorted(built + ["D0"])
        assert sorted(plan.kernel_ffts) == stored
        assert plan.nbytes() == len(stored) * m**3 * 8
        for kind, spec in plan.kernel_ffts.items():
            assert spec.dtype == np.float64, kind
            assert spec.shape == (m, m, m), kind  # the parity octant
            assert spec.flags.c_contiguous, kind
            assert spec.flags.owndata, kind  # not a view into a larger buffer


def test_matrix_field_stores_only_the_a_representatives(monkeypatch, maxwellian16):
    monkeypatch.setattr(co, "_plan_cache", OrderedDict())
    co.matrix_field(maxwellian16, -1.0)
    (plan,) = co._plan_cache.values()
    assert sorted(plan.kernel_ffts) == ["A00", "A01"]
    bundle = co.build_coefficients(maxwellian16, -1.0)
    assert list(co._plan_cache.values()) == [plan]
    assert sorted(plan.kernel_ffts) == ["A00", "A01", "h"]
    bundle.drift
    assert list(co._plan_cache.values()) == [plan]
    assert sorted(plan.kernel_ffts) == ["A00", "A01", "D0", "h"]


def _recording_convolve(monkeypatch) -> list[list[str]]:
    """The kinds of every ``fft_convolve`` call from here on, in call order."""
    calls = []
    real = co.fft_convolve

    def recording(f, gamma, kinds):
        calls.append(list(kinds))
        return real(f, gamma, kinds)

    monkeypatch.setattr(co, "fft_convolve", recording)
    return calls


@pytest.mark.parametrize("gamma", [0.0, -1.0, -3.0])
def test_stepper_bundle_convolves_the_drift_with_the_rest(gamma, monkeypatch, rng):
    # the time stepper's bundle: one block of A, h (unless gamma = -3) and the
    # drift, whose rows are the bytes the lazy read of any other bundle yields
    f = random_density(make_grid(3, 4.0, 16), rng)
    lazy = co.build_coefficients(f, gamma)
    lazy_drift = lazy.drift
    calls = _recording_convolve(monkeypatch)
    bundle = co._build_bundle(f, gamma, drift=True)
    drift = bundle.drift
    assert calls == [co._built_kinds(gamma) + co._DRIFT_KINDS]
    assert bundle.drift is drift
    for b, ref in zip(drift, lazy_drift, strict=True):
        assert b.values.tobytes() == ref.values.tobytes()
    assert bundle.A.comps.tobytes() == lazy.A.comps.tobytes()
    assert bundle.h.values.tobytes() == lazy.h.values.tobytes()
    assert bundle.a.values.tobytes() == lazy.a.values.tobytes()


@pytest.mark.parametrize("gamma", [0.0, -1.0, -3.0])
def test_drift_is_convolved_on_first_read_only(gamma, monkeypatch, rng):
    f = random_density(make_grid(3, 4.0, 16), rng)
    # one block of all the bundle's kinds: A rows 0-5, the drift rows 6-8, then h
    full = co.fft_convolve(f, gamma, co._A_KINDS + co._DRIFT_KINDS + ([] if gamma == -3 else ["h"]))
    calls = _recording_convolve(monkeypatch)
    bundle = co.build_coefficients(f, gamma)
    assert calls == [co._built_kinds(gamma)]
    assert not any(kind.startswith("D") for kind in calls[0])
    drift = bundle.drift
    assert calls[1:] == [["D0", "D1", "D2"]]
    assert bundle.drift is drift  # a second read convolves nothing
    assert len(calls) == 2
    c_drift = co.kernel_constants(gamma)["c_drift"]
    nA = len(co.COMPONENT_PAIRS)
    for i, b in enumerate(drift):
        assert b.values.tobytes() == (full[nA + i] * c_drift).tobytes(), i
    A = full[:nA] * co.kernel_constants(gamma)["C_A"]
    assert bundle.A.comps.tobytes() == A.tobytes()


# axes in which each wrapped kernel table is odd; the rest are even
ODD_AXES = {"A01": (0, 1), "A02": (0, 2), "A12": (1, 2), "D0": (0,), "D1": (1,), "D2": (2,)}


@pytest.mark.parametrize("n", [16, 6, 8, 32])  # pads 32, 12, 16 and 64: always even
def test_octant_unfolds_to_the_full_spectrum(n):
    grid = make_grid(3, 2.0, n)
    plan = co._ConvPlan(grid, -1.0)
    P = plan.pad
    m = P // 2 + 1
    k = np.r_[0:n, 1 - n : 0]  # offset k at index k mod P
    z = k * grid.spacing
    coords = np.ix_(z, z, z)
    r2 = sum(c**2 for c in coords)
    rows = np.arange(P)
    folded = np.minimum(rows, P - rows)
    for kind in ALL_KINDS:
        table = np.zeros((P, P, P))
        table[np.ix_(k % P, k % P, k % P)] = co.kernel_point_values(grid.spacing, -1.0, kind, coords, r2)
        spec = np.fft.rfftn(table)
        full = spec.imag if kind.startswith("D") else spec.real
        odd = ODD_AXES.get(kind, ())
        sign = [np.where((rows >= m) & (ax in odd), -1.0, 1.0) for ax in (0, 1)]
        unfolded = plan.kernel_fft(kind)[np.ix_(folded, folded)] * sign[0][:, None, None] * sign[1][None, :, None]
        assert unfolded.shape == full.shape, kind
        assert np.max(np.abs(unfolded - full)) <= 1e-15 * np.max(np.abs(full)), (n, kind)


@pytest.mark.parametrize("kind", ["h", "A01", "D2"])
def test_cold_spectrum_allocates_less_than_one_full_table(kind):
    # the octant transforms never hold a P^3 float64 table or a complex spectrum
    plan = co._ConvPlan(make_grid(3, 8.0, 32), -1.0)
    tracemalloc.start()
    try:
        plan.kernel_fft(kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.pad % 2 == 0 and peak < plan.pad**3 * 8, (plan.pad, peak)


def test_plan_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(co, "_plan_cache", OrderedDict())
    grid = make_grid(3, 2.0, 6)  # pad 12, octant side 7: 7 * 7 * 7 * 8 = 2744 bytes per spectrum
    f = maxwellian(grid)
    per_plan = 2 * 2744
    monkeypatch.setattr(co, "_PLAN_BYTE_BUDGET", 2 * per_plan)
    for gamma in (-1.0, -2.0):
        co.fft_convolve(f, gamma, ["h", "a"])
    co.fft_convolve(f, -1.0, ["h"])  # -1 becomes the most recently used
    co.fft_convolve(f, -0.5, ["h", "a"])
    assert [key[1] for key in co._plan_cache] == [-1.0, -0.5]
    assert sum(p.nbytes() for p in co._plan_cache.values()) == 2 * per_plan
    # a plan that grows past the room left evicts the other one
    co.fft_convolve(f, -0.5, ["D0"])
    assert [key[1] for key in co._plan_cache] == [-0.5]


def test_plan_over_budget_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(co, "_plan_cache", OrderedDict())
    monkeypatch.setattr(co, "_PLAN_BYTE_BUDGET", 3_000)
    f = maxwellian(make_grid(3, 2.0, 6))
    co.fft_convolve(f, -1.0, ["h"])  # 2744 bytes fit
    with pytest.raises(MemoryCapError) as err:
        co.fft_convolve(f, -1.0, ["h", "a"])
    assert "5488 bytes" in str(err.value) and "3000 bytes" in str(err.value)
    with pytest.raises(MemoryCapError):
        co.build_coefficients(maxwellian(make_grid(3, 2.0, 64)), -1.0)
    assert [list(p.kernel_ffts) for p in co._plan_cache.values()] == [["h"]]


def test_h_field_branches(grid16, maxwellian16):
    h = co.h_field(maxwellian16, -3.0)
    assert np.array_equal(h.values, maxwellian16.values)  # identity branch
    zero = ScalarField(grid16, np.zeros(grid16.shape))
    assert np.all(co.h_field(zero, -1.0).values == 0)
    with pytest.raises(NonNegativityError):
        co.h_field(ScalarField(grid16, -np.ones(grid16.shape)), -1.0)


def test_a_field_gamma_minus2_constant(grid16, maxwellian16):
    a = co.a_field(maxwellian16, -2.0)
    c = co.kernel_constants(-2.0)
    assert np.allclose(a.values, c["c_a"], rtol=1e-12)


def test_single_cell_closed_forms():
    grid = make_grid(3, 4.0, 16)
    vals = np.zeros(grid.shape)
    idx = (10, 8, 8)
    vals[idx] = 1.0 / grid.spacing**3  # unit mass in one cell
    f = ScalarField(grid, vals)
    v0 = np.array([grid.axis[10], grid.axis[8], grid.axis[8]])
    gamma = -1.0
    c = co.kernel_constants(gamma)
    a = co.a_field(f, gamma)
    # grad a = -(2+gamma) b, the identity the drift kernel carries
    ga = [-(2.0 + gamma) * b.values for b in co.build_coefficients(f, gamma).drift]
    coords = [np.broadcast_to(cc, grid.shape) for cc in grid.coords()]
    dist = np.sqrt(sum((coords[ax] - v0[ax]) ** 2 for ax in range(3)))
    far = dist > 3 * grid.spacing
    expected = c["c_a"] * dist[far] ** (2.0 + gamma)
    assert np.max(np.abs(a.values[far] - expected) / expected) < 1e-12
    # kernel gradients align with v - v0 away from the cell
    gvec = np.stack(ga)
    dvec = np.stack([coords[ax] - v0[ax] for ax in range(3)])
    cossim = np.sum(gvec * dvec, axis=0) / (
        np.linalg.norm(gvec, axis=0) * np.linalg.norm(dvec, axis=0) + 1e-300
    )
    assert np.min(cossim[far]) > 1 - 1e-10


def test_projection_annihilates_direction():
    grid = make_grid(3, 4.0, 16)
    vals = np.zeros(grid.shape)
    vals[8, 8, 8] = 1.0 / grid.spacing**3
    f = ScalarField(grid, vals)
    A = co.build_coefficients(f, -1.0).A
    v0 = np.array([grid.axis[8]] * 3)
    coords = [np.broadcast_to(cc, grid.shape) for cc in grid.coords()]
    rel = [coords[ax] - v0[ax] for ax in range(3)]
    Av = A.apply(rel)
    norm_av = np.sqrt(sum(x**2 for x in Av))
    scale = A.trace() * np.sqrt(sum(x**2 for x in rel))
    dist = np.sqrt(sum(x**2 for x in rel))
    far = dist > 3 * grid.spacing
    assert np.max(norm_av[far] / scale[far]) < 1e-12


def test_trace_identity(bundle16_m1, maxwellian16):
    a_own = co.a_field(maxwellian16, -1.0)
    scale = np.max(np.abs(a_own.values))
    assert np.max(np.abs(bundle16_m1.A.trace() - a_own.values)) / scale < 1e-10


def test_maxwellian_gamma0_isotropic_at_origin(grid16, maxwellian16):
    # no node sits at v = 0; the value there is the symmetrized average over
    # the 8 central nodes, which kills the odd v_i v_j parts exactly
    A = co.build_coefficients(maxwellian16, 0.0).A
    n2 = grid16.points_per_axis // 2
    block = (slice(n2 - 1, n2 + 1),) * 3
    diag = [float(np.mean(A.component(i, i)[block])) for i in range(3)]
    off = [
        abs(float(np.mean(A.component(i, j)[block])))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    assert max(off) < 1e-9
    assert max(diag) - min(diag) < 1e-9 * max(diag)


def test_psd_and_linearity(grid16, maxwellian16, rng):
    g = random_density(grid16, rng)
    bundle_f = co.build_coefficients(maxwellian16, -1.0).A
    bundle_g = co.build_coefficients(g, -1.0).A
    fg = ScalarField(grid16, maxwellian16.values + g.values)
    bundle_fg = co.build_coefficients(fg, -1.0).A
    assert np.max(np.abs(bundle_fg.comps - bundle_f.comps - bundle_g.comps)) < 1e-12 * np.max(
        np.abs(bundle_fg.comps)
    )
    lmin, lmax = co.eigenvalue_range(bundle_fg)
    assert np.min(lmin) >= -1e-12 * np.max(lmax)


def _quadratic_form(A, e):
    """(A e, e) per node for a fixed direction e, summed entry by entry."""
    return sum(A.component(i, j) * e[i] * e[j] for i in range(3) for j in range(3))


def test_a_star_orderings(bundle16_m1, rng):
    b = bundle16_m1
    lmin, lmax = co.eigenvalue_range(b.A)
    for _ in range(100):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        q = _quadratic_form(b.A, e)
        assert np.all(b.a_star.values <= q + 1e-12 * np.max(lmax))
        assert np.all(q <= b.a.values + 1e-12 * np.max(lmax))


def test_a_star_closed_form_vs_lapack(bundle16_m1):
    dense = np.linalg.eigvalsh(bundle16_m1.A.as_dense().reshape(-1, 3, 3))
    lmin = dense[:, 0].reshape(bundle16_m1.grid.shape)
    scale = np.max(dense[:, -1])
    assert np.max(np.abs(lmin - bundle16_m1.a_star.values)) / scale < 1e-12


def test_build_rejects_non_finite_matrix_entry(grid16, monkeypatch):
    real = co.fft_convolve

    def poisoned(f, gamma, kinds):
        out = real(f, gamma, kinds)
        out[1][3, 4, 5] = np.nan  # A01
        return out

    monkeypatch.setattr(co, "fft_convolve", poisoned)
    with pytest.raises(EigenSolveError) as info:
        co.build_coefficients(maxwellian(grid16), -1.0)  # before a* is ever read
    assert info.value.node == (3, 4, 5)


def test_a_star_diagonal_matrix():
    grid = make_grid(3, 1.0, 4)
    comps = np.zeros((6,) + grid.shape)
    comps[0] = 2.0  # A00
    comps[3] = 3.0  # A11
    comps[5] = 5.0  # A22
    A = co.MatrixField(grid, comps)
    assert np.allclose(co.a_star_field(A).values, 2.0)
    assert np.allclose(_quadratic_form(A, np.array([0.0, 0.0, 1.0])), 5.0)


def test_a_star_direction_sampling_bound(bundle16_m1):
    dirs = co.fibonacci_sphere(2000)
    b = bundle16_m1
    a00, a01, a02 = b.A.component(0, 0), b.A.component(0, 1), b.A.component(0, 2)
    a11, a12, a22 = b.A.component(1, 1), b.A.component(1, 2), b.A.component(2, 2)
    best = np.full(b.grid.shape, np.inf)
    for e in dirs:
        q = (
            a00 * e[0] ** 2 + a11 * e[1] ** 2 + a22 * e[2] ** 2
            + 2 * (a01 * e[0] * e[1] + a02 * e[0] * e[2] + a12 * e[1] * e[2])
        )
        np.minimum(best, q, out=best)
    lmin, lmax = co.eigenvalue_range(b.A)
    assert np.all(best >= lmin - 1e-12 * np.max(lmax))
    gap = (best - lmin) / np.maximum(lmax - lmin, 1e-300)
    assert np.max(gap) < 6e-3  # covering bound of 2000 spiral directions


def test_a_star_far_field_slope():
    grid = make_grid(3, 8.0, 32)
    M = maxwellian(grid)
    b = co.build_coefficients(M, -1.0)
    r = grid.radius()
    sel = (r >= 2.0) & (r <= 6.0)
    x = np.log(np.sqrt(1.0 + r[sel] ** 2))
    y = np.log(b.a_star.values[sel])
    A = np.vstack([x, np.ones_like(x)]).T
    slope = np.linalg.lstsq(A, y, rcond=None)[0][0]
    assert abs(slope - (-1.0)) < 0.15


def test_grad_a_radial_symmetry(bundle16_m1, grid16):
    # symmetrized over the central 2x2x2 block so the evaluation point is 0
    n2 = grid16.points_per_axis // 2
    block = (slice(n2 - 1, n2 + 1),) * 3
    grad_a = [-(2.0 + bundle16_m1.gamma) * b.values for b in bundle16_m1.drift]
    peak = max(np.max(np.abs(g)) for g in grad_a)
    for g in grad_a:
        assert abs(float(np.mean(g[block]))) < 1e-12 * peak


def test_grad_a_matches_finite_differences():
    # refinement study away from the support: observed order >= 1.8
    errs = []
    for n in (16, 24, 32):
        grid = make_grid(3, 4.0, n)
        vals = np.exp(-grid.radius_squared() * 2.0)
        f = ScalarField(grid, vals / (np.sum(vals) * grid.spacing**3))
        a = co.a_field(f, -1.0)
        ga = -co.build_coefficients(f, -1.0).drift[0].values  # grad a = -(2+gamma) b
        fd = np.gradient(a.values, grid.spacing, axis=0)
        far = grid.radius() > 2.0
        far[0, :, :] = far[-1, :, :] = False  # one-sided boundary rows
        errs.append(np.max(np.abs(fd[far] - ga[far])) / np.max(np.abs(ga[far])))
    order = math.log(errs[0] / errs[-1]) / math.log(32 / 16)
    assert order >= 1.8


def test_laplacian_chain_field_level(maxwellian24):
    # -Delta a = -(2+gamma) h at the resolution-limited tolerance; exact
    # (both sides vanish) at gamma = -2
    for gamma, tol in ((-1.0, 3e-2), (-2.5, 4e-2), (-3.0, 6e-2)):
        b = co.build_coefficients(maxwellian24, gamma)
        mda = co.spectral_laplacian(b.a)
        target = -(2.0 + gamma) * b.h.values
        m = 6
        core = (slice(m, -m),) * 3
        res = np.max(np.abs(mda.values[core] - target[core])) / np.max(np.abs(b.h.values[core]))
        assert res < tol, gamma
    b2 = co.build_coefficients(maxwellian24, -2.0)
    mda2 = co.spectral_laplacian(b2.a)
    assert np.max(np.abs(mda2.values)) < 1e-10 * np.max(b2.h.values)


def test_comparability_report(maxwellian16):
    rep = co.comparability_report(co.build_coefficients(maxwellian16, 0.0))
    assert rep["c_hat_a_lower"] > 0
    assert rep["c_hat_astar_lower"] > 0
    rep3 = co.comparability_report(co.build_coefficients(maxwellian16, -3.0))
    assert np.isfinite(rep3["C_hat_a_vs_astar"])
    assert rep3["a_vs_astar_exponent"] == 2.0
    assert rep3["doubling_constant"] > 1.0
    zero = ScalarField(maxwellian16.grid, np.zeros(maxwellian16.grid.shape))
    with pytest.raises(NonNegativityError):
        co.comparability_report(co.build_coefficients(zero, -1.0))


def test_tampered_constant_trips_the_chain_check(monkeypatch):
    # the verification gate must catch a mis-transcribed normalization
    import landau_lab.coefficients as comod

    original = comod.kernel_constants

    def tampered(gamma):
        out = dict(original(gamma))
        out["c_h"] *= 1.01
        return out

    monkeypatch.setattr(comod, "kernel_constants", tampered)
    rep = comod.verify_constant_chain(-2.5)
    assert rep["max_rel_err"] > 1e-6  # the gate threshold
