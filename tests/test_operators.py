import ast
import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest
from diffusion_oracle import matrix_free

import landau_lab
from landau_lab.coefficients import MatrixField
from landau_lab.grid import make_grid
from landau_lab.operators import (
    boundary_drift_flux,
    centered_gradient,
    diffusion_matrix,
    drift_divergence,
    krylov_matrix,
    second_derivatives,
    smoothstep_cutoff,
)
from landau_lab.solver import SplitOperator


def _smooth_setup(n):
    g = make_grid(3, 1.0, n)
    X, Y, Z = [np.broadcast_to(c, g.shape) for c in g.coords()]
    comps = np.stack(
        [
            2.0 + np.sin(X) * np.cos(Y),
            0.3 * np.sin(X + Y),
            0.2 * np.cos(Z),
            2.0 + 0.5 * np.cos(Y + Z),
            0.25 * np.sin(Y * Z),
            2.0 + 0.4 * np.sin(Z),
        ]
    )
    phi = np.cos(np.pi * X / 2) * np.cos(np.pi * Y / 2) * np.cos(np.pi * Z / 2) * np.exp(0.3 * X)
    return g, MatrixField(g, comps), phi


def test_diffusion_operator_symmetric_nsd_conservative(rng):
    g, A, _ = _smooth_setup(12)
    L = matrix_free(A, bc="flux")
    x = rng.normal(size=g.shape)
    y = rng.normal(size=g.shape)
    assert abs(np.sum(L(x))) < 1e-9 * np.max(np.abs(x))  # node sum preserved
    assert abs(np.sum(y * L(x)) - np.sum(x * L(y))) < 1e-8
    assert np.sum(x * L(x)) <= 0
    LD = matrix_free(A, bc="dirichlet")
    assert abs(np.sum(y * LD(x)) - np.sum(x * LD(y))) < 1e-8
    assert np.sum(x * LD(x)) <= 0


def test_diffusion_operator_second_order():
    import math

    errs = []
    for n in (16, 32):
        g, A, phi = _smooth_setup(n)
        out = matrix_free(A, bc="flux")(phi)
        # reference by fine finite differences of the analytic flux
        h = 1e-5
        X, Y, Z = [np.broadcast_to(c, g.shape).copy() for c in g.coords()]

        def phif(X, Y, Z):
            return (
                np.cos(np.pi * X / 2)
                * np.cos(np.pi * Y / 2)
                * np.cos(np.pi * Z / 2)
                * np.exp(0.3 * X)
            )

        def afun(X, Y, Z):
            return [
                2.0 + np.sin(X) * np.cos(Y),
                0.3 * np.sin(X + Y),
                0.2 * np.cos(Z),
                2.0 + 0.5 * np.cos(Y + Z),
                0.25 * np.sin(Y * Z),
                2.0 + 0.4 * np.sin(Z),
            ]

        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        steps = [(h, 0, 0), (0, h, 0), (0, 0, h)]

        def flux(i, X, Y, Z):
            comp = {}
            for k, (a, b) in enumerate(pairs):
                comp[(a, b)] = comp[(b, a)] = afun(X, Y, Z)[k]
            tot = 0
            for j, (dX, dY, dZ) in enumerate(steps):
                dphi = (phif(X + dX, Y + dY, Z + dZ) - phif(X - dX, Y - dY, Z - dZ)) / (2 * h)
                tot = tot + comp[(i, j)] * dphi
            return tot

        ref = 0
        for i, (dX, dY, dZ) in enumerate(steps):
            ref = ref + (flux(i, X + dX, Y + dY, Z + dZ) - flux(i, X - dX, Y - dY, Z - dZ)) / (2 * h)
        core = (slice(2, -2),) * 3
        errs.append(np.max(np.abs(out[core] - ref[core])))
    order = math.log(errs[0] / errs[1]) / math.log(2)
    assert order > 1.8


def test_diagonal_matches_operator(rng):
    g, A, _ = _smooth_setup(8)
    for bc in ("flux", "dirichlet"):
        L = matrix_free(A, bc=bc)
        d = diffusion_matrix(A, bc=bc).diagonal().reshape(g.shape)
        for idx in np.ndindex(g.shape):
            e = np.zeros(g.shape)
            e[idx] = 1.0
            assert L(e)[idx] == pytest.approx(d[idx], rel=1e-12, abs=1e-12)


def test_matrix_matches_operator(rng):
    for n in (8, 10):
        g, A, _ = _smooth_setup(n)
        w = rng.uniform(0.5, 2.0, size=(n - 1,) * 3)
        for bc, cell_weight in (("flux", None), ("dirichlet", None), ("flux", w)):
            L = matrix_free(A, bc=bc, cell_weight=cell_weight)
            S = diffusion_matrix(A, bc=bc, cell_weight=cell_weight)
            x = rng.normal(size=g.shape)
            ref = L(x).ravel()
            assert np.linalg.norm(S @ x.ravel() - ref) <= 1e-14 * np.linalg.norm(ref)
            csr = S.tocsr()
            assert abs(csr - csr.T).max() <= 1e-14 * abs(csr).max()
            # centre, +-e_i and +-(e_i - e_j): at most 1 + d + d^2 entries per row and diagonals
            assert np.diff(csr.indptr).max() <= 1 + g.dim + g.dim**2
            assert len(S.offsets) <= 1 + g.dim + g.dim**2
            # the Krylov systems diag(w) (diag(c) + s S) diag(w)
            c = rng.uniform(0.5, 2.0, size=g.n_nodes)
            dense_S = S.toarray()
            for s in (-0.1, 0.3):
                v = rng.uniform(0.5, 2.0, size=g.n_nodes)
                dense = v[:, None] * (np.diag(c) + s * dense_S) * v[None, :]
                K = krylov_matrix(S, c, s, v)
                assert np.linalg.norm(K.toarray() - dense) <= 1e-15 * np.linalg.norm(dense)
                # the float32 copy is the float64 product rounded once
                assert np.array_equal(krylov_matrix(S, c, s, v, np.float32).data, K.data.astype(np.float32))


def test_cell_weight_scales_form(rng):
    g, A, _ = _smooth_setup(8)
    w = np.full((7, 7, 7), 2.0)
    x = rng.normal(size=g.shape)
    assert np.allclose(matrix_free(A, bc="flux", cell_weight=w)(x), 2.0 * matrix_free(A, bc="flux")(x))
    S1 = diffusion_matrix(A, bc="flux")
    S2 = diffusion_matrix(A, bc="flux", cell_weight=w)
    assert np.allclose(S2 @ x.ravel(), 2.0 * (S1 @ x.ravel()))
    with pytest.raises(ValueError, match="forward cells"):
        diffusion_matrix(A, bc="flux", cell_weight=np.ones(g.shape))
    with pytest.raises(ValueError, match="boundary treatment"):
        diffusion_matrix(A, bc="periodic")


def test_diffusion_matrix_assembly_memory():
    # the cell averages and every stencil weight are written in place: the assembly
    # holds the diagonal data and one cell array, not one array per diagonal
    g, A, _ = _smooth_setup(32)
    w = np.linspace(0.5, 2.0, 31**3).reshape((31,) * 3)
    for kwargs, bound in (({"bc": "flux", "cell_weight": w}, 2.3), ({"bc": "dirichlet"}, 2.0)):
        diffusion_matrix(A, **kwargs)
        tracemalloc.start()
        try:
            S = diffusion_matrix(A, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.75 and 1.88: the corner sum's accumulator, and a Dirichlet run's
        # edge-extended copy of A, are freed before the diagonal data is allocated
        assert peak <= bound * S.data.nbytes, kwargs["bc"]
    # a split keeps its assembled matrix and nothing else of the diffusion form
    assert [f.name for f in dataclasses.fields(SplitOperator)] == [
        "bundle",
        "mref",
        "drift_rest",
        "matrix",
        "drift_div",
    ]


def _names_used(trees) -> set[str]:
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_no_orphaned_private_helpers():
    # every top-level function or class of the package is used in it, re-exports in
    # __init__ aside; a public one may instead be used by the benchmark in perfbench/
    modules = {p: ast.parse(p.read_text()) for p in pathlib.Path(landau_lab.__file__).parent.glob("*.py")}
    bench = [ast.parse(p.read_text()) for p in (pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py")]
    defined = {
        (path.name, node.name)
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    in_src = _names_used(tree for path, tree in modules.items() if path.name != "__init__.py")
    in_bench = _names_used(bench)
    assert any(name.startswith("_") for _, name in defined), "no private helpers found: the scan reads the wrong files"
    assert bench, "no benchmark modules found: the scan reads the wrong files"
    orphans = [
        f"{module}:{name}"
        for module, name in defined
        if name not in in_src and (name.startswith("_") or name not in in_bench)
    ]
    assert sorted(orphans) == []


def test_drift_divergence_conservative_and_consistent(rng):
    g = make_grid(3, 1.0, 16)
    X, Y, Z = [np.broadcast_to(c, g.shape).copy() for c in g.coords()]
    f = np.exp(-(X**2 + Y**2 + Z**2))
    b = [np.sin(X), Y**2, np.cos(Z)]
    dd = drift_divergence(f, b, g.spacing)
    assert abs(np.sum(dd)) < 1e-12 * np.max(np.abs(dd))
    # consistency against the analytic divergence
    exact = (
        np.cos(X) * f + np.sin(X) * (-2 * X * f)
        + 2 * Y * f + Y**2 * (-2 * Y * f)
        + -np.sin(Z) * f + np.cos(Z) * (-2 * Z * f)
    )
    core = (slice(2, -2),) * 3
    assert np.max(np.abs(dd[core] - exact[core])) < 0.02 * np.max(np.abs(exact))


def test_boundary_drift_flux_nonnegative(rng):
    g = make_grid(3, 1.0, 8)
    f = np.abs(rng.normal(size=g.shape))
    b = [rng.normal(size=g.shape) for _ in range(3)]
    assert boundary_drift_flux(f, b, g.spacing) >= 0


def test_second_derivatives_consistency():
    g = make_grid(3, 1.0, 24)
    X, Y, Z = [np.broadcast_to(c, g.shape) for c in g.coords()]
    f = np.sin(X) * np.cos(Y) * np.exp(0.2 * Z)
    d2 = second_derivatives(f, g.spacing)
    core = (slice(2, -2),) * 3
    exact_xx = -f
    exact_xy = -np.cos(X) * np.sin(Y) * np.exp(0.2 * Z) * -1.0
    assert np.max(np.abs(d2[(0, 0)][core] - exact_xx[core])) < 5e-3
    exact_xy = np.cos(X) * (-np.sin(Y)) * np.exp(0.2 * Z)
    assert np.max(np.abs(d2[(0, 1)][core] - exact_xy[core])) < 5e-3


def test_centered_gradient_consistency():
    g = make_grid(3, 1.0, 24)
    X, _, _ = [np.broadcast_to(c, g.shape) for c in g.coords()]
    f = np.sin(2 * X)
    gx = centered_gradient(f, g.spacing)[0]
    core = (slice(1, -1),) * 3
    err = np.max(np.abs(gx[core] - 2 * np.cos(2 * X)[core]))
    assert err < 1.1 * (2.0**3 * g.spacing**2 / 6.0)  # centered-difference bound


def test_smoothstep_cutoff_bounds():
    g = make_grid(3, 8.0, 32)
    eta = smoothstep_cutoff(g, 2.0, 4.0)
    r = g.radius()
    assert np.all(eta.values[r <= 2.0] == 1.0)
    assert np.all(eta.values[r >= 4.0] == 0.0)
    grad = centered_gradient(eta.values, g.spacing)
    gmax = max(np.max(np.abs(gg)) for gg in grad)
    assert gmax <= 1.875 / 2.0 + 0.05  # quintic smoothstep slope bound
    with pytest.raises(ValueError):
        smoothstep_cutoff(g, 4.0, 2.0)
