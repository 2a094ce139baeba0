import functools
import math

import numpy as np
import pytest

from thinvolt import fields
from thinvolt.fields import Grid2, Grid3


def test_grid3_geometry():
    g = Grid3(5, 9, 3)
    assert g.shape == (5, 9, 3)
    assert g.cshape == (4, 8, 2)
    assert abs(g.h1 - 0.25) < 1e-15
    assert abs(g.h3 - 0.5) < 1e-15
    assert g.x1[0] == 0.0 and g.x1[-1] == 1.0
    assert g.x3[0] == -0.5 and g.x3[-1] == 0.5
    assert abs(g.cell_volume - g.h1 * g.h2 * g.h3) < 1e-18
    # trapezoid weights sum to the measure of the slab
    assert abs(np.sum(g.w1) - 1.0) < 1e-14
    assert abs(np.sum(g.w3) - 1.0) < 1e-14


def _trapezoid(n):
    w = np.full(n, 1.0 / (n - 1))
    w[0] = w[-1] = 0.5 / (n - 1)
    return w


@pytest.mark.parametrize(
    "grid, nodes",
    [
        (Grid2(7, 5), (np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5))),
        (Grid3(5, 4, 6), (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4), np.linspace(-0.5, 0.5, 6))),
    ],
)
def test_grid_axes_match_their_formulas(grid, nodes):
    weights = [_trapezoid(len(x)) for x in nodes]
    for k, (x, w) in enumerate(zip(nodes, weights), start=1):
        assert np.array_equal(getattr(grid, f"x{k}"), x)
        assert getattr(grid, f"h{k}") == 1.0 / (len(x) - 1)
        assert np.array_equal(getattr(grid, f"c{k}"), 0.5 * (x[:-1] + x[1:]))
        assert np.array_equal(getattr(grid, f"w{k}"), w)
    assert grid.cell_volume == math.prod(1.0 / (len(x) - 1) for x in nodes)
    f = np.random.default_rng(3).standard_normal(grid.shape + (3,))
    if len(nodes) == 3:
        want = np.einsum("i,j,k,ijk...->...", grid.w1, grid.w2, grid.w3, f)
    else:
        want = np.einsum("i,j,ij...->...", grid.w1, grid.w2, f)
    assert np.array_equal(fields.node_mean(f, grid), want)
    assert np.array_equal(grid.node_measure(), functools.reduce(np.multiply.outer, weights))


@pytest.mark.parametrize("make, name", [(lambda: Grid2(2, 5), "Grid2:"), (lambda: Grid3(5, 5, 2), "Grid3:")])
def test_grid_needs_three_nodes_per_axis(make, name):
    with pytest.raises(ValueError, match=name):
        make()


def test_integrate3_constant_and_midpoint_exactness():
    g = Grid3(7, 5, 4)
    c = np.full(g.cshape, 2.5)
    assert abs(fields.integrate3(c, g) - 2.5) < 1e-14
    # midpoint rule is exact for integrands linear in each coordinate
    C1, C2, C3 = np.meshgrid(g.c1, g.c2, g.c3, indexing="ij")
    lin = 1.0 + 2.0 * C1 - 3.0 * C2 + 0.5 * C3
    exact = 1.0 + 2.0 * 0.5 - 3.0 * 0.5 + 0.0
    assert abs(fields.integrate3(lin, g) - exact) < 1e-14


def test_node_mean_and_zero_mean_project():
    g = Grid3(6, 4, 5)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.shape)
    v = fields.zero_mean_project(u, g)
    assert abs(fields.node_mean(v, g)) < 1e-14
    y = rng.standard_normal(g.shape + (3,))
    z = fields.zero_mean_project(y, g)
    for c in range(3):
        assert abs(fields.node_mean(z[..., c], g)) < 1e-14


def test_gather_scatter_adjoint():
    """corner_scatter is the exact adjoint of corner_gather, in 2D and 3D."""
    rng = np.random.default_rng(3)
    for g in (Grid2(6, 5), Grid3(5, 4, 3)):
        u = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.cshape + (2 ** len(g.shape),))
        lhs = np.sum(fields.corner_gather(u, g) * w)
        rhs = np.sum(u * fields.corner_scatter(w, g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_gradient_scatter_adjoint():
    g = Grid3(5, 4, 3)
    eps = 0.3
    rng = np.random.default_rng(4)
    y = rng.standard_normal(g.shape + (3,))
    P = rng.standard_normal(g.cshape + (3, 3))
    lhs = np.sum(fields.scaled_gradient(y, g, eps) * P)
    rhs = np.sum(y * fields.gradient_scatter(P, g, eps))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    # same identity at an off-center quadrature point
    pt = (0.5, 0.5, 0.5 + 0.5 / np.sqrt(3.0))
    lhs = np.sum(fields.scaled_gradient(y, g, eps, point=pt) * P)
    rhs = np.sum(y * fields.gradient_scatter(P, g, eps, point=pt))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hessian_scatter_adjoint():
    # two grids with three distinct node counts, ordered both ways
    eps = 0.25
    rng = np.random.default_rng(5)
    for g in (Grid3(6, 5, 4), Grid3(5, 6, 7)):
        y = rng.standard_normal(g.shape + (3,))
        P = rng.standard_normal(g.cshape + (3, 3, 3))
        lhs = np.sum(fields.scaled_hessian(y, g, eps) * P)
        rhs = np.sum(y * fields.hessian_scatter(P, g, eps))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _difference_matrices(n, h):
    """Hand-written 1D nodal first and second differences (central inside, one-sided second order at the ends)."""
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    for r in range(1, n - 1):
        D1[r, r - 1], D1[r, r + 1] = -0.5 / h, 0.5 / h
        D2[r, r - 1], D2[r, r], D2[r, r + 1] = 1.0 / h**2, -2.0 / h**2, 1.0 / h**2
    D1[0, 0], D1[0, 1], D1[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    D1[n - 1, n - 3], D1[n - 1, n - 2], D1[n - 1, n - 1] = 0.5 / h, -2.0 / h, 1.5 / h
    D2[0, :3] = D2[1, :3]
    D2[n - 1, n - 3 :] = D2[n - 2, n - 3 :]
    return D1, D2


def _averaging_matrix(n):
    A = np.zeros((n - 1, n))
    for c in range(n - 1):
        A[c, c] = A[c, c + 1] = 0.5
    return A


def _hessian_kron(g, eps, i, j):
    """alpha_ij kron(F0, F1, F2): F_a averages the nodal derivative along axis a taken once per index equal to a."""
    factors = []
    for a, (n, h) in enumerate(zip(g.shape, g.spacing)):
        D1, D2 = _difference_matrices(n, h)
        factors.append(_averaging_matrix(n) @ [np.eye(n), D1, D2][(i == a) + (j == a)])
    return np.kron(np.kron(factors[0], factors[1]), factors[2]) / eps ** ((i == 2) + (j == 2))


@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_scaled_hessian_and_scatter_match_kronecker_reference(eps):
    # distinct node counts per axis, so a mix-up of the per-axis factors shows
    rng = np.random.default_rng(11)
    for g in (Grid3(6, 5, 4), Grid3(5, 6, 7)):
        y = rng.standard_normal(g.shape + (3,))
        W = rng.standard_normal(g.cshape + (3, 3, 3))  # not symmetric in (i, j)
        H = fields.scaled_hessian(y, g, eps)
        out = np.zeros((math.prod(g.shape), 3))
        for i in range(3):
            for j in range(3):
                K = _hessian_kron(g, eps, i, j)
                ref = (K @ y.reshape(-1, 3)).reshape(g.cshape + (3,))
                assert np.max(np.abs(H[..., i, j, :] - ref)) <= 1e-12 * np.max(np.abs(ref))
                out += K.T @ W[..., i, j, :].reshape(-1, 3)
        out = out.reshape(g.shape + (3,))
        # W in C order, and W laid out like H (as a product with H is)
        for W_in in (W, W + 0.0 * H):
            scatter = fields.hessian_scatter(W_in, g, eps)
            assert np.max(np.abs(scatter - out)) <= 1e-12 * np.max(np.abs(out))


def test_scaled_gradient_exact_on_trilinear():
    # trilinear fields are reproduced exactly by the shape-function gradient
    g = Grid3(6, 5, 4)
    eps = 0.2
    X1, X2, X3 = np.meshgrid(g.x1, g.x2, g.x3, indexing="ij")
    y = np.stack([2.0 * X1 + X2, X2 - X3, 0.5 * X1 + eps * X3], axis=-1)
    G = fields.scaled_gradient(y, g, eps)
    ref = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, -1.0 / eps], [0.5, 0.0, 1.0]])
    assert np.max(np.abs(G - ref)) <= 1e-12


def test_scaled_hessian_quadratic_exactness():
    """Second differences recover constant Hessians exactly, boundary rows included."""
    g = Grid3(7, 6, 5)
    eps = 0.5
    X1, X2, X3 = np.meshgrid(g.x1, g.x2, g.x3, indexing="ij")
    u = X1 * X1 + 0.5 * X2 * X2 + X3 * X3 * eps + X1 * X2 + X1 * X3 + 2.0 * X2 * X3
    y = np.zeros(g.shape + (3,))
    y[..., 0] = u
    H = fields.scaled_hessian(y, g, eps)
    ref = np.zeros((3, 3))
    ref[0, 0] = 2.0
    ref[1, 1] = 1.0
    ref[2, 2] = 2.0 / eps  # eps * x3^2 second derivative 2*eps, scaled 1/eps^2
    ref[0, 1] = ref[1, 0] = 1.0
    ref[0, 2] = ref[2, 0] = 1.0 / eps
    ref[1, 2] = ref[2, 1] = 2.0 / eps
    # layout: H[..., i, j, k] = alpha_ij d^2 y_k / dx_i dx_j
    assert np.max(np.abs(H[..., :, :, 0] - ref)) <= 1e-11
    assert np.max(np.abs(H[..., :, :, 1])) <= 1e-11


def test_gauss_points():
    lo, hi = 0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)
    for dim in (2, 3):
        pts = fields.gauss_points(dim)
        assert len(pts) == 2**dim
        arr = np.array(pts)
        assert arr.shape == (2**dim, dim)
        assert np.allclose(np.sort(np.unique(arr)), [lo, hi])
        # the tensor rule integrates each shape-function gradient exactly:
        # the mean over the points is the gradient at the cell center
        g = Grid2(5, 4) if dim == 2 else Grid3(5, 4, 3)
        mean = np.mean([fields.shape_gradients(g, 1.0, pt) for pt in pts], axis=0)
        assert np.max(np.abs(mean - fields.shape_gradients(g))) < 1e-12


def test_shape_gradients_cached_read_only_per_eps():
    for make in (lambda: Grid2(5, 4), lambda: Grid3(5, 4, 3)):
        g = make()
        pt = fields.gauss_points(len(g.shape))[-1]
        cached = {}
        for eps in (1.0, 0.25):
            V = fields.shape_gradients(g, eps, pt)
            assert fields.shape_gradients(g, eps, pt) is V
            assert V.tobytes() == fields.shape_gradients(make(), eps, pt).tobytes()
            assert not V.flags.writeable
            with pytest.raises(ValueError):
                V[0, 0] = 0.0
            cached[eps] = V
        a, b = cached[1.0], cached[0.25]
        # only a Grid3 has an x3 column to scale by 1/eps
        assert np.array_equal(a[:, :2], b[:, :2])
        if isinstance(g, Grid3):
            assert not np.array_equal(a, b)
            assert np.max(np.abs(b[:, 2] - 4.0 * a[:, 2])) <= 1e-12
        else:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("grid", [Grid2(7, 5), Grid3(5, 4, 6)], ids=["grid2", "grid3"])
def test_local_stiffness_matches_gauss_point_sum(grid):
    # a coefficient that differs from cell to cell, with off-diagonal entries
    dim = len(grid.shape)
    eps = 0.1
    rng = np.random.default_rng(42)
    B = rng.standard_normal(grid.cshape + (dim, dim))
    coef = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(dim)
    w = math.prod(grid.spacing) / 2**dim
    want = np.zeros(grid.cshape + (2**dim, 2**dim))
    for pt in fields.gauss_points(dim):
        V = fields.shape_gradients(grid, eps, pt)
        want += w * np.einsum("ai,...ij,bj->...ab", V, coef, V)
    got = fields.local_stiffness(coef, grid, eps)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_grid2_and_gradient2_adjoint():
    g = Grid2(6, 5)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(g.shape)
    P = rng.standard_normal(g.cshape + (2,))
    lhs = np.sum(fields.scaled_gradient(u, g, 1.0) * P)
    rhs = np.sum(u * fields.gradient_scatter(P, g, 1.0))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_gradient2_exact_on_bilinear():
    g = Grid2(5, 7)
    X1, X2 = np.meshgrid(g.x1, g.x2, indexing="ij")
    u = 3.0 * X1 - 2.0 * X2
    G = fields.scaled_gradient(u, g, 1.0)
    assert np.max(np.abs(G - np.array([3.0, -2.0]))) <= 1e-12
