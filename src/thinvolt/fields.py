"""Tensor-product grids, the dimension-generic Q1 kernel and discrete field operators.

Conventions used throughout the package:

* 3D fields live on the closed plate (0,1)^2 x (-1/2, 1/2). Axis 0 is x1,
  axis 1 is x2, axis 2 is x3 (the thickness variable). Nodal scalar fields
  have shape (n1, n2, n3); nodal vector fields append a component axis.
  2D fields live on the unit square with shape (n1, n2).
* Cell quantities live at the (n1-1, n2-1, n3-1) cell centers.
* A "scaled" gradient or Hessian multiplies every x3 derivative by 1/eps.

One dimension-generic Q1 kernel (corner gather/scatter, shape gradients,
Gauss rule, cell stiffness, gradient second moments, gauge weights) serves
the 3D plate and the 2D midsurface alike: the dimension is
``len(grid.shape)`` and cell corners are ordered as
``itertools.product((0, 1), repeat=dim)``.

The discrete gradient at a cell point is the gradient of the cell's
multilinear interpolant; second derivatives use nodal finite differences
(one-sided at the boundary) averaged to cell centers. Both are exact on
quadratic polynomials. The 1D operators behind them, the Gauss rule and the
trapezoid nodal measure are defined here once and cached per grid.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import smallmat

__all__ = [
    "Grid3",
    "Grid2",
    "corner_gather",
    "corner_scatter",
    "shape_gradients",
    "gauss_points",
    "stiffness_table",
    "local_stiffness",
    "gradient_second_moments",
    "node_weights",
    "scaled_gradient",
    "gradient_scatter",
    "scaled_hessian",
    "hessian_norm_squared",
    "scaled_hessian_norm",
    "hessian_scatter",
    "integrate3",
    "zero_mean_project",
    "node_mean",
]

_GAUSS_LO = 0.5 - 0.5 / np.sqrt(3.0)
_GAUSS_HI = 0.5 + 0.5 / np.sqrt(3.0)


class _GridAxes:
    """Per-axis geometry, cell shape and cached operators, shared by Grid2 and Grid3.

    Axis k (from 1) spans (lower_k, lower_k + 1) with n_k nodes: the nodes
    x_k, the spacing h_k, the cell centers c_k and the trapezoid weights w_k
    (also the tuple ``weights``) are built here once; cell_volume is the
    product of the spacings. The cache holds the 1D axis operators, the Q1
    shape gradients, the nodal measure and the gauge weights, all pure
    functions of the grid and their key.
    """

    def __post_init__(self):
        if min(self.shape) < 3:
            raise ValueError(f"{type(self).__name__}: need at least 3 nodes per axis")
        weights = []
        for k, (n, h, lower) in enumerate(zip(self.shape, self.spacing, self.lower), start=1):
            x = np.linspace(lower, lower + 1.0, n)
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            weights.append(w)
            vars(self).update({f"x{k}": x, f"h{k}": h, f"c{k}": 0.5 * (x[:-1] + x[1:]), f"w{k}": w})
        self.weights = tuple(weights)
        self.cell_volume = math.prod(self.spacing)

    @property
    def cshape(self):
        return tuple(n - 1 for n in self.shape)

    @property
    def spacing(self):
        return tuple(1.0 / (n - 1) for n in self.shape)

    def _cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def axis_ops(self, axis):
        """Cached 1D operators for this axis: the nodal derivative "D1" and the cell-derivative table "cell"."""
        return self._cached(("axis", axis), lambda: _make_axis_ops(self.shape[axis], self.spacing[axis]))

    def node_measure(self):
        """Cached read-only trapezoid nodal measure: the outer product of the per-axis weights."""
        return self._cached("node_measure", lambda: _read_only(functools.reduce(np.multiply.outer, self.weights)))


@dataclass
class Grid3(_GridAxes):
    """Uniform tensor-product grid on (0,1)^2 x (-1/2,1/2). At least 3 nodes per axis."""

    n1: int
    n2: int
    n3: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    lower = (0.0, 0.0, -0.5)

    @property
    def shape(self):
        return (self.n1, self.n2, self.n3)


@dataclass
class Grid2(_GridAxes):
    """Uniform grid on the unit square (0,1)^2. At least 3 nodes per axis."""

    n1: int
    n2: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    lower = (0.0, 0.0)

    @property
    def shape(self):
        return (self.n1, self.n2)


def _read_only(a):
    a.flags.writeable = False
    return a


def _make_axis_ops(n, h):
    """D1, the nodal first derivative, and "cell", whose entry k is the cell average of the nodal k-th derivative."""
    D1 = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    D1[idx, idx - 1] = -0.5
    D1[idx, idx + 1] = 0.5
    D1[0, :3] = (-1.5, 2.0, -0.5)
    D1[-1, -3:] = (0.5, -2.0, 1.5)
    D1 /= h

    D2 = np.zeros((n, n))
    D2[idx, idx - 1] = 1.0
    D2[idx, idx] = -2.0
    D2[idx, idx + 1] = 1.0
    D2[0, :3] = (1.0, -2.0, 1.0)
    D2[-1, -3:] = (1.0, -2.0, 1.0)
    D2 /= h * h

    C = np.zeros((n - 1, n))
    j = np.arange(n - 1)
    C[j, j] = 0.5
    C[j, j + 1] = 0.5
    return {"D1": _read_only(D1), "cell": tuple(_read_only(M) for M in (C, C @ D1, C @ D2))}


# ---------------------------------------------------------------------------
# dimension-generic Q1 kernel


def _corner_slices(shape):
    """Per cell corner, in corner order, the index that selects that corner of every cell of a node array of this shape."""
    return itertools.product(*[(slice(0, n - 1), slice(1, n)) for n in shape])


def _slab_blocks(grid):
    """Slices of consecutive x1 cell slabs, each of at most smallmat.BATCH_BLOCK cells but at least one slab.

    A slab holds at least two cells (every axis has at least 3 nodes), so no
    block's GEMM is a single row, which numpy would hand to GEMV and round
    differently from the same row of a larger product.
    """
    c1 = grid.cshape[0]
    step = max(1, smallmat.BATCH_BLOCK // math.prod(grid.cshape[1:]))
    return [slice(a, min(a + step, c1)) for a in range(0, c1, step)]


def _nodes(cells):
    """The x1 node slice spanned by a slice of x1 cell slabs."""
    return slice(cells.start, cells.stop + 1)


def _scatter_add(out, U, dim):
    """Add per-cell corner values U, corner axis last, into the nodal array out of those cells, in corner order."""
    for s, u in zip(_corner_slices(out.shape[:dim]), np.moveaxis(U, -1, 0)):
        out[s] += u


def corner_gather(f, grid):
    """Stack the 2^dim corner values of every cell, corner axis last: (*shape, *) -> (*cshape, *, 2^dim).

    shape is f's own leading node shape, so a block of the grid's x1 node
    planes gathers the cells between them.
    """
    dim = len(grid.shape)
    return np.stack([f[s] for s in _corner_slices(f.shape[:dim])], axis=-1)


def corner_scatter(U, grid):
    """Adjoint of corner_gather: add per-cell corner values into a nodal array."""
    out = np.zeros(grid.shape + U.shape[len(grid.shape) : -1])
    _scatter_add(out, U, len(grid.shape))
    return out


def _lin(t, bit):
    return t if bit else 1.0 - t


def shape_gradients(grid, eps=1.0, point=None):
    """Scaled Q1 shape-function gradients at a local cell point (default: the center).

    Returns a read-only (2^dim, dim) array V with V[corner, j] = d N_corner / d x_j
    in the corner order of corner_gather. On a Grid3 the x3 column is
    multiplied by 1/eps. The array is cached on the grid, keyed by
    (eps, point).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    dim = len(grid.shape)
    point = (0.5,) * dim if point is None else tuple(point)
    return grid._cached(("shape_gradients", eps, point), lambda: _shape_gradients(grid.spacing, eps, point))


def _shape_gradients(spacing, eps, point):
    dim = len(spacing)
    h = [hj * eps if j == 2 else hj for j, hj in enumerate(spacing)]
    V = np.empty((2**dim, dim))
    for k, corner in enumerate(itertools.product((0, 1), repeat=dim)):
        for j in range(dim):
            # one factor per axis, multiplied in axis order: a fixed order keeps Kloc reproducible to the bit
            v = 1.0
            for i, (bit, t) in enumerate(zip(corner, point)):
                v = v * (2 * bit - 1) / h[i] if i == j else v * _lin(t, bit)
            V[k, j] = v
    return _read_only(V)


def gauss_points(dim):
    """The 2^dim tensor-product Gauss points of a cell in local coordinates."""
    return list(itertools.product((_GAUSS_LO, _GAUSS_HI), repeat=dim))


def stiffness_table(grid, eps=1.0):
    """The Gauss rule of the Q1 cell stiffness, cached read-only per grid and eps.

    A (dim^2, 4^dim) table T[(i, j), (a, b)] = sum_g w V_g[a, i] V_g[b, j],
    so coef[(i, j)] @ T is a cell's stiffness in row-major (a, b) order.
    """

    def build():
        dim = len(grid.shape)
        w = math.prod(grid.spacing) / 2**dim
        T = np.zeros((dim, dim, 2**dim, 2**dim))
        for pt in gauss_points(dim):
            V = shape_gradients(grid, eps, pt)
            T += w * np.einsum("ai,bj->ijab", V, V)
        return _read_only(T.reshape(dim * dim, 4**dim))

    return grid._cached(("stiffness_table", eps), build)


def local_stiffness(coef, grid, eps=1.0):
    """Per-cell Q1 stiffness for a cellwise-constant coefficient (tensor Gauss rule).

    The coefficient is contracted against the cached stiffness_table in one
    matmul.
    """
    dim = len(grid.shape)
    K = np.reshape(coef, (-1, dim * dim)) @ stiffness_table(grid, eps)
    return K.reshape(grid.cshape + (2**dim, 2**dim))


def _gauss_gradients(grid, eps):
    return _read_only(np.concatenate([shape_gradients(grid, eps, pt) for pt in gauss_points(len(grid.shape))], axis=1))


def gradient_second_moments(phi, grid, eps=1.0):
    """Per-cell Gauss-rule second moment of the scaled gradient of a nodal scalar.

    Returns G2 with shape cshape + (dim, dim), G2 = sum_g w_g grad phi (x) grad phi
    with weights summing to the cell measure, so sum(coef * G2) is the
    quadratic form that local_stiffness assembles. Per block of x1 cell
    slabs, the gradients at all Gauss points come from one matmul against
    the cached (2^dim, 2^dim * dim) table of the shape gradients at those
    points; the per-cell product takes their transpose as a C-ordered copy
    (numpy's stacked matmul on the transposed view runs several times slower).
    """
    dim = len(grid.shape)
    w = math.prod(grid.spacing) / 2**dim
    V = grid._cached(("gauss_gradients", eps), lambda: _gauss_gradients(grid, eps))
    phi = np.asarray(phi, dtype=float)
    G2 = np.empty(grid.cshape + (dim, dim))
    for cells in _slab_blocks(grid):
        g = (corner_gather(phi[_nodes(cells)], grid).reshape(-1, 2**dim) @ V).reshape(-1, 2**dim, dim)
        np.matmul(np.ascontiguousarray(np.swapaxes(g, 1, 2)), g, out=G2[cells].reshape(-1, dim, dim))
        del g  # not alive while the next block's is formed
    G2 *= w
    return G2


def node_weights(grid):
    """Trapezoid nodal weights normalized to unit sum (the gauge weights), cached read-only per grid."""
    w = grid.node_measure()
    return grid._cached("node_weights", lambda: _read_only(w / w.sum()))


def scaled_gradient(y, grid, eps, point=None):
    """Per-cell scaled gradient of a nodal field at a local cell point.

    For a vector field y of shape (*shape, m) returns G of shape
    (*cshape, m, dim) with G[..., k, j] = d y_k / d x_j at the given local
    point (default: cell center), on a Grid3 the j = x3 column scaled by
    1/eps. A scalar field returns (*cshape, dim). Per block of x1 cell
    slabs, one matmul of the corner values against the shape-gradient table.
    """
    dim = len(grid.shape)
    V = shape_gradients(grid, eps, point)
    y = np.asarray(y, dtype=float)
    G = np.empty(grid.cshape + y.shape[dim:] + (dim,))
    for cells in _slab_blocks(grid):
        np.matmul(corner_gather(y[_nodes(cells)], grid).reshape(-1, 2**dim), V, out=G[cells].reshape(-1, dim))
    return G


def gradient_scatter(P, grid, eps, point=None):
    """Adjoint of scaled_gradient at the same local cell point.

    P has shape (*cshape, m, dim) (or (*cshape, dim) for scalar fields); the
    result is the nodal field ``dE/dy`` for E = sum_cells P : scaled_gradient(y).
    Per block of x1 cell slabs, one matmul of the flat rows against the
    transposed shape-gradient table, scattered into the block's nodes.
    """
    dim = len(grid.shape)
    V = shape_gradients(grid, eps, point)
    out = np.zeros(grid.shape + P.shape[dim:-1])
    # last block first: a node on the plane two blocks share then takes the
    # later block's low-x1 corners before the earlier block's high-x1 ones,
    # the corner order of a single pass, so its sum rounds as in one block
    for cells in reversed(_slab_blocks(grid)):
        Pb = P[cells]
        _scatter_add(out[_nodes(cells)], (Pb.reshape(-1, dim) @ V.T).reshape(Pb.shape[:-1] + (2**dim,)), dim)
    return out


# ---------------------------------------------------------------------------
# scaled Hessian (second differences averaged to cells), sum-factorised

# the six index pairs i <= j, with their derivative order along each axis
_PAIRS = list(itertools.combinations_with_replacement(range(3), 2))
_PAIR_ORDERS = np.array([[pair.count(axis) for pair in _PAIRS] for axis in range(3)])


def _pair_factors(grid, eps):
    """Per axis, the cell-derivative factor of each index pair, stacked: (6, n_cells, n_nodes).

    The axis-2 factor carries alpha(eps) (1/eps per x3 derivative); the
    stacks are cached per grid and eps.
    """

    def build():
        A0, A1, A2 = (np.stack(grid.axis_ops(a)["cell"])[_PAIR_ORDERS[a]] for a in range(3))
        A2 *= (1.0 / eps) ** _PAIR_ORDERS[2][:, None, None]
        return tuple(_read_only(A) for A in (A0, A1, A2))

    return grid._cached(("hessian_factors", eps), build)


def _hessian_pairs(y, grid, eps):
    """Yield H_ij for the six pairs i <= j in _PAIRS order: H_ij[k] = alpha_ij(eps) d^2 y_k / dx_i dx_j per cell.

    Each H_ij is a fresh (3, *cshape) array; each pair applies its three
    axis factors in turn (one matmul per axis).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    A0, A1, A2 = _pair_factors(grid, eps)
    (n1, n2, n3), (c1, c2, c3) = grid.shape, grid.cshape
    y = np.ascontiguousarray(np.moveaxis(y, -1, 0), dtype=float).reshape(3, n1, n2 * n3)
    for p in range(len(_PAIRS)):
        T = A1[p] @ (A0[p] @ y).reshape(3, c1, n2, n3)
        yield (T.reshape(-1, n3) @ A2[p].T).reshape(3, c1, c2, c3)


def scaled_hessian(y, grid, eps):
    """Cell-averaged scaled second derivatives of a nodal vector field, as its six distinct index pairs.

    Returns H of shape (6, 3, nc1, nc2, nc3) with
    H[p, k] = alpha_ij(eps) * d^2 y_k / dx_i dx_j for the p-th pair (i, j)
    of _PAIRS, i <= j, where alpha is 1/eps^2 for i=j=3, 1/eps when exactly
    one index is 3, and 1 otherwise; the pair (j, i) is the same. Nodal
    second differences are central in the interior and one-sided at the
    boundary (exact on quadratics), then averaged over cell corners.
    """
    H = np.empty((len(_PAIRS), 3) + grid.cshape)
    for p, Hp in enumerate(_hessian_pairs(y, grid, eps)):
        H[p] = Hp
    return H


def _square_sum(squares, cshape):
    """Per-cell sum of the 27 squares of a scaled Hessian, from its six pairs' squares given in _PAIRS order.

    The squares are added one at a time in (i, j, k) order, as
    np.sum(H27 * H27, axis=(-3, -2, -1)) adds them on a 27-entry Hessian
    laid out (i, j, k, cell); each pair i < j's squares are kept until its
    mirror (j, i) comes, so at most three pairs' squares are alive at once.
    """
    kept = {}
    total = np.zeros(cshape)
    for i in range(3):
        for j in range(3):
            sq = kept.pop((j, i)) if j < i else next(squares)
            if i < j:
                kept[i, j] = sq
            for term in sq:
                total += term
    return total


def hessian_norm_squared(H):
    """Per-cell squared Frobenius norm of the 27-entry scaled Hessian whose six pairs H (from scaled_hessian) holds."""
    return _square_sum((Hp * Hp for Hp in H), H.shape[2:])


def scaled_hessian_norm(y, grid, eps):
    """Per-cell Frobenius norm of the scaled Hessian of y, streaming its pairs: at most three are alive at once.

    Equal to np.sqrt(hessian_norm_squared(scaled_hessian(y, grid, eps))) to the bit.
    """
    return np.sqrt(_square_sum((np.multiply(Hp, Hp, out=Hp) for Hp in _hessian_pairs(y, grid, eps)), grid.cshape))


def hessian_scatter(H, c, grid, eps):
    """Adjoint of scaled_hessian applied to c H, for a per-cell coefficient c (cshape).

    The nodal dE/dy for E = sum_cells c * (H : scaled_hessian(y)) over all
    27 entries, so each off-diagonal pair counts twice: the transposed
    factors in reverse order, once per pair on c H_ij (times 2 for i < j).
    """
    A0, A1, A2 = _pair_factors(grid, eps)
    (n1, n2, n3), (c1, c2, c3) = grid.shape, grid.cshape
    out = np.zeros((3, n1, n2 * n3))
    for p, (i, j) in enumerate(_PAIRS):
        W = c * H[p]
        if i != j:
            W *= 2.0
        T = A1[p].T @ (W.reshape(-1, c3) @ A2[p]).reshape(3, c1, c2, n3)
        out += A0[p].T @ T.reshape(3, c1, n2 * n3)
    return np.moveaxis(out.reshape(3, n1, n2, n3), 0, -1)


# ---------------------------------------------------------------------------
# quadrature, means, gauge


def integrate3(cell_values, grid):
    """Midpoint-rule integral of a cellwise quantity over the plate."""
    return float(np.sum(cell_values) * grid.cell_volume)


def node_mean(f, grid):
    """Volume-weighted nodal mean (trapezoid rule), per trailing component."""
    axes = "ijk"[: len(grid.shape)]
    return np.einsum(",".join(axes) + f",{axes}...->...", *grid.weights, np.asarray(f, dtype=float))


def zero_mean_project(f, grid):
    """Subtract the volume-weighted mean from a nodal field (idempotent)."""
    return np.asarray(f, dtype=float) - node_mean(f, grid)

