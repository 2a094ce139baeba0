"""Electrostatic side of the 3D model: assembly, solve, energy, identity checks.

The potential solves a pure-Neumann problem whose coefficient is the
permittivity pulled back through the current deformation, evaluated once per
cell at the cell center. The quadratic form is integrated with the 2x2x2
Gauss rule per cell (full rank on each cell, so the operator kernel is
exactly the constants), while charge moments use the cell-center rule. The
electrostatic energy evaluator uses the same two rules, which makes the
discrete weak-form identity hold to solver precision.
"""

import numpy as np

from . import fields
from .cg import SolverError, pcg
from .material import kappa_pullback
from .smallmat import det3, inv3

__all__ = ["PoissonSystem3", "assemble_poisson3", "solve_potential3", "E_eps", "check_pg0", "SolverError"]


def _orientation_check(F, grid):
    d = det3(F)
    if np.min(d) <= 0.0:
        cell = np.unravel_index(int(np.argmin(d)), grid.cshape)
        raise ValueError(f"deformation not orientation-preserving at cell {cell}")
    return d


def _local_stiffness(coef, grid, eps):
    """Per-cell 8x8 stiffness for a cellwise-constant coefficient (2x2x2 Gauss)."""
    w = grid.cell_volume / 8.0
    K = None
    for pt in fields.gauss_points3():
        V = fields.shape_gradients3(grid, eps, pt)
        contrib = w * np.einsum("ai,...ij,bj->...ab", V, coef, V, optimize=True)
        K = contrib if K is None else K + contrib
    return K


class PoissonSystem3:
    """Assembled operator and load for the deformed-configuration potential."""

    def __init__(self, grid, eps, coef, load, weights):
        self.grid = grid
        self.eps = eps
        self.coef = coef
        self.Kloc = _local_stiffness(coef, grid, eps)
        self.diag = self._diagonal()
        self.line_offdiag = self._line_offdiagonal()
        self._line_factors = self._factor_lines()
        # compatibility shift: the kernel is the constants, so the load must
        # have zero sum; the shift is spread with the gauge weights
        self.b_raw = load
        self.weights = weights
        self.b = load - load.sum() * weights

    def _diagonal(self):
        U = np.einsum("...aa->...a", self.Kloc)
        return fields.corner_scatter3(U, self.grid)

    def _line_offdiagonal(self):
        """K[(i, j, l), (i, j, l + 1)] as an (n1, n2, n3 - 1) array.

        Q1 nodes (i, j, l) couple along x3 only to (i, j, l +- 1), so with
        diag this fixes each x3 column block of K, which is tridiagonal.
        """
        n1, n2, n3 = self.grid.shape
        off = np.zeros((n1, n2, n3 - 1))
        for a in (0, 1):
            for b in (0, 1):
                k = 4 * a + 2 * b  # corner (a, b, 0); k + 1 is (a, b, 1)
                off[a : n1 - 1 + a, b : n2 - 1 + b] += self.Kloc[..., k, k + 1]
        return off

    def _factor_lines(self):
        """Thomas factors of the x3 column blocks, line index first.

        Each block is a principal submatrix of K, hence positive definite,
        so the elimination needs no pivoting.
        """
        n3 = self.grid.n3
        lower = np.ascontiguousarray(self.line_offdiag.reshape(-1, n3 - 1).T)
        d = self.diag.reshape(-1, n3).T
        inv_pivot = np.empty(d.shape)
        upper = np.empty_like(lower)
        inv_pivot[0] = 1.0 / d[0]
        for l in range(n3 - 1):
            upper[l] = lower[l] * inv_pivot[l]
            inv_pivot[l + 1] = 1.0 / (d[l + 1] - lower[l] * upper[l])
        return lower, upper, inv_pivot

    def precondition(self, r):
        """Exact solve with the x3 column blocks of K (block-Jacobi); flat in, flat out."""
        lower, upper, inv_pivot = self._line_factors
        n3 = self.grid.n3
        z = np.reshape(r, (-1, n3)).T.copy()
        z[0] *= inv_pivot[0]
        for l in range(1, n3):
            z[l] -= lower[l - 1] * z[l - 1]
            z[l] *= inv_pivot[l]
        for l in range(n3 - 2, -1, -1):
            z[l] -= upper[l] * z[l + 1]
        return z.T.ravel()

    def apply(self, phi):
        """Operator application on a nodal array (not flattened)."""
        U = fields.corner_gather3(phi, self.grid)
        return fields.corner_scatter3(np.einsum("...ab,...b->...a", self.Kloc, U), self.grid)

    def matvec(self, x):
        return self.apply(x.reshape(self.grid.shape)).ravel()

    def energy_quadratic(self, phi):
        """(1/2) phi^T K phi, identical quadrature to the assembled operator."""
        U = fields.corner_gather3(phi, self.grid)
        return 0.5 * float(np.sum(np.einsum("...a,...ab,...b->...", U, self.Kloc, U)))


def _charge_load(grid, mat):
    nc = mat.charge.n_ch(grid.c1)[:, None, None]
    cellv = np.broadcast_to(nc, grid.cshape)
    w = mat.coupling.gamma * grid.cell_volume / 8.0
    U = np.broadcast_to((w * cellv)[..., None], grid.cshape + (8,))
    return fields.corner_scatter3(U, grid)


def _node_weights(grid):
    w = np.einsum("i,j,k->ijk", grid.w1, grid.w2, grid.w3)
    return w / w.sum()


def assemble_poisson3(y, grid, eps, mat):
    """Build the potential system for a nodal deformation y.

    Rejects deformations with a nonpositive cell determinant, reporting the
    offending cell. beta sits on the stiffness side and gamma on the load.
    """
    F = fields.scaled_gradient(y, grid, eps)
    _orientation_check(F, grid)
    coef = mat.coupling.beta * kappa_pullback(F, mat.permittivity.k)
    return PoissonSystem3(grid, eps, coef, _charge_load(grid, mat), _node_weights(grid))


def solve_potential3(system, tol=1e-10, x0=None, max_iter=None):
    """Projected PCG solve, preconditioned by exact x3-line solves.

    Returns the potential with weighted zero mean.
    """
    x0 = None if x0 is None else np.asarray(x0).ravel()
    x, _ = pcg(system.matvec, system.b.ravel(), system.diag.ravel(), tol=tol, max_iter=max_iter, x0=x0, precond=system.precondition)
    phi = x.reshape(system.grid.shape)
    return phi - float(np.sum(system.weights * phi))


def _energy_parts(y, phi, grid, eps, mat):
    """Dielectric quadratic term and charge moment, with the assembly quadratures."""
    F = fields.scaled_gradient(y, grid, eps)
    _orientation_check(F, grid)
    coef = kappa_pullback(F, mat.permittivity.k)
    w = grid.cell_volume / 8.0
    U = fields.corner_gather3(phi, grid)
    quad = 0.0
    for pt in fields.gauss_points3():
        V = fields.shape_gradients3(grid, eps, pt)
        g = np.einsum("...a,aj->...j", U, V)
        quad += w * float(np.sum(np.einsum("...i,...ij,...j->...", g, coef, g)))
    nc = mat.charge.n_ch(grid.c1)[:, None, None]
    phibar = U.mean(axis=3)
    moment = grid.cell_volume * float(np.sum(nc * phibar))
    return quad, moment


def E_eps(y, phi, grid, eps, mat):
    """Scaled electrostatic energy (beta/2) int kappa grad phi . grad phi - gamma int n phi."""
    quad, moment = _energy_parts(y, phi, grid, eps, mat)
    return 0.5 * mat.coupling.beta * quad - mat.coupling.gamma * moment


def check_pg0(y, phi, grid, eps, mat):
    """Residual of the discrete weak-form identity at the solved potential.

    Returns |beta int kappa grad phi . grad phi - gamma int n phi| divided by
    1 + |gamma int n phi|. Zero-mean test functions make both sides equal at
    the exact discrete solution, so this measures solver quality.
    """
    quad, moment = _energy_parts(y, phi, grid, eps, mat)
    lhs = mat.coupling.beta * quad
    rhs = mat.coupling.gamma * moment
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def gradient_second_moments(y, phi, grid, eps):
    """Per-cell Gauss-rule second moment of the scaled potential gradient.

    Returns G2 with shape (nc1,nc2,nc3,3,3), G2 = sum_g w_g grad phi (x) grad phi,
    weights summing to the cell volume. Used for the deformation gradient of
    the dielectric energy term.
    """
    w = grid.cell_volume / 8.0
    U = fields.corner_gather3(phi, grid)
    G2 = np.zeros(grid.cshape + (3, 3))
    for pt in fields.gauss_points3():
        V = fields.shape_gradients3(grid, eps, pt)
        g = np.einsum("...a,aj->...j", U, V)
        G2 += w * g[..., :, None] * g[..., None, :]
    return G2
