"""Electrostatic side of the 3D model: assembly, solve, energy, identity checks.

The potential solves a pure-Neumann problem whose coefficient is the
permittivity pulled back through the current deformation, evaluated once per
cell at the cell center. The quadratic form is integrated with the 2x2x2
Gauss rule per cell (full rank on each cell, so the operator kernel is
exactly the constants), while charge moments use the cell-center rule. The
electrostatic energy is the assembled system's own quadratic form and load
pairing (PoissonSystem.energy_parts), so the discrete weak-form identity
holds to solver precision and every energy and residual evaluator, in 2D and
3D, computes the same numbers. PoissonSystem and charge_load are
dimension-generic; the 2D midsurface potential of bending2d is built from
them too.
"""

import functools
import itertools
import math

import numpy as np

from . import fields
from .cg import SolverError, dot, pcg
from .material import kappa_pullback
from .smallmat import det3

__all__ = ["PoissonSystem", "PoissonSystem3", "line_metric", "charge_load", "assemble_poisson3", "solve_potential3", "electrostatic_energy", "weak_form_residual", "E_eps", "check_pg0", "SolverError"]


def _oriented_gradient(y, grid, eps):
    """The cell-centre scaled gradient of y; raises, naming the cell, where it loses orientation."""
    F = fields.scaled_gradient(y, grid, eps)
    d = det3(F)
    if np.min(d) <= 0.0:
        cell = np.unravel_index(int(np.argmin(d)), grid.cshape)
        raise ValueError(f"deformation not orientation-preserving at cell {cell}")
    return F


# Rows of the stencil table per GEMM: a third of the 36 in 3D, the whole 10 in
# 2D. On one thread, numpy 2.4.6's bundled OpenBLAS rounds every 12-row slice
# of the product as it rounds those rows of the full product, at each cell
# count tried (2 to 140000), while 2- to 10- and 18-row slices change the last
# bit at most cell counts that are not a multiple of 8 (tests/test_blocking.py
# pins this).
STENCIL_ROWS = 12


def _stencil(coef, grid, eps):
    """Nodal stencil of the assembled operator, keyed by neighbour offset.

    Maps each offset o in {-1, 0, 1}^dim that is non-negative in
    lexicographic order to the nodal array S_o with K[n, n + o] = S_o[n];
    S_o is zero where n + o falls off the grid. K is symmetric, so the
    offset -o needs no array of its own: K[n + o, n] = S_o[n].

    The cell-stiffness entries K_ab (corner a, corner b) that the stencil
    needs come straight from the coefficient, GEMMs against their columns
    of the cached stiffness table, STENCIL_ROWS rows at a time in
    corner-loop order: each row is a contiguous cell array added into its
    offset. The entries and their sums match the ones read out of
    fields.local_stiffness to the bit.
    """
    dim = len(grid.shape)
    corners = list(itertools.product((0, 1), repeat=dim))
    pairs = []
    for a, ca in enumerate(corners):
        for b, cb in enumerate(corners):
            o = tuple(q - p for p, q in zip(ca, cb))
            if o >= (0,) * dim:
                pairs.append((ca, o, a * len(corners) + b))
    table = fields.stiffness_table(grid, eps)[:, [col for _, _, col in pairs]].T
    coef = np.reshape(coef, (-1, dim * dim)).T
    stencil = {}
    for start in range(0, len(pairs), STENCIL_ROWS):
        rows = table[start : start + STENCIL_ROWS] @ coef
        for (ca, o, _), row in zip(pairs[start : start + STENCIL_ROWS], rows):
            cells = tuple(slice(p, n - 1 + p) for p, n in zip(ca, grid.shape))
            stencil.setdefault(o, np.zeros(grid.shape))[cells] += row.reshape(grid.cshape)
        del rows, row  # not alive while the next slice is multiplied
    return dict(sorted(stencil.items()))


class PoissonSystem:
    """Assembled Q1 operator and load of a pure-Neumann potential problem.

    Serves the 3D plate (Grid3, x3 derivatives scaled by 1/eps) and the 2D
    midsurface (Grid2) alike. coef is the cellwise-constant coefficient and
    load the nodal charge load; the gauge weights are the normalized
    trapezoid weights. The operator is applied as its assembled stencil:
    in C-ordered flat node indexing each offset is a fixed shift, so an
    apply is one multiply-add per direction of every stored offset. The
    solve is preconditioned by precondition: Jacobi here, the x3-line
    blocks in PoissonSystem3.
    """

    def __init__(self, grid, coef, load, eps=1.0):
        self.grid = grid
        self.eps = eps
        self.coef = coef
        self.stencil = _stencil(coef, grid, eps)
        self.diag = self.stencil[(0,) * len(grid.shape)]
        if np.any(self.diag <= 0.0):
            raise ValueError("PoissonSystem: operator diagonal must be positive")
        strides = [math.prod(grid.shape[k + 1 :]) for k in range(len(grid.shape))]
        self._shifts = []
        for o, S in self.stencil.items():
            d = sum(ok * sk for ok, sk in zip(o, strides))
            if d:
                self._shifts.append((d, S.ravel()[: S.size - d]))
        # compatibility shift: the kernel is the constants, so the load must
        # have zero sum; the shift is spread with the gauge weights
        self.b_raw = load
        self.weights = fields.node_weights(grid)
        self.b = load - load.sum() * self.weights

    @functools.cached_property
    def Kloc(self):
        """Per-cell local stiffness, (*cshape, 2^dim, 2^dim), built on first access; the operator never reads it."""
        return fields.local_stiffness(self.coef, self.grid, self.eps)

    def apply(self, phi):
        """Operator application on a nodal array (not flattened)."""
        x = np.ravel(phi)
        y = self.diag.ravel() * x
        for d, s in self._shifts:
            y[:-d] += s * x[d:]
            y[d:] += s * x[:-d]
        return y.reshape(self.grid.shape)

    def energy_parts(self, phi):
        """(phi^T K phi, b_raw^T phi): the dielectric quadratic term times beta and the charge moment times gamma.

        The quadratic form is summed in edge-difference form,
        -sum over the stored offsets (d, s) of s * (x[:-d] - x[d:])^2, which is
        exact because K's kernel is the constants. It never forms the
        diagonal, so it keeps none of the cancellation between diagonal and
        off-diagonal terms that phi . apply(phi) carries on thin plates.
        """
        x = np.ravel(phi)
        scratch = np.empty(x.size)  # each offset's differences and their squares, in place
        quad = 0.0
        for d, s in self._shifts:
            e = scratch[: x.size - d]
            np.subtract(x[:-d], x[d:], out=e)
            np.multiply(e, e, out=e)
            quad -= dot(s, e, out=e)
        return quad, dot(self.b_raw.ravel(), x)

    def matvec(self, x):
        return self.apply(x.reshape(self.grid.shape)).ravel()

    def precondition(self, r):
        """Jacobi: r divided by the operator diagonal; flat in, flat out."""
        return r / self.diag.ravel()

    def solve(self, tol=1e-10, x0=None, telemetry=None):
        """Projected PCG solve with the system's own preconditioner; the potential with weighted zero mean.

        A telemetry dict, when given, has the solve's PCG iterations added
        to its "pcg_iterations".
        """
        x, history = pcg(self.matvec, self.b, self.precondition, tol=tol, x0=x0)
        if telemetry is not None:
            telemetry["pcg_iterations"] = telemetry.get("pcg_iterations", 0) + len(history) - 1
        phi = x.reshape(self.grid.shape)
        return phi - float(np.sum(self.weights * phi))


class PoissonSystem3(PoissonSystem):
    """The 3D potential system plus its exact x3-line preconditioner."""

    def __init__(self, grid, coef, load, eps):
        super().__init__(grid, coef, load, eps)
        # K[(i, j, l), (i, j, l + 1)]: Q1 nodes couple along x3 only to
        # l +- 1, so with diag this fixes the tridiagonal x3 column blocks
        self.line_offdiag = self.stencil[(0, 0, 1)][:, :, :-1]

    @functools.cached_property
    def _line_factors(self):
        """Thomas factors of the x3 column blocks, line index first, built on the first precondition.

        Each block is a principal submatrix of K, hence positive definite,
        so the elimination needs no pivoting. A system that is only
        evaluated, never solved, never factors its lines.
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
        z = np.reshape(r, (-1, self.grid.n3)).T.copy()
        _line_solve(z, *self._line_factors)
        return z.T.ravel()


METRIC_SHIFT = 1e-3  # line_metric's diagonal shift, relative to the mean diagonal


def _line_solve(z, lower, upper, inv_pivot):
    """Thomas substitution with the x3 line factors, in place on z of shape (n3, lines, ...)."""
    z[0] *= inv_pivot[0]
    for l in range(1, len(z)):
        z[l] -= lower[l - 1] * z[l - 1]
        z[l] *= inv_pivot[l]
    for l in range(len(z) - 2, -1, -1):
        z[l] -= upper[l] * z[l + 1]


def line_metric(grid, eps):
    """v -> M^-1 v for nodal vector fields (*grid.shape, k), each component solved alike.

    M is the x3-line block diagonal of the identity-coefficient Q1 Laplacian
    of PoissonSystem3 at this grid and eps, its diagonal shifted by
    METRIC_SHIFT times its mean: the shift takes the constants, the
    Laplacian's kernel, out of the metric's. The x3 blocks carry the
    unit-coefficient term |d3 v / eps|^2 of the scaled gradient, without
    M_eps's eps^-2 prefactor or the elastic moduli (recovery.two_level_metric
    scales by them). Only the Thomas factors are kept, cached per grid and eps.
    """

    def build_factors():
        coef = np.broadcast_to(np.eye(3), grid.cshape + (3, 3))
        system = PoissonSystem3(grid, coef, np.zeros(grid.shape), eps)
        system.diag += METRIC_SHIFT * system.diag.mean()
        return tuple(fields._read_only(f[..., None]) for f in system._line_factors)

    factors = grid._cached(("line_metric", eps), build_factors)

    def inv_metric(v):
        z = np.moveaxis(np.reshape(v, (-1, grid.n3, v.shape[-1])), 1, 0).copy()
        _line_solve(z, *factors)
        return np.moveaxis(z, 0, 1).reshape(v.shape)

    return inv_metric


def charge_load(density, grid, gamma):
    """Center-rule charge load: gamma times each cell's density, split equally over its corners.

    density is the cellwise charge density, broadcastable to grid.cshape.
    """
    ncorner = 2 ** len(grid.shape)
    w = gamma * math.prod(grid.spacing) / ncorner
    U = np.broadcast_to((w * np.broadcast_to(density, grid.cshape))[..., None], grid.cshape + (ncorner,))
    return fields.corner_scatter(U, grid)


def assemble_poisson3(y, grid, eps, mat):
    """Build the potential system for a nodal deformation y.

    Rejects deformations with a nonpositive cell determinant, reporting the
    offending cell. beta sits on the stiffness side and gamma on the load.
    """
    # the gradient is dropped before the system's stencil rows, its largest temporary, are built
    coef = kappa_pullback(_oriented_gradient(y, grid, eps), mat.permittivity.k)
    coef *= mat.coupling.beta
    charge, gamma = mat.charge, mat.coupling.gamma

    def build_load():
        return fields._read_only(charge_load(charge.n_ch(grid.c1)[:, None, None], grid, gamma))

    # the load depends on the grid and the charge alone: built once per grid, charge model and gamma
    load = grid._cached(("charge_load", charge, gamma), build_load)
    return PoissonSystem3(grid, coef, load, eps)


def solve_potential3(system, tol=1e-10, x0=None):
    """The potential of a 3D system, solved with its x3-line preconditioner; weighted zero mean."""
    return system.solve(tol=tol, x0=x0)


def electrostatic_energy(quad, moment):
    """quad/2 - moment: the electrostatic energy from the scaled pair of PoissonSystem.energy_parts."""
    return 0.5 * quad - moment


def weak_form_residual(quad, moment):
    """|quad - moment| / (1 + |moment|): the weak-form identity residual of the scaled pair."""
    return abs(quad - moment) / (1.0 + abs(moment))


def E_eps(y, phi, grid, eps, mat):
    """Scaled electrostatic energy (beta/2) int kappa grad phi . grad phi - gamma int n phi."""
    return electrostatic_energy(*assemble_poisson3(y, grid, eps, mat).energy_parts(phi))


def check_pg0(y, phi, grid, eps, mat):
    """Residual of the discrete weak-form identity at the solved potential.

    Returns |beta int kappa grad phi . grad phi - gamma int n phi| divided by
    1 + |gamma int n phi|. Zero-mean test functions make both sides equal at
    the exact discrete solution, so this measures solver quality.
    """
    return weak_form_residual(*assemble_poisson3(y, grid, eps, mat).energy_parts(phi))
