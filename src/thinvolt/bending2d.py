"""Effective thin-plate model on the unit square.

Deformations come from a cylindrical bending ansatz driven by a nodal angle
profile theta(x1): the midsurface is an exact isometry for every profile, its
curvature tensor is diag(theta', 0), and the attached orthonormal frame
carries the permittivity reduction. The potential solves a 2D pure-Neumann
problem with the reduced in-plane permittivity through the same Q1 system as
the 3D one (electro3d.PoissonSystem: cell-center coefficient, 2x2 Gauss
quadratic terms, center-rule charge); E0 and check_virial are that system's
energy_parts, as in 3D.
"""

import numpy as np

from . import fields, optimize
from .electro3d import PoissonSystem, charge_load, electrostatic_energy, weak_form_residual
from .relaxation import RelaxedQ2, effective_permittivity

__all__ = [
    "CylindricalIsometry",
    "M0",
    "grad_M0_theta",
    "solve_potential2",
    "E0",
    "F0",
    "bending_metric_inverse",
    "saddle_iterate_2d",
    "check_virial",
    "keff_and_derivative",
]


class CylindricalIsometry:
    """Bending deformation y(x) = (int_0^{x1} cos theta, x2, -int_0^{x1} sin theta).

    theta lives at the x1-nodes of a Grid2. The tangent/normal pair
    t = (cos theta, 0, -sin theta), nu = (sin theta, 0, cos theta) makes
    (t, e2, nu) a rotation and the curvature tensor grad'y^T grad'nu equal to
    diag(theta', 0) with no sign flip. Nodal midsurface values integrate
    cos/sin exactly on each cell for the linear-in-x1 interpolant of theta.
    """

    def __init__(self, grid, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (grid.n1,):
            raise ValueError("theta must carry one value per x1 node")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        self.grid = grid
        self.theta = theta.copy()

    # -- angle samples -------------------------------------------------------

    def theta_cells(self):
        return 0.5 * (self.theta[:-1] + self.theta[1:])

    def curvature_cells(self):
        """theta' at cell midpoints, centered two-node difference."""
        return np.diff(self.theta) / self.grid.h1

    def curvature_nodes(self):
        return self.grid.axis_ops(0)["D1"] @ self.theta

    # -- geometry ------------------------------------------------------------

    @staticmethod
    def frame_of(theta):
        """Rotation with columns (tangent, e2, normal), batched over theta."""
        th = np.asarray(theta, dtype=float)
        R = np.zeros(th.shape + (3, 3))
        R[..., 0, 0] = np.cos(th)
        R[..., 2, 0] = -np.sin(th)
        R[..., 1, 1] = 1.0
        R[..., 0, 2] = np.sin(th)
        R[..., 2, 2] = np.cos(th)
        return R

    def frame_cells(self):
        return self.frame_of(self.theta_cells())

    def _arc_coords(self):
        """Cumulative (int cos theta, -int sin theta) at x1 nodes.

        Per-cell integrals are exact for piecewise-linear theta; the
        constant-slope degenerate case falls back to the midpoint value.
        """
        th0, th1 = self.theta[:-1], self.theta[1:]
        dth = th1 - th0
        small = np.abs(dth) < 1e-12
        safe = np.where(small, 1.0, dth)
        c = np.where(small, np.cos(0.5 * (th0 + th1)), (np.sin(th1) - np.sin(th0)) / safe)
        s = np.where(small, np.sin(0.5 * (th0 + th1)), (np.cos(th0) - np.cos(th1)) / safe)
        y1 = np.concatenate([[0.0], np.cumsum(self.grid.h1 * c)])
        y3 = np.concatenate([[0.0], np.cumsum(-self.grid.h1 * s)])
        return y1, y3

    def deformation_nodes(self):
        """Midsurface nodal values on the Grid2, weighted zero mean per component."""
        y1, y3 = self._arc_coords()
        y = np.zeros(self.grid.shape + (3,))
        y[..., 0] = y1[:, None]
        y[..., 1] = self.grid.x2[None, :]
        y[..., 2] = y3[:, None]
        return fields.zero_mean_project(y, self.grid)


# ---------------------------------------------------------------------------
# bending energy


def _curvature_polynomial(rq):
    """qbar(kappa) for the curvature tensor diag(kappa, 0) as (a, b, c)."""
    P, q, r = rq.qbar2_coefficients()
    return P[0, 0], q[0], r


def M0(y0, rq):
    """Effective bending energy (1/2) int qbar2(diag(theta',0)) dx'."""
    a, b, c = _curvature_polynomial(rq)
    kap = y0.curvature_cells()
    return 0.5 * y0.grid.h1 * float(np.sum(a * kap * kap + b * kap + c))


def grad_M0_theta(y0, rq):
    """Exact derivative of M0 with respect to the nodal angles."""
    a, b, _ = _curvature_polynomial(rq)
    kap = y0.curvature_cells()
    cellwise = 0.5 * (2.0 * a * kap + b)
    return -np.diff(cellwise, prepend=0.0, append=0.0)  # D^T cellwise


# ---------------------------------------------------------------------------
# reduced permittivity and its angle derivative


def keff_and_derivative(theta, k):
    """Reduced in-plane permittivity and its theta-derivative, batched.

    keff is effective_permittivity in the bending frame; the derivative
    differentiates the rotation and the Schur complement in theta. Returns
    (keff, dkeff) with trailing shape (2, 2).
    """
    theta = np.asarray(theta, dtype=float)
    R = CylindricalIsometry.frame_of(theta)
    (_, kv, kz), keff = effective_permittivity(k, R)
    dR = np.zeros_like(R)
    dR[..., 0, 0] = -np.sin(theta)
    dR[..., 2, 0] = -np.cos(theta)
    dR[..., 0, 2] = np.cos(theta)
    dR[..., 2, 2] = -np.sin(theta)
    k = np.asarray(k, dtype=float)
    dK = np.swapaxes(dR, -1, -2) @ k @ R + np.swapaxes(R, -1, -2) @ k @ dR
    dkb, dkv, dkz = dK[..., :2, :2], dK[..., :2, 2], dK[..., 2, 2]
    kzi = 1.0 / kz[..., None, None]
    dkeff = (
        dkb
        - (dkv[..., :, None] * kv[..., None, :] + kv[..., :, None] * dkv[..., None, :]) * kzi
        + kv[..., :, None] * kv[..., None, :] * (dkz[..., None, None] * kzi * kzi)
    )
    return keff, dkeff


def _potential_coefficients(y0, mat):
    """Cellwise reduced permittivity (broadcast over x2) and charge density."""
    _, keff = effective_permittivity(mat.permittivity.kbar(), y0.frame_cells())
    return np.broadcast_to(keff[:, None], y0.grid.cshape + (2, 2)), mat.charge.nbar(y0.grid.c1)[:, None]


# ---------------------------------------------------------------------------
# 2D pure-Neumann potential problem


def assemble_poisson2(y0, mat):
    keff, density = _potential_coefficients(y0, mat)
    load = charge_load(density, y0.grid, mat.coupling.gamma)
    return PoissonSystem(y0.grid, mat.coupling.beta * keff, load)


def solve_potential2(y0, mat, tol=1e-10):
    """Solve the reduced potential problem (Jacobi PCG); weighted zero-mean nodal field."""
    return assemble_poisson2(y0, mat).solve(tol=tol)


# ---------------------------------------------------------------------------
# energies


def E0(y0, phi, mat):
    """Effective electrostatic energy (beta/2) int Keff grad'phi . grad'phi - gamma int nbar phi."""
    return electrostatic_energy(*assemble_poisson2(y0, mat).energy_parts(phi))


def F0(y0, phi, mat, rq=None):
    """Effective total energy M0 - E0."""
    if rq is None:
        rq = RelaxedQ2.of(mat)
    return M0(y0, rq) - E0(y0, phi, mat)


def check_virial(y0, phi, mat):
    """Relative residual of the weak-form identity at a solved potential."""
    return weak_form_residual(*assemble_poisson2(y0, mat).energy_parts(phi))


# ---------------------------------------------------------------------------
# saddle point as a minimizer of the reduced functional


def _theta_gradient(y0, phi, mat, rq):
    """Angle gradient of F0 at the frozen potential phi.

    grad M0 - (beta/2) d/dtheta sum_c tr(Keff(theta_c) G2x1[c]), with G2x1
    the x2-summed gradient second moments of phi per x1-cell.
    """
    G2x1 = fields.gradient_second_moments(phi, y0.grid).sum(axis=1)
    _, dkeff = keff_and_derivative(y0.theta_cells(), mat.permittivity.kbar())
    dq = 0.5 * mat.coupling.beta * np.einsum("cij,cji->c", dkeff, G2x1)
    g = grad_M0_theta(y0, rq)
    g[1:] -= 0.5 * dq
    g[:-1] -= 0.5 * dq
    return g


def _bending_hessian(grid, rq):
    """Exact Hessian of M0 in the nodal angles: (a/h1) D^T D, D the cell difference matrix."""
    a, _, _ = _curvature_polynomial(rq)
    D = np.diff(np.eye(grid.n1), axis=0)
    return (a / grid.h1) * (D.T @ D)


def bending_metric_inverse(grid, rq):
    """(H + c 11^T / n1)^-1, H the exact bending Hessian of M0 in the n1 nodal angles.

    c = 1e-2 max(|diag H|, 1) fills only the constant (rigid-rotation) null
    mode of H. grid is any grid whose first axis carries the angles.
    """
    H = _bending_hessian(grid, rq)
    c = 1e-2 * max(np.abs(np.diag(H)).max(), 1.0)
    return np.linalg.inv(H + c / grid.n1)  # adds c 11^T / n1


def saddle_iterate_2d(theta0, grid, mat, iters=200, tol=1e-8, rq=None, solver_tol=1e-12):
    """Find a saddle point of F0 by L-BFGS on the reduced functional.

    f(theta) = max_phi F0(theta, phi) is F0 at the solved potential: one
    potential solve per evaluation. By Danskin's theorem its gradient is the
    frozen-potential angle gradient at that solve. The inverse metric is
    bending_metric_inverse. iters caps the gradient evaluations.

    Returns (y0, phi, history, converged), one history row per gradient
    evaluation: (f at the iterate, f at the next iterate, gradient norm,
    accepted step); the last row is (f, f, gradient norm, 0).
    """
    if rq is None:
        rq = RelaxedQ2.of(mat)

    def evaluate(theta):
        y0 = CylindricalIsometry(grid, theta)
        phi = solve_potential2(y0, mat, tol=solver_tol)
        return F0(y0, phi, mat, rq), (y0, phi)

    inv_metric = bending_metric_inverse(grid, rq)
    _, (y0, phi), info = optimize.lbfgs(
        evaluate,
        lambda state: _theta_gradient(*state, mat, rq),
        theta0,
        lambda v: inv_metric @ v,
        max_iter=iters,
        grad_tol=tol,
    )
    f = info["objectives"] + [info["objective"]]
    history = list(zip(f[:-1], f[1:], info["grad_norms"], info["steps"] + [0.0]))
    return y0, phi, np.array(history), info["converged"]
