"""Mechanical energy of the thin plate and the coupled saddle functional.

The scaled mechanical energy per unit thickness is

    M_eps(y) = eps^{-2} int [ W(grad_eps y M^{-1}) det M + H(hess_eps y) ],

with M = I + eps B the prestrain factor and H the second-gradient penalty.
The elastic term uses a two-point Gauss rule across the thickness (exact on
the quadratic through-thickness strain profile of bent states, which a
single center point systematically underintegrates) and the cell center in
plane; the second-gradient term stays on cell centers. Gradients are exact
derivatives of the discrete energies (verified against finite differences
in the test-suite), so descent methods and optimality probes agree.
"""

import numpy as np

from . import electro3d, fields
from .material import H_hyper, W_el, dW_el, hyper_weight, maxwell_stress_moment
from .smallmat import det3, dist_SO3_sq, inv3

__all__ = [
    "flat_deformation",
    "M_eps",
    "grad_M_eps",
    "F_eps",
    "grad_y_F_eps",
    "apriori_report",
]

_EYE3 = np.eye(3)


def flat_deformation(grid, eps):
    """Flat reference deformation (x1, x2, eps*x3), gauged to zero mean."""
    y = np.zeros(grid.shape + (3,))
    y[..., 0] = grid.x1[:, None, None]
    y[..., 1] = grid.x2[None, :, None]
    y[..., 2] = eps * grid.x3[None, None, :]
    return fields.zero_mean_project(y, grid)


def _prestrain_cells(grid, eps, mat, z):
    """(M^-1, det M) for M = I + eps B at the local x3 coordinate z of each x3 layer of cells: (nc3, 3, 3), (nc3,).

    Both are read-only and cached on the grid, keyed by eps, z and the prestrain's B0 and B1.
    """
    prestrain = mat.prestrain

    def build():
        t = grid.c3 + (z - 0.5) * grid.h3
        M = _EYE3 + eps * prestrain.B(t)
        detM = det3(M)
        if np.min(detM) <= 0.0:
            raise ValueError("prestrain factor loses orientation at this eps")
        return fields._read_only(inv3(M)), fields._read_only(detM)

    return grid._cached(("prestrain", eps, z, prestrain.B0.tobytes(), prestrain.B1.tobytes()), build)


def _layer_matmul(A, B):
    """A @ B[l] for the cells of every x3 layer l; A is a C-ordered (*cshape, 3, 3) whose buffer is reused.

    Each layer's rows are gathered into one contiguous block and the layers
    multiply as one (nc3, rows, 3) @ (nc3, 3, 3) matmul, one GEMM per layer:
    numpy runs the broadcast stacked 3x3 matmul several times slower. The
    product lands in A's buffer and is copied back to cell order into the
    gathered block's, so no more than two cell-sized arrays are alive.
    """
    nc3 = len(B)
    rows = np.ascontiguousarray(np.moveaxis(A.reshape(-1, nc3, 3, 3), 1, 0))
    prod = np.matmul(rows.reshape(nc3, -1, 3), B, out=A.reshape(nc3, -1, 3))
    out = rows.reshape(-1, nc3, 3, 3)
    out[...] = np.moveaxis(prod.reshape(nc3, -1, 3, 3), 0, 1)
    return out.reshape(A.shape)


def _gauss_points(y, grid, eps, mat):
    """Yield (w, z, F M^-1, M^-1, det M) per thickness Gauss point, F = grad_eps y at (0.5, 0.5, z).

    M^-1 and det M are per x3 layer of cells, (nc3, 3, 3) and (nc3,).
    """
    points = fields.gauss_points(1)
    for (z,) in points:
        w = 1.0 / len(points)
        Minv, detM = _prestrain_cells(grid, eps, mat, z)
        yield w, z, _layer_matmul(fields.scaled_gradient(y, grid, eps, point=(0.5, 0.5, z)), Minv), Minv, detM


def _integrals(y, grid, eps, mat):
    """(elastic, hyper) integrals of M_eps before its eps^-2; (inf, inf) where W is not finite."""
    elastic = 0.0
    for w, _, arg, _, detM in _gauss_points(y, grid, eps, mat):
        Wd = W_el(arg, mat.elastic)
        del arg  # not alive while the next point's gradient or the Hessian norm is formed
        if not np.all(np.isfinite(Wd)):
            return np.inf, np.inf
        elastic += w * fields.integrate3(Wd * detM, grid)
    return elastic, fields.integrate3(H_hyper(fields.scaled_hessian_norm(y, grid, eps), eps, mat.hyper), grid)


def M_eps(y, grid, eps, mat):
    """Scaled mechanical energy; +inf if the prestrain-adjusted gradient loses orientation."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    elastic, hyper = _integrals(y, grid, eps, mat)
    return (elastic + hyper) / (eps * eps)


def M_eps_parts(y, grid, eps, mat):
    """(elastic, hyper) parts of M_eps, both already carrying the eps^-2 factor; both +inf where M_eps is."""
    elastic, hyper = _integrals(y, grid, eps, mat)
    return elastic / (eps * eps), hyper / (eps * eps)


def grad_M_eps(y, grid, eps, mat):
    """Exact gradient of M_eps with respect to the nodal deformation.

    Raises if the energy is infinite at y. The translation component is
    projected out (it is already zero up to roundoff).
    """
    scale = grid.cell_volume / (eps * eps)
    g = None
    for w, z, arg, Minv, detM in _gauss_points(y, grid, eps, mat):
        S = _layer_matmul(dW_el(arg, mat.elastic), np.ascontiguousarray(np.swapaxes(Minv, -1, -2)))
        S *= (detM * w * scale)[:, None, None]
        piece = fields.gradient_scatter(S, grid, eps, point=(0.5, 0.5, z))
        g = piece if g is None else g + piece
    H = fields.scaled_hessian(y, grid, eps)
    c = hyper_weight(np.sqrt(fields.hessian_norm_squared(H)), eps, mat.hyper)
    c *= scale
    g += fields.hessian_scatter(H, c, grid, eps)
    return g - g.mean(axis=(0, 1, 2))


def F_eps(y, phi, grid, eps, mat):
    """Coupled saddle functional M_eps - E_eps; +inf propagates from the mechanical part."""
    m = M_eps(y, grid, eps, mat)
    if not np.isfinite(m):
        return np.inf
    return m - electro3d.E_eps(y, phi, grid, eps, mat)


def grad_y_F_eps(y, phi, grid, eps, mat):
    """Deformation gradient of F_eps at a frozen potential.

    The dielectric contribution is minus the derivative of the coefficient
    quadratic term, assembled from the electrostatic stress against the
    per-cell Gauss second moment of the potential gradient.
    """
    g = grad_M_eps(y, grid, eps, mat)
    F = fields.scaled_gradient(y, grid, eps)
    G2 = fields.gradient_second_moments(phi, grid, eps)
    P = mat.coupling.beta * maxwell_stress_moment(F, mat.permittivity.k, G2)
    g += fields.gradient_scatter(P, grid, eps)
    return g - g.mean(axis=(0, 1, 2))


def apriori_report(y, phi, grid, eps, mat):
    """A-priori scaling diagnostics: (int dist^2(grad_eps y, SO(3)), |grad_eps phi|_{L^p_W}, min det grad_eps y).

    p_W is the conjugate exponent of the elastic growth exponent q_w.
    """
    F = fields.scaled_gradient(y, grid, eps)
    dist2 = fields.integrate3(dist_SO3_sq(F), grid)
    p_w = mat.elastic.conjugate_exponent()
    gp = fields.scaled_gradient(phi, grid, eps)
    gp_norm = fields.integrate3(np.sum(gp * gp, axis=-1) ** (p_w / 2.0), grid) ** (1.0 / p_w)
    return dist2, gp_norm, float(np.min(det3(F)))
