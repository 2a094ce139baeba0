"""Shared test helper: the 27-entry scaled Hessian and the hyperstress arithmetic written on it.

The package keeps only the six distinct pairs i <= j (fields.scaled_hessian).
These are the expressions the energy gradients were written with on the full
(..., i, j, k) tensor, kept as references: the gradients' bit-for-bit guards
compare against them.
"""

import numpy as np

from thinvolt import fields


def full(H):
    """The 27-entry tensor (*cshape, i, j, k) of six pairs H, as a view of an (i, j, k, cell) array."""
    H27 = np.empty((3, 3) + H.shape[1:])
    for (i, j), Hp in zip(fields._PAIRS, H):
        H27[i, j] = H27[j, i] = Hp
    return np.moveaxis(H27, (0, 1, 2), (3, 4, 5))


def hessian(y, grid, eps):
    """The 27-entry scaled Hessian H[..., i, j, k] = alpha_ij(eps) d^2 y_k / dx_i dx_j, laid out (i, j, k, cell)."""
    return full(fields.scaled_hessian(y, grid, eps))


def dH_hyper(G, eps, params):
    """Derivative of H_hyper(|G|) with respect to a 27-entry G, the norm summed by einsum."""
    nrm = np.sqrt(np.einsum("...ijk,...ijk->...", G, G))
    w = eps**params.alpha_h * params.c_h * np.where(nrm > 0.0, nrm, 1.0) ** (params.q_h - 2.0)
    w = np.where(nrm > 0.0, w, 0.0)
    return w[..., None, None, None] * G


def scatter(W, grid, eps):
    """Adjoint of hessian for an arbitrary 27-entry W: once per pair i <= j on W_ij + W_ji."""
    A0, A1, A2 = fields._pair_factors(grid, eps)
    (n1, n2, n3), (c1, c2, c3) = grid.shape, grid.cshape
    W = np.ascontiguousarray(np.moveaxis(W, (3, 4, 5), (0, 1, 2)), dtype=float)
    out = np.zeros((3, n1, n2 * n3))
    for p, (i, j) in enumerate(fields._PAIRS):
        Wp = W[i, j] if i == j else W[i, j] + W[j, i]
        T = A1[p].T @ (Wp.reshape(-1, c3) @ A2[p]).reshape(3, c1, c2, n3)
        out += A0[p].T @ T.reshape(3, c1, n2 * n3)
    return np.moveaxis(out.reshape(3, n1, n2, n3), 0, -1)
