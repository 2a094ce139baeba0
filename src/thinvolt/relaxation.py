"""Thickness relaxation of the elastic quadratic form and of the permittivity.

Three eliminations produce the effective 2D model:

* RelaxedQ2 (pointwise: relax_over_z): minimize Q3(X^0 + z (x) e3) over z
  in R^3, where X^0 embeds a 2x2 matrix into the upper-left block. The
  minimizer is linear in X.
* RelaxedQ2.qbar2: average the relaxed form over the thickness and minimize
  over a constant 2x2 offset s, against the affine prestrain B0 + t B1. The
  t-integral over (-1/2, 1/2) splits into Q2(G - B1)/12 + Q2(s - B0), so the
  optimal offset is sym(B0) and the average is Q2(G - B1)/12 (2x2 blocks).
* effective_permittivity / m_out_of_plane: rotate the averaged permittivity
  into a deformed frame and eliminate the out-of-plane field component,
  which yields the Schur complement of the out-of-plane diagonal entry,
  batched over frames.
"""

import numpy as np

from .material import PrestrainModel, Q3_form
from .smallmat import QuadForm2, sym_part

__all__ = [
    "relax_over_z",
    "RelaxedQ2",
    "effective_permittivity",
    "m_out_of_plane",
]

# selectors into the row-major 3x3 vec: vec(X^0) = _BLOCK vec(X) embeds a 2x2
# matrix in the upper-left block, vec(z (x) e3) = _COLUMN z fills the third column
_BLOCK = np.eye(9)[:, [0, 1, 3, 4]]
_COLUMN = np.eye(9)[:, [2, 5, 8]]


def relax_over_z(q3, X):
    """Minimize Q3 over the appended column: returns (z_star, value).

    X is a 2x2 matrix; X^0 places it in the upper-left 3x3 block. The
    minimizer and the relaxed value are those of RelaxedQ2(q3), which
    rejects a form that degenerates on the coupling subspace.
    """
    rq = RelaxedQ2(q3)
    X = np.asarray(X, dtype=float).reshape(2, 2)
    return rq.minimizer_z(X), float(rq.q2(X))


class RelaxedQ2:
    """Relaxed in-plane quadratic form and its thickness average.

    Built from a 3x3-matrix quadratic form (typically the expansion of the
    elastic density at the identity) and an affine-in-thickness prestrain.
    Caches the linear minimizer map, the resulting 2x2-form coefficient
    matrix, the in-plane prestrain blocks and column_stiffness, the 3x3
    matrix with Q3(z (x) e3) = z^T column_stiffness z: the form's
    stiffness against an x3-gradient.
    """

    def __init__(self, q3, prestrain=None):
        pre = PrestrainModel() if prestrain is None else prestrain
        self._b0, self._b1 = sym_part(pre.B0[:2, :2]), pre.B1[:2, :2]
        A = q3.A
        S, E = _COLUMN, _BLOCK
        M = self.column_stiffness = S.T @ A @ S
        if abs(np.linalg.det(M)) < 1e-12 * max(1.0, np.linalg.norm(M) ** 3):
            raise ValueError("RelaxedQ2: quadratic form degenerate on the coupling subspace")
        # minimizer map z(X) = L vec(X) and Schur-reduced coefficient matrix
        self._zmap = -np.linalg.solve(M, S.T @ A @ E)
        A2 = E.T @ (A - A @ S @ np.linalg.solve(M, S.T @ A)) @ E
        self.q2 = QuadForm2(A2)

    @classmethod
    def of(cls, mat):
        """The relaxed form of a Material: its elastic density's expansion at the identity and its prestrain."""
        return cls(Q3_form(mat.elastic), mat.prestrain)

    # -- pointwise relaxed form -------------------------------------------

    def minimizer_z(self, X):
        """Optimal appended column for the in-plane matrix X (linear in X). Batched."""
        X = np.asarray(X, dtype=float)
        v = X.reshape(X.shape[:-2] + (4,))
        return np.einsum("za,...a->...z", self._zmap, v)

    def q2_eval(self, X):
        """Relaxed in-plane quadratic form (batched)."""
        return self.q2(X)

    # -- thickness average -------------------------------------------------

    def qbar2(self, G):
        """Thickness-averaged relaxed form at in-plane matrix G.

        Minimizes int_{-1/2}^{1/2} Q2(t G + s - B_2x2(t)) dt over constant
        2x2 offsets s. The minimizer is sym(B0_2x2) (Q2 kills the skew part)
        and the minimum Q2(G - B1_2x2) / 12. Returns (s_star, value).
        """
        G = np.asarray(G, dtype=float).reshape(2, 2)
        return self._b0.copy(), float(self.q2(G - self._b1)) / 12.0

    def qbar2_coefficients(self):
        """Quadratic polynomial Qbar2(G) = vec(G)^T P vec(G) + q . vec(G) + r.

        With b1 = vec(B1_2x2): P = A2 / 12, q = -A2 b1 / 6, r = b1 . A2 b1 / 12.
        """
        A2 = self.q2.A
        b1 = self._b1.reshape(-1)
        return A2 / 12.0, -A2 @ b1 / 6.0, float(b1 @ A2 @ b1) / 12.0


def effective_permittivity(kbar, R):
    """Rotate the averaged permittivity into the frame R and reduce it.

    Returns ((kb, kv, kz), keff): the in-plane block, coupling column and
    out-of-plane entry of R^T kbar R, and the 2x2 Schur complement
    kb - kv kv^T / kz. The frame must be orthonormal to 1e-8. Batched over
    any leading axes of R, including none.
    """
    kbar = np.asarray(kbar, dtype=float).reshape(3, 3)
    R = np.asarray(R, dtype=float)
    RtR = np.swapaxes(R, -1, -2) @ R
    if np.max(np.abs(RtR - np.eye(3))) > 1e-8:
        raise ValueError("effective_permittivity: frame not orthonormal")
    K = np.swapaxes(R, -1, -2) @ kbar @ R
    kb = K[..., :2, :2]
    kv = K[..., :2, 2]
    kz = K[..., 2, 2]
    keff = kb - kv[..., :, None] * kv[..., None, :] / kz[..., None, None]
    return (kb, kv, kz), keff


def m_out_of_plane(K, gradphi):
    """Optimal out-of-plane field component -kv . grad / kz for a partition (kb, kv, kz)."""
    _, kv, kz = K
    g = np.asarray(gradphi, dtype=float)
    return -np.einsum("...i,...i->...", kv, g) / kz
