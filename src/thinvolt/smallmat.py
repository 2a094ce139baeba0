"""Fixed-size 2x2 and 3x3 matrix algebra and quadratic forms.

Everything operates on plain float64 numpy arrays. The trailing one or two
axes are the vector/matrix axes; leading axes are batch axes where noted.
Vectorization of a 3x3 matrix is row-major, vec(H)[3*i + j] = H[i, j].
"""

import numpy as np

__all__ = [
    "det3",
    "cofactor3",
    "inv3",
    "nearest_rotation",
    "dist_SO3_sq",
    "sym_part",
    "random_rotation",
    "QuadForm3",
    "QuadForm2",
]


def _check_square(M, n, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (n, n):
        raise ValueError(f"{name}: trailing shape must be ({n}, {n}), got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries")
    return M


def det3(M):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    M = np.asarray(M, dtype=float)
    return (
        M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
        - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
        + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0])
    )


def cofactor3(M):
    """Cofactor matrix of a 3x3 matrix, Cof(M)[i,j] = d det / d M[i,j] (batched)."""
    M = np.asarray(M, dtype=float)
    C = np.empty_like(M)
    C[..., 0, 0] = M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1]
    C[..., 0, 1] = M[..., 1, 2] * M[..., 2, 0] - M[..., 1, 0] * M[..., 2, 2]
    C[..., 0, 2] = M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0]
    C[..., 1, 0] = M[..., 0, 2] * M[..., 2, 1] - M[..., 0, 1] * M[..., 2, 2]
    C[..., 1, 1] = M[..., 0, 0] * M[..., 2, 2] - M[..., 0, 2] * M[..., 2, 0]
    C[..., 1, 2] = M[..., 0, 1] * M[..., 2, 0] - M[..., 0, 0] * M[..., 2, 1]
    C[..., 2, 0] = M[..., 0, 1] * M[..., 1, 2] - M[..., 0, 2] * M[..., 1, 1]
    C[..., 2, 1] = M[..., 0, 2] * M[..., 1, 0] - M[..., 0, 0] * M[..., 1, 2]
    C[..., 2, 2] = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return C


def inv3(M):
    """Inverse of a 3x3 matrix via the adjugate (batched). Raises on a singular input."""
    M = _check_square(M, 3)
    d = det3(M)
    if np.any(d == 0.0):
        raise ValueError("inv3: singular matrix")
    return np.swapaxes(cofactor3(M), -1, -2) / d[..., None, None]


def sym_part(M):
    """Symmetric part (M + M^T) / 2 (batched)."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def nearest_rotation(F):
    """Rotation factor of the polar decomposition of F, for det F > 0.

    Newton iteration X <- (X + X^{-T}) / 2, started at F, with
    X^{-T} = Cof(X) / det(X). Converges quadratically to the orthogonal
    polar factor for any invertible F; orientation is preserved, so
    det F > 0 is required for a rotation. Batched over leading axes; each
    matrix stops after 50 steps, or once a step moves none of its entries by
    more than 1e-13 times max(1, max |X|), so its result does not depend on
    the rest of the batch.
    """
    F = _check_square(F, 3, "F")
    d = det3(F)
    if np.any(d <= 0.0):
        raise ValueError("nearest_rotation: det F must be positive")
    X = F.reshape(-1, 3, 3).copy()
    active = np.arange(len(X))
    for _ in range(50):
        Xa = X[active]
        Xn = 0.5 * (Xa + cofactor3(Xa) / det3(Xa)[:, None, None])
        X[active] = Xn
        delta = np.max(np.abs(Xn - Xa), axis=(1, 2))
        active = active[delta > 1e-13 * np.maximum(1.0, np.max(np.abs(Xn), axis=(1, 2)))]
        if not len(active):
            break
    return X.reshape(F.shape)


def dist_SO3_sq(F):
    """Squared Frobenius distance of F to the rotation group (batched).

    For det F > 0 this is |F - nearest_rotation(F)|^2. Otherwise it falls
    back to sum_i (sigma_i - 1)^2 with sigma_i the singular values, obtained
    from the eigenvalues of F^T F, so the value is finite for every F.
    """
    F = _check_square(F, 3, "F")
    batch = F.reshape(-1, 3, 3)
    out = np.empty(len(batch))
    pos = det3(batch) > 0.0
    if np.any(pos):
        Fp = batch[pos]
        out[pos] = np.sum((Fp - nearest_rotation(Fp)) ** 2, axis=(-2, -1))
    if not np.all(pos):
        Fn = batch[~pos]
        sig = np.sqrt(np.clip(np.linalg.eigvalsh(np.swapaxes(Fn, -1, -2) @ Fn), 0.0, None))
        out[~pos] = np.sum((sig - 1.0) ** 2, axis=-1)
    out = out.reshape(F.shape[:-2])
    return out if F.ndim > 2 else float(out)


def random_rotation(rng):
    """Random rotation matrix (QR of a Gaussian sample, sign-fixed, det +1)."""
    A = rng.standard_normal((3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diagonal(R))
    if det3(Q) < 0.0:
        Q[:, 2] = -Q[:, 2]
    return Q


class _QuadFormBase:
    """Quadratic form on n x n matrices stored as a full symmetric coefficient matrix.

    Q(H) = vec(H)^T A vec(H) with row-major vec. The form must be positive
    semidefinite, vanish on skew-symmetric matrices, and be positive definite
    on symmetric matrices.
    """

    _n = None

    def __init__(self, A):
        n = self._n
        m = n * n
        A = np.asarray(A, dtype=float)
        if A.shape != (m, m):
            raise ValueError(f"coefficient matrix must be {m}x{m}, got {A.shape}")
        scale = max(1.0, float(np.max(np.abs(A))))
        if np.max(np.abs(A - A.T)) > 1e-10 * scale:
            raise ValueError("coefficient matrix must be symmetric")
        A = 0.5 * (A + A.T)
        ev = np.linalg.eigvalsh(A)
        if ev[0] < -1e-10 * scale:
            raise ValueError("form is not positive semidefinite")
        # skew matrices must lie in the kernel
        for a in range(n):
            for b in range(a + 1, n):
                S = np.zeros((n, n))
                S[a, b], S[b, a] = 1.0, -1.0
                if np.linalg.norm(A @ S.reshape(-1)) > 1e-8 * scale:
                    raise ValueError("form does not vanish on skew-symmetric matrices")
        # positive definite on the symmetric subspace
        basis = []
        for a in range(n):
            for b in range(a, n):
                S = np.zeros((n, n))
                S[a, b] = S[b, a] = 1.0
                basis.append(S.reshape(-1) / np.linalg.norm(S))
        E = np.stack(basis, axis=1)
        if np.min(np.linalg.eigvalsh(E.T @ A @ E)) <= 1e-12 * scale:
            raise ValueError("form is not positive definite on symmetric matrices")
        self.A = A

    @classmethod
    def isotropic(cls, mu, lam):
        """2 mu |sym H|^2 + lam (tr H)^2: A[(ij), (kl)] = mu (d_ik d_jl + d_il d_jk) + lam d_ij d_kl."""
        n = cls._n
        I = np.eye(n)
        A = mu * (np.einsum("ik,jl->ijkl", I, I) + np.einsum("il,jk->ijkl", I, I)) + lam * np.einsum("ij,kl->ijkl", I, I)
        return cls(A.reshape(n * n, n * n))

    def __call__(self, H):
        H = np.asarray(H, dtype=float)
        n = self._n
        if H.shape[-2:] != (n, n):
            raise ValueError(f"argument must have trailing shape ({n}, {n})")
        v = H.reshape(H.shape[:-2] + (n * n,))
        return np.einsum("...i,ij,...j->...", v, self.A, v)


class QuadForm3(_QuadFormBase):
    _n = 3


class QuadForm2(_QuadFormBase):
    _n = 2
