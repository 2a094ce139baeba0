"""Fixed-size 2x2 and 3x3 matrix algebra and quadratic forms.

Everything operates on plain float64 numpy arrays. The trailing one or two
axes are the vector/matrix axes; leading axes are batch axes where noted.
Vectorization of a 3x3 matrix is row-major, vec(H)[3*i + j] = H[i, j].

Batched kernels keep numpy's stacked matmul on C-contiguous operands: on a
transposed view or a broadcast operand it runs several times slower. So
inv3 returns a C-ordered array, and cofactor_det3 gives the cofactor and
the determinant from one pass for callers that need F^{-1} and det F.
"""

import numpy as np

# Batched kernels that work block by block (the polar loop here, the Q1 cell
# kernels of fields) take at most this many matrices or cells at a time: a
# block's scratch is then a few hundred kB whatever the grid, and the
# 17x17x9 grid of the shipped solve3d run (2048 cells) is a single block.
# No result depends on it.
BATCH_BLOCK = 2048

__all__ = [
    "det3",
    "cofactor3",
    "cofactor_det3",
    "inv3",
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


def _cofactor_entries(M, C):
    """Write Cof(M) into C, both indexed entry first: M[i, j] is entry (i, j) of every matrix of the batch."""
    C[0, 0] = M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
    C[0, 1] = M[1, 2] * M[2, 0] - M[1, 0] * M[2, 2]
    C[0, 2] = M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]
    C[1, 0] = M[0, 2] * M[2, 1] - M[0, 1] * M[2, 2]
    C[1, 1] = M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
    C[1, 2] = M[0, 1] * M[2, 0] - M[0, 0] * M[2, 1]
    C[2, 0] = M[0, 1] * M[1, 2] - M[0, 2] * M[1, 1]
    C[2, 1] = M[0, 2] * M[1, 0] - M[0, 0] * M[1, 2]
    C[2, 2] = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return C


def cofactor3(M):
    """Cofactor matrix of a 3x3 matrix, Cof(M)[i,j] = d det / d M[i,j] (batched)."""
    M = np.asarray(M, dtype=float)
    C = np.empty_like(M)
    _cofactor_entries(np.moveaxis(M, (-2, -1), (0, 1)), np.moveaxis(C, (-2, -1), (0, 1)))
    return C


def cofactor_det3(M):
    """(Cof M, det M) of a 3x3 matrix from one cofactor pass (batched, finite entries).

    The determinant is the first row of M against the first row of its
    cofactor, M00 C00 + M01 C01 + M02 C02, which equals det3 bit for bit.
    """
    M = _check_square(M, 3)
    C = cofactor3(M)
    return C, M[..., 0, 0] * C[..., 0, 0] + M[..., 0, 1] * C[..., 0, 1] + M[..., 0, 2] * C[..., 0, 2]


def inv3(M):
    """Inverse of a 3x3 matrix via the adjugate, C-ordered (batched). Raises on a singular input."""
    C, d = cofactor_det3(M)
    if np.any(d == 0.0):
        raise ValueError("inv3: singular matrix")
    return np.divide(np.swapaxes(C, -1, -2), d[..., None, None], order="C")


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
    R = np.empty(F.shape)
    _polar_blockwise(F, R.reshape(-1, 9), lambda Fe: _polar_entry_first(Fe).reshape(9, -1).T)
    return R


def _polar_blockwise(F, rows, kernel):
    """rows[block] = kernel(F_e) per block of at most BATCH_BLOCK matrices of a finite (..., 3, 3) F.

    block slices the flattened batch, and F_e is the block's entry-first
    (3, 3, n) C-ordered copy of F, alive only during its kernel call. Raises
    where det F <= 0.
    """
    matrices = F.reshape(-1, 3, 3)
    for start in range(0, len(matrices), BATCH_BLOCK):
        block = matrices[start : start + BATCH_BLOCK]
        if np.any(det3(block) <= 0.0):
            raise ValueError("nearest_rotation: det F must be positive")
        rows[start : start + BATCH_BLOCK] = kernel(np.ascontiguousarray(block.reshape(-1, 9).T).reshape(3, 3, -1))


def _polar_entry_first(X):
    """nearest_rotation's Newton loop on an entry-first (3, 3, N) C-ordered batch, X[i, j] a row of N.

    Each step is cofactor3's arithmetic on contiguous rows, with the
    determinant read off the first cofactor row (det3 bit for bit).
    Matrices that stop are written to the result and leave the working batch.
    """
    out = np.empty_like(X)
    idx = np.arange(X.shape[-1])
    for _ in range(50):
        C = _cofactor_entries(X, np.empty_like(X))
        C /= X[0, 0] * C[0, 0] + X[0, 1] * C[0, 1] + X[0, 2] * C[0, 2]
        C += X
        C *= 0.5
        delta = np.max(np.abs(C - X).reshape(9, -1), axis=0)
        moving = delta > 1e-13 * np.maximum(1.0, np.max(np.abs(C).reshape(9, -1), axis=0))
        X = C
        if not np.all(moving):
            out[..., idx[~moving]] = X[..., ~moving]
            X, idx = X[..., moving], idx[moving]
        if not len(idx):
            break
    out[..., idx] = X
    return out


def dist_SO3_sq(F):
    """Squared Frobenius distance |F - nearest_rotation(F)|^2 of F to the rotation group, for det F > 0 (batched).

    Equal to np.sum((F - nearest_rotation(F)) ** 2, axis=(-2, -1)) to the
    bit, read off each block's entry-first polar iterate: numpy sums each
    matrix's nine squares pairwise, eight in a tree and then the ninth, and
    that order is written out here. Raises ValueError where det F <= 0.
    """
    F = _check_square(F, 3, "F")
    out = np.empty(F.shape[:-2])
    _polar_blockwise(F, out.reshape(-1), _dist_entry_first)
    return out if F.ndim > 2 else float(out)


def _dist_entry_first(Fe):
    """Per matrix of an entry-first (3, 3, n) batch, the sum of its nine squared differences to its polar factor."""
    X = _polar_entry_first(Fe)
    D = np.subtract(Fe, X, out=X).reshape(9, -1)
    D *= D
    d = ((D[0] + D[1]) + (D[2] + D[3])) + ((D[4] + D[5]) + (D[6] + D[7]))
    d += D[8]
    return d


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
