import numpy as np
import pytest

from thinvolt.relaxation import effective_permittivity
from thinvolt.smallmat import (
    QuadForm2,
    QuadForm3,
    cofactor3,
    det3,
    dist_SO3_sq,
    inv3,
    nearest_rotation,
    random_rotation,
    sym_part,
)


def test_det_and_inverse_against_numpy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        M = rng.standard_normal((3, 3))
        assert abs(det3(M) - np.linalg.det(M)) <= 1e-12 * max(1.0, abs(np.linalg.det(M)))
        if abs(det3(M)) > 1e-6:
            assert np.allclose(inv3(M), np.linalg.inv(M), atol=1e-10)


def test_cofactor_identity():
    # Cof M = det(M) M^{-T} for invertible M
    rng = np.random.default_rng(5)
    for _ in range(50):
        M = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        if abs(det3(M)) < 1e-3:
            continue
        ref = det3(M) * np.linalg.inv(M).T
        assert np.max(np.abs(cofactor3(M) - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_cofactor_batched():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 5, 3, 3))
    C = cofactor3(M)
    for i in range(4):
        for j in range(5):
            assert np.allclose(C[i, j], cofactor3(M[i, j]))


def test_sym_part():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    S = sym_part(M)
    assert np.allclose(S, S.T)
    assert np.allclose(S, 0.5 * (M + M.T))


def test_nearest_rotation_matches_svd():
    """Polar factor agrees with the SVD construction on random F with det > 0."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        F = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        if det3(F) <= 0.05:
            continue
        R = nearest_rotation(F)
        U, _, Vt = np.linalg.svd(F)
        S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
        R_ref = U @ S @ Vt
        assert np.max(np.abs(R - R_ref)) <= 1e-9
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
        assert abs(det3(R) - 1.0) <= 1e-12


def test_nearest_rotation_batched():
    rng = np.random.default_rng(12)
    F = np.eye(3) + 0.3 * rng.standard_normal((40, 3, 3))
    assert np.all(det3(F) > 0.0)
    R = nearest_rotation(F)
    assert R.shape == F.shape
    for Fi, Ri in zip(F, R):
        assert np.max(np.abs(Ri - nearest_rotation(Fi))) <= 1e-14
        U, _, Vt = np.linalg.svd(Fi)
        assert np.max(np.abs(Ri - U @ Vt)) <= 1e-12
    assert np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3))) <= 1e-12


def test_dist_SO3_sq_does_not_depend_on_the_batch():
    # each matrix stops its own Newton iteration: a mixed batch (det of both
    # signs) gives every entry its scalar value bit for bit
    for seed in range(20):
        F = np.random.default_rng(seed).standard_normal((4, 5, 3, 3))
        d = dist_SO3_sq(F)
        assert np.any(det3(F) > 0.0) and np.any(det3(F) < 0.0)
        for idx in np.ndindex(F.shape[:2]):
            assert d[idx] == dist_SO3_sq(F[idx])


def test_dist_SO3_sq_oracle():
    # sum_i (sigma_i - 1)^2 against numpy SVD; the same formula is the
    # documented fallback for det <= 0 (orientation ignored there)
    rng = np.random.default_rng(8)
    for _ in range(100):
        F = rng.standard_normal((3, 3))
        sv = np.linalg.svd(F, compute_uv=False)
        ref = float(np.sum((sv - 1.0) ** 2))
        assert abs(dist_SO3_sq(F) - ref) <= 1e-9 * max(1.0, ref)


def test_dist_SO3_sq_batch_mixes_both_branches():
    # a (4, 5) batch with det > 0 and det <= 0 entries: each branch's entries
    # equal that branch's own batched call bit for bit, and each entry agrees
    # with its scalar call to rounding (the polar Newton loop stops on the
    # whole batch, so a batch may take one more step than a single matrix)
    F = np.random.default_rng(10).standard_normal((4, 5, 3, 3))
    pos = det3(F) > 0.0
    assert 0 < np.count_nonzero(pos) < pos.size
    d = dist_SO3_sq(F)
    assert d.shape == (4, 5)
    assert np.array_equal(d[pos], dist_SO3_sq(F[pos]))
    assert np.array_equal(d[~pos], dist_SO3_sq(F[~pos]))
    for idx in np.ndindex(4, 5):
        single = dist_SO3_sq(F[idx])
        assert type(single) is float
        if not pos[idx]:
            assert d[idx] == single
        assert abs(d[idx] - single) <= 1e-15 * single


def test_dist_SO3_sq_zero_on_rotations():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = random_rotation(rng)
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-13
        assert dist_SO3_sq(R) <= 1e-13


def test_schur_effective_positive_definite_and_interlaced():
    """The reduced 2x2 tensor is SPD and its eigenvalues sit inside the 3x3 range."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        A = rng.standard_normal((3, 3))
        K = A @ A.T + 0.1 * np.eye(3)
        _, Keff = effective_permittivity(K, np.eye(3))
        ev3 = np.linalg.eigvalsh(K)
        ev2 = np.linalg.eigvalsh(Keff)
        assert ev2[0] > 0
        assert ev2[0] >= ev3[0] - 1e-12
        assert ev2[-1] <= ev3[-1] + 1e-12


def test_schur_effective_minimization_oracle():
    # eliminating the third component: min_z K (v, z).(v, z) = Keff v.v
    rng = np.random.default_rng(14)
    A = rng.standard_normal((3, 3))
    K = A @ A.T + 0.2 * np.eye(3)
    _, Keff = effective_permittivity(K, np.eye(3))
    for _ in range(20):
        v = rng.standard_normal(2)
        zs = np.linspace(-5.0, 5.0, 20001)
        w = np.empty((zs.size, 3))
        w[:, :2] = v
        w[:, 2] = zs
        vals = np.einsum("ij,jk,ik->i", w, K, w)
        assert abs(np.min(vals) - v @ Keff @ v) <= 1e-5


def _isotropic_direct(H, mu, lam):
    S = 0.5 * (H + np.swapaxes(H, -1, -2))
    return 2.0 * mu * np.sum(S * S, axis=(-2, -1)) + lam * np.trace(H, axis1=-2, axis2=-1) ** 2


def test_quadform_isotropic_matches_formula():
    # the closed-form coefficients against 2 mu |sym H|^2 + lam (tr H)^2, n = 2 and 3
    rng = np.random.default_rng(15)
    for cls in (QuadForm2, QuadForm3):
        n = cls._n
        for _ in range(10):
            mu, lam = rng.uniform(0.1, 3.0, 2)
            Q = cls.isotropic(mu, lam)
            assert np.array_equal(Q.A, Q.A.T)
            for _ in range(20):
                H = rng.standard_normal((n, n))
                want = _isotropic_direct(H, mu, lam)
                assert abs(Q(H) - want) <= 1e-12 * max(1.0, want)


def test_quadform_batched_call():
    Q = QuadForm2.isotropic(0.5, 0.5)
    rng = np.random.default_rng(16)
    H = rng.standard_normal((7, 2, 2))
    vals = Q(H)
    assert vals.shape == (7,)
    for i in range(7):
        assert abs(vals[i] - Q(H[i])) <= 1e-12
    assert np.max(np.abs(vals - _isotropic_direct(H, 0.5, 0.5))) <= 1e-12


def test_quadform_rejects_bad_forms():
    with pytest.raises(ValueError):
        QuadForm3(np.eye(9))  # does not vanish on skews
    with pytest.raises(ValueError):
        QuadForm2(-np.eye(4))
