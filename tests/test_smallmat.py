import numpy as np
import pytest

from thinvolt import smallmat
from thinvolt.relaxation import effective_permittivity
from thinvolt.smallmat import (
    QuadForm2,
    QuadForm3,
    cofactor3,
    cofactor_det3,
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


def test_cofactor_det3_is_det3_to_the_bit_and_inv3_is_c_ordered():
    rng = np.random.default_rng(13)
    for M in (rng.standard_normal((3, 3)), rng.standard_normal((50, 3, 3)), np.swapaxes(rng.standard_normal((4, 5, 3, 3)), -1, -2)):
        C, d = cofactor_det3(M)
        assert np.array_equal(C, cofactor3(M))
        assert np.array_equal(d, det3(M))
        inv = inv3(M)
        assert inv.flags.c_contiguous
        assert np.array_equal(inv, np.swapaxes(C, -1, -2) / d[..., None, None])
    with pytest.raises(ValueError, match="singular"):
        inv3(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        cofactor_det3(np.full((3, 3), np.nan))


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


def _polar_matrix_first(F):
    # the Newton polar loop on an (N, 3, 3) batch, gathering the matrices
    # still moving and scattering their step back, with nearest_rotation's
    # per-matrix stop rule; returns the result and the number of steps taken
    X = F.reshape(-1, 3, 3).copy()
    active = np.arange(len(X))
    for step in range(1, 51):
        Xa = X[active]
        Xn = 0.5 * (Xa + cofactor3(Xa) / det3(Xa)[:, None, None])
        X[active] = Xn
        delta = np.max(np.abs(Xn - Xa), axis=(1, 2))
        active = active[delta > 1e-13 * np.maximum(1.0, np.max(np.abs(Xn), axis=(1, 2)))]
        if not len(active):
            break
    return X.reshape(F.shape), step


def _positive_det(F):
    F = F.copy()
    F[det3(F) < 0.0, :, 2] *= -1.0
    return F


def _polar_batches(rng, n):
    U, V = (np.linalg.qr(rng.standard_normal((n, 3, 3)))[0] for _ in range(2))
    sigma = np.exp(rng.uniform(-8.0, 8.0, (n, 3)))
    return {
        "random": _positive_det(rng.standard_normal((n, 3, 3))),
        "near-rotation": _positive_det(U) + 1e-9 * rng.standard_normal((n, 3, 3)),
        "ill-conditioned": _positive_det(U * sigma[:, None, :] @ V),
    }


def test_polar_loop_on_entry_first_rows_equals_the_matrix_first_loop_to_the_bit():
    rng = np.random.default_rng(13)
    for n in (1, 2, 9, 400):
        for name, F in _polar_batches(rng, n).items():
            want, _ = _polar_matrix_first(F)
            assert np.array_equal(nearest_rotation(F), want), (name, n)
            assert np.array_equal(nearest_rotation(F.reshape(-1, 1, 3, 3)), want.reshape(-1, 1, 3, 3))
    # singular values 1e100 and 1e-100 shrink by about half a step: that
    # matrix stops at the 50-step cap while the rest of its batch converges
    F = _positive_det(rng.standard_normal((5, 3, 3)))
    F[2] = np.diag([1e100, 1.0, 1e-100])[[2, 0, 1]]
    want, steps = _polar_matrix_first(F)
    assert steps == 50 and _polar_matrix_first(np.delete(F, 2, axis=0))[1] < 50
    R = nearest_rotation(F)
    assert np.array_equal(R, want) and R.flags.c_contiguous
    # the input is left as it was, also when it is a single matrix
    F1 = F[0].copy()
    nearest_rotation(F1)
    assert np.array_equal(F1, F[0])


def test_polar_blocks_leave_every_bit_in_place(monkeypatch):
    # forced blocks of 7 matrices, the last one partly filled: the polar
    # factor equals the matrix-first loop's, and dist_SO3_sq, read off the
    # entry-first iterate, equals the summed squares of F - R, to the bit
    rng = np.random.default_rng(14)
    batches = _polar_batches(rng, 40)
    straggler = _positive_det(rng.standard_normal((12, 3, 3)))
    straggler[9] = np.diag([1e100, 1.0, 1e-100])[[2, 0, 1]]
    batches["50-step straggler"] = straggler
    for block in (7, smallmat.BATCH_BLOCK):
        monkeypatch.setattr(smallmat, "BATCH_BLOCK", block)
        for name, F in batches.items():
            want, _ = _polar_matrix_first(F)
            R = nearest_rotation(F)
            assert np.array_equal(R, want), (name, block)
            d = dist_SO3_sq(F.reshape(-1, 2, 3, 3))
            assert np.array_equal(d, np.sum((F - R) ** 2, axis=(-2, -1)).reshape(-1, 2)), (name, block)


def _oriented_samples(seed, shape):
    """Gaussian 3x3 matrices of the given batch shape, each with its first row negated where det < 0."""
    F = np.random.default_rng(seed).standard_normal(shape + (3, 3))
    F[..., 0, :] *= np.sign(det3(F))[..., None]
    assert np.all(det3(F) > 0.0)
    return F


def test_dist_SO3_sq_does_not_depend_on_the_batch():
    # each matrix stops its own Newton iteration: every entry of a (4, 5)
    # batch equals its scalar call bit for bit
    for seed in range(20):
        F = _oriented_samples(seed, (4, 5))
        d = dist_SO3_sq(F)
        assert d.shape == (4, 5)
        for idx in np.ndindex(F.shape[:2]):
            single = dist_SO3_sq(F[idx])
            assert type(single) is float
            assert d[idx] == single


def test_dist_SO3_sq_oracle():
    # for det F > 0 the nearest rotation is U V^T, so the distance is
    # sum_i (sigma_i - 1)^2 with the singular values from numpy's SVD
    for F in _oriented_samples(8, (100,)):
        sv = np.linalg.svd(F, compute_uv=False)
        ref = float(np.sum((sv - 1.0) ** 2))
        assert abs(dist_SO3_sq(F) - ref) <= 1e-9 * max(1.0, ref)


def test_dist_SO3_sq_rejects_lost_orientation():
    # one matrix with det <= 0 anywhere in the batch raises, as nearest_rotation does
    F = _oriented_samples(10, (4, 5))
    F[2, 3, 0] *= -1.0
    with pytest.raises(ValueError, match="det F must be positive"):
        dist_SO3_sq(F)
    with pytest.raises(ValueError, match="det F must be positive"):
        dist_SO3_sq(np.diag([1.0, 1.0, 0.0]))


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
