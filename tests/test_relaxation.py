import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from thinvolt.material import ElasticParams, Material, PrestrainModel, Q3_form
from thinvolt.relaxation import (
    RelaxedQ2,
    effective_permittivity,
    m_out_of_plane,
    relax_over_z,
)
from thinvolt.smallmat import QuadForm3, random_rotation, sym_part


def _q2_closed_form(X, mu, lam):
    # isotropic column relaxation: 2 mu |sym X|^2 + (2 mu lam / (2 mu + lam)) (tr X)^2
    S = sym_part(X)
    tr = np.trace(X)
    return 2.0 * mu * float(np.sum(S * S)) + (2.0 * mu * lam / (2.0 * mu + lam)) * tr * tr


def _embed(X, z):
    H = np.zeros((3, 3))
    H[:2, :2] = X
    H[:, 2] += z
    return H


def test_relax_over_z_closed_form():
    p = ElasticParams(mu=1.4, lam=0.6, q_w=26.0)
    q3 = Q3_form(p)
    rng = np.random.default_rng(0)
    for _ in range(50):
        X = rng.standard_normal((2, 2))
        z, val = relax_over_z(q3, X)
        want_z = np.array([0.0, 0.0, -p.lam * np.trace(X) / (2.0 * p.mu + p.lam)])
        assert np.max(np.abs(z - want_z)) < 1e-10
        assert abs(val - _q2_closed_form(X, p.mu, p.lam)) < 1e-10


def test_relax_over_z_is_minimal():
    p = ElasticParams(mu=0.9, lam=2.0, q_w=26.0)
    q3 = Q3_form(p)
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = rng.standard_normal((2, 2))
        z, val = relax_over_z(q3, X)
        assert abs(q3(_embed(X, z)) - val) < 1e-12
        for _ in range(50):
            dz = 1e-3 * rng.standard_normal(3)
            assert q3(_embed(X, z + dz)) >= val - 1e-10


def test_relax_over_z_rejects_degenerate_form():
    # positive definite on symmetric matrices, so QuadForm3 accepts it, but
    # nearly flat in the (0,2) and (1,2) directions, so the column system
    # is singular to the reduction's tolerance
    basis = []
    for a in range(3):
        for b in range(a, 3):
            S = np.zeros((3, 3))
            S[a, b] = S[b, a] = 1.0
            basis.append(S.reshape(-1) / np.linalg.norm(S))
    E = np.stack(basis, axis=1)
    q = QuadForm3(E @ np.diag([1.0, 1.0, 1e-7, 1.0, 1e-7, 1.0]) @ E.T)
    with pytest.raises(ValueError, match="degenerate on the coupling subspace"):
        RelaxedQ2(q)
    with pytest.raises(ValueError, match="degenerate on the coupling subspace"):
        relax_over_z(q, np.eye(2))


def test_q2_eval_matches_closed_form():
    p = ElasticParams(mu=1.0, lam=1.0, q_w=26.0)
    rq = RelaxedQ2(Q3_form(p))
    rng = np.random.default_rng(8)
    for _ in range(50):
        X = rng.standard_normal((2, 2))
        assert abs(rq.q2_eval(X) - _q2_closed_form(X, p.mu, p.lam)) < 1e-10
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(rq.q2_eval(skew)) < 1e-12


def test_minimizer_z_matches_pointwise_relaxation():
    p = ElasticParams(mu=2.0, lam=0.5, q_w=26.0)
    q3 = Q3_form(p)
    rq = RelaxedQ2(q3)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, 2, 2))
    Z = rq.minimizer_z(X)
    assert Z.shape == (6, 3)
    for i in range(6):
        z, _ = relax_over_z(q3, X[i])
        assert np.max(np.abs(Z[i] - z)) < 1e-12


def test_qbar2_no_prestrain_is_q2_over_twelve():
    p = ElasticParams(mu=1.0, lam=1.0, q_w=26.0)
    rq = RelaxedQ2(Q3_form(p))
    rng = np.random.default_rng(16)
    for _ in range(20):
        G = rng.standard_normal((2, 2))
        s, val = rq.qbar2(G)
        assert np.max(np.abs(s)) < 1e-12
        assert abs(val - _q2_closed_form(G, p.mu, p.lam) / 12.0) < 1e-10


def test_qbar2_affine_prestrain_closed_form():
    # constant part is absorbed by the offset, linear part shifts the argument
    p = ElasticParams(mu=1.3, lam=0.9, q_w=26.0)
    B0 = np.diag([0.2, -0.1, 0.0])
    B1 = np.array([[0.5, 0.1, 0.0], [0.1, -0.3, 0.0], [0.0, 0.0, 0.0]])
    pre = PrestrainModel(B0=B0, B1=B1)
    rq = RelaxedQ2(Q3_form(p), prestrain=pre)
    rng = np.random.default_rng(20)
    for _ in range(20):
        G = rng.standard_normal((2, 2))
        s, val = rq.qbar2(G)
        assert np.max(np.abs(s - B0[:2, :2])) < 1e-10
        want = _q2_closed_form(G - B1[:2, :2], p.mu, p.lam) / 12.0
        assert abs(val - want) < 1e-10


def test_qbar2_offset_is_optimal():
    # independent check: minimize the thickness integral over s numerically
    p = ElasticParams(mu=0.8, lam=1.7, q_w=26.0)
    pre = PrestrainModel(
        B0=np.diag([0.1, 0.3, 0.0]),
        B1=np.array([[0.2, 0.0, 0.0], [0.0, -0.4, 0.0], [0.0, 0.0, 0.0]]),
    )
    rq = RelaxedQ2(Q3_form(p), prestrain=pre)
    G = np.array([[1.0, 0.2], [-0.3, 0.5]])

    def integral(svec):
        # Simpson on (-1/2, 1/2), exact for the quadratic-in-t integrand
        def f(t):
            arg = t * G + svec.reshape(2, 2) - pre.B(t)[:2, :2]
            return rq.q2_eval(arg)

        return (f(-0.5) + 4.0 * f(0.0) + f(0.5)) / 6.0

    s, val = rq.qbar2(G)
    assert abs(integral(s.reshape(-1)) - val) < 1e-12
    res = minimize(integral, np.zeros(4), method="BFGS", tol=1e-12)
    assert val <= res.fun + 1e-9


def test_qbar2_coefficients_reconstruct_values():
    p = ElasticParams(mu=1.1, lam=0.4, q_w=26.0)
    # the second prestrain has off-diagonal in-plane B0 and B1 entries, so the
    # offset sym(B0) and the linear term -A2 b1 / 6 are both nontrivial
    prestrains = [
        PrestrainModel(B1=np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        PrestrainModel(
            B0=np.array([[0.1, -0.25, 0.05], [-0.25, 0.3, 0.0], [0.05, 0.0, -0.2]]),
            B1=np.array([[0.4, 0.15, 0.0], [0.15, -0.2, 0.1], [0.0, 0.1, 0.3]]),
        ),
    ]
    rng = np.random.default_rng(24)
    for pre in prestrains:
        rq = RelaxedQ2(Q3_form(p), prestrain=pre)
        P, q, r = rq.qbar2_coefficients()
        assert np.max(np.abs(P - P.T)) < 1e-12
        for _ in range(20):
            G = rng.standard_normal((2, 2))
            g = G.reshape(-1)
            s, val = rq.qbar2(G)
            assert np.max(np.abs(s - pre.B0[:2, :2])) < 1e-15
            assert abs(g @ P @ g + q @ g + r - val) < 1e-9

            # Simpson is exact for the quadratic-in-t integrand
            def f(t):
                return rq.q2(t * G + s - pre.B(t)[:2, :2])

            assert abs((f(-0.5) + 4.0 * f(0.0) + f(0.5)) / 6.0 - val) < 1e-12


def test_qbar2_coefficients_no_prestrain():
    rq = RelaxedQ2(Q3_form(ElasticParams(mu=1.0, lam=1.0, q_w=26.0)))
    P, q, r = rq.qbar2_coefficients()
    assert np.max(np.abs(P - rq.q2.A / 12.0)) < 1e-10
    assert np.max(np.abs(q)) < 1e-10
    assert abs(r) < 1e-12


def test_relaxed_form_of_material():
    mat = Material(elastic=ElasticParams(mu=1.3, lam=0.7), prestrain=PrestrainModel(B1=np.diag([0.3, 0.0, 0.1])))
    rq = RelaxedQ2.of(mat)
    ref = RelaxedQ2(Q3_form(mat.elastic), mat.prestrain)
    assert np.array_equal(rq.q2.A, ref.q2.A)
    for got, want in zip(rq.qbar2_coefficients(), ref.qbar2_coefficients()):
        assert np.array_equal(got, want)


def test_column_stiffness_is_the_form_on_x3_gradients():
    # Q3(z (x) e3) = z^T column_stiffness z; the isotropic form gives mu on
    # the tangential components and 2 mu + lam on the normal one
    p = ElasticParams(mu=0.7, lam=1.9, q_w=26.0)
    q3 = Q3_form(p)
    K = RelaxedQ2(q3).column_stiffness
    assert np.max(np.abs(K - np.diag([0.7, 0.7, 3.3]))) <= 1e-14
    for z in np.random.default_rng(5).standard_normal((4, 3)):
        assert abs(q3(np.outer(z, [0.0, 0.0, 1.0])) - z @ K @ z) <= 1e-13


def test_effective_permittivity_identity_frame():
    (kb, kv, kz), keff = effective_permittivity(np.diag([1.0, 1.0, 4.0]), np.eye(3))
    assert np.max(np.abs(keff - np.eye(2))) < 1e-14
    assert np.max(np.abs(kb - np.eye(2))) < 1e-14
    assert np.max(np.abs(kv)) < 1e-14
    assert abs(kz - 4.0) < 1e-14


def test_effective_permittivity_tilted_frame_oracle():
    # frame tangent (cos t, 0, sin t), normal (-sin t, 0, cos t), k = diag(1,1,4):
    # reduced tensor diag(4 / (sin^2 t + 4 cos^2 t), 1)
    k = np.diag([1.0, 1.0, 4.0])
    for th in np.linspace(0.0, 2.0 * np.pi, 17):
        R = np.array(
            [
                [np.cos(th), 0.0, -np.sin(th)],
                [0.0, 1.0, 0.0],
                [np.sin(th), 0.0, np.cos(th)],
            ]
        )
        _, keff = effective_permittivity(k, R)
        denom = np.sin(th) ** 2 + 4.0 * np.cos(th) ** 2
        assert abs(keff[0, 0] - 4.0 / denom) < 1e-12
        assert abs(keff[1, 1] - 1.0) < 1e-12
        assert abs(keff[0, 1]) < 1e-12


def test_effective_permittivity_batched_and_validated():
    k = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.0], [0.1, 0.0, 3.0]])
    rng = np.random.default_rng(28)
    R = np.stack([random_rotation(rng) for _ in range(5)])
    (kb, kv, kz), keff = effective_permittivity(k, R)
    assert keff.shape == (5, 2, 2)
    for i in range(5):
        (kb1, kv1, kz1), single = effective_permittivity(k, R[i])
        assert np.max(np.abs(keff[i] - single)) < 1e-13
        assert np.max(np.abs(kb[i] - kb1)) < 1e-14
        assert np.max(np.abs(kv[i] - kv1)) < 1e-14
        assert abs(kz[i] - kz1) < 1e-14
    with pytest.raises(ValueError):
        effective_permittivity(k, 1.1 * np.eye(3))


def test_out_of_plane_elimination_is_optimal():
    # the eliminated component must minimize the full 3D quadratic energy
    k = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 3.0]])
    rng = np.random.default_rng(32)
    R = random_rotation(rng)
    part, keff = effective_permittivity(k, R)
    K3 = R.T @ k @ R
    for _ in range(10):
        g2 = rng.standard_normal(2)
        z = m_out_of_plane(part, g2)

        def full(zz):
            g3 = np.array([g2[0], g2[1], zz])
            return g3 @ K3 @ g3

        res = minimize_scalar(full)
        assert abs(z - res.x) < 1e-7
        assert abs(full(z) - g2 @ keff @ g2) < 1e-12
