import warnings

import hessian27
import numpy as np
import pytest

from thinvolt import fields
from thinvolt.fields import Grid3
from thinvolt.material import (
    ChargeModel,
    CouplingConstants,
    ElasticParams,
    H_hyper,
    HyperParams,
    Material,
    PermittivityModel,
    PrestrainModel,
    Q3_form,
    W_el,
    check_exponent_compatibility,
    dW_el,
    hyper_weight,
    kappa_pullback,
    maxwell_stress_moment,
)
from thinvolt.smallmat import cofactor3, cofactor_det3, det3, dist_SO3_sq, inv3, random_rotation, sym_part


def _random_invertible(rng, spread=0.3):
    # perturbation of the identity, det stays positive at this spread
    F = np.eye(3) + spread * rng.standard_normal((3, 3))
    while np.linalg.det(F) <= 0.1:
        F = np.eye(3) + spread * rng.standard_normal((3, 3))
    return F


# ---------------------------------------------------------------------------
# elastic density


def test_w_el_pinned_value():
    # hand-computed: quartic term (1/4)(3/4)^2 = 0.140625,
    # barrier h(1/2) = 2^4 - 1 + 4*(-1/2) = 13 with unit weight
    p = ElasticParams(mu=1.0, lam=20.0, q_w=8.0)
    assert abs(p.gamma_d - 1.0) < 1e-15
    val = W_el(np.diag([1.0, 1.0, 0.5]), p)
    assert abs(val - 13.140625) < 1e-12


def test_w_el_zero_on_rotations():
    p = ElasticParams()
    assert W_el(np.eye(3), p) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng)
        assert abs(W_el(R, p)) < 1e-12


def test_w_el_infinite_without_orientation():
    p = ElasticParams()
    assert W_el(np.diag([1.0, 1.0, -1.0]), p) == np.inf
    assert W_el(np.diag([1.0, 1.0, 0.0]), p) == np.inf
    # batched: one bad cell must not poison the good one
    F = np.stack([np.eye(3), np.diag([1.0, -2.0, 1.0])])
    vals = W_el(F, p)
    assert vals[0] == 0.0 and vals[1] == np.inf


def test_barrier_calibration():
    p = ElasticParams(mu=2.0, lam=3.0, q_w=10.0)
    assert p.h(1.0) == 0.0
    assert p.hp(1.0) == 0.0
    assert abs(p.hpp1 - 5.0 * 6.0) < 1e-15
    assert abs(p.gamma_d - 3.0 / 30.0) < 1e-15
    # h is nonnegative with its minimum at 1
    for d in (0.2, 0.5, 0.9, 1.1, 2.0, 5.0):
        assert p.h(d) > 0.0
    # second derivative at 1 by central differences
    step = 1e-5
    hpp = (p.h(1.0 + step) - 2.0 * p.h(1.0) + p.h(1.0 - step)) / step**2
    assert abs(hpp - p.hpp1) < 1e-4 * p.hpp1


def test_conjugate_exponent_pinned():
    assert abs(ElasticParams(q_w=26.0).conjugate_exponent() - 26.0 / 15.0) < 1e-15
    assert abs(ElasticParams(q_w=8.0).conjugate_exponent() - 2.0 / 1.5) < 1e-15


def test_dw_el_matches_finite_differences():
    p = ElasticParams(mu=1.3, lam=0.8, q_w=12.0)
    rng = np.random.default_rng(11)
    step = 1e-5
    for _ in range(20):
        F = _random_invertible(rng)
        G = dW_el(F, p)
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = step
                fd[i, j] = (W_el(F + E, p) - W_el(F - E, p)) / (2.0 * step)
        scale = max(np.max(np.abs(G)), 1.0)
        assert np.max(np.abs(G - fd)) < 1e-6 * scale


def test_dw_el_rejects_degenerate():
    with pytest.raises(ValueError):
        dW_el(np.diag([1.0, 1.0, -1.0]), ElasticParams())


def test_frame_indifference():
    p = ElasticParams(mu=0.7, lam=2.1, q_w=14.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        F = _random_invertible(rng)
        R = random_rotation(rng)
        a, b = W_el(F, p), W_el(R @ F, p)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_w_el_lower_bound_constant_measured():
    # sampled constant in W >= dist^2 / C; recorded, not asserted against a target
    p = ElasticParams()
    rng = np.random.default_rng(17)
    C = 0.0
    for _ in range(200):
        F = _random_invertible(rng, spread=0.5)
        w = W_el(F, p)
        d2 = dist_SO3_sq(F)
        if w > 1e-12:
            C = max(C, d2 / w)
    assert np.isfinite(C) and C > 0.0
    print(f"measured lower-bound constant C = {C:.6g}")


# ---------------------------------------------------------------------------
# quadratic expansion


def test_q3_pinned_values():
    p = ElasticParams(mu=1.3, lam=0.7, q_w=26.0)
    q3 = Q3_form(p)
    E12 = np.zeros((3, 3))
    E12[0, 1] = 1.0
    assert abs(q3(E12) - p.mu) < 1e-12
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    assert abs(q3(skew)) < 1e-12
    assert abs(q3(np.eye(3)) - (6.0 * p.mu + 9.0 * p.lam)) < 1e-12


def _quadratic_expansion_check(params, n_samples, rng, scales=(1e-2, 1e-3, 1e-4)):
    """Sampled sup of |W(I + F) - Q3(F)/2| / |F|^2 at each perturbation norm in scales."""
    q3 = Q3_form(params)
    out = {}
    for s in scales:
        worst = 0.0
        for _ in range(n_samples):
            F = rng.standard_normal((3, 3))
            F *= s / np.linalg.norm(F)
            worst = max(worst, float(abs(W_el(np.eye(3) + F, params) - 0.5 * q3(F)) / (s * s)))
        out[s] = worst
    return out


def test_q3_is_the_second_order_expansion():
    # sup_{|F|=s} |W(I+F) - Q3(F)/2| / s^2 should decay linearly in s
    p = ElasticParams()
    out = _quadratic_expansion_check(p, n_samples=200, rng=np.random.default_rng(2))
    s = sorted(out)
    assert out[s[0]] < out[s[1]] < out[s[2]]
    assert out[1e-4] <= 1e-3


def test_w_el_quartic_in_skew_directions():
    # I + skew is a rotation to second order, so W there is O(|F|^4)
    p = ElasticParams()
    rng = np.random.default_rng(9)
    s = 0.03
    for _ in range(50):
        A = rng.standard_normal((3, 3))
        F = A - A.T
        F *= s / np.linalg.norm(F)
        assert W_el(np.eye(3) + F, p) < 5e-6


# ---------------------------------------------------------------------------
# hyperstress


def test_h_hyper_pinned_values():
    p = HyperParams()
    assert H_hyper(0.0, 0.5, p) == 0.0
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3, 3))
    G /= np.linalg.norm(G)
    assert abs(H_hyper(np.linalg.norm(G), 1.0, p) - p.c_h / p.q_h) < 1e-12
    # eps enters only through the prefactor
    eps = 0.25
    assert abs(H_hyper(np.linalg.norm(G), eps, p) - eps**p.alpha_h * H_hyper(np.linalg.norm(G), 1.0, p)) < 1e-20
    with pytest.raises(ValueError):
        H_hyper(np.linalg.norm(G), 0.0, p)


def test_dh_hyper_matches_finite_differences():
    # d H_hyper / d G = hyper_weight(|G|) G, against central differences of H_hyper(|G|)
    p = HyperParams(q_h=4.0, alpha_h=10.5, c_h=2.0)
    rng = np.random.default_rng(7)
    eps, step = 0.8, 1e-5
    for _ in range(5):
        G = 1.5 * rng.standard_normal((3, 3, 3))
        D = hyper_weight(np.linalg.norm(G), eps, p) * G
        fd = np.zeros((3, 3, 3))
        for idx in np.ndindex(3, 3, 3):
            E = np.zeros((3, 3, 3))
            E[idx] = step
            fd[idx] = (H_hyper(np.linalg.norm(G + E), eps, p) - H_hyper(np.linalg.norm(G - E), eps, p)) / (2.0 * step)
        scale = max(np.max(np.abs(D)), 1e-12)
        assert np.max(np.abs(D - fd)) < 1e-6 * scale
    # zero-safe at G = 0: a zero weight, with no warning for any q_h > 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q_h in (4.0, 3.5):
            assert np.all(hyper_weight(np.zeros(4), eps, HyperParams(q_h=q_h, alpha_h=11.0)) == 0.0)


def test_hessian_norms_equal_the_summed_square_on_the_scaled_hessian_layout():
    # fields.hessian_norm_squared sums the six pairs' squares and
    # fields.scaled_hessian_norm streams them; both equal the sum(G * G) form
    # of the 27-entry G laid out (i, j, k, cell) to the bit, and the weight
    # taken from that norm is the formula's
    p = HyperParams(c_h=1.3)
    rng = np.random.default_rng(21)
    for shape, eps in (((5, 4, 6), 1.0), ((9, 8, 5), 0.25), ((17, 17, 9), 1.0 / 32)):
        y = rng.standard_normal(shape + (3,))
        H = fields.scaled_hessian(y, Grid3(*shape), eps)
        G = hessian27.full(H)
        n2 = np.sum(G * G, axis=(-3, -2, -1))
        assert np.array_equal(fields.hessian_norm_squared(H), n2)
        assert np.array_equal(fields.scaled_hessian_norm(y, Grid3(*shape), eps), np.sqrt(n2))
        assert np.array_equal(hyper_weight(np.sqrt(n2), eps, p), eps**p.alpha_h * p.c_h * np.sqrt(n2) ** (p.q_h - 2.0))


# ---------------------------------------------------------------------------
# electrostatics


def test_kappa_pullback_examples():
    k = np.diag([1.0, 1.0, 4.0])
    assert np.max(np.abs(kappa_pullback(np.eye(3), k) - k)) < 1e-14
    assert np.max(np.abs(kappa_pullback(2.0 * np.eye(3), np.eye(3)) - 2.0 * np.eye(3))) < 1e-12
    rng = np.random.default_rng(21)
    R = np.stack([random_rotation(rng) for _ in range(20)])
    got = kappa_pullback(R, k)
    want = np.swapaxes(R, -1, -2) @ k @ R
    assert np.max(np.abs(got - want)) < 1e-12


def test_kappa_pullback_spd_and_rotation_covariance():
    k = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])
    rng = np.random.default_rng(23)
    for _ in range(100):
        F = _random_invertible(rng, spread=0.4)
        K = kappa_pullback(F, k)
        assert np.max(np.abs(K - K.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(K)) > 0.0
        # rotating the deformation equals rotating the tensor argument
        R = random_rotation(rng)
        lhs = kappa_pullback(R @ F, k)
        rhs = kappa_pullback(F, R.T @ k @ R)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    with pytest.raises(ValueError):
        kappa_pullback(np.diag([1.0, -1.0, 1.0]), k)


def test_maxwell_stress_pinned_values():
    k = np.eye(3)
    assert np.max(np.abs(maxwell_stress_moment(np.eye(3), k, np.zeros((3, 3))))) == 0.0
    e3 = np.array([0.0, 0.0, 1.0])
    S = maxwell_stress_moment(np.eye(3), k, np.outer(e3, e3))
    assert np.max(np.abs(S - np.diag([-0.5, -0.5, 0.5]))) < 1e-14


def test_maxwell_stress_matches_density_derivative():
    # stress = -d/dF of (1/2) kappa(F) g . g at frozen referential gradient
    k = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])
    rng = np.random.default_rng(29)
    step = 1e-5

    def density(F, g):
        return 0.5 * g @ kappa_pullback(F, k) @ g

    for _ in range(10):
        F = _random_invertible(rng)
        g = rng.standard_normal(3)
        S = maxwell_stress_moment(F, k, np.outer(g, g))
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = step
                fd[i, j] = (density(F + E, g) - density(F - E, g)) / (2.0 * step)
        assert np.max(np.abs(S + fd)) < 1e-5 * max(np.max(np.abs(S)), 1.0)


def test_maxwell_stress_moment_linearity():
    k = np.diag([1.0, 2.0, 3.0])
    rng = np.random.default_rng(31)
    F = _random_invertible(rng)
    g1 = rng.standard_normal(3)
    g2 = rng.standard_normal(3)
    G1 = np.outer(g1, g1)
    G2 = np.outer(g2, g2)
    lhs = maxwell_stress_moment(F, k, 2.0 * G1 + 0.5 * G2)
    rhs = 2.0 * maxwell_stress_moment(F, k, G1) + 0.5 * maxwell_stress_moment(F, k, G2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# batched kernels against an einsum reference and against the stacked products they replace

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_i, _j, _k], _LEVI_CIVITA[_j, _i, _k] = 1.0, -1.0
_K_DYADIC = np.array([[2.0, 0.25, 0.0], [0.25, 1.5, 0.125], [0.0, 0.125, 3.0]])


def _det_ref(F):
    return np.einsum("ijk,...i,...j,...k->...", _LEVI_CIVITA, F[..., 0, :], F[..., 1, :], F[..., 2, :])


def _cof_ref(F):
    return 0.5 * np.einsum("ijk,abc,...jb,...kc->...ia", _LEVI_CIVITA, _LEVI_CIVITA, F, F)


def _kernels_ref(F, k, G2, p):
    """(W, dW, kappa, Maxwell stress, F^-1, det F), every product an einsum."""
    d = _det_ref(F)
    C = _cof_ref(F)
    Fi = np.swapaxes(C, -1, -2) / d[..., None, None]
    E = np.einsum("...ki,...kj->...ij", F, F) - np.eye(3)
    W = 0.25 * p.mu * np.einsum("...ij,...ij->...", E, E) + p.gamma_d * p.h(d)
    dW = p.mu * np.einsum("...ik,...kj->...ij", F, E) + (p.gamma_d * p.hp(d))[..., None, None] * C
    K = d[..., None, None] * np.einsum("...ia,ab,...jb->...ij", Fi, k, Fi)
    T = np.einsum("...ai,...ab,...bj->...ij", Fi, G2, Fi)
    tr = np.einsum("ij,...ji->...", k, T)
    S = np.einsum("...ia,ab,...bj->...ij", T, k, C) - 0.5 * tr[..., None, None] * C
    return W, dW, K, S, Fi, d


def _kernels_stacked(F, k, G2, p):
    """The same quantities by the stacked products on transposed and broadcast operands that the kernels replace."""
    d = det3(F)
    Fi = np.swapaxes(cofactor3(F), -1, -2) / d[..., None, None]
    Fit = np.swapaxes(Fi, -1, -2)
    C = np.swapaxes(F, -1, -2) @ F - np.eye(3)
    W = 0.25 * p.mu * np.sum(C * C, axis=(-2, -1)) + p.gamma_d * p.h(d)
    dW = p.mu * (F @ C) + (p.gamma_d * p.hp(d))[..., None, None] * cofactor3(F)
    K = d[..., None, None] * (Fi @ k @ Fit)
    T = Fit @ G2 @ Fi
    tr = np.einsum("ij,...ji->...", k, T)
    S = T @ k @ cofactor3(F) - 0.5 * tr[..., None, None] * cofactor3(F)
    return W, dW, K, S, Fi, d


def _kernels(F, k, G2, p):
    return W_el(F, p), dW_el(F, p), kappa_pullback(F, k), maxwell_stress_moment(F, k, G2), inv3(F), cofactor_det3(F)[1]


def _exact_batch(rng, shape):
    """Deformations whose kernels are exact in floating point: D L U with dyadic entries, det a power of two.

    L and U are unit triangular with entries in {-1/2, 0, 1/2}, D is diagonal
    with entries in {1/2, 1, 2}.
    """
    L = np.eye(3) + np.tril(0.5 * rng.integers(-1, 2, shape + (3, 3)), -1)
    U = np.eye(3) + np.triu(0.5 * rng.integers(-1, 2, shape + (3, 3)), 1)
    D = 2.0 ** rng.integers(-1, 2, shape + (3,))
    return D[..., :, None] * (L @ U)


def _generic_batch(rng, shape):
    F = np.eye(3) + 0.4 * rng.standard_normal(shape + (3, 3))
    F[..., 0, :] *= np.sign(det3(F))[..., None]
    return F


def _layouts(make, rng):
    """(name, F) for a single matrix, two C-ordered batches, a transposed view and an every-other-cell slice."""
    yield "single", make(rng, ())
    yield "batch7", make(rng, (7,))
    yield "batch2x3x4", make(rng, (2, 3, 4))
    yield "swapaxes", np.swapaxes(make(rng, (7,)), -1, -2)
    yield "strided", make(rng, (14,))[::2]


def _moment(rng, F):
    g = rng.integers(-2, 3, F.shape[:-1]).astype(float)
    return g[..., :, None] * g[..., None, :]


def test_kernels_equal_einsum_reference_on_exact_inputs():
    # dyadic entries and power-of-two determinants keep every product exact, so
    # summation order cannot matter; the kernels meet the reference to 1e-15
    p = ElasticParams()
    rng = np.random.default_rng(41)
    for name, F in _layouts(_exact_batch, rng):
        G2 = _moment(rng, F)
        for got, want in zip(_kernels(F, _K_DYADIC, G2, p), _kernels_ref(F, _K_DYADIC, G2, p)):
            assert np.shape(got) == np.shape(want), name
            scale = np.maximum(np.abs(want), 1e-300)
            assert np.all(np.abs(got - want) <= 1e-15 * scale), name


def test_kernels_match_the_stacked_products_bit_for_bit():
    # on a batch, contiguous copies, the 2-D matmul against k and det off the
    # cofactor row keep the arithmetic order, so the previous stacked forms
    # agree exactly; a single matrix's 2-D product with a transposed operand
    # takes another BLAS kernel, so there they agree to 1e-15 relative
    p = ElasticParams()
    k = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])
    rng = np.random.default_rng(43)
    for name, F in _layouts(_generic_batch, rng):
        F_before = F.copy()
        g = rng.standard_normal(F.shape[:-1])
        G2 = g[..., :, None] * g[..., None, :]
        for got, want in zip(_kernels(F, k, G2, p), _kernels_stacked(F, k, G2, p)):
            if name == "single":
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want), name
        assert np.array_equal(F, F_before), name


def test_kernels_do_not_depend_on_the_batch():
    # each pointwise call equals its entry of a batched call bit for bit;
    # W_el and dW_el run a single matrix as a batch of one to keep it so
    p = ElasticParams()
    k = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])
    for seed in range(4):
        rng = np.random.default_rng(50 + seed)
        F = _generic_batch(rng, (7, 7))
        g = rng.standard_normal(F.shape[:-1])
        G2 = g[..., :, None] * g[..., None, :]
        batch = (W_el(F, p), dW_el(F, p), kappa_pullback(F, k), maxwell_stress_moment(F, k, G2), inv3(F))
        for idx in np.ndindex(F.shape[:-2]):
            single = (W_el(F[idx], p), dW_el(F[idx], p), kappa_pullback(F[idx], k), maxwell_stress_moment(F[idx], k, G2[idx]), inv3(F[idx]))
            for name, got, want in zip(("W_el", "dW_el", "kappa_pullback", "maxwell_stress_moment", "inv3"), single, batch):
                assert np.shape(got) == np.shape(want[idx]) and np.array_equal(got, want[idx]), (name, seed, idx)


def test_barrier_overflow_is_infinite_energy_without_warning():
    # h(d) = d^(-q_w/2) - ... overflows for 0 < d below about 2e-24 at q_w = 26
    p = ElasticParams()
    squashed = np.diag([1.0, 1.0, 1e-25])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert W_el(squashed, p) == np.inf
        vals = W_el(np.stack([squashed, np.eye(3), np.diag([1.0, 1.0, 1e-20])]), p)
        assert vals[0] == np.inf and vals[1] == 0.0 and np.isfinite(vals[2])
        assert W_el(squashed, ElasticParams(lam=0.0)) == np.inf
        with pytest.raises(ValueError, match="overflows"):
            dW_el(squashed, p)
        assert np.all(np.isfinite(dW_el(np.diag([1.0, 1.0, 1e-20]), p)))


# ---------------------------------------------------------------------------
# parameter containers


def test_parameter_validation():
    with pytest.raises(ValueError):
        ElasticParams(mu=0.0)
    with pytest.raises(ValueError):
        ElasticParams(lam=-1.0)
    with pytest.raises(ValueError):
        ElasticParams(q_w=6.0)
    with pytest.raises(ValueError):
        HyperParams(q_h=3.0)
    with pytest.raises(ValueError):
        HyperParams(alpha_h=10.0)  # boundary 2 + 2 q_h is excluded
    with pytest.raises(ValueError):
        HyperParams(c_h=0.0)
    with pytest.raises(ValueError):
        CouplingConstants(beta=0.0)
    with pytest.raises(ValueError):
        PermittivityModel(k=np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        PermittivityModel(k=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        ChargeModel(mode="square")


@pytest.mark.parametrize(
    "make",
    [
        lambda v: ElasticParams(mu=v),
        lambda v: ElasticParams(lam=v),
        lambda v: ElasticParams(q_w=v),
        lambda v: HyperParams(q_h=v),
        lambda v: HyperParams(alpha_h=v),
        lambda v: HyperParams(c_h=v),
        lambda v: CouplingConstants(beta=v),
        lambda v: CouplingConstants(gamma=v),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_parameter_validation_rejects_non_finite(make, value):
    with pytest.raises(ValueError):
        make(value)


def test_exponent_compatibility_gate():
    check_exponent_compatibility(ElasticParams(q_w=26.0), HyperParams(q_h=4.0))
    # bound 3 q_h / (q_h - 3) = 12 must be strictly exceeded by q_w / 2
    with pytest.raises(ValueError):
        check_exponent_compatibility(ElasticParams(q_w=24.0), HyperParams(q_h=4.0))
    with pytest.raises(ValueError):
        check_exponent_compatibility(ElasticParams(q_w=8.0), HyperParams(q_h=4.0))
    Material()  # defaults must be jointly admissible
    with pytest.raises(ValueError):
        Material(elastic=ElasticParams(q_w=8.0))


def test_prestrain_model():
    B0 = np.diag([0.1, 0.2, 0.3])
    B1 = np.array([[0.5, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
    pre = PrestrainModel(B0=B0, B1=B1)
    t = np.array([-0.5, 0.0, 0.5])
    B = pre.B(t)
    assert B.shape == (3, 3, 3)
    assert np.max(np.abs(B[1] - B0)) == 0.0
    assert np.max(np.abs(B[2] - (B0 + 0.5 * B1))) < 1e-15
    assert np.max(np.abs(pre.mean_inplane() - B0[:2, :2])) == 0.0
    with pytest.raises(ValueError):
        PrestrainModel(B0=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_charge_model():
    cos = ChargeModel(mode="cosine", amplitude=2.0)
    x = np.linspace(0.0, 1.0, 7)
    assert np.max(np.abs(cos.n_ch(x) - 2.0 * np.cos(np.pi * x))) < 1e-14
    assert abs(cos.n_ch(0.5)) < 1e-15
    assert np.all(cos.nbar(x) == cos.n_ch(x))
    flat = ChargeModel(mode="constant", amplitude=0.7)
    assert np.all(flat.n_ch(x) == 0.7)


def test_permittivity_model_defaults():
    pm = PermittivityModel()
    assert np.max(np.abs(pm.k - np.diag([1.0, 1.0, 4.0]))) == 0.0
    assert np.max(np.abs(pm.kbar() - pm.k)) == 0.0
