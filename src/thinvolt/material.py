"""Constitutive models: elastic density, hyperstress, permittivity, charge, prestrain.

The elastic density combines a quartic Saint Venant-Kirchhoff term with a
convex determinant barrier,

    W(F) = mu/4 |F^T F - I|^2 + gamma_d * h(det F),
    h(d) = d^(-q_w/2) - 1 + (q_w/2) (d - 1)   for d > 0, else +inf,

so W >= 0, W = 0 exactly on rotations, and W blows up as det F -> 0+. The
weight gamma_d is tied to the second Lame parameter through h''(1) so that
the quadratic expansion at the identity is

    Q3(H) = 2 mu |sym H|^2 + lam (tr H)^2.

All matrix-valued functions accept leading batch axes.
"""

from dataclasses import dataclass, field

import numpy as np

from .smallmat import QuadForm3, cofactor3, cofactor_det3, det3

__all__ = [
    "ElasticParams",
    "HyperParams",
    "PrestrainModel",
    "PermittivityModel",
    "ChargeModel",
    "CouplingConstants",
    "Material",
    "W_el",
    "dW_el",
    "Q3_form",
    "H_hyper",
    "hyper_weight",
    "kappa_pullback",
    "maxwell_stress_moment",
]

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class ElasticParams:
    """Quartic-plus-barrier elastic density parameters.

    mu > 0 is the shear modulus, lam >= 0 the second quadratic-expansion
    coefficient, q_w > 6 the barrier exponent. The barrier weight is derived:
    gamma_d = lam / h''(1) with h''(1) = (q_w/2)(q_w/2 + 1).
    """

    mu: float = 1.0
    lam: float = 1.0
    q_w: float = 26.0

    def __post_init__(self):
        # written as "not (valid)" so that NaN fails every guard
        if not 0.0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        if not 6.0 < self.q_w < np.inf:
            raise ValueError("q_w must exceed 6 and be finite")

    @property
    def hpp1(self):
        return (self.q_w / 2.0) * (self.q_w / 2.0 + 1.0)

    @property
    def gamma_d(self):
        return self.lam / self.hpp1

    def h(self, d):
        q = self.q_w / 2.0
        return d ** (-q) - 1.0 + q * (d - 1.0)

    def hp(self, d):
        q = self.q_w / 2.0
        return -q * d ** (-q - 1.0) + q

    def conjugate_exponent(self):
        """Integrability exponent of the scaled potential gradient, 2 / (1 + 4/q_w)."""
        return 2.0 / (1.0 + 4.0 / self.q_w)


@dataclass(frozen=True)
class HyperParams:
    """Second-gradient penalty H(G) = eps^alpha_h * (c_h / q_h) |G|^q_h."""

    q_h: float = 4.0
    alpha_h: float = 10.5
    c_h: float = 1.0

    def __post_init__(self):
        if not 3.0 < self.q_h < np.inf:
            raise ValueError("q_h must exceed 3 and be finite")
        if not 2.0 + 2.0 * self.q_h < self.alpha_h < np.inf:
            raise ValueError("alpha_h must exceed 2 + 2 q_h and be finite")
        if not 0.0 < self.c_h < np.inf:
            raise ValueError("c_h must be positive and finite")


def check_exponent_compatibility(elastic, hyper):
    """Joint growth condition linking the barrier and penalty exponents."""
    bound = 3.0 * hyper.q_h / (hyper.q_h - 3.0)
    if not elastic.q_w / 2.0 > bound:
        raise ValueError(
            f"q_w/2 = {elastic.q_w / 2.0} must exceed 3 q_h / (q_h - 3) = {bound}"
        )


@dataclass(frozen=True)
class PrestrainModel:
    """Affine-in-thickness prestrain B(x3) = B0 + x3 * B1 with symmetric parts."""

    B0: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    B1: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        for name in ("B0", "B1"):
            M = np.asarray(getattr(self, name), dtype=float).reshape(3, 3)
            if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, M)

    def B(self, t):
        t = np.asarray(t, dtype=float)
        return self.B0 + t[..., None, None] * self.B1

    def mean_inplane(self):
        """Thickness average of the 2x2 in-plane block (the B1 part integrates to zero)."""
        return self.B0[:2, :2].copy()


@dataclass(frozen=True)
class PermittivityModel:
    """Spatially constant symmetric positive definite permittivity tensor."""

    k: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 4.0]))

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float).reshape(3, 3)
        if np.max(np.abs(k - k.T)) > 1e-12 * max(1.0, np.max(np.abs(k))):
            raise ValueError("k must be symmetric")
        if np.min(np.linalg.eigvalsh(k)) <= 0.0:
            raise ValueError("k must be positive definite")
        object.__setattr__(self, "k", k)

    def kbar(self):
        """Thickness average; equals k for a constant tensor."""
        return self.k.copy()


@dataclass(frozen=True)
class ChargeModel:
    """Reference charge density, constant in the thickness variable.

    mode "constant": n(x) = amplitude. mode "cosine": n(x) = amplitude*cos(pi x1),
    which has zero total charge on the unit square.
    """

    mode: str = "cosine"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.mode not in ("constant", "cosine"):
            raise ValueError("charge mode must be 'constant' or 'cosine'")

    def n_ch(self, x1):
        x1 = np.asarray(x1, dtype=float)
        if self.mode == "constant":
            return np.full_like(x1, self.amplitude)
        return self.amplitude * np.cos(np.pi * x1)

    def nbar(self, x1):
        return self.n_ch(x1)


@dataclass(frozen=True)
class CouplingConstants:
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass(frozen=True)
class Material:
    """Bundle of all constitutive pieces used by the energy evaluators."""

    elastic: ElasticParams = field(default_factory=ElasticParams)
    hyper: HyperParams = field(default_factory=HyperParams)
    prestrain: PrestrainModel = field(default_factory=PrestrainModel)
    permittivity: PermittivityModel = field(default_factory=PermittivityModel)
    charge: ChargeModel = field(default_factory=ChargeModel)
    coupling: CouplingConstants = field(default_factory=CouplingConstants)

    def __post_init__(self):
        check_exponent_compatibility(self.elastic, self.hyper)


# ---------------------------------------------------------------------------
# elastic density


def _as_batch(F):
    """F as a float array with at least one batch axis: a single 3x3 becomes a batch of one.

    numpy's 2-D matmul of a lone matrix can reach another BLAS kernel than
    the stacked loop of a batch, and differ from the same matrix's batch
    entry in the last bit; as a batch of one it takes the stacked loop, so a
    pointwise call equals its batch entry bit for bit.
    """
    F = np.asarray(F, dtype=float)
    return F[None] if F.ndim == 2 else F


def _gram_strain(F):
    """F^T F - I, with F^T as a C-ordered operand: the stacked matmul on the transposed view runs several times slower."""
    C = np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ F
    C -= _EYE3
    return C


def W_el(F, params):
    """Elastic energy density; +inf where det F <= 0 or the barrier h(det F) overflows. Batched."""
    shape = np.shape(F)[:-2]
    F = _as_batch(F)
    C = _gram_strain(F)
    quart = 0.25 * params.mu * np.sum(np.multiply(C, C, out=C), axis=(-2, -1))
    d = det3(F)
    with np.errstate(over="ignore"):  # d^(-q_w/2) overflows for 0 < d below about 1e-308^(2/q_w)
        h = params.h(np.where(d > 0.0, d, 1.0))
    good = (d > 0.0) & np.isfinite(h)
    out = quart + params.gamma_d * np.where(good, h, 0.0)
    return np.where(good, out, np.inf).reshape(shape)


def dW_el(F, params):
    """Derivative of W_el with respect to F. Requires det F > 0 and a finite h'(det F) everywhere."""
    shape = np.shape(F)
    F = _as_batch(F)
    d = det3(F)
    if np.any(d <= 0.0):
        raise ValueError("dW_el: det F must be positive")
    with np.errstate(over="ignore"):
        hp = params.hp(d)
    if not np.all(np.isfinite(hp)):
        raise ValueError("dW_el: h'(det F) overflows; det F is too small")
    C = _gram_strain(F)
    out = F @ C
    out *= params.mu
    cof = cofactor3(F)
    cof *= (params.gamma_d * hp)[..., None, None]
    out += cof
    return out.reshape(shape)


def Q3_form(params):
    """Quadratic expansion of W_el at the identity, Q3(H) = 2 mu |sym H|^2 + lam (tr H)^2."""
    return QuadForm3.isotropic(params.mu, params.lam)


# ---------------------------------------------------------------------------
# hyperstress


def H_hyper(nrm, eps, params):
    """Hyperstress density eps^alpha_h * (c_h/q_h) |G|^q_h of a third-order tensor field, from its norm nrm = |G|.

    The density depends on G only through |G|, which the energy forms per cell
    without G (fields.scaled_hessian_norm).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return eps**params.alpha_h * (params.c_h / params.q_h) * nrm**params.q_h


def hyper_weight(nrm, eps, params):
    """The weight w = eps^alpha_h * c_h |G|^(q_h - 2) of d H_hyper / d G = w G, from nrm = |G|; zero where nrm is (q_h > 2)."""
    w = eps**params.alpha_h * params.c_h * np.where(nrm > 0.0, nrm, 1.0) ** (params.q_h - 2.0)
    return np.where(nrm > 0.0, w, 0.0)


# ---------------------------------------------------------------------------
# electrostatics


def _times_k(A, k):
    """A @ k for a batch of 3x3 A and one constant 3x3 k, as one 2-D matmul on the flattened rows."""
    return (A.reshape(-1, 3) @ k).reshape(A.shape)


def kappa_pullback(F, k):
    """Pulled-back permittivity det(F) F^{-1} k F^{-T}. Requires det F > 0. Batched."""
    F = np.asarray(F, dtype=float)
    Cof, d = cofactor_det3(F)
    if np.any(d <= 0.0):
        raise ValueError("kappa_pullback: det F must be positive")
    Fit = np.divide(Cof, d[..., None, None], out=Cof)
    # F^{-T} k F^{-1} lands in the buffer of the transposed copy, which the product no longer reads
    FitT = np.ascontiguousarray(np.swapaxes(Fit, -1, -2))
    out = np.matmul(_times_k(FitT, np.asarray(k, dtype=float)), Fit, out=FitT)
    out *= d[..., None, None]
    return out


def maxwell_stress_moment(F, k, G2):
    """Electrostatic stress for a symmetric gradient second moment G2.

    Returns minus the derivative with respect to F of
    (1/2) tr(kappa_pullback(F, k) G2) at a frozen referential potential:
    with T = F^{-T} G2 F^{-1},

        T k Cof F - (1/2) tr(k T) Cof F.

    For a rank-one moment G2 = g (x) g this is the classical electrostatic
    stress contribution entering the deformation equation. Batched.
    """
    F = np.asarray(F, dtype=float)
    G2 = np.asarray(G2, dtype=float)
    k = np.asarray(k, dtype=float)
    Cof, d = cofactor_det3(F)
    if np.any(d == 0.0):
        raise ValueError("maxwell_stress_moment: singular F")
    Fit = Cof / d[..., None, None]
    T = Fit @ G2 @ np.ascontiguousarray(np.swapaxes(Fit, -1, -2))
    tr = np.einsum("ij,...ji->...", k, T)
    out = _times_k(T, k) @ Cof
    Cof *= (0.5 * tr)[..., None, None]
    out -= Cof
    return out
