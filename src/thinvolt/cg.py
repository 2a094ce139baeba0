"""Projected, preconditioned conjugate gradients for pure-Neumann systems.

The operators assembled in this package are symmetric positive semidefinite
with the constant vector spanning the kernel. The right-hand sides are
compatibility-shifted before the solve; the iteration additionally projects
the residual and the preconditioned residual onto the zero-sum subspace
every step to keep roundoff from drifting along the kernel. The caller
passes the preconditioner: each assembled system carries its own
(electro3d.PoissonSystem.precondition).

Every solve stops at a relative residual tol or at the energy-gap
certificate, whichever comes first. PCG minimises J(x) = x.Kx/2 - b.x, and
its own coefficients give the gap J(x_k) - J(x*) = |x_k - x*|_K^2 / 2: it is
half the sum of alpha_j r_j.z_j over j >= k, and the GAP_DELAY newest terms
estimate it (the delayed Hestenes-Stiefel estimate; Strakos & Tichy, ETNA
13, 2002).
"""

import math
from collections import deque

import numpy as np

__all__ = ["GAP_DELAY", "GAP_TOL", "WEAK_FORM_TOL", "SolverError", "dot", "pcg"]

GAP_DELAY = 3  # alpha_j r_j.z_j terms in the delayed estimate of the energy gap
GAP_TOL = 1e-14  # the gap certificate's bound, relative to 1 + |J|; two orders under a 1e-12 gap gate
WEAK_FORM_TOL = 1e-11  # |x.r| bound, relative to 1 + |b.x|; three orders under the 1e-8 weak-form gate


class SolverError(RuntimeError):
    """Raised when the iteration fails to reach the requested tolerance.

    Carries the relative residual history in the ``residuals`` attribute.
    """

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


def dot(a, b, out=None):
    """sum(a * b) in a pairwise order fixed by the length alone, unlike BLAS ddot, whose threads split long vectors; out receives a * b."""
    return float(np.add.reduce(np.multiply(a, b, out=out)))


def _project(v):
    # v.mean() to the bit, without ndarray.mean's Python-level wrapper
    v -= np.add.reduce(v) / v.size
    return v


def _gap_estimate(terms):
    """Half the sum of the delayed alpha_j r_j.z_j terms: the gap of the iterate len(terms) steps back, less the newest one's."""
    return 0.5 * sum(terms)


def _gap_closed(x, r, b, terms):
    """The energy-gap certificate: the delayed gap estimate and the weak-form residual x.r both small.

    The gap condition is a heuristic. The estimate is the gap of the
    iterate GAP_DELAY steps back less x's own gap, so it bounds x's gap
    only once the iteration contracts fast enough: at a linear rate rho
    per step x's gap is the estimate times rho^d / (1 - rho^d), d =
    GAP_DELAY, at most the estimate for rho^d <= 1/2. The weak-form
    condition is the certificate that holds outright, since x.r is
    computed, not estimated. It is also needed: the gap is second order
    in the error and x.r = b.x - x.Kx first order, so after a close warm
    start a small gap alone can leave the weak-form identity off.
    """
    moment = abs(dot(b, x))
    return _gap_estimate(terms) <= GAP_TOL * (1.0 + 0.5 * moment) and abs(dot(x, r)) <= WEAK_FORM_TOL * (1.0 + moment)


def pcg(matvec, b, precond, tol=1e-10, max_iter=None, x0=None):
    """Solve K x = b on the zero-sum subspace; returns (x, residual_history).

    matvec maps flat vectors to flat vectors and precond applies an SPD
    approximation of K^{-1} to a flat residual.
    Convergence means ||b - K x||_2 <= tol * ||b||_2 or the energy-gap
    certificate, whichever comes first: the delayed estimate of the gap at
    most GAP_TOL (1 + |J|), |J| taken as |b.x| / 2, and |x.r| at most
    WEAK_FORM_TOL (1 + |b.x|). A tol below round-off ends at the certificate.
    """
    b = np.asarray(b, dtype=float).ravel().copy()
    _project(b)
    n = b.size
    if max_iter is None:
        max_iter = min(8 * n, 40000)
    bnorm = math.sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), [0.0]
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=float).ravel().copy()
        _project(x)
        r = b - matvec(x)
    _project(r)
    z = precond(r)
    _project(z)
    p = z.copy()
    rz = dot(r, z)
    history = [math.sqrt(dot(r, r)) / bnorm]
    terms = deque(maxlen=GAP_DELAY)  # alpha_j r_j.z_j of the newest iterations

    def converged():
        return history[-1] <= tol or (len(terms) == GAP_DELAY and _gap_closed(x, r, b, terms))

    for _ in range(max_iter):
        if converged():
            return x, history
        Ap = matvec(p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise SolverError("pcg: operator lost positive definiteness", history)
        alpha = rz / pAp
        terms.append(alpha * rz)
        x += alpha * p
        r -= alpha * Ap
        _project(r)
        z = precond(r)
        _project(z)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(math.sqrt(dot(r, r)) / bnorm)
    if converged():
        return x, history
    raise SolverError(
        f"pcg: no convergence in {max_iter} iterations (residual {history[-1]:.3e})",
        history,
    )
