"""Projected, preconditioned conjugate gradients for pure-Neumann systems.

The operators assembled in this package are symmetric positive semidefinite
with the constant vector spanning the kernel. The right-hand sides are
compatibility-shifted before the solve; the iteration additionally projects
the residual and the preconditioned residual onto the zero-sum subspace
every step to keep roundoff from drifting along the kernel. The caller
passes the preconditioner: each assembled system carries its own
(electro3d.PoissonSystem.precondition).
"""

import numpy as np

__all__ = ["SolverError", "pcg"]


class SolverError(RuntimeError):
    """Raised when the iteration fails to reach the requested tolerance.

    Carries the relative residual history in the ``residuals`` attribute.
    """

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


def _project(v):
    # v.mean() to the bit, without ndarray.mean's Python-level wrapper
    v -= np.add.reduce(v) / v.size
    return v


def pcg(matvec, b, precond, tol=1e-10, max_iter=None, x0=None):
    """Solve K x = b on the zero-sum subspace; returns (x, residual_history).

    matvec maps flat vectors to flat vectors and precond applies an SPD
    approximation of K^{-1} to a flat residual.
    Convergence means ||b - K x||_2 <= tol * ||b||_2.
    """
    b = np.asarray(b, dtype=float).ravel().copy()
    _project(b)
    n = b.size
    if max_iter is None:
        max_iter = min(8 * n, 40000)
    bnorm = np.linalg.norm(b)
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
    rz = float(r @ z)
    history = [np.linalg.norm(r) / bnorm]
    for _ in range(max_iter):
        if history[-1] <= tol:
            return x, history
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError("pcg: operator lost positive definiteness", history)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        _project(r)
        z = precond(r)
        _project(z)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        history.append(np.linalg.norm(r) / bnorm)
    if history[-1] <= tol:
        return x, history
    raise SolverError(
        f"pcg: no convergence in {max_iter} iterations (residual {history[-1]:.3e})",
        history,
    )
