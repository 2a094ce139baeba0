"""Armijo backtracking and limited-memory BFGS with a metric.

`backtrack` is the package's one line search. Evaluations return (f, state),
the state being what the gradient needs, so no point is evaluated twice.

The two-loop recursion (Nocedal, Math. Comp. 35, 1980; Liu & Nocedal,
Math. Prog. 45, 1989) starts from an inverse metric M^-1 scaled by
s.y / y.M^-1 y of the newest curvature pair, so a metric that matches the
dominant part of the Hessian (a lumped mass, say) carries over into every
step.
"""

import math
from collections import deque

import numpy as np

__all__ = ["MEMORY", "MAX_BACKTRACKS", "VDOT_SLICE", "backtrack", "lbfgs", "lbfgs_search", "remember_pair", "vdot"]

MEMORY = 10  # curvature pairs kept
ARMIJO = 1e-4  # sufficient-decrease constant
MAX_BACKTRACKS = 40  # trials before a line search gives up
VDOT_SLICE = 10000  # the longest ddot the bundled OpenBLAS (0.3.31, numpy 2.4.6) sums on one thread


def vdot(a, b):
    """math.fsum of np.vdot over VDOT_SLICE-entry slices, as a float (one slice is np.vdot to the bit),
    whose bits do not depend on the BLAS thread count while BLAS sums a slice on one thread."""
    a, b = np.ravel(a), np.ravel(b)
    return math.fsum(np.vdot(a[i : i + VDOT_SLICE], b[i : i + VDOT_SLICE]) for i in range(0, a.size, VDOT_SLICE))


def _direction(g, pairs, inv_metric):
    """-H g by the two-loop recursion over the stored (s, y, 1/s.y) pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * vdot(s, q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        gamma = vdot(s, y) / vdot(y, inv_metric(y))
    else:
        gamma = 1.0
    r = gamma * inv_metric(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * vdot(y, r)) * s
    return -r


def backtrack(fun, x, f, g, p):
    """Armijo backtracking from the unit step; (x, f, state, t) accepted, or None.

    A rejected finite trial moves the step to the minimiser of the
    quadratic through f, the slope and the trial's value, safeguarded to
    [0.1 t, 0.5 t] (Nocedal & Wright 2006, section 3.5); a non-finite trial
    halves it.
    """
    slope = vdot(g, p)
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        cand = x + t * p
        fc, state = fun(cand)
        if fc <= f + ARMIJO * t * slope:
            return cand, float(fc), state, t
        del state  # a rejected trial's state is not kept through the next evaluation
        curvature = fc - f - slope * t  # positive for a rejected finite trial along a descent direction
        if np.isfinite(curvature) and curvature > 0.0:
            t = min(max(-slope * t * t / (2.0 * curvature), 0.1 * t), 0.5 * t)
        else:
            t *= 0.5
    return None


def remember_pair(pairs, s, y):
    """Append the curvature pair (s, y, 1/s.y) to pairs when s.y > 0; pairs is a deque(maxlen=MEMORY)."""
    sy = vdot(s, y)
    if sy > 0.0:
        pairs.append((s, y, 1.0 / sy))


def lbfgs_search(fun, x, f, g, pairs, inv_metric):
    """One L-BFGS line search: backtrack along the two-loop direction of pairs.

    If that fails with pairs stored, they are cleared and the search is
    retried once along -M^-1 g. Returns backtrack's result.
    """
    step = backtrack(fun, x, f, g, _direction(g, pairs, inv_metric))
    if step is None and pairs:
        pairs.clear()
        step = backtrack(fun, x, f, g, -inv_metric(g))
    return step


def lbfgs(fun, grad, x0, inv_metric, max_iter, grad_tol):
    """Minimise fun from x0; returns (x, state, info), state being fun's at x.

    fun(x) returns (objective, state). grad(state) is called once at the top
    of each iteration, on the accepted point's state, so info["iters"] is
    the number of gradient calls. The loop stops when the Euclidean norm of
    the gradient falls to grad_tol ("converged"), after max_iter gradient
    calls ("max_iters"), or when a line search fails both along the L-BFGS
    direction and, with the memory dropped, along -M^-1 g ("line_search").
    inv_metric is a callable v -> M^-1 v for a symmetric positive definite
    M. A non-finite trial objective is rejected.

    info: iters, grad_norm and objective at the returned x, converged, stop
    (the reason above), objectives (the accepted objective values starting
    with fun(x0)), grad_norms (one per gradient call) and steps (the
    accepted Armijo step of each iteration that moved).
    """
    x = np.array(x0, dtype=float)
    f, state = fun(x)
    f = float(f)
    objectives = [f]
    grad_norms, steps = [], []
    pairs = deque(maxlen=MEMORY)
    x_prev = g_prev = None
    gnorm = np.inf
    stop = "max_iters"
    it = 0
    for it in range(1, int(max_iter) + 1):
        g = grad(state)
        gnorm = math.sqrt(vdot(g, g))
        grad_norms.append(gnorm)
        if gnorm <= grad_tol:
            stop = "converged"
            break
        if it == max_iter:
            break
        if x_prev is not None:
            remember_pair(pairs, x - x_prev, g - g_prev)
        step = lbfgs_search(fun, x, f, g, pairs, inv_metric)
        if step is None:
            stop = "line_search"
            break
        x_prev, g_prev = x, g
        x, f, state, t = step
        objectives.append(f)
        steps.append(t)
    info = {"iters": it, "grad_norm": gnorm, "objective": f, "converged": stop == "converged", "stop": stop}
    info.update(objectives=objectives, grad_norms=grad_norms, steps=steps)
    return x, state, info
