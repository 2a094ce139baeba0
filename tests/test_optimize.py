import math

import numpy as np
import pytest

from thinvolt.optimize import MAX_BACKTRACKS, VDOT_SLICE, backtrack, lbfgs, vdot


def _quadratic(n=40, seed=3):
    """f(x) = x.A x / 2 - b.x on (n, 3) arrays with a badly scaled diagonal mass.

    A = D + C with D a lumped mass spanning four decades and C a small
    symmetric positive semidefinite coupling, so 1 / D is the natural
    metric and plain gradient steps stall. fun returns (f, x): the state a
    gradient of f needs is the point itself.
    """
    rng = np.random.default_rng(seed)
    mass = np.logspace(-5, -1, n)[:, None] * np.ones((1, 3))
    B = rng.standard_normal((3 * n, 3 * n)) * 1e-4
    A = np.diag(mass.ravel()) + B @ B.T
    b = rng.standard_normal((n, 3)) * 1e-3
    calls = {"grad": 0}

    def fun(x):
        return 0.5 * x.ravel() @ A @ x.ravel() - b.ravel() @ x.ravel(), x

    def grad(x):
        calls["grad"] += 1
        return (A @ x.ravel() - b.ravel()).reshape(x.shape)

    x_star = np.linalg.solve(A, b.ravel()).reshape(b.shape)
    return fun, grad, 1.0 / mass[:, :1], x_star, calls


def test_lbfgs_converges_on_metric_scaled_quadratic():
    fun, grad, inv_metric, x_star, calls = _quadratic()
    x0 = np.zeros_like(x_star)
    x, _, info = lbfgs(fun, grad, x0, lambda v: inv_metric * v, max_iter=500, grad_tol=1e-10)
    assert info["converged"] and info["stop"] == "converged"
    assert info["grad_norm"] <= 1e-10
    assert info["grad_norm"] == np.linalg.norm(grad(x))
    assert calls["grad"] - 1 == info["iters"] < 500
    assert np.max(np.abs(x - x_star)) < 1e-6 * np.max(np.abs(x_star))
    assert np.all(x0 == 0.0)  # the start is not modified
    objectives = info["objectives"]
    assert objectives[0] == fun(x0)[0] and objectives[-1] == info["objective"] == fun(x)[0]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert len(objectives) == info["iters"]  # one accepted step per iteration but the last
    assert len(info["grad_norms"]) == info["iters"] and info["grad_norms"][-1] == info["grad_norm"]
    assert len(info["steps"]) == len(objectives) - 1
    assert all(0.0 < t <= 1.0 for t in info["steps"])
    # the metric is what makes the budget suffice
    _, _, plain = lbfgs(fun, grad, x0, lambda v: v, max_iter=500, grad_tol=1e-10)
    assert not plain["converged"]


def test_lbfgs_dense_exact_inverse_hessian_metric_takes_one_newton_step():
    fun, grad, _, x_star, calls = _quadratic()
    x0 = np.zeros_like(x_star)
    # the gradient is affine: its columns at the unit vectors give the Hessian
    g0 = grad(x0).ravel()
    units = np.eye(x0.size)
    A = np.column_stack([grad(u.reshape(x0.shape)).ravel() - g0 for u in units])
    A_inv = np.linalg.inv(0.5 * (A + A.T))
    calls["grad"] = 0
    x, _, info = lbfgs(fun, grad, x0, lambda v: (A_inv @ v.ravel()).reshape(v.shape), max_iter=50, grad_tol=1e-10)
    assert info["converged"]
    assert info["iters"] == calls["grad"] <= 2
    assert info["steps"] == [1.0]


def test_lbfgs_iteration_cap_reports_not_converged():
    fun, grad, inv_metric, x_star, calls = _quadratic()
    x, _, info = lbfgs(fun, grad, np.zeros_like(x_star), lambda v: inv_metric * v, max_iter=3, grad_tol=1e-10)
    assert not info["converged"] and info["stop"] == "max_iters"
    assert info["iters"] == calls["grad"] == 3
    # the reported norm is the gradient at the returned point
    assert info["grad_norm"] == np.linalg.norm(grad(x)) > 1e-10
    assert len(info["objectives"]) == 3
    assert len(info["grad_norms"]) == 3 and len(info["steps"]) == 2


def test_lbfgs_stops_when_no_step_decreases():
    fun, grad, inv_metric, x_star, calls = _quadratic()
    x0 = np.ones_like(x_star)

    def walled(x):
        return fun(x) if np.array_equal(x, x0) else (np.inf, x)

    x, _, info = lbfgs(walled, grad, x0, lambda v: inv_metric * v, max_iter=50, grad_tol=1e-10)
    assert not info["converged"] and info["stop"] == "line_search"
    assert info["iters"] == calls["grad"] == 1
    assert np.array_equal(x, x0)
    assert info["objectives"] == [fun(x0)[0]]
    assert len(info["grad_norms"]) == 1 and info["steps"] == []


def test_lbfgs_falls_back_to_metric_gradient_step():
    # only points on the ray x - t M^-1 g from the latest gradient point are
    # finite, so every L-BFGS direction built from stored pairs fails and
    # each step must come from the retry along -M^-1 g with the memory dropped
    fun, grad, inv_metric, x_star, calls = _quadratic()
    last = {}

    def tracked_grad(x):
        last["x"], last["g"] = x.copy(), grad(x)
        return last["g"]

    def ray_only(x):
        p = -inv_metric * last["g"]
        dx = x - last["x"]
        t = np.vdot(dx, p) / np.vdot(p, p)
        return fun(x) if np.linalg.norm(dx - t * p) <= 1e-12 * np.linalg.norm(dx) else (np.inf, x)

    x0 = np.zeros_like(x_star)
    last["x"], last["g"] = x0, grad(x0)
    x, _, info = lbfgs(ray_only, tracked_grad, x0, lambda v: inv_metric * v, max_iter=6, grad_tol=1e-10)
    objectives = info["objectives"]
    assert len(objectives) == 6
    assert all(b < a for a, b in zip(objectives, objectives[1:]))


def _recording(fun):
    """fun with a fresh state object per evaluation, logged in call order."""
    log = []

    def recorded(x):
        f, _ = fun(x)
        state = {"x": x.copy(), "f": f}
        log.append(("eval", state))
        return f, state

    return recorded, log


def test_lbfgs_grad_sees_only_accepted_states():
    # an oversized metric makes the first line searches halve, so some
    # evaluations are rejected; grad must only see the state of the point
    # each search accepted, which is the last evaluation before it
    fun, grad, inv_metric, x_star, _ = _quadratic()
    recorded, log = _recording(fun)

    def logged_grad(state):
        log.append(("grad", state))
        return grad(state["x"])

    _, _, info = lbfgs(recorded, logged_grad, np.zeros_like(x_star), lambda v: 1e3 * inv_metric * v, max_iter=40, grad_tol=1e-10)
    grads = [k for k, (kind, _) in enumerate(log) if kind == "grad"]
    assert len(grads) == info["iters"]
    evaluated = [state["x"].tobytes() for kind, state in log if kind == "eval"]
    assert len(evaluated) > len(info["objectives"])  # some trials were rejected
    assert len(set(evaluated)) == len(evaluated)  # no point is evaluated twice
    for k, at in enumerate(grads):
        kind, state = log[at - 1]
        assert kind == "eval" and log[at][1] is state
        assert state["f"] == info["objectives"][k]


def test_lbfgs_returned_state_belongs_to_returned_point():
    fun, grad, inv_metric, x_star, _ = _quadratic()
    recorded, _ = _recording(fun)
    x0 = np.ones_like(x_star)

    def walled(x):
        return recorded(x) if np.array_equal(x, x0) else (np.inf, {"x": x.copy(), "f": np.inf})

    runs = {
        "converged": (recorded, np.zeros_like(x_star), 500),
        "max_iters": (recorded, np.zeros_like(x_star), 3),
        "line_search": (walled, x0, 50),
    }
    for stop, (f, start, cap) in runs.items():
        x, state, info = lbfgs(f, lambda st: grad(st["x"]), start, lambda v: inv_metric * v, max_iter=cap, grad_tol=1e-10)
        assert info["stop"] == stop
        assert np.array_equal(state["x"], x)
        assert state["f"] == info["objective"]


def test_backtrack_returns_accepted_trial_state():
    # f = |x|^2 from x = 1 along p = -4: t = 1 fails, and the quadratic its
    # value fixes puts the second trial at the minimiser t = 1/4, on 0
    seen = []

    def fun(x):
        seen.append(x.copy())
        return float(np.sum(x * x)), ("state", x.copy())

    x = np.array([1.0])
    x_new, f_new, state, t = backtrack(fun, x, 1.0, 2.0 * x, np.array([-4.0]))
    assert t == 0.25 and f_new == 0.0
    assert np.array_equal(x_new, [0.0]) and np.array_equal(state[1], x_new)
    assert len(seen) == 2


def test_backtrack_interpolation_is_safeguarded():
    # from x = 0 along p = -1 with slope -1, each trial's value is scripted:
    # a non-finite value halves the step; a steep rise would put the guess
    # at 0.0012, clipped up to 0.1 t; a value just above the Armijo line
    # would put it a hair above 0.5 t, clipped down
    script = iter([np.inf, 100.0, -0.5e-5 * 0.5, -1.0])
    steps = []

    def fun(x):
        steps.append(-float(x[0]))
        return next(script), None

    _, f_new, _, t = backtrack(fun, np.zeros(1), 0.0, np.ones(1), -np.ones(1))
    assert steps == [1.0, 0.5, 0.05, 0.025] and t == 0.025 and f_new == -1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_backtrack_gives_up_on_non_finite_trials(bad):
    calls = []

    def fun(x):
        calls.append(x)
        return bad, x

    x = np.array([1.0, -2.0])
    assert backtrack(fun, x, 0.0, x, -x) is None
    assert len(calls) == MAX_BACKTRACKS


@pytest.mark.parametrize("n", [1, 7803, VDOT_SLICE])
def test_vdot_is_np_vdot_up_to_the_slice(n):
    # one slice is np.vdot itself, so every solver bit of a run whose vectors
    # fit in one slice is what np.vdot gives
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n))
    assert VDOT_SLICE == 10000
    assert vdot(a, b) == np.vdot(a, b) and type(vdot(a, b)) is float
    assert vdot(a.reshape(n, 1), b.reshape(n, 1)) == np.vdot(a, b)


def test_vdot_sums_longer_vectors_slice_by_slice():
    # above the slice, the correctly rounded sum of the slices' np.vdot: a
    # fixed order, whatever the number of threads BLAS splits a long ddot into
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 10, 2 * VDOT_SLICE + 123))
    slices = [np.vdot(a.ravel()[i : i + VDOT_SLICE], b.ravel()[i : i + VDOT_SLICE]) for i in range(0, a.size, VDOT_SLICE)]
    assert len(slices) == 21
    assert vdot(a, b) == math.fsum(slices)
    assert vdot(a, b) == pytest.approx(np.vdot(a, b), rel=1e-12)
