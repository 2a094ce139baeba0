import numpy as np

from thinvolt.optimize import lbfgs


def _quadratic(n=40, seed=3):
    """f(x) = x.A x / 2 - b.x on (n, 3) arrays with a badly scaled diagonal mass.

    A = D + C with D a lumped mass spanning four decades and C a small
    symmetric positive semidefinite coupling, so 1 / D is the natural
    metric and plain gradient steps stall.
    """
    rng = np.random.default_rng(seed)
    mass = np.logspace(-5, -1, n)[:, None] * np.ones((1, 3))
    B = rng.standard_normal((3 * n, 3 * n)) * 1e-4
    A = np.diag(mass.ravel()) + B @ B.T
    b = rng.standard_normal((n, 3)) * 1e-3
    calls = {"grad": 0}

    def fun(x):
        return 0.5 * x.ravel() @ A @ x.ravel() - b.ravel() @ x.ravel()

    def grad(x):
        calls["grad"] += 1
        return (A @ x.ravel() - b.ravel()).reshape(x.shape)

    x_star = np.linalg.solve(A, b.ravel()).reshape(b.shape)
    return fun, grad, 1.0 / mass[:, :1], x_star, calls


def test_lbfgs_converges_on_metric_scaled_quadratic():
    fun, grad, inv_metric, x_star, calls = _quadratic()
    x0 = np.zeros_like(x_star)
    x, info = lbfgs(fun, grad, x0, lambda v: inv_metric * v, max_iter=500, grad_tol=1e-10)
    assert info["converged"] and info["stop"] == "converged"
    assert info["grad_norm"] <= 1e-10
    assert info["grad_norm"] == np.linalg.norm(grad(x))
    assert calls["grad"] - 1 == info["iters"] < 500
    assert np.max(np.abs(x - x_star)) < 1e-6 * np.max(np.abs(x_star))
    assert np.all(x0 == 0.0)  # the start is not modified
    objectives = info["objectives"]
    assert objectives[0] == fun(x0) and objectives[-1] == info["objective"] == fun(x)
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert len(objectives) == info["iters"]  # one accepted step per iteration but the last
    assert len(info["grad_norms"]) == info["iters"] and info["grad_norms"][-1] == info["grad_norm"]
    assert len(info["steps"]) == len(objectives) - 1
    assert all(0.0 < t <= 1.0 for t in info["steps"])
    # the metric is what makes the budget suffice
    _, plain = lbfgs(fun, grad, x0, lambda v: v, max_iter=500, grad_tol=1e-10)
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
    x, info = lbfgs(fun, grad, x0, lambda v: (A_inv @ v.ravel()).reshape(v.shape), max_iter=50, grad_tol=1e-10)
    assert info["converged"]
    assert info["iters"] == calls["grad"] <= 2
    assert info["steps"] == [1.0]


def test_lbfgs_iteration_cap_reports_not_converged():
    fun, grad, inv_metric, x_star, calls = _quadratic()
    x, info = lbfgs(fun, grad, np.zeros_like(x_star), lambda v: inv_metric * v, max_iter=3, grad_tol=1e-10)
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
        return fun(x) if np.array_equal(x, x0) else np.inf

    x, info = lbfgs(walled, grad, x0, lambda v: inv_metric * v, max_iter=50, grad_tol=1e-10)
    assert not info["converged"] and info["stop"] == "line_search"
    assert info["iters"] == calls["grad"] == 1
    assert np.array_equal(x, x0)
    assert info["objectives"] == [fun(x0)]
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
        return fun(x) if np.linalg.norm(dx - t * p) <= 1e-12 * np.linalg.norm(dx) else np.inf

    x0 = np.zeros_like(x_star)
    last["x"], last["g"] = x0, grad(x0)
    x, info = lbfgs(ray_only, tracked_grad, x0, lambda v: inv_metric * v, max_iter=6, grad_tol=1e-10)
    objectives = info["objectives"]
    assert len(objectives) == 6
    assert all(b < a for a, b in zip(objectives, objectives[1:]))
