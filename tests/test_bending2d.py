import numpy as np
import pytest

from thinvolt import fields
from thinvolt.bending2d import (
    CylindricalIsometry,
    E0,
    F0,
    M0,
    check_virial,
    grad_M0_theta,
    keff_and_derivative,
    saddle_iterate_2d,
    solve_potential2,
)
from thinvolt.fields import Grid2
from thinvolt.material import (
    ChargeModel,
    CouplingConstants,
    ElasticParams,
    Material,
    PermittivityModel,
    PrestrainModel,
)
from thinvolt.relaxation import RelaxedQ2, effective_permittivity

_DEFAULT = Material()


def _mat(k=None, B1=None, beta=1.0, gamma=1.0):
    return Material(
        permittivity=PermittivityModel(k=np.diag([1.0, 1.0, 4.0]) if k is None else k),
        prestrain=PrestrainModel() if B1 is None else PrestrainModel(B1=B1),
        coupling=CouplingConstants(beta=beta, gamma=gamma),
    )


def _rq(mat):
    return RelaxedQ2.of(mat)


def test_isometry_geometry_closed_form():
    grid = Grid2(33, 5)
    y0 = CylindricalIsometry(grid, grid.x1.copy())
    assert np.max(np.abs(y0.curvature_cells() - 1.0)) < 1e-12
    R = y0.frame_of(y0.theta)
    RtR = np.swapaxes(R, -1, -2) @ R
    assert np.max(np.abs(RtR - np.eye(3))) < 1e-14
    # unit-slope profile integrates to (sin x1, x2, cos x1 - 1), up to the gauge
    y = y0.deformation_nodes()
    want = np.zeros(grid.shape + (3,))
    want[..., 0] = np.sin(grid.x1)[:, None]
    want[..., 1] = grid.x2[None, :]
    want[..., 2] = (np.cos(grid.x1) - 1.0)[:, None]
    want = fields.zero_mean_project(want, grid)
    assert np.max(np.abs(y - want)) < 1e-12
    # chord length of one cell never exceeds the arc and matches to O(h^2)
    d1 = np.diff(y[:, 0, 0]) / grid.h1
    d3 = np.diff(y[:, 0, 2]) / grid.h1
    speed2 = d1 * d1 + d3 * d3
    assert np.all(speed2 <= 1.0 + 1e-14)
    assert np.max(1.0 - speed2) < 0.1 * grid.h1**2


def test_isometry_validation():
    grid = Grid2(9, 5)
    with pytest.raises(ValueError):
        CylindricalIsometry(grid, np.zeros(7))
    with pytest.raises(ValueError):
        CylindricalIsometry(grid, np.full(9, np.nan))


def test_m0_closed_form_uniform_curvature():
    # mu = lam = 1, no prestrain: M0 of slope kappa0 equals kappa0^2 / 9
    grid = Grid2(17, 9)
    mat = _mat()
    rq = _rq(mat)
    for kap in (1.0, 0.5, 2.0):
        y0 = CylindricalIsometry(grid, kap * grid.x1)
        assert abs(M0(y0, rq) - kap * kap / 9.0) < 1e-12


def test_m0_spontaneous_curvature_with_prestrain():
    # linear-in-thickness prestrain b e1(x)e1 shifts the energy minimum to slope b
    b = 0.5
    B1 = np.zeros((3, 3))
    B1[0, 0] = b
    mat = _mat(B1=B1)
    rq = _rq(mat)
    grid = Grid2(17, 9)
    mu = lam = 1.0
    coef = 2.0 * mu + 2.0 * mu * lam / (2.0 * mu + lam)
    for kap in (0.0, 0.7, b):
        y0 = CylindricalIsometry(grid, kap * grid.x1)
        want = 0.5 * coef * (kap - b) ** 2 / 12.0
        assert abs(M0(y0, rq) - want) < 1e-12
    rest = CylindricalIsometry(grid, b * grid.x1)
    assert np.max(np.abs(grad_M0_theta(rest, rq))) < 1e-12


def test_grad_m0_matches_finite_differences():
    grid = Grid2(13, 5)
    mat = _mat(B1=np.diag([0.3, 0.0, 0.0]))
    rq = _rq(mat)
    rng = np.random.default_rng(3)
    theta = 0.4 * rng.standard_normal(grid.n1)
    y0 = CylindricalIsometry(grid, theta)
    g = grad_M0_theta(y0, rq)
    assert abs(g.sum()) < 1e-12  # angle shifts cost nothing
    step = 1e-6
    for i in range(grid.n1):
        tp = theta.copy()
        tp[i] += step
        tm = theta.copy()
        tm[i] -= step
        fd = (M0(CylindricalIsometry(grid, tp), rq) - M0(CylindricalIsometry(grid, tm), rq)) / (
            2.0 * step
        )
        assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(g[i]))
    shifted = CylindricalIsometry(grid, theta + 1.3)
    assert abs(M0(shifted, rq) - M0(y0, rq)) < 1e-12


def test_keff_derivative_and_pinned_profile():
    k = np.diag([1.0, 1.0, 4.0])
    thetas = np.linspace(0.0, 2.0 * np.pi, 13)
    keff, dkeff = keff_and_derivative(thetas, k)
    # reduced tensor of the tilted frame, independent closed form
    denom = np.sin(thetas) ** 2 + 4.0 * np.cos(thetas) ** 2
    assert np.max(np.abs(keff[:, 0, 0] - 4.0 / denom)) < 1e-12
    assert np.max(np.abs(keff[:, 1, 1] - 1.0)) < 1e-12
    assert np.max(np.abs(keff[:, 0, 1])) < 1e-12
    # matches the generic frame reduction and its finite difference in theta
    step = 1e-6
    for th in (0.0, 0.4, 1.9):
        R = CylindricalIsometry.frame_of(th)
        _, want = effective_permittivity(k, R)
        got, dgot = keff_and_derivative(th, k)
        assert np.max(np.abs(got - want)) < 1e-12
        kp, _ = keff_and_derivative(th + step, k)
        km, _ = keff_and_derivative(th - step, k)
        assert np.max(np.abs(dgot - (kp - km) / (2.0 * step))) < 1e-7


def test_solve_potential2_manufactured_convergence():
    # isotropic permittivity makes the reduced tensor the identity for any
    # profile; the closed-form potential is gamma cos(pi x1) / (beta pi^2)
    beta, gamma = 1.5, 0.7
    mat = _mat(k=np.eye(3), beta=beta, gamma=gamma)
    errs = []
    for n in (17, 33, 65):
        grid = Grid2(n, n)
        theta = 0.4 * np.sin(2.0 * np.pi * grid.x1)
        y0 = CylindricalIsometry(grid, theta)
        phi = solve_potential2(y0, mat, tol=1e-12)
        exact = gamma * np.cos(np.pi * grid.x1)[:, None] / (beta * np.pi**2)
        exact = np.broadcast_to(exact, grid.shape)
        w = grid.w1[:, None] * grid.w2[None, :]
        errs.append(np.sqrt(np.sum(w * (phi - exact) ** 2)))
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8


def test_virial_identity_and_negative_control():
    mat = _mat(beta=1.2, gamma=0.9)
    grid = Grid2(33, 9)
    y0 = CylindricalIsometry(grid, 0.6 * grid.x1 + 0.1 * np.sin(np.pi * grid.x1))
    phi = solve_potential2(y0, mat, tol=1e-13)
    assert check_virial(y0, phi, mat) < 1e-10
    rng = np.random.default_rng(8)
    bad = phi + 0.01 * rng.standard_normal(grid.shape)
    assert check_virial(y0, bad, mat) > 1e-4


def test_saddle_iterate_isotropic_decouples_to_bending_minimum():
    # isotropic permittivity: the angle step sees pure bending, whose minimum
    # under the linear prestrain is the uniform spontaneous slope
    b = 0.5
    B1 = np.zeros((3, 3))
    B1[0, 0] = b
    mat = _mat(k=np.eye(3), B1=B1)
    grid = Grid2(17, 7)
    theta0 = np.zeros(grid.n1)
    y0, phi, history, converged = saddle_iterate_2d(theta0, grid, mat, iters=100, tol=1e-10)
    assert converged
    assert np.max(np.abs(y0.curvature_cells() - b)) < 1e-6
    rq = _rq(mat)
    assert abs(F0(y0, phi, mat, rq) - (M0(y0, rq) - E0(y0, phi, mat))) < 1e-14
    assert np.all(np.isfinite(history))


def test_saddle_iterate_anisotropic_stationarity():
    mat = _mat(k=np.diag([1.0, 1.0, 4.0]))
    grid = Grid2(33, 9)
    theta0 = 0.3 * grid.x1
    y0, phi, history, converged = saddle_iterate_2d(theta0, grid, mat, iters=200, tol=1e-8)
    assert converged
    assert history[-1, 2] <= 1e-8
    assert check_virial(y0, phi, mat) < 1e-7
    # descent bookkeeping: the angle step never increases the frozen-phi energy,
    # the potential step never decreases the total
    for r in range(history.shape[0]):
        assert history[r, 1] <= history[r, 0] + 1e-12
        if r > 0:
            assert history[r, 0] >= history[r - 1, 1] - 1e-10
    rq = _rq(mat)
    base = F0(y0, phi, mat, rq)
    rng = np.random.default_rng(12)
    # angle-side probes: no descent direction of size 1e-3 remains
    for _ in range(20):
        d = rng.standard_normal(grid.n1)
        d *= 1e-3 / np.linalg.norm(d)
        cand = CylindricalIsometry(grid, y0.theta + d)
        assert F0(cand, phi, mat, rq) >= base - 1e-8
    # potential-side probes: concave direction, solved exactly
    for _ in range(20):
        d = rng.standard_normal(grid.shape)
        d -= d.mean()
        d *= 1e-3 / np.linalg.norm(d)
        assert F0(y0, phi + d, mat, rq) <= base + 1e-10
