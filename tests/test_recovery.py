import gc
import weakref

import numpy as np
import pytest

from thinvolt import fields
from thinvolt.bending2d import CylindricalIsometry, solve_potential2
from thinvolt.elastic3d import M_eps, flat_deformation
from thinvolt.electro3d import E_eps, assemble_poisson3, check_pg0, solve_potential3
from thinvolt.fields import Grid2, Grid3
from thinvolt.material import (
    ChargeModel,
    Material,
    PermittivityModel,
    PrestrainModel,
)
from thinvolt.recovery import (
    SWEEP_COLUMNS,
    RecoveryInputs,
    SweepRow,
    lift_deformation,
    lift_potential,
    mollifier_objective,
    mollify_field,
    optimal_corrector,
    out_of_plane_profile,
    recovery_sweep,
)
from thinvolt.relaxation import RelaxedQ2


def _rq(mat):
    return RelaxedQ2.of(mat)


def test_corrector_closed_form_no_prestrain():
    # mu = lam = 1, slope kappa, B = 0, g = 0: the only nonzero entry is the
    # out-of-plane contraction -kappa t / 3 along the bending normal
    kap = 0.8
    grid2 = Grid2(9, 7)
    grid3 = Grid3(9, 7, 5)
    mat = Material()
    y0 = CylindricalIsometry(grid2, kap * grid2.x1)
    inputs = RecoveryInputs(isometry=y0, prestrain=mat.prestrain)
    d = optimal_corrector(inputs, grid3, _rq(mat))
    assert d.shape == grid3.shape + (3,)
    nu = CylindricalIsometry.frame_of(y0.theta)[..., 2]  # (n1, 3), the bending normal
    want = (
        -(kap / 3.0)
        * grid3.x3[None, None, :, None]
        * np.broadcast_to(nu[:, None, None, :], grid3.shape + (3,))
    )
    assert np.max(np.abs(d - want)) < 1e-12


def test_corrector_assembles_prestrain_columns():
    # oracle rebuilt from the already-verified minimizer map and frame
    B0 = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.2], [0.1, 0.2, 0.3]])
    B1 = np.array([[0.4, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.1]])
    pre = PrestrainModel(B0=B0, B1=B1)
    mat = Material(prestrain=pre)
    rq = _rq(mat)
    grid2 = Grid2(7, 5)
    grid3 = Grid3(7, 5, 5)
    theta = 0.3 * grid2.x1 + 0.1 * np.sin(np.pi * grid2.x1)
    y0 = CylindricalIsometry(grid2, theta)
    inputs = RecoveryInputs(isometry=y0, prestrain=pre)
    d = optimal_corrector(inputs, grid3, rq)
    kap = y0.curvature_nodes()
    R = CylindricalIsometry.frame_of(theta)
    t = grid3.x3
    B = pre.B(t)
    for i in (0, 3, 6):
        for n in (0, 2, 4):
            X = np.zeros((2, 2))
            X[0, 0] = kap[i] * t[n]
            X -= B[n, :2, :2]
            z = rq.minimizer_z(X)
            inner = z + np.array([2.0 * B[n, 0, 2], 2.0 * B[n, 1, 2], B[n, 2, 2]])
            want = R[i] @ inner
            assert np.max(np.abs(d[i, 2, n] - want)) < 1e-12


def test_recovery_inputs_compatibility_gate():
    grid2 = Grid2(7, 5)
    y0 = CylindricalIsometry(grid2, grid2.x1)
    pre = PrestrainModel(B0=np.diag([0.2, 0.0, 0.0]))
    RecoveryInputs(isometry=y0, prestrain=pre, g_matrix=np.diag([0.2, 0.0]))
    with pytest.raises(ValueError):
        RecoveryInputs(isometry=y0, prestrain=pre)  # zero g cannot match B0


def test_lift_of_flat_profile_is_flat():
    grid2 = Grid2(8, 6)
    grid3 = Grid3(8, 6, 5)
    y0 = CylindricalIsometry(grid2, np.zeros(grid2.n1))
    for eps in (0.5, 0.125):
        y = lift_deformation(y0, eps, grid3)
        assert np.max(np.abs(y - flat_deformation(grid3, eps))) < 1e-13
        assert M_eps(y, grid3, eps, Material()) < 1e-13


def test_lift_corrector_integration_is_exact_trapezoid():
    grid2 = Grid2(7, 5)
    grid3 = Grid3(7, 5, 5)
    y0 = CylindricalIsometry(grid2, 0.4 * grid2.x1)
    eps = 0.25
    base = lift_deformation(y0, eps, grid3)
    # constant profile integrates to c * x3
    c = np.array([0.3, -0.2, 0.5])
    d = np.broadcast_to(c, grid3.shape + (3,))
    got = lift_deformation(y0, eps, grid3, d=d) - base
    want = eps * eps * grid3.x3[None, None, :, None] * c
    want = want - fields.node_mean(np.broadcast_to(want, grid3.shape + (3,)), grid3)
    assert np.max(np.abs(got - want)) < 1e-14
    # linear-in-x3 profile integrates to a x3^2 / 2, exactly under the trapezoid rule
    a = np.array([0.0, 0.0, 1.2])
    dlin = grid3.x3[None, None, :, None] * a
    dlin = np.broadcast_to(dlin, grid3.shape + (3,))
    got = lift_deformation(y0, eps, grid3, d=dlin) - base
    prof = 0.5 * grid3.x3**2
    want = eps * eps * prof[None, None, :, None] * a
    want = want - fields.node_mean(np.broadcast_to(want, grid3.shape + (3,)), grid3)
    assert np.max(np.abs(got - want)) < 1e-13


def test_lift_in_plane_term_is_the_linear_field_in_the_bending_frame():
    # eps (g1 t + g2 e2) with g(x') = S x' and the tangent t = (cos, 0, -sin)
    grid2 = Grid2(7, 5)
    grid3 = Grid3(7, 5, 5)
    theta = 0.4 * grid2.x1
    y0 = CylindricalIsometry(grid2, theta)
    eps = 0.25
    S = np.array([[0.3, -0.2], [0.1, 0.5]])
    got = lift_deformation(y0, eps, grid3, S) - lift_deformation(y0, eps, grid3)
    X1, X2 = np.meshgrid(grid3.x1, grid3.x2, indexing="ij")
    g1 = S[0, 0] * X1 + S[0, 1] * X2
    g2 = S[1, 0] * X1 + S[1, 1] * X2
    tang = np.stack([np.cos(theta), np.zeros_like(theta), -np.sin(theta)], axis=-1)
    want = eps * (g1[..., None] * tang[:, None, :] + g2[..., None] * np.array([0.0, 1.0, 0.0]))
    want = np.broadcast_to(want[:, :, None, :], grid3.shape + (3,))
    want = want - fields.node_mean(want, grid3)
    assert np.max(np.abs(got - want)) < 1e-14
    inputs = RecoveryInputs(y0, PrestrainModel(B0=np.pad(0.5 * (S + S.T), ((0, 1), (0, 1)))), S)
    assert np.array_equal(inputs.g_values(grid3), np.stack([g1, g2], axis=-1))


def test_lift_validation():
    grid2 = Grid2(7, 5)
    y0 = CylindricalIsometry(grid2, grid2.x1)
    with pytest.raises(ValueError):
        lift_deformation(y0, 0.0, Grid3(7, 5, 5))
    with pytest.raises(ValueError):
        lift_deformation(y0, 0.5, Grid3(9, 5, 5))


def test_out_of_plane_profile_closed_form():
    # constant tilt, anisotropic k: m = 3 sin cos / (sin^2 + 4 cos^2) * d phi0 / dx1
    k = np.diag([1.0, 1.0, 4.0])
    mat = Material(permittivity=PermittivityModel(k=k))
    grid2 = Grid2(9, 7)
    th = 0.7
    y0 = CylindricalIsometry(grid2, np.full(grid2.n1, th))
    slope = 1.3
    phi0 = slope * grid2.x1[:, None] * np.ones((1, grid2.n2))
    m = out_of_plane_profile(y0, phi0, mat)
    s, c = np.sin(th), np.cos(th)
    want = 3.0 * s * c * slope / (s * s + 4.0 * c * c)
    assert np.max(np.abs(m - want)) < 1e-12
    # straight frame decouples the out-of-plane component entirely
    y0f = CylindricalIsometry(grid2, np.zeros(grid2.n1))
    assert np.max(np.abs(out_of_plane_profile(y0f, phi0, mat))) < 1e-14


def test_lift_potential_formula():
    grid3 = Grid3(7, 5, 5)
    rng = np.random.default_rng(5)
    phi0 = rng.standard_normal((7, 5))
    m = rng.standard_normal((7, 5))
    eps = 0.25
    phi = lift_potential(phi0, m, eps, grid3)
    want = phi0[:, :, None] + eps * m[:, :, None] * grid3.x3[None, None, :]
    want = want - fields.node_mean(want, grid3)
    assert np.max(np.abs(phi - want)) < 1e-14
    assert abs(fields.node_mean(phi, grid3)) < 1e-14
    with pytest.raises(ValueError):
        lift_potential(phi0, m, -1.0, grid3)


def test_mollifier_zero_and_smooth_fields():
    grid3 = Grid3(9, 7, 5)
    zero = np.zeros(grid3.shape + (3,))
    v, info = mollify_field(zero, grid3, eps=0.25)
    assert np.max(np.abs(v)) == 0.0
    assert info["l2_gap"] == 0.0
    # gentle smooth field: descent converges and never worsens the objective
    x1 = grid3.x1[:, None, None]
    x3 = grid3.x3[None, None, :]
    d = np.zeros(grid3.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * x1) * np.ones_like(x3)
    eps, tau, qh = 0.25, 2.0, 4.0
    v, info = mollify_field(d, grid3, eps=eps, tau=tau, q_h=qh, iters=300)
    start = mollifier_objective(d, d, grid3, eps, tau, qh)
    final = mollifier_objective(v, d, grid3, eps, tau, qh)
    assert final <= start + 1e-15
    assert info["objective"] == final
    assert info["l2_gap"] < 0.1
    assert np.isfinite(info["seminorm_scaled"])
    # first-order optimality up to the returned gradient norm
    rng = np.random.default_rng(9)
    slack = info["grad_norm"] * 1e-3 + 1e-12
    for _ in range(10):
        dv = rng.standard_normal(v.shape)
        dv *= 1e-3 / np.linalg.norm(dv)
        assert mollifier_objective(v + dv, d, grid3, eps, tau, qh) >= final - slack


def test_mollifier_converges_on_criterion_10_field():
    # criterion 10's field at its largest eps, then with a small seeded
    # in-plane perturbation sum c_kl sin(k pi x1) sin(l pi x2), k, l in {1, 2}
    grid3 = Grid3(17, 17, 9)
    d = np.zeros(grid3.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * grid3.x1)[:, None, None]
    rng = np.random.default_rng(5)
    bump = np.zeros(grid3.shape)
    for k in (1, 2):
        for l in (1, 2):
            mode = np.outer(np.sin(k * np.pi * grid3.x1), np.sin(l * np.pi * grid3.x2))
            bump += 5e-4 * rng.uniform(-1.0, 1.0) * mode[:, :, None]
    eps, qh = 0.25, 4.0
    for field in (d, d + bump[..., None] * np.array([0.0, 0.0, 1.0])):
        v, info = mollify_field(field, grid3, eps, q_h=qh, iters=500, grad_tol=1e-8)
        assert info["converged"] and info["iters"] < 500
        assert info["grad_norm"] <= 1e-8
        assert info["objective"] == mollifier_objective(v, field, grid3, eps, 0.5 * qh, qh)
        assert info["objective"] < mollifier_objective(field, field, grid3, eps, 0.5 * qh, qh)


def test_mollifier_takes_derivatives_once_per_evaluation(monkeypatch):
    # criterion 10's field: the gradient and the seminorm reuse the Hessian
    # and gradient each objective evaluation took, so no field is
    # differentiated twice
    from thinvolt import optimize, recovery

    grid3 = Grid3(17, 17, 9)
    d = np.zeros(grid3.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * grid3.x1)[:, None, None]
    calls = {"hessian": 0, "gradient": 0, "evaluation": 0, "mollifier_gradient": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fields, "scaled_hessian", counted("hessian", fields.scaled_hessian))
    monkeypatch.setattr(fields, "scaled_gradient", counted("gradient", fields.scaled_gradient))
    lbfgs = optimize.lbfgs
    monkeypatch.setattr(optimize, "lbfgs", lambda fun, *args, **kwargs: lbfgs(counted("evaluation", fun), *args, **kwargs))
    monkeypatch.setattr(recovery, "_mollifier_gradient", counted("mollifier_gradient", recovery._mollifier_gradient))
    v, info = mollify_field(d, grid3, 0.25, q_h=4.0)
    assert info["converged"]
    assert calls["evaluation"] > info["iters"]
    assert calls["hessian"] == calls["gradient"] == calls["evaluation"]
    assert calls["mollifier_gradient"] == info["iters"]


def test_mollifier_gradient_matches_central_differences():
    # the gradient reuses the evaluation's squared norms: compare it with
    # central differences of the objective along random directions
    from thinvolt.recovery import _mollifier_evaluation, _mollifier_gradient

    grid3 = Grid3(6, 5, 4)
    rng = np.random.default_rng(8)
    X = np.meshgrid(grid3.x1, grid3.x2, grid3.x3, indexing="ij")
    v = np.stack([np.sin(sum(a * x for a, x in zip(freq, X))) for freq in rng.uniform(0.5, 3.0, (3, 3))], axis=-1)
    d = v + 0.1 * rng.standard_normal(v.shape)
    eps, h = 0.25, 1e-6
    for q_h in (3.5, 4.0):
        tau = 0.5 * q_h
        _, state = _mollifier_evaluation(v, d, grid3, eps, tau, q_h)
        g = _mollifier_gradient(state, d, grid3, eps, tau, q_h)
        for _ in range(4):
            u = rng.standard_normal(v.shape)
            up = mollifier_objective(v + h * u, d, grid3, eps, tau, q_h)
            down = mollifier_objective(v - h * u, d, grid3, eps, tau, q_h)
            fd = (up - down) / (2.0 * h)
            assert abs(fd - np.sum(g * u)) <= 1e-6 * abs(fd)


def test_mollifier_iteration_cap_is_reported():
    grid3 = Grid3(9, 7, 5)
    d = np.zeros(grid3.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * grid3.x1)[:, None, None]
    v, info = mollify_field(d, grid3, eps=0.25, iters=2)
    assert info["iters"] == 2 and not info["converged"]
    assert info["grad_norm"] > 1e-8


def test_mollifier_validation():
    grid3 = Grid3(7, 5, 5)
    d = np.zeros(grid3.shape + (3,))
    with pytest.raises(ValueError):
        mollify_field(d, grid3, eps=0.5, tau=5.0, q_h=4.0)
    with pytest.raises(ValueError):
        mollify_field(np.zeros(grid3.shape), grid3, eps=0.5)


def test_sweep_columns_are_pinned():
    assert SWEEP_COLUMNS == [
        "eps",
        "Mel_scaled",
        "hyper",
        "M_eps",
        "E_eps",
        "F_eps",
        "M0",
        "E0",
        "F0",
        "d2_ratio",
        "pW_norm",
        "min_det",
        "pg0_res",
    ]
    row = SweepRow(eps=0.5)
    assert len(row.values()) == len(SWEEP_COLUMNS)
    assert row.values()[0] == 0.5 and not row.ok


def test_recovery_sweep_rows():
    grid2 = Grid2(9, 9)
    grid3 = Grid3(9, 9, 5)
    mat = Material()
    y0 = CylindricalIsometry(grid2, grid2.x1)
    inputs = RecoveryInputs(isometry=y0, prestrain=mat.prestrain)
    rows = recovery_sweep(inputs, mat, grid3, [0.25, 0.125], solver_tol=1e-11)
    assert len(rows) == 2
    d = optimal_corrector(inputs, grid3, _rq(mat))
    for row in rows:
        assert row.ok
        # E_eps and pg0_res share one dielectric evaluation; both must equal
        # the standalone evaluations at the row's lifted and solved pair bit for bit
        y = lift_deformation(y0, row.eps, grid3, inputs.g_matrix, d)
        phi = solve_potential3(assemble_poisson3(y, grid3, row.eps, mat), tol=1e-11)
        assert row.E_eps == E_eps(y, phi, grid3, row.eps, mat)
        assert row.pg0_res == check_pg0(y, phi, grid3, row.eps, mat)
        vals = np.array(row.values())
        assert np.all(np.isfinite(vals))
        assert abs(row.M0 - 1.0 / 9.0) < 1e-12
        assert row.min_det > 0.0
        assert row.pg0_res < 1e-8
        assert abs(row.F_eps - (row.M_eps - row.E_eps)) < 1e-14
        assert abs(row.F0 - (row.M0 - row.E0)) < 1e-14
    # the scaled rigidity ratio stays of order one along the sweep
    assert rows[1].d2_ratio < 4.0 * max(rows[0].d2_ratio, 1e-6)


def test_recovery_sweep_flags_orientation_loss():
    grid2 = Grid2(9, 9)
    grid3 = Grid3(9, 9, 5)
    mat = Material()
    y0 = CylindricalIsometry(grid2, grid2.x1)
    inputs = RecoveryInputs(isometry=y0, prestrain=mat.prestrain)
    rows = recovery_sweep(inputs, mat, grid3, [3.0, 0.25], solver_tol=1e-10)
    assert not rows[0].ok and np.isnan(rows[0].M_eps)
    assert "orientation" in rows[0].reason
    assert rows[1].ok and rows[1].reason == ""
    with pytest.raises(ValueError):
        recovery_sweep(inputs, mat, grid3, [0.125, 0.25])


def test_recovery_sweep_releases_each_rows_system(monkeypatch):
    # a row's system (Kloc, stencil, line factors) is dropped once the row's
    # energy is taken, also when its solve fails, so no earlier row's system
    # is alive while the next row assembles; the cyclic collector is off, so
    # only reference counting can free it
    from thinvolt import electro3d

    assemble, solve = electro3d.assemble_poisson3, electro3d.PoissonSystem3.solve
    refs = []

    def watched_assemble(*args):
        assert all(ref() is None for ref in refs)
        system = assemble(*args)
        refs.append(weakref.ref(system))
        return system

    def solve_failing_second(system, **kwargs):
        if len(refs) == 2:
            raise electro3d.SolverError("forced failure", [1.0])
        return solve(system, **kwargs)

    monkeypatch.setattr(electro3d, "assemble_poisson3", watched_assemble)
    monkeypatch.setattr(electro3d.PoissonSystem3, "solve", solve_failing_second)
    grid2 = Grid2(9, 9)
    y0 = CylindricalIsometry(grid2, grid2.x1)
    mat = Material()
    inputs = RecoveryInputs(isometry=y0, prestrain=mat.prestrain)
    gc.disable()
    try:
        rows = recovery_sweep(inputs, mat, Grid3(9, 9, 5), [0.25, 0.125, 0.0625], solver_tol=1e-10)
    finally:
        gc.enable()
    assert len(refs) == 3 and all(ref() is None for ref in refs)
    assert [row.ok for row in rows] == [True, False, True]
