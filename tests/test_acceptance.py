"""End-to-end acceptance checks, one test per criterion, printed pass/fail lines.

Criteria 6, 7, 8 and part of 11 share one session-scoped thickness sweep on
the 33x33x17 grid (unit-slope cylindrical profile, no prestrain, default
material). The tolerances below are the package's acceptance contract;
nothing is loosened to force a pass.
"""

import numpy as np
import pytest

from thinvolt import fields
from thinvolt.bending2d import (
    CylindricalIsometry,
    F0,
    check_virial,
    saddle_iterate_2d,
    solve_potential2,
)
from thinvolt.elastic3d import F_eps, M_eps, flat_deformation, grad_M_eps, grad_y_F_eps
from thinvolt.electro3d import assemble_poisson3, check_pg0, solve_potential3
from thinvolt.fields import Grid2, Grid3
from thinvolt.harness import check_conditions, saddle_probe, solve3d_alternating
from thinvolt.material import (
    CouplingConstants,
    ElasticParams,
    Material,
    PermittivityModel,
    PrestrainModel,
    Q3_form,
)
from thinvolt.recovery import RecoveryInputs, mollifier_objective, mollify_field, recovery_sweep
from thinvolt.relaxation import (
    RelaxedQ2,
    effective_permittivity,
    m_out_of_plane,
    relax_over_z,
)
from thinvolt.smallmat import random_rotation, sym_part


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def bending_sweep():
    grid2 = Grid2(33, 33)
    grid3 = Grid3(33, 33, 17)
    mat = Material()
    y0 = CylindricalIsometry(grid2, grid2.x1.copy())
    inputs = RecoveryInputs(isometry=y0, prestrain=mat.prestrain)
    rows = recovery_sweep(
        inputs, mat, grid3, [0.25, 0.125, 0.0625, 0.03125], solver_tol=1e-10
    )
    assert all(r.ok for r in rows)
    return rows


def test_criterion_01_isotropic_decoupling():
    kstar = 2.7
    k = kstar * np.eye(3)
    rng = np.random.default_rng(101)
    worst_keff = 0.0
    worst_m = 0.0
    for _ in range(100):
        R = random_rotation(rng)
        part, keff = effective_permittivity(k, R)
        worst_keff = max(worst_keff, float(np.max(np.abs(keff - kstar * np.eye(2)))))
        g = rng.standard_normal(2)
        worst_m = max(worst_m, abs(m_out_of_plane(part, g)))
    ok = worst_keff <= 1e-12 and worst_m <= 1e-12
    _line(1, ok, f"keff dev {worst_keff:.2e}, out-of-plane {worst_m:.2e}")


def test_criterion_02_closed_form_relaxation():
    rng = np.random.default_rng(102)
    worst_q2 = 0.0
    worst_qbar = 0.0
    for mu, lam in ((1.0, 1.0), (1.7, 0.6)):
        p = ElasticParams(mu=mu, lam=lam, q_w=26.0)
        q3 = Q3_form(p)
        rq = RelaxedQ2(q3)
        coef = 2.0 * mu * lam / (2.0 * mu + lam)
        for _ in range(50):
            X = rng.standard_normal((2, 2))
            S = sym_part(X)
            want = 2.0 * mu * float(np.sum(S * S)) + coef * np.trace(X) ** 2
            _, val = relax_over_z(q3, X)
            worst_q2 = max(worst_q2, abs(val - want), abs(rq.q2_eval(X) - want))
            _, avg = rq.qbar2(X)
            worst_qbar = max(worst_qbar, abs(avg - want / 12.0))
    ok = worst_q2 <= 1e-10 and worst_qbar <= 1e-10
    _line(2, ok, f"Q2 dev {worst_q2:.2e}, thickness-average dev {worst_qbar:.2e}")


def test_criterion_03_poisson_manufactured_orders():
    beta, gamma = 2.0, 1.5
    mat3 = Material(
        permittivity=PermittivityModel(k=np.eye(3)),
        coupling=CouplingConstants(beta=beta, gamma=gamma),
    )
    errs3 = []
    worst_pg0 = 0.0
    for n in (17, 33):
        grid = Grid3(n, n, n)
        y = flat_deformation(grid, 1.0)
        system = assemble_poisson3(y, grid, 1.0, mat3)
        phi = solve_potential3(system, tol=1e-12)
        worst_pg0 = max(worst_pg0, check_pg0(y, phi, grid, 1.0, mat3))
        exact = gamma * np.cos(np.pi * grid.x1)[:, None, None] / (beta * np.pi**2)
        w = np.einsum("i,j,k->ijk", grid.w1, grid.w2, grid.w3)
        errs3.append(np.sqrt(np.sum(w * (phi - np.broadcast_to(exact, grid.shape)) ** 2)))
    order3 = float(np.log2(errs3[0] / errs3[1]))

    mat2 = Material(
        permittivity=PermittivityModel(k=np.eye(3)),
        coupling=mat3.coupling,
    )
    errs2 = []
    worst_virial = 0.0
    for n in (33, 65):
        grid = Grid2(n, n)
        y0 = CylindricalIsometry(grid, 0.4 * np.sin(2.0 * np.pi * grid.x1))
        phi = solve_potential2(y0, mat2, tol=1e-12)
        worst_virial = max(worst_virial, check_virial(y0, phi, mat2))
        exact = gamma * np.cos(np.pi * grid.x1)[:, None] / (beta * np.pi**2)
        w = grid.w1[:, None] * grid.w2[None, :]
        errs2.append(np.sqrt(np.sum(w * (phi - np.broadcast_to(exact, grid.shape)) ** 2)))
    order2 = float(np.log2(errs2[0] / errs2[1]))
    ok = order3 >= 1.8 and order2 >= 1.8 and worst_pg0 <= 1e-8 and worst_virial <= 1e-8
    _line(
        3,
        ok,
        f"3D order {order3:.2f}, 2D order {order2:.2f}, residuals {worst_pg0:.1e}/{worst_virial:.1e}",
    )


def test_criterion_04_energy_rewrite_identity():
    grid = Grid3(13, 13, 13)
    eps = 0.5
    mat = Material()
    gamma = mat.coupling.gamma
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(5):
        # smooth low-mode perturbations keep every cell orientation-preserving
        y = flat_deformation(grid, eps)
        for c in range(3):
            a, b, d = 0.02 * rng.standard_normal(3)
            y[..., c] += (
                a * np.sin(np.pi * grid.x1)[:, None, None]
                + b * np.cos(np.pi * grid.x2)[None, :, None]
                + d * np.sin(np.pi * grid.x3)[None, None, :]
            )
        assert np.isfinite(M_eps(y, grid, eps, mat))
        system = assemble_poisson3(y, grid, eps, mat)
        phi = solve_potential3(system, tol=1e-12)
        f = F_eps(y, phi, grid, eps, mat)
        m = M_eps(y, grid, eps, mat)
        nc = mat.charge.n_ch(grid.c1)[:, None, None]
        phibar = fields.corner_gather(phi, grid).mean(axis=3)
        moment = grid.cell_volume * float(np.sum(nc * phibar))
        worst = max(worst, abs(f - m - 0.5 * gamma * moment) / (1.0 + abs(f)))
    ok = worst <= 1e-8
    _line(4, ok, f"worst rewrite residual {worst:.2e}")


def test_criterion_05_gradient_exactness():
    grid = Grid3(11, 11, 11)
    eps = 0.5
    mat = Material(prestrain=PrestrainModel(B1=np.diag([0.3, 0.0, 0.0])))
    rng = np.random.default_rng(105)
    y = flat_deformation(grid, eps) + 0.01 * rng.standard_normal(grid.shape + (3,))
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-12)
    gm = grad_M_eps(y, grid, eps, mat)
    gf = grad_y_F_eps(y, phi, grid, eps, mat)
    step = 1e-6
    worst_m = 0.0
    worst_f = 0.0
    for _ in range(20):
        idx = tuple(rng.integers(0, s) for s in grid.shape) + (int(rng.integers(0, 3)),)
        yp = y.copy()
        yp[idx] += step
        ym = y.copy()
        ym[idx] -= step
        fd_m = (M_eps(yp, grid, eps, mat) - M_eps(ym, grid, eps, mat)) / (2.0 * step)
        fd_f = (F_eps(yp, phi, grid, eps, mat) - F_eps(ym, phi, grid, eps, mat)) / (2.0 * step)
        worst_m = max(worst_m, abs(fd_m - gm[idx]) / max(np.max(np.abs(gm)), 1.0))
        worst_f = max(worst_f, abs(fd_f - gf[idx]) / max(np.max(np.abs(gf)), 1.0))
    ok = worst_m <= 1e-5 and worst_f <= 1e-5
    _line(5, ok, f"mech grad dev {worst_m:.2e}, coupled grad dev {worst_f:.2e}")


def test_criterion_06_recovery_convergence(bending_sweep):
    rows = bending_sweep
    errs = [abs(r.Mel_scaled / r.M0 - 1.0) for r in rows]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    final_ok = errs[-1] <= 0.1
    hyper = np.array([r.hyper for r in rows])
    eps = np.array([r.eps for r in rows])
    slope = float(np.polyfit(np.log(eps), np.log(hyper), 1)[0])
    mat = Material()
    slope_floor = mat.hyper.alpha_h - 2.0 - 2.0 * mat.hyper.q_h - 0.5
    ok = decreasing and final_ok and slope >= slope_floor
    _line(
        6,
        ok,
        f"mech ratio errors {['%.4f' % e for e in errs]}, hyper slope {slope:.2f} >= {slope_floor:.2f}",
    )


def test_criterion_07_electrostatic_limit(bending_sweep):
    rows = bending_sweep
    gaps = [abs(r.E_eps - r.E0) for r in rows]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.1 * abs(rows[-1].E0)
    ok = decreasing and final_ok
    _line(7, ok, f"elec gaps {['%.2e' % g for g in gaps]}, limit {0.1 * abs(rows[-1].E0):.2e}")


def test_criterion_08_apriori_scaling(bending_sweep):
    rows = bending_sweep
    ratio = rows[-1].d2_ratio / rows[-2].d2_ratio
    factor_ok = 0.5 < ratio < 2.0
    det_ok = all(r.min_det > 0.0 for r in rows)
    pw = [r.pW_norm for r in rows]
    pw_ok = max(pw) / min(pw) <= 3.0
    ok = factor_ok and det_ok and pw_ok
    _line(
        8,
        ok,
        f"d2 ratio change {ratio:.3f}, min det {min(r.min_det for r in rows):.3f}, "
        f"pW spread {max(pw) / min(pw):.3f}",
    )


def test_criterion_09_saddle_certification():
    # coupled anisotropic 2D configuration: curved initial profile, bending
    # prestrain, default anisotropic permittivity
    mat = Material(prestrain=PrestrainModel(B1=np.array([[0.5, 0, 0], [0, 0, 0], [0, 0, 0]])))
    grid2 = Grid2(65, 17)
    theta0 = 0.5 * np.cos(np.pi * grid2.x1)
    rq = RelaxedQ2(Q3_form(mat.elastic), mat.prestrain)
    y0, phi, history, converged = saddle_iterate_2d(
        theta0, grid2, mat, iters=300, tol=1e-8, rq=rq, solver_tol=1e-12
    )

    def F(theta, p):
        return F0(CylindricalIsometry(grid2, theta), p, mat, rq)

    probes = saddle_probe(F, (y0.theta, phi), n_probes=50, radius=1e-3, rng=np.random.default_rng(109))
    ok2d = converged and probes["phi_side"] <= 1e-10 and probes["y_side"] <= 1e-8

    # 3D alternation: the potential step must stay an exact maximizer throughout
    grid3 = Grid3(13, 13, 7)
    mat3 = Material()
    y_init = flat_deformation(grid3, 0.25)
    _, _, hist3, _ = solve3d_alternating(
        grid3, 0.25, mat3, y_init, poisson_tol=1e-10, grad_tol=1e-9, max_iters=8
    )
    worst3d = float(np.max(hist3[:, 5]))
    ok = ok2d and worst3d <= 1e-8
    _line(
        9,
        ok,
        f"2D probes phi {probes['phi_side']:.2e} / y {probes['y_side']:.2e}, "
        f"3D phi-step worst {worst3d:.2e}",
    )


def test_criterion_10_mollifier():
    grid = Grid3(17, 17, 9)
    d = np.zeros(grid.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * grid.x1)[:, None, None]
    qh = 4.0
    tau = 0.5 * qh
    gaps = []
    optimal = True
    for eps in (0.25, 0.125, 0.0625):
        v, info = mollify_field(d, grid, eps, q_h=qh, iters=500, grad_tol=1e-8)
        gaps.append(info["l2_gap"])
        optimal = optimal and (
            mollifier_objective(v, d, grid, eps, tau, qh)
            <= mollifier_objective(d, d, grid, eps, tau, qh) + 1e-15
        )
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and optimal
    _line(10, ok, f"l2 gaps {['%.4f' % g for g in gaps]}, objective never above start: {optimal}")


def test_criterion_11_negative_controls(bending_sweep):
    rows = bending_sweep
    report = check_conditions(rows, targets=(rows[-1].M0 + 1.0, rows[-1].E0, rows[-1].F0))
    control1 = not report["pass"] and not report["mech_lower"]["pass"]

    # deliberately non-optimal potential must show a positive phi-side violation
    mat = Material()
    grid2 = Grid2(33, 9)
    y0 = CylindricalIsometry(grid2, 0.5 * grid2.x1)
    phi = solve_potential2(y0, mat, tol=1e-12)
    rq = RelaxedQ2(Q3_form(mat.elastic), mat.prestrain)

    def F(theta, p):
        return F0(CylindricalIsometry(grid2, theta), p, mat, rq)

    bad = phi + 0.05 * np.sin(2.0 * np.pi * grid2.x1)[:, None]
    probes = saddle_probe(F, (y0.theta, bad), n_probes=50, radius=1e-3, rng=np.random.default_rng(111), sides=("phi",))
    control2 = probes["phi_side"] > 0.0
    ok = control1 and control2
    _line(11, ok, f"wrong-target fail {control1}, non-optimal potential violation {probes['phi_side']:.2e}")
