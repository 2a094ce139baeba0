import warnings

import hessian27
import numpy as np
import pytest

from thinvolt import elastic3d, fields
from thinvolt.elastic3d import (
    F_eps,
    M_eps,
    M_eps_parts,
    apriori_report,
    flat_deformation,
    grad_M_eps,
    grad_y_F_eps,
)
from thinvolt.electro3d import assemble_poisson3, solve_potential3
from thinvolt.fields import Grid3
from thinvolt.material import Material, PrestrainModel, Q3_form, dW_el, maxwell_stress_moment
from thinvolt.smallmat import det3, random_rotation

_B1 = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.0], [0.0, 0.0, 0.0]])


def _gentle_bend(grid, eps, amp=0.05):
    # smooth non-flat deformation staying well inside the orientation region
    y = flat_deformation(grid, eps)
    x1 = grid.x1[:, None, None]
    x3 = grid.x3[None, None, :]
    y = y.copy()
    y[..., 2] += eps * amp * np.sin(np.pi * x1) * np.ones_like(y[..., 2])
    y[..., 0] += eps * eps * amp * x3 * np.cos(np.pi * x1)
    return y


def test_flat_energy_vanishes():
    grid = Grid3(6, 5, 4)
    for eps in (1.0, 0.25, 0.0625):
        y = flat_deformation(grid, eps)
        assert abs(M_eps(y, grid, eps, Material())) < 1e-14
        el, hyp = M_eps_parts(y, grid, eps, Material())
        assert abs(el) < 1e-14 and hyp < 1e-30


def test_rotated_states_have_equal_energy():
    grid = Grid3(5, 5, 4)
    eps = 0.5
    mat = Material()
    rng = np.random.default_rng(2)
    y = _gentle_bend(grid, eps)
    base = M_eps(y, grid, eps, mat)
    assert np.isfinite(base) and base > 0.0
    for _ in range(5):
        R = random_rotation(rng)
        rotated = y @ R.T
        assert abs(M_eps(rotated, grid, eps, mat) - base) < 1e-10 * max(base, 1.0)
    # rigid rotations of the flat state cost nothing
    yR = flat_deformation(grid, eps) @ random_rotation(rng).T
    assert abs(M_eps(yR, grid, eps, mat)) < 1e-13


def test_translation_invariance():
    grid = Grid3(5, 4, 4)
    eps = 0.5
    mat = Material()
    y = _gentle_bend(grid, eps)
    shifted = y + np.array([0.3, -1.2, 0.7])
    a, b = M_eps(y, grid, eps, mat), M_eps(shifted, grid, eps, mat)
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_constant_prestrain_taylor_limit():
    # flat state against M = I + eps B0: energy density is the quadratic
    # expansion (1/2) Q3(B0) up to O(eps)
    B0 = np.diag([0.3, -0.2, 0.1])
    mat = Material(prestrain=PrestrainModel(B0=B0))
    grid = Grid3(5, 5, 4)
    eps = 1e-3
    want = 0.5 * Q3_form(mat.elastic)(B0)
    got = M_eps(flat_deformation(grid, eps), grid, eps, mat)
    assert abs(got - want) < 0.01 * want


def test_cached_prestrain_factors_are_keyed_by_b0_and_b1():
    # one grid shared by materials that differ only in B1 or in B0: each gets
    # its own M_eps, equal to the value on a fresh grid
    grid = Grid3(5, 5, 4)
    eps = 0.25
    y = _gentle_bend(grid, eps)
    mats = [
        Material(prestrain=PrestrainModel(B1=_B1)),
        Material(prestrain=PrestrainModel(B1=0.5 * _B1)),
        Material(prestrain=PrestrainModel(B0=np.diag([0.1, 0.0, 0.0]), B1=_B1)),
        Material(),
    ]
    values = [M_eps(y, grid, eps, mat) for mat in mats]
    for i, mat in enumerate(mats):
        fresh = Grid3(*grid.shape)
        assert M_eps(y, fresh, eps, mat) == values[i]
        for j in range(i):
            assert values[i] != values[j]


def test_elastic_thickness_quadrature_against_refined_rule():
    # independent 4-point Gauss rule per cell in the thickness direction
    grid = Grid3(6, 5, 5)
    eps = 0.25
    mat = Material(prestrain=PrestrainModel(B1=_B1))
    y = _gentle_bend(grid, eps, amp=0.08)
    el, _ = M_eps_parts(y, grid, eps, mat)
    zq = 0.5 + 0.5 * np.array(
        [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
    )
    wq = 0.5 * np.array(
        [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
    )
    from thinvolt.material import W_el
    from thinvolt.smallmat import det3, inv3

    total = 0.0
    for z, w in zip(zq, wq):
        F = fields.scaled_gradient(y, grid, eps, point=(0.5, 0.5, z))
        t = grid.c3 + (z - 0.5) * grid.h3
        M = np.eye(3) + eps * mat.prestrain.B(t)
        Wd = W_el(F @ np.broadcast_to(inv3(M), (1, 1) + M.shape), mat.elastic)
        total += w * fields.integrate3(Wd * np.broadcast_to(det3(M), (1, 1, len(t))), grid)
    oracle = total / (eps * eps)
    assert abs(el - oracle) < 1e-4 * max(abs(oracle), 1.0)


def test_energy_infinite_past_orientation_loss():
    grid = Grid3(4, 4, 4)
    eps = 0.5
    y = flat_deformation(grid, eps)
    y[..., 2] *= -1.0
    assert M_eps(y, grid, eps, Material()) == np.inf
    with pytest.raises(ValueError):
        grad_M_eps(y, grid, eps, Material())
    with pytest.raises(ValueError):
        M_eps(flat_deformation(grid, eps), grid, 0.0, Material())


def test_grad_m_eps_matches_finite_differences():
    grid = Grid3(4, 4, 4)
    eps = 0.5
    mat = Material(prestrain=PrestrainModel(B1=_B1))
    rng = np.random.default_rng(7)
    y = flat_deformation(grid, eps) + 0.01 * rng.standard_normal(grid.shape + (3,))
    g = grad_M_eps(y, grid, eps, mat)
    assert abs(g.sum(axis=(0, 1, 2)).max()) < 1e-10
    step = 1e-6
    scale = np.max(np.abs(g))
    for _ in range(20):
        idx = tuple(rng.integers(0, s) for s in grid.shape) + (int(rng.integers(0, 3)),)
        yp = y.copy()
        yp[idx] += step
        ym = y.copy()
        ym[idx] -= step
        fd = (M_eps(yp, grid, eps, mat) - M_eps(ym, grid, eps, mat)) / (2.0 * step)
        assert abs(fd - g[idx]) < 1e-5 * max(scale, 1.0)


def test_grad_y_f_eps_matches_finite_differences():
    grid = Grid3(4, 4, 4)
    eps = 0.5
    mat = Material()
    rng = np.random.default_rng(11)
    y = flat_deformation(grid, eps) + 0.01 * rng.standard_normal(grid.shape + (3,))
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-12)
    g = grad_y_F_eps(y, phi, grid, eps, mat)
    step = 1e-6
    scale = np.max(np.abs(g))
    for _ in range(15):
        idx = tuple(rng.integers(0, s) for s in grid.shape) + (int(rng.integers(0, 3)),)
        yp = y.copy()
        yp[idx] += step
        ym = y.copy()
        ym[idx] -= step
        fd = (F_eps(yp, phi, grid, eps, mat) - F_eps(ym, phi, grid, eps, mat)) / (2.0 * step)
        assert abs(fd - g[idx]) < 1e-5 * max(scale, 1.0)


def test_grad_y_f_eps_is_the_27_entry_expression_to_the_bit():
    # grad_M_eps scatters c H over the six Hessian pairs, c = w * scale; the
    # expression on the 27-entry Hessian it replaced scattered (w H) * scale.
    # Both round alike where scale = cell volume / eps^2 is a power of two,
    # as on every shipped and bench grid: 2^-7 here, solve3d-coupled's 17x17x9
    # at eps 1/4. Elsewhere the last bit may differ.
    grid = Grid3(17, 17, 9)
    eps = 0.25
    scale = grid.cell_volume / (eps * eps)
    assert scale == 2.0**-7
    mat = Material(prestrain=PrestrainModel(B0=0.5 * _B1, B1=_B1))
    y = _gentle_bend(grid, eps, amp=0.08) + 1e-3 * eps * np.random.default_rng(4).standard_normal(grid.shape + (3,))
    phi = solve_potential3(assemble_poisson3(y, grid, eps, mat), tol=1e-12)
    g = None
    for w, z, arg, Minv, detM in elastic3d._gauss_points(y, grid, eps, mat):
        S = elastic3d._layer_matmul(dW_el(arg, mat.elastic), np.ascontiguousarray(np.swapaxes(Minv, -1, -2)))
        S *= (detM * w * scale)[:, None, None]
        piece = fields.gradient_scatter(S, grid, eps, point=(0.5, 0.5, z))
        g = piece if g is None else g + piece
    G = hessian27.hessian(y, grid, eps)
    W = hessian27.dH_hyper(G, eps, mat.hyper)
    assert np.all(W[..., 0, 1, :] != 0.0)
    W *= scale
    g += hessian27.scatter(W, grid, eps)
    g = g - g.mean(axis=(0, 1, 2))
    assert np.array_equal(grad_M_eps(y, grid, eps, mat), g)
    F = fields.scaled_gradient(y, grid, eps)
    G2 = fields.gradient_second_moments(phi, grid, eps)
    g += fields.gradient_scatter(mat.coupling.beta * maxwell_stress_moment(F, mat.permittivity.k, G2), grid, eps)
    assert np.array_equal(grad_y_F_eps(y, phi, grid, eps, mat), g - g.mean(axis=(0, 1, 2)))


def test_f_eps_saddle_signs():
    # F = M - E decreases under potential perturbations away from the solve
    grid = Grid3(5, 5, 4)
    eps = 0.5
    mat = Material()
    y = _gentle_bend(grid, eps)
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-12)
    base = F_eps(y, phi, grid, eps, mat)
    rng = np.random.default_rng(13)
    for _ in range(20):
        dphi = 1e-3 * rng.standard_normal(grid.shape)
        assert F_eps(y, phi + dphi, grid, eps, mat) <= base + 1e-12


def test_apriori_report_flat_state():
    grid = Grid3(6, 5, 4)
    eps = 0.25
    mat = Material()
    y = flat_deformation(grid, eps)
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-10)
    dist2, pw_norm, min_det = apriori_report(y, phi, grid, eps, mat)
    assert dist2 < 1e-14
    assert abs(min_det - 1.0) < 1e-12
    assert pw_norm > 0.0


def test_prestrain_layer_product_is_the_broadcast_stacked_product():
    # one GEMM per x3 layer equals the broadcast (1, 1, nc3, 3, 3) stacked matmul bit for bit
    grid = Grid3(5, 6, 7)
    eps = 0.3
    mat = Material(prestrain=PrestrainModel(B0=0.5 * _B1, B1=_B1))
    y = _gentle_bend(grid, eps, amp=0.08)
    points = list(elastic3d._gauss_points(y, grid, eps, mat))
    assert len(points) == 2
    for _, z, arg, Minv, detM in points:
        assert Minv.shape == (grid.cshape[2], 3, 3) and detM.shape == (grid.cshape[2],)
        G = fields.scaled_gradient(y, grid, eps, point=(0.5, 0.5, z))
        assert np.array_equal(arg, G @ np.broadcast_to(Minv, (1, 1) + Minv.shape))
    rng = np.random.default_rng(3)
    A = rng.standard_normal(grid.cshape + (3, 3))
    B = rng.standard_normal((grid.cshape[2], 3, 3))
    want = A @ np.swapaxes(B, -1, -2)[None, None]
    assert np.array_equal(elastic3d._layer_matmul(A.copy(), np.ascontiguousarray(np.swapaxes(B, -1, -2))), want)


def test_grad_M_eps_raises_on_one_inverted_cell_region():
    # one node pushed through the layer above it inverts 4 of the 48 cells and
    # leaves the rest oriented: the energy is +inf and the gradient raises
    grid = Grid3(5, 5, 4)
    eps = 0.5
    y = flat_deformation(grid, eps)
    y[2, 2, 1, 2] = 2.0 * eps
    det = det3(fields.scaled_gradient(y, grid, eps))
    assert np.count_nonzero(det <= 0.0) == 4 and det.size == 48
    assert M_eps(y, grid, eps, Material()) == np.inf
    with pytest.raises(ValueError, match="det F must be positive"):
        grad_M_eps(y, grid, eps, Material())


def test_squashed_but_oriented_deformation_has_infinite_energy_without_warning():
    # det grad_eps y = 1e-25 > 0: the barrier h(det) overflows, so M_eps is +inf, not a RuntimeWarning
    grid = Grid3(5, 5, 4)
    eps = 0.5
    y = flat_deformation(grid, eps)
    y[..., 2] *= 1e-25
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert M_eps(y, grid, eps, Material()) == np.inf
        with pytest.raises(ValueError):
            grad_M_eps(y, grid, eps, Material())
