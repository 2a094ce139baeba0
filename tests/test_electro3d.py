import gc
import itertools
import math
import os
import weakref

import numpy as np
import pytest

from thinvolt import fields
from thinvolt.cg import SolverError, _project, pcg
from thinvolt.electro3d import (
    METRIC_SHIFT,
    E_eps,
    PoissonSystem,
    assemble_poisson3,
    charge_load,
    check_pg0,
    electrostatic_energy,
    line_metric,
    solve_potential3,
    weak_form_residual,
)
from thinvolt.fields import Grid2, Grid3
from thinvolt.harness import RunConfig
from thinvolt.material import (
    ChargeModel,
    CouplingConstants,
    ElasticParams,
    Material,
    PermittivityModel,
    kappa_pullback,
)

_ELASTIC = ElasticParams(q_w=26.0)


def _material(k=None, beta=1.0, gamma=1.0, charge=None):
    return Material(
        elastic=_ELASTIC,
        permittivity=PermittivityModel(k=np.eye(3) if k is None else k),
        charge=ChargeModel() if charge is None else charge,
        coupling=CouplingConstants(beta=beta, gamma=gamma),
    )


def _flat_y(grid, eps):
    # nodal deformation with scaled gradient exactly the identity
    X = np.stack(np.meshgrid(grid.x1, grid.x2, grid.x3, indexing="ij"), axis=-1)
    y = X.copy()
    y[..., 2] *= eps
    return y


def _affine_y(grid, eps, F0):
    X = np.stack(np.meshgrid(grid.x1, grid.x2, grid.x3, indexing="ij"), axis=-1)
    A = F0 @ np.diag([1.0, 1.0, eps])
    return X @ A.T


def _assemble_1d(n, h):
    # assembled 1D stiffness and mass for hat functions on a uniform grid
    S = np.zeros((n, n))
    M = np.zeros((n, n))
    for c in range(n - 1):
        S[c : c + 2, c : c + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[c : c + 2, c : c + 2] += h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    return S, M


def _dense_constant_coef_stiffness(grid, eps, coef):
    """Dense trilinear-FEM stiffness for a constant coefficient.

    Tensor products of exact 1D element integrals with separate corner
    bookkeeping; no code shared with the assembly under test.
    """
    n1, n2, n3 = grid.shape
    hs = (grid.h1, grid.h2, grid.h3)
    alpha = np.array([1.0, 1.0, 1.0 / eps])
    elem = []
    for hd in hs:
        S = np.array([[1.0, -1.0], [-1.0, 1.0]]) / hd
        M = hd * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        C = np.array([[-0.5, -0.5], [0.5, 0.5]])  # row side carries the derivative
        elem.append((S, M, C))
    corners = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    loc = np.zeros((8, 8))
    for i in range(3):
        for j in range(3):
            w = coef[i, j] * alpha[i] * alpha[j]
            fac = []
            for d in range(3):
                S, M, C = elem[d]
                if d == i and d == j:
                    fac.append(S)
                elif d == i:
                    fac.append(C)
                elif d == j:
                    fac.append(C.T)
                else:
                    fac.append(M)
            for a, (a1, a2, a3) in enumerate(corners):
                for b, (b1, b2, b3) in enumerate(corners):
                    loc[a, b] += w * fac[0][a1, b1] * fac[1][a2, b2] * fac[2][a3, b3]

    def nid(i, j, k):
        return (i * n2 + j) * n3 + k

    N = n1 * n2 * n3
    K = np.zeros((N, N))
    for ci in range(n1 - 1):
        for cj in range(n2 - 1):
            for ck in range(n3 - 1):
                ids = [nid(ci + a1, cj + a2, ck + a3) for (a1, a2, a3) in corners]
                K[np.ix_(ids, ids)] += loc
    return K


def test_flat_operator_matches_kronecker_oracle():
    grid = Grid3(5, 4, 3)
    eps, beta = 0.5, 1.3
    k = np.diag([1.0, 1.0, 4.0])
    mat = _material(k=k, beta=beta)
    system = assemble_poisson3(_flat_y(grid, eps), grid, eps, mat)
    S1, M1 = _assemble_1d(grid.n1, grid.h1)
    S2, M2 = _assemble_1d(grid.n2, grid.h2)
    S3, M3 = _assemble_1d(grid.n3, grid.h3)
    K = beta * (
        k[0, 0] * np.kron(S1, np.kron(M2, M3))
        + k[1, 1] * np.kron(M1, np.kron(S2, M3))
        + k[2, 2] / eps**2 * np.kron(M1, np.kron(M2, S3))
    )
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(K.shape[0])
        got = system.matvec(x)
        want = K @ x
        assert np.max(np.abs(got - want)) < 1e-12 * max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(system.diag.ravel() - np.diagonal(K))) < 1e-12


def test_affine_operator_matches_dense_assembly():
    grid = Grid3(4, 4, 4)
    eps, beta = 0.7, 0.9
    k = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 3.0]])
    rng = np.random.default_rng(3)
    F0 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    assert np.linalg.det(F0) > 0.3
    mat = _material(k=k, beta=beta)
    system = assemble_poisson3(_affine_y(grid, eps, F0), grid, eps, mat)
    coef = beta * kappa_pullback(F0, k)
    K = _dense_constant_coef_stiffness(grid, eps, coef)
    for _ in range(10):
        x = rng.standard_normal(K.shape[0])
        got = system.matvec(x)
        want = K @ x
        assert np.max(np.abs(got - want)) < 1e-11 * max(np.max(np.abs(want)), 1.0)
        eq = 0.5 * x @ system.matvec(x)
        assert abs(eq - 0.5 * x @ K @ x) < 1e-11 * max(abs(eq), 1.0)


def test_operator_kernel_and_symmetry():
    grid = Grid3(5, 4, 4)
    eps = 0.3
    mat = _material(k=np.diag([1.0, 2.0, 3.0]))
    system = assemble_poisson3(_flat_y(grid, eps), grid, eps, mat)
    ones = np.ones(np.prod(grid.shape))
    scale = np.max(np.abs(system.diag))
    assert np.max(np.abs(system.matvec(ones))) < 1e-12 * scale
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(ones.size)
        z = rng.standard_normal(ones.size)
        assert abs(x @ system.matvec(z) - z @ system.matvec(x)) < 1e-11 * scale
    assert np.all(system.diag > 0.0)


def _cell_einsum_apply(Kloc, phi, grid):
    # per-cell dense apply: gather each cell's corner values, multiply by its
    # local stiffness and add the products back into the corner nodes
    corners = itertools.product((0, 1), repeat=len(grid.shape))
    cells = [tuple(slice(c, n - 1 + c) for c, n in zip(corner, grid.shape)) for corner in corners]
    KU = np.einsum("...ab,...b->...a", Kloc, np.stack([phi[c] for c in cells], axis=-1))
    out = np.zeros(grid.shape)
    for a, c in enumerate(cells):
        out[c] += KU[..., a]
    return out


@pytest.mark.parametrize("grid", [Grid2(7, 5), Grid3(5, 4, 6)], ids=["grid2", "grid3"])
def test_stencil_apply_matches_cell_einsum_for_varying_coefficient(grid):
    # a coefficient that differs from cell to cell, with off-diagonal
    # entries: a stencil array shifted by one node changes the result
    dim = len(grid.shape)
    rng = np.random.default_rng(41)
    B = rng.standard_normal(grid.cshape + (dim, dim))
    coef = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(dim)
    system = PoissonSystem(grid, coef, np.zeros(grid.shape), eps=0.1)
    for _ in range(5):
        phi = rng.standard_normal(grid.shape)
        want = _cell_einsum_apply(system.Kloc, phi, grid)
        assert np.max(np.abs(system.apply(phi) - want)) <= 1e-14 * np.max(np.abs(want))


def _stencil_from_cell_stiffness(Kloc, grid):
    # reference assembly: each entry K_ab of the per-cell stiffness, read out
    # of the (a, b) block, added into the offset from corner a to corner b, in
    # corner-loop order
    dim = len(grid.shape)
    corners = list(itertools.product((0, 1), repeat=dim))
    stencil = {}
    for a, ca in enumerate(corners):
        cells = tuple(slice(p, n - 1 + p) for p, n in zip(ca, grid.shape))
        for b, cb in enumerate(corners):
            o = tuple(q - p for p, q in zip(ca, cb))
            if o >= (0,) * dim:
                stencil.setdefault(o, np.zeros(grid.shape))[cells] += Kloc[..., a, b]
    return dict(sorted(stencil.items()))


@pytest.mark.parametrize("eps", [1.0, 0.3, 1.0 / 32])
@pytest.mark.parametrize("grid", [Grid2(7, 5), Grid2(3, 3), Grid3(5, 4, 6), Grid3(9, 8, 5)], ids=["grid2", "grid2-coarsest", "grid3", "grid3-wide"])
def test_stencil_from_the_coefficient_is_the_cell_stiffness_scatter_to_the_bit(grid, eps):
    # an anisotropic coefficient that differs from cell to cell
    dim = len(grid.shape)
    rng = np.random.default_rng(43)
    B = rng.standard_normal(grid.cshape + (dim, dim))
    coef = B @ np.swapaxes(B, -1, -2) + np.diag(np.arange(1.0, dim + 1.0))
    system = PoissonSystem(grid, coef, np.zeros(grid.shape), eps=eps)
    want = _stencil_from_cell_stiffness(fields.local_stiffness(coef, grid, eps), grid)
    assert list(system.stencil) == list(want)
    for o, S in want.items():
        assert np.array_equal(system.stencil[o], S), o


def test_cell_stiffness_and_line_factors_are_built_on_demand():
    grid = Grid3(6, 5, 4)
    eps = 0.25
    rng = np.random.default_rng(44)
    y = _affine_y(grid, eps, np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
    mat = _material(k=np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 3.0]]))
    system = assemble_poisson3(y, grid, eps, mat)
    # an energy-only system never factors its x3 lines
    E = electrostatic_energy(*system.energy_parts(rng.standard_normal(grid.shape)))
    assert np.isfinite(E)
    assert "_line_factors" not in vars(system)
    system.solve(tol=1e-10)
    assert "_line_factors" in vars(system)
    # a solved system has no cell stiffness until it is asked for
    assert "Kloc" not in vars(system)
    assert np.array_equal(system.Kloc, fields.local_stiffness(system.coef, grid, eps))
    assert "Kloc" in vars(system)


def test_cached_charge_load_is_keyed_by_the_charge_model_and_gamma():
    # one grid shared by materials that differ only in the charge amplitude
    # or in gamma: each gets its own load, equal to the load on a fresh grid
    grid = Grid3(6, 5, 4)
    eps = 0.4
    mats = [
        _material(gamma=1.7, charge=ChargeModel(mode="cosine", amplitude=0.8)),
        _material(gamma=1.7, charge=ChargeModel(mode="cosine", amplitude=1.1)),
        _material(gamma=0.9, charge=ChargeModel(mode="cosine", amplitude=0.8)),
        _material(gamma=1.7, charge=ChargeModel(mode="constant", amplitude=0.8)),
    ]
    loads = [assemble_poisson3(_flat_y(grid, eps), grid, eps, mat).b_raw for mat in mats]
    for i, mat in enumerate(mats):
        fresh = Grid3(*grid.shape)
        assert np.array_equal(loads[i], assemble_poisson3(_flat_y(fresh, eps), fresh, eps, mat).b_raw)
        for j in range(i):
            assert not np.array_equal(loads[i], loads[j])
    assert not loads[0].flags.writeable


def test_charge_load_compatibility_shift():
    grid = Grid3(6, 5, 4)
    eps, gamma = 0.4, 1.7
    mat = _material(gamma=gamma, charge=ChargeModel(mode="constant", amplitude=0.8))
    system = assemble_poisson3(_flat_y(grid, eps), grid, eps, mat)
    # raw load integrates the charge: gamma * amplitude * |domain|
    assert abs(system.b_raw.sum() - gamma * 0.8) < 1e-13
    assert abs(system.b.sum()) < 1e-13
    mat2 = _material(gamma=gamma, charge=ChargeModel(mode="cosine", amplitude=1.0))
    system2 = assemble_poisson3(_flat_y(grid, eps), grid, eps, mat2)
    assert abs(system2.b.sum()) < 1e-13


def test_assembly_rejects_inverted_cells():
    grid = Grid3(4, 4, 4)
    eps = 0.5
    y = _flat_y(grid, eps)
    y[..., 2] *= -1.0
    with pytest.raises(ValueError):
        assemble_poisson3(y, grid, eps, _material())


def test_manufactured_solution_convergence():
    # flat plate, identity permittivity: -beta lap(phi) = gamma cos(pi x1)
    # has the closed-form zero-mean solution gamma cos(pi x1) / (beta pi^2)
    beta, gamma = 2.0, 1.5
    errs = []
    for n in (9, 17, 33):
        grid = Grid3(n, n, n)
        mat = _material(beta=beta, gamma=gamma)
        system = assemble_poisson3(_flat_y(grid, 1.0), grid, 1.0, mat)
        phi = solve_potential3(system, tol=1e-12)
        exact = gamma * np.cos(np.pi * grid.x1)[:, None, None] / (beta * np.pi**2)
        exact = np.broadcast_to(exact, grid.shape)
        w = np.einsum("i,j,k->ijk", grid.w1, grid.w2, grid.w3)
        errs.append(np.sqrt(np.sum(w * (phi - exact) ** 2)))
    order01 = np.log2(errs[0] / errs[1])
    order12 = np.log2(errs[1] / errs[2])
    assert order01 > 1.8
    assert order12 > 1.8


def test_solve_gauge_and_restart_uniqueness():
    # a cold solve and a random restart both end within the gap certificate
    # of the dense solution (the restart stops at the gap, 3.3e-9 away in
    # nodal values)
    from thinvolt.cg import GAP_TOL

    grid = Grid3(9, 8, 5)
    eps = 0.25
    mat = _material(k=np.diag([1.0, 1.0, 4.0]))
    system = assemble_poisson3(_flat_y(grid, eps), grid, eps, mat)
    x_star = _dense_solution(system)
    energy = electrostatic_energy(*system.energy_parts(x_star.reshape(grid.shape)))
    phi_a = solve_potential3(system, tol=1e-12)
    rng = np.random.default_rng(9)
    phi_b = solve_potential3(system, tol=1e-12, x0=rng.standard_normal(grid.shape))
    for phi in (phi_a, phi_b):
        assert _exact_gap(system, phi.ravel(), x_star) <= GAP_TOL * (1.0 + abs(energy))
        assert np.max(np.abs(phi.ravel() - x_star)) < 1e-8
    assert np.max(np.abs(phi_a.ravel() - x_star)) < 1e-13
    assert abs(np.sum(system.weights * phi_a)) < 1e-13
    y = _flat_y(grid, eps)
    assert check_pg0(y, phi_a, grid, eps, mat) < 1e-8


def test_energy_identity_at_solved_potential():
    # at the solved potential the energy reduces to minus half the charge moment
    grid = Grid3(9, 9, 5)
    eps, beta, gamma = 0.5, 1.2, 0.8
    mat = _material(k=np.diag([1.0, 1.0, 4.0]), beta=beta, gamma=gamma)
    y = _flat_y(grid, eps)
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-12)
    nc = mat.charge.n_ch(grid.c1)[:, None, None]
    phibar = fields.corner_gather(phi, grid).mean(axis=3)
    moment = grid.cell_volume * float(np.sum(nc * phibar))
    E = E_eps(y, phi, grid, eps, mat)
    assert abs(E + 0.5 * gamma * moment) < 1e-10 * (1.0 + abs(E))
    # energy must decrease when the potential is perturbed away from the solve
    rng = np.random.default_rng(12)
    for _ in range(10):
        dphi = 1e-3 * rng.standard_normal(grid.shape)
        assert E_eps(y, phi + dphi, grid, eps, mat) >= E - 1e-12


def _gauss_parts(system, density, gamma, phi):
    # reference: the Gauss-rule second moments against the coefficient, and
    # the center-rule charge moment, cell by cell
    grid = system.grid
    quad = float(np.sum(system.coef * fields.gradient_second_moments(phi, grid, system.eps)))
    phibar = fields.corner_gather(phi, grid).mean(axis=-1)
    return quad, gamma * math.prod(grid.spacing) * float(np.sum(density * phibar))


def _curved_system(dim):
    rng = np.random.default_rng(23)
    if dim == 2:
        grid = Grid2(17, 9)
        gamma = 0.8
        B = rng.standard_normal(grid.cshape + (2, 2))
        density = np.cos(np.pi * grid.c1)[:, None]
        system = PoissonSystem(grid, 1.3 * (B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(2)), charge_load(density, grid, gamma))
        return system, density, gamma, system.solve(tol=1e-12)
    grid = Grid3(9, 7, 5)
    eps = 1.0 / 32.0
    mat = _material(k=np.diag([1.0, 1.0, 4.0]), beta=1.3, gamma=0.8)
    y = _affine_y(grid, eps, np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
    system = assemble_poisson3(y, grid, eps, mat)
    density = mat.charge.n_ch(grid.c1)[:, None, None]
    return system, density, mat.coupling.gamma, solve_potential3(system, tol=1e-12)


@pytest.mark.parametrize("dim", [2, 3], ids=["grid2", "grid3"])
def test_energy_parts_match_gauss_quadrature(dim):
    # the edge-difference quadratic form and the load pairing are the Gauss
    # and center rules of the assembly, at a random and at a solved potential
    system, density, gamma, solved = _curved_system(dim)
    rng = np.random.default_rng(24)
    for phi in (rng.standard_normal(system.grid.shape), solved):
        got = system.energy_parts(phi)
        want = _gauss_parts(system, density, gamma, phi)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)
    quad, moment = system.energy_parts(solved)
    assert weak_form_residual(quad, moment) < 1e-10


@pytest.mark.parametrize("dim", [2, 3], ids=["grid2", "grid3"])
def test_energy_parts_equal_the_per_offset_loop_to_the_bit(dim):
    # energy_parts squares each offset's differences in one scratch buffer;
    # the sums are the pairwise add.reduce of a fresh difference array per
    # offset
    system, _, _, solved = _curved_system(dim)
    x = np.ravel(np.random.default_rng(28).standard_normal(system.grid.shape))
    for phi in (x.reshape(system.grid.shape), solved):
        flat = np.ravel(phi)
        quad = 0.0
        for d, s in system._shifts:
            e = flat[:-d] - flat[d:]
            quad -= float(np.add.reduce(s * (e * e)))
        assert system.energy_parts(phi) == (quad, float(np.add.reduce(system.b_raw.ravel() * flat)))


def test_energy_evaluators_are_the_assembled_quadratic_form():
    grid = Grid3(9, 7, 5)
    eps = 1.0 / 32.0
    mat = _material(k=np.diag([1.0, 1.0, 4.0]), beta=1.3, gamma=0.8)
    y = _affine_y(grid, eps, np.eye(3) + 0.1 * np.random.default_rng(25).standard_normal((3, 3)))
    system = assemble_poisson3(y, grid, eps, mat)
    phi = solve_potential3(system, tol=1e-12)
    parts = system.energy_parts(phi)
    assert E_eps(y, phi, grid, eps, mat) == electrostatic_energy(*parts)
    assert check_pg0(y, phi, grid, eps, mat) == weak_form_residual(*parts)


def test_assembled_system_is_freed_without_cyclic_gc():
    # a system that refers to itself (say, through a closure stored on it)
    # lives until the cyclic collector runs, which holds every iterate's
    # assembly at once and raises the peak memory of a solve
    grid = Grid3(5, 5, 4)
    eps = 0.25
    system = assemble_poisson3(_flat_y(grid, eps), grid, eps, _material())
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_gradient_second_moments_consistency():
    grid = Grid3(6, 5, 4)
    eps = 0.6
    k = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.0]])
    beta = 1.4
    mat = _material(k=k, beta=beta)
    rng = np.random.default_rng(15)
    F0 = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    y = _affine_y(grid, eps, F0)
    phi = rng.standard_normal(grid.shape)
    G2 = fields.gradient_second_moments(phi, grid, eps)
    assert G2.shape == grid.cshape + (3, 3)
    assert np.max(np.abs(G2 - np.swapaxes(G2, -1, -2))) < 1e-13
    evals = np.linalg.eigvalsh(G2)
    assert np.min(evals) > -1e-12
    # contracting with the assembled coefficient reproduces the quadratic energy
    system = assemble_poisson3(y, grid, eps, mat)
    quad = 0.5 * float(np.sum(system.coef * G2))
    eq = 0.5 * phi.ravel() @ system.matvec(phi.ravel())
    assert abs(quad - eq) < 1e-11 * max(abs(eq), 1.0)
    # the per-cell product on a C-ordered copy of the transposed gradients is the one on the view, to the bit
    V = np.concatenate([fields.shape_gradients(grid, eps, pt) for pt in fields.gauss_points(3)], axis=1)
    gg = (fields.corner_gather(phi, grid).reshape(-1, 8) @ V).reshape(-1, 8, 3)
    want = math.prod(grid.spacing) / 8 * (np.swapaxes(gg, 1, 2) @ gg)
    assert np.array_equal(G2, want.reshape(G2.shape))


# ---------------------------------------------------------------------------
# iterative solver


def test_pcg_solves_singular_consistent_system():
    # path-graph Laplacian: kernel is the constants, like the assembled systems
    n = 40
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i : i + 2, i : i + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]])
    rng = np.random.default_rng(18)
    b = rng.standard_normal(n)
    b -= b.mean()
    d = np.diagonal(L).copy()
    x, hist = pcg(lambda v: L @ v, b, lambda r: r / d, tol=1e-12)
    assert np.linalg.norm(L @ x - b) <= 1e-11 * np.linalg.norm(b)
    assert abs(x.mean()) < 1e-12
    assert hist[-1] <= 1e-12


def test_pcg_zero_load_and_failure_modes():
    n = 10
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i : i + 2, i : i + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]])
    d = np.diagonal(L).copy()
    x, hist = pcg(lambda v: L @ v, np.zeros(n), lambda r: r / d, tol=1e-12)
    assert np.all(x == 0.0) and hist == [0.0]
    rng = np.random.default_rng(21)
    b = rng.standard_normal(n)
    with pytest.raises(SolverError) as err:
        pcg(lambda v: L @ v, b, lambda r: r / d, tol=1e-14, max_iter=1)
    assert len(err.value.residuals) >= 1


def test_pcg_projection_is_the_mean_subtraction_to_the_bit():
    rng = np.random.default_rng(17)
    for n in (1, 7, 8, 9, 1000, 12345):
        v = 1e3 + rng.standard_normal(n)
        got = v.copy()
        assert _project(got) is got
        assert np.array_equal(got, v - v.mean())


def _coupled_start_system(perturbation=0.0):
    # the potential system of configs/coupled.json at its largest eps, on the
    # lifted start, its x3 component moved by perturbation * sin(pi x1)
    from thinvolt.recovery import lift_deformation, optimal_corrector
    from thinvolt.relaxation import RelaxedQ2

    cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "coupled.json"))
    grid, eps = cfg.grid3(), cfg.eps_list[0]
    inputs = cfg.recovery_inputs(cfg.grid2())
    d = optimal_corrector(inputs, grid, RelaxedQ2.of(cfg.material))
    y = lift_deformation(inputs.isometry, eps, grid, inputs.g_matrix, d)
    y[..., 2] += perturbation * np.sin(np.pi * grid.x1)[:, None, None]
    return assemble_poisson3(y, grid, eps, cfg.material)


def _exact_gap(system, x, x_star):
    # J(x) - J(x*) = |x - x*|_K^2 / 2, summed in edge-difference form
    return 0.5 * system.energy_parts((x - x_star).reshape(system.grid.shape))[0]


def _dense_solution(system):
    # the zero-sum solution of K x = b by a dense solve: K + 11^T/n is
    # nonsingular, since the constants span K's kernel, and 1.b = 0 makes
    # its solution the zero-sum one
    n = system.b.size
    K = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        K[:, j] = system.matvec(e)
        e[j] = 0.0
    b = system.b.ravel()
    return np.linalg.solve(K + 1.0 / n, b - b.mean())


def test_pcg_gap_estimate_matches_the_exact_gap(monkeypatch):
    # over a cold solve from the lifted coupled.json start, half the delayed
    # sum of alpha_j r_j.z_j is the gap of the iterate GAP_DELAY steps back
    # to 10% from the fourth iterate on (11% at the third, where the
    # iteration is still far from its linear rate)
    from thinvolt import cg

    system = _coupled_start_system()
    x_star = _dense_solution(system)
    seen = []
    gap_closed = cg._gap_closed

    def recorded(x, r, b, terms):
        seen.append((x.copy(), cg._gap_estimate(terms)))
        return gap_closed(x, r, b, terms)

    monkeypatch.setattr(cg, "_gap_closed", recorded)
    pcg(system.matvec, system.b, system.precondition, tol=1e-14)
    iterates = [x for x, _ in seen]
    checked = 0
    for k, (_, estimate) in enumerate(seen[cg.GAP_DELAY + 1 :], start=cg.GAP_DELAY + 1):
        exact = _exact_gap(system, iterates[k - cg.GAP_DELAY], x_star)
        assert abs(estimate - exact) <= 0.1 * exact, (k, estimate, exact)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_pcg_returns_a_certified_potential(warm):
    # the returned potential's exact gap, against the dense solution, is
    # within GAP_TOL (1 + |E|) and its weak-form residual within
    # WEAK_FORM_TOL (1 + |moment|), before the residual falls to 1e-12; the
    # warm start is the potential of a deformation 1e-6 away, late-row
    # solve3d territory, where the gap alone would stop with a weak-form
    # residual near 1e-8
    from thinvolt.cg import GAP_TOL, WEAK_FORM_TOL

    system = _coupled_start_system(1e-6)
    x0 = _coupled_start_system().solve(tol=1e-14) if warm else None
    x_star = _dense_solution(system)
    x, hist = pcg(system.matvec, system.b, system.precondition, tol=1e-14, x0=x0)
    assert min(hist) > 1e-12
    telemetry = {"pcg_iterations": 1}
    phi = system.solve(tol=1e-14, x0=x0, telemetry=telemetry)
    assert telemetry["pcg_iterations"] == 1 + len(hist) - 1
    quad, moment = system.energy_parts(phi)
    energy = electrostatic_energy(quad, moment)
    assert _exact_gap(system, x, x_star) <= GAP_TOL * (1.0 + abs(energy))
    assert abs(quad - moment) <= WEAK_FORM_TOL * (1.0 + abs(moment))


@pytest.mark.parametrize("dim", [2, 3], ids=["grid2", "grid3"])
def test_system_rejects_a_nonpositive_diagonal(dim):
    # a zero coefficient gives a zero operator diagonal: no preconditioner exists
    grid = Grid2(5, 4) if dim == 2 else Grid3(5, 4, 3)
    coef = np.zeros(grid.cshape + (dim, dim))
    with pytest.raises(ValueError, match="diagonal must be positive"):
        PoissonSystem(grid, coef, np.zeros(grid.shape))


@pytest.mark.parametrize("dim", [2, 3], ids=["grid2", "grid3"])
def test_system_solve_is_pcg_with_its_own_preconditioner(dim):
    # the Grid2 system preconditions with Jacobi, the Grid3 system with its
    # x3-line blocks; solve is pcg with that preconditioner, then the gauge
    system, _, _, _ = _curved_system(dim)
    x0 = np.random.default_rng(26).standard_normal(system.grid.shape)
    for start in (None, x0):
        x, _ = pcg(system.matvec, system.b, system.precondition, tol=1e-12, x0=start)
        phi = x.reshape(system.grid.shape)
        want = phi - float(np.sum(system.weights * phi))
        assert np.array_equal(system.solve(tol=1e-12, x0=start), want)
    r = np.random.default_rng(27).standard_normal(system.grid.shape).ravel()
    if dim == 2:
        assert np.array_equal(system.precondition(r), r / system.diag.ravel())
    else:
        assert not np.allclose(system.precondition(r), r / system.diag.ravel())


# ---------------------------------------------------------------------------
# x3-line preconditioner


def test_line_blocks_match_dense_column_blocks():
    grid = Grid3(5, 4, 6)
    eps = 0.1
    k = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 3.0]])
    rng = np.random.default_rng(31)
    F0 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    y = _affine_y(grid, eps, F0) + 0.01 * eps * rng.standard_normal(grid.shape + (3,))
    system = assemble_poisson3(y, grid, eps, _material(k=k))
    n = int(np.prod(grid.shape))
    K = np.stack([system.matvec(e) for e in np.eye(n)], axis=1)
    n1, n2, n3 = grid.shape
    K_col = np.zeros_like(K)
    for i in range(n1):
        for j in range(n2):
            ids = np.ravel_multi_index((i, j, np.arange(n3)), grid.shape)
            block = K[np.ix_(ids, ids)]
            assert np.all(np.triu(block, 2) == 0.0) and np.all(np.tril(block, -2) == 0.0)
            assert np.max(np.abs(np.diagonal(block) - system.diag[i, j])) < 1e-12 * np.max(system.diag)
            assert np.max(np.abs(np.diagonal(block, 1) - system.line_offdiag[i, j])) < 1e-12 * np.max(system.diag)
            K_col[np.ix_(ids, ids)] = block
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.max(np.abs(system.precondition(K_col @ x) - x)) < 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("eps", [0.25, 0.05])
def test_line_metric_is_the_shifted_line_block_solve(eps):
    # each component solved with the x3 column blocks of the dense
    # identity-coefficient stiffness, diagonal shifted by METRIC_SHIFT of its
    # mean; the metric is symmetric and positive definite
    grid = Grid3(4, 3, 6)
    n = int(np.prod(grid.shape))
    K = _dense_constant_coef_stiffness(grid, eps, np.eye(3))
    line = np.arange(n) // grid.n3
    M = np.where(np.equal.outer(line, line), K, 0.0) + METRIC_SHIFT * np.mean(np.diagonal(K)) * np.eye(n)
    inv_metric = line_metric(grid, eps)
    v = np.random.default_rng(41).standard_normal(grid.shape + (3,))
    got = inv_metric(v)
    want = np.linalg.solve(M, v.reshape(n, 3))
    assert got.shape == v.shape
    assert np.max(np.abs(got.reshape(n, 3) - want)) <= 1e-12 * np.max(np.abs(want))
    Minv = np.stack([inv_metric(e.reshape(grid.shape + (1,))).ravel() for e in np.eye(n)], axis=1)
    assert np.max(np.abs(Minv - Minv.T)) <= 1e-12 * np.max(np.abs(Minv))
    assert np.min(np.linalg.eigvalsh(Minv)) > 0.0


def test_line_preconditioned_pcg_iterations_flat_in_eps():
    from thinvolt.cg import WEAK_FORM_TOL
    from thinvolt.recovery import lift_deformation, optimal_corrector
    from thinvolt.relaxation import RelaxedQ2

    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bending.json")
    cfg = RunConfig.from_file(path)
    grid = cfg.grid3()
    mat = cfg.material
    inputs = cfg.recovery_inputs(cfg.grid2())
    d = optimal_corrector(inputs, grid, RelaxedQ2.of(mat))
    for eps in cfg.eps_list:
        y = lift_deformation(inputs.isometry, eps, grid, inputs.g_matrix, d)
        system = assemble_poisson3(y, grid, eps, mat)
        x, hist = pcg(system.matvec, system.b, system.precondition, tol=cfg.poisson_tol)
        # the stop is certified: the weak-form residual of the true residual b - Kx
        b = system.b.ravel() - system.b.mean()
        assert abs(x @ (b - system.matvec(x))) <= WEAK_FORM_TOL * (1.0 + abs(b @ x))
        assert len(hist) - 1 <= 100, (eps, len(hist) - 1)
