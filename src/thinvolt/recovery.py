"""Recovery constructions: lift a 2D bending state to a 3D trial pair.

Given a cylindrical midsurface, a prestrain model and an in-plane vector
potential, the module assembles the thickness corrector that makes the
quadratic elastic energy of the lifted deformation reproduce the relaxed
bending density, lifts the reduced potential with its optimal out-of-plane
slope, and measures convergence of the scaled 3D energies toward the 2D
targets along a decreasing thickness sweep.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import bending2d, elastic3d, electro3d, fields, optimize
from .bending2d import CylindricalIsometry
from .relaxation import RelaxedQ2, effective_permittivity, m_out_of_plane

__all__ = [
    "RecoveryInputs",
    "optimal_corrector",
    "lift_deformation",
    "lift_potential",
    "out_of_plane_profile",
    "mollify_field",
    "mollifier_objective",
    "recovery_sweep",
    "SweepRow",
    "SWEEP_COLUMNS",
]


@dataclass
class RecoveryInputs:
    """Bundle of lift ingredients with the compatibility tie between g and B.

    g is the linear in-plane field g(x') = g_matrix x'; its symmetric gradient
    must equal the thickness-averaged in-plane prestrain block, which pins
    the mean block of B0 to sym(g_matrix).
    """

    isometry: CylindricalIsometry
    prestrain: object
    g_matrix: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self):
        S = np.asarray(self.g_matrix, dtype=float).reshape(2, 2)
        self.g_matrix = S
        gap = 0.5 * (S + S.T) - self.prestrain.mean_inplane()
        if np.max(np.abs(gap)) > 1e-10:
            raise ValueError("sym(g_matrix) must equal the averaged in-plane prestrain block")

    def g_values(self, grid):
        """Nodal samples of g on the (x1, x2) nodes, shape (n1, n2, 2)."""
        return _linear_field(self.g_matrix, grid)


def _linear_field(S, grid):
    """Nodal samples of the in-plane field g(x') = S x' on the (x1, x2) nodes, shape (n1, n2, 2)."""
    S = np.asarray(S, dtype=float).reshape(2, 2)
    g = np.zeros((grid.n1, grid.n2, 2))
    g[..., 0] = S[0, 0] * grid.x1[:, None] + S[0, 1] * grid.x2[None, :]
    g[..., 1] = S[1, 0] * grid.x1[:, None] + S[1, 1] * grid.x2[None, :]
    return g


def optimal_corrector(inputs, grid, rq):
    """Thickness corrector profile on the 3D nodes, shape (n1, n2, n3, 3).

    Pointwise it rotates into the bending frame the stationary out-of-plane
    column of the relaxed quadratic form at the in-plane strain
    X = t curvature + sym(grad g) - B_2x2(t), corrects for the curvature of
    the g-transport along the midsurface, and adds the out-of-plane prestrain
    column. The lifted deformation built from it reproduces the relaxed
    bending density in the small-thickness quadratic regime.
    """
    y0 = inputs.isometry
    theta = y0.theta
    kap = y0.curvature_nodes()  # (n1,)
    t = grid.x3  # (n3,)
    B = inputs.prestrain.B(t)  # (n3, 3, 3)

    # in-plane strain; (n1, n3, 2, 2)
    X = np.zeros((grid.n1, grid.n3, 2, 2))
    X[..., 0, 0] = kap[:, None] * t[None, :]
    S = inputs.g_matrix
    X += (0.5 * (S + S.T))[None, None]
    X -= B[None, :, :2, :2]
    z = rq.minimizer_z(X)  # (n1, n3, 3)

    # transport curvature term ((grad'(grad'y g))^T nu, 0) = (-g1 theta', 0, 0)
    g1 = inputs.g_values(grid)[..., 0]  # (n1, n2)
    inner = np.zeros((grid.n1, grid.n2, grid.n3, 3))
    inner += z[:, None, :, :]
    inner[..., 0] += g1[:, :, None] * kap[:, None, None]
    inner[..., 0] += 2.0 * B[None, None, :, 0, 2]
    inner[..., 1] += 2.0 * B[None, None, :, 1, 2]
    inner[..., 2] += B[None, None, :, 2, 2]
    R = CylindricalIsometry.frame_of(theta)  # (n1, 3, 3)
    return np.einsum("ikl,ijnl->ijnk", R, inner)


def _cumulative_from_zero(d, grid):
    """Trapezoid primitive of d along x3 with basepoint x3 = 0.

    When 0 is not a node the basepoint value is linearly interpolated
    between the straddling nodes.
    """
    h = grid.h3
    avg = 0.5 * (d[:, :, 1:] + d[:, :, :-1]) * h
    C = np.concatenate([np.zeros_like(d[:, :, :1]), np.cumsum(avg, axis=2)], axis=2)
    x3 = grid.x3
    i = int(np.searchsorted(x3, 0.0, side="right") - 1)
    i = min(max(i, 0), grid.n3 - 2)
    w = (0.0 - x3[i]) / h
    C0 = (1.0 - w) * C[:, :, i] + w * C[:, :, i + 1]
    return C - C0[:, :, None]


def lift_deformation(y0, eps, grid, g_matrix=None, d=None):
    """Thickness lift y0 + eps (x3 nu + grad'y g) + eps^2 int_0^{x3} d.

    d is a nodal (n1,n2,n3,3) corrector profile (omitted: zero). Returns a
    zero-mean nodal deformation on the 3D grid.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if grid.n1 != y0.grid.n1 or grid.n2 != y0.grid.n2:
        raise ValueError("3D grid must share the in-plane nodes of the midsurface grid")
    ymid = y0.deformation_nodes()  # (n1, n2, 3)
    R = CylindricalIsometry.frame_of(y0.theta)  # (n1, 3, 3), columns (tangent, e2, normal)
    y = np.zeros(grid.shape + (3,))
    y += ymid[:, :, None, :]
    y += eps * grid.x3[None, None, :, None] * R[:, None, None, :, 2]
    if g_matrix is not None and np.any(np.asarray(g_matrix) != 0.0):
        g = _linear_field(g_matrix, grid)
        trans = g[..., 0, None] * R[:, None, :, 0] + g[..., 1, None] * R[:, None, :, 1]
        y += eps * trans[:, :, None, :]
    if d is not None:
        y += eps * eps * _cumulative_from_zero(np.asarray(d, dtype=float), grid)
    return fields.zero_mean_project(y, grid)


def out_of_plane_profile(y0, phi0, mat):
    """Optimal out-of-plane potential slope m(x') on the midsurface nodes.

    Uses nodal central differences for grad'phi0 (one-sided at the edges)
    and the bending-frame reduced permittivity blocks at the nodal angles.
    """
    grid = y0.grid
    d1 = grid.axis_ops(0)["D1"]
    d2 = grid.axis_ops(1)["D1"]
    phi0 = np.asarray(phi0, dtype=float)
    grad = np.stack([d1 @ phi0, phi0 @ d2.T], axis=-1)  # (n1, n2, 2)
    R = CylindricalIsometry.frame_of(y0.theta)
    (kb, kv, kz), _ = effective_permittivity(mat.permittivity.kbar(), R)
    return m_out_of_plane((kb[:, None], kv[:, None, :], kz[:, None]), grad)


def lift_potential(phi0, m, eps, grid):
    """Thickness lift phi0(x') + eps m(x') x3 on the 3D nodes, zero-mean gauged."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    phi0 = np.asarray(phi0, dtype=float)
    m = np.asarray(m, dtype=float)
    phi = phi0[:, :, None] + eps * m[:, :, None] * grid.x3[None, None, :]
    return fields.zero_mean_project(phi, grid)


def _mollifier_evaluation(v, d, grid, eps, tau, q_h):
    """(objective, (v, G, H, |G|^2, |H|^2)): the smoothing objective with the derivatives and per-cell squared norms it took."""
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    G = fields.scaled_gradient(v, grid, 1.0)
    H = fields.scaled_hessian(v, grid, 1.0)
    g2, h2 = (np.einsum("nk,nk->n", X, X).reshape(grid.cshape) for X in (G.reshape(-1, 9), H.reshape(-1, 27)))
    pen = (eps**tau / q_h) * fields.integrate3(g2 ** (q_h / 2.0) + h2 ** (q_h / 2.0), grid)
    fid = 0.5 * float(np.sum(grid.node_measure()[..., None] * (v - d) ** 2))
    return pen + fid, (v, G, H, g2, h2)


def mollifier_objective(v, d, grid, eps, tau, q_h):
    """Smoothing objective: derivative penalties plus L2 fidelity to d."""
    return _mollifier_evaluation(v, d, grid, eps, tau, q_h)[0]


def _norm_weight(n2, q_h):
    """|X|^(q_h - 2) from the squared norm n2, zero where n2 is."""
    return np.where(n2 > 0, n2, 1.0) ** (q_h / 2.0 - 1.0) * (n2 > 0)


def _mollifier_gradient(state, d, grid, eps, tau, q_h):
    """Gradient of the smoothing objective from an evaluation's state."""
    v, G, H, g2, h2 = state
    scale = eps**tau * grid.cell_volume
    out = fields.gradient_scatter(scale * _norm_weight(g2, q_h)[..., None, None] * G, grid, 1.0)
    out += fields.hessian_scatter(scale * _norm_weight(h2, q_h)[..., None, None, None] * H, grid, 1.0)
    out += grid.node_measure()[..., None] * (v - d)
    return out


def mollify_field(d, grid, eps, tau=None, q_h=4.0, iters=500, grad_tol=1e-8):
    """Minimize the smoothing objective by L-BFGS from the raw field.

    The metric is the lumped trapezoid mass, the Hessian of the fidelity
    term; the gradient and the seminorm reuse each evaluation's derivatives
    and per-cell squared norms. Returns (smoothed field, info dict);
    info["iters"] counts gradient evaluations and info["converged"] says
    whether the gradient norm at the returned field is at most grad_tol.
    The penalty exponent tau defaults
    to q_h / 2; it must stay inside (0, q_h) for the fidelity term to win
    in the small-eps limit.
    """
    if tau is None:
        tau = 0.5 * q_h
    if not 0.0 < tau < q_h:
        raise ValueError("tau must lie in (0, q_h)")
    d = np.asarray(d, dtype=float)
    if d.ndim != 4 or d.shape[-1] != 3:
        raise ValueError("mollify_field expects a nodal (n1,n2,n3,3) field")
    wn = grid.node_measure()
    inv_mass = 1.0 / wn[..., None]
    v, (*_, h2), run = optimize.lbfgs(
        lambda u: _mollifier_evaluation(u, d, grid, eps, tau, q_h),
        lambda state: _mollifier_gradient(state, d, grid, eps, tau, q_h),
        d,
        lambda u: inv_mass * u,
        max_iter=iters,
        grad_tol=grad_tol,
    )
    l2 = float(np.sqrt(np.sum(wn[..., None] * (v - d) ** 2)))
    semi = fields.integrate3(h2 ** (q_h / 2.0), grid) ** (1.0 / q_h)
    info = {
        "iters": run["iters"],
        "grad_norm": run["grad_norm"],
        "objective": run["objective"],
        "converged": run["converged"],
        "l2_gap": l2,
        "seminorm_scaled": eps ** (1.0 - tau / q_h) * semi,
    }
    return v, info


@dataclass
class SweepRow:
    eps: float
    Mel_scaled: float = np.nan
    hyper: float = np.nan
    M_eps: float = np.nan
    E_eps: float = np.nan
    F_eps: float = np.nan
    M0: float = np.nan
    E0: float = np.nan
    F0: float = np.nan
    d2_ratio: float = np.nan
    pW_norm: float = np.nan
    min_det: float = np.nan
    pg0_res: float = np.nan
    ok: bool = False
    reason: str = ""  # why a failed row failed; not a sweep.csv column

    def values(self):
        return [getattr(self, name) for name in SWEEP_COLUMNS]


# the sweep.csv columns: SweepRow's float fields in declaration order
SWEEP_COLUMNS = [f.name for f in dataclasses.fields(SweepRow) if f.type is float]


def recovery_sweep(inputs, mat, grid, eps_list, solver_tol=1e-9):
    """Evaluate the lifted trial pair along a decreasing thickness sweep.

    For each eps: lift the deformation with the optimal corrector, solve
    the 3D potential on it, and record scaled energies next to the 2D
    targets. A row whose deformation loses orientation or whose potential
    solve fails is kept with NaN entries, ok = False and the error in
    reason; the sweep continues.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    rq = RelaxedQ2.of(mat)
    y0 = inputs.isometry
    d = optimal_corrector(inputs, grid, rq)
    m0 = bending2d.M0(y0, rq)
    phi0 = bending2d.solve_potential2(y0, mat, tol=solver_tol)
    e0 = bending2d.E0(y0, phi0, mat)
    rows = []
    for eps in eps_list:
        row = SweepRow(eps=eps)
        rows.append(row)
        try:
            y = lift_deformation(y0, eps, grid, inputs.g_matrix, d)
            mel, hyp = elastic3d.M_eps_parts(y, grid, eps, mat)
            if not np.isfinite(mel):
                raise ValueError("lifted deformation loses orientation")
            system = electro3d.assemble_poisson3(y, grid, eps, mat)
            phi = system.solve(tol=solver_tol)
            parts = system.energy_parts(phi)
        except (ValueError, electro3d.SolverError) as exc:
            row.reason = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            system = None  # release the row's operator before the next row assembles its own
        dist2, pw_norm, min_det = elastic3d.apriori_report(y, phi, grid, eps, mat)
        row.Mel_scaled = mel
        row.hyper = hyp
        row.M_eps = mel + hyp
        row.E_eps = electro3d.electrostatic_energy(*parts)
        row.F_eps = row.M_eps - row.E_eps
        row.M0 = m0
        row.E0 = e0
        row.F0 = m0 - e0
        row.d2_ratio = dist2 / (eps * eps)
        row.pW_norm = pw_norm
        row.min_det = min_det
        row.pg0_res = electro3d.weak_form_residual(*parts)
        row.ok = True
    return rows
