"""Recovery constructions: lift a 2D bending state to a 3D trial deformation.

Given a cylindrical midsurface, a prestrain model and an in-plane field g,
the module assembles the thickness corrector that makes the quadratic
elastic energy of the lifted deformation reproduce the relaxed bending
density, and measures convergence of the scaled 3D energies, with the
potential solved on each lifted slab, toward the 2D targets along a
decreasing thickness sweep.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import bending2d, elastic3d, electro3d, fields, optimize
from .bending2d import CylindricalIsometry
from .relaxation import RelaxedQ2

__all__ = [
    "RecoveryInputs",
    "optimal_corrector",
    "lift_deformation",
    "kirchhoff_jacobian",
    "midline_angles",
    "two_level_metric",
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


def _sinc_and_slope(x):
    """sin(x)/x and its derivative (x cos x - sin x)/x^2, by their Taylor series where |x| < 1e-2."""
    small = np.abs(x) < 1e-2
    safe = np.where(small, 1.0, x)
    x2 = x * x
    sinc = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(safe) / safe)
    slope = np.where(small, x * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0), (safe * np.cos(safe) - np.sin(safe)) / (safe * safe))
    return sinc, slope


def kirchhoff_jacobian(theta, eps, grid):
    """Derivative of the Kirchhoff lift y0(theta) + eps x3 nu(theta) in the nodal angles.

    Row i is the nodal field d/dtheta_i of lift_deformation's first two
    terms (no g-transport, no corrector), gauged to weighted zero mean. It
    does not depend on x2, so it is stored once per (x1, x3) node: the
    result has shape (n1, n1 * n3 * 3), its columns in (x1, x3, component)
    order. Each cell integral of (cos theta, -sin theta) is
    (cos m, -sin m) sinc(d/2) for the cell's mean angle m and increment d.
    Angle i moves only its two cells, so row i is the derivative of cell
    i - 1 from node i on plus that of cell i after node i, the same at every
    x3, and eps x3 d nu/dtheta_i at node i, less their closed-form mean.
    """
    theta = np.asarray(theta, dtype=float)
    n1 = grid.n1
    m, half = 0.5 * (theta[:-1] + theta[1:]), 0.5 * np.diff(theta)
    sinc, slope = _sinc_and_slope(half)
    cos_m, sin_m = np.cos(m), np.sin(m)
    # per angle i, the derivatives of y1 = h1 cumsum(cos m sinc) and y3 = -h1 cumsum(sin m sinc)
    # in the left angle of cell i and in the right angle of cell i - 1; (angle, component)
    h = 0.5 * grid.h1
    left, right = np.zeros((n1, 3)), np.zeros((n1, 3))
    left[:-1, 0], left[:-1, 2] = -h * (sin_m * sinc + cos_m * slope), -h * (cos_m * sinc - sin_m * slope)
    right[1:, 0], right[1:, 2] = -h * (sin_m * sinc - cos_m * slope), -h * (cos_m * sinc + sin_m * slope)
    node = np.arange(n1)
    from_i, after_i = (node[None, :, None] >= node[:, None, None]), (node[None, :, None] > node[:, None, None])
    profile = np.where(from_i, right[:, None, :], 0.0) + np.where(after_i, left[:, None, :], 0.0)  # (angle, x1 node, component)
    dnu = np.stack([np.cos(theta), np.zeros(n1), -np.sin(theta)], axis=1)
    profile -= ((grid.w1 @ profile) * grid.w3.sum() + grid.w1[:, None] * dnu * (eps * (grid.w3 @ grid.x3)))[:, None, :]
    J = np.empty((n1, n1, grid.n3, 3))
    J[...] = profile[:, :, None, :]
    J[node, node] += eps * grid.x3[None, :, None] * dnu[:, None, :]
    return J.reshape(n1, -1)


def midline_angles(y, grid):
    """Nodal angles of a nodal deformation's midline, for kirchhoff_jacobian.

    The deformation averaged over the x2 and x3 nodes gives each cell's
    tangent angle atan2(-dy3, dy1), unwrapped along x1 so that a tangent
    crossing +-pi stays continuous; nodes take the mean of their two cells,
    and the end nodes extrapolate linearly. A flat deformation gives zeros.
    """
    ybar = np.asarray(y, dtype=float).mean(axis=(1, 2))
    cell = np.unwrap(np.arctan2(-np.diff(ybar[:, 2]), np.diff(ybar[:, 0])))
    theta = np.empty(grid.n1)
    theta[1:-1] = 0.5 * (cell[:-1] + cell[1:])
    theta[0] = 1.5 * cell[0] - 0.5 * cell[1]
    theta[-1] = 1.5 * cell[-1] - 0.5 * cell[-2]
    return theta


def two_level_metric(y, grid, eps, rq):
    """v -> M^-1 v = (eps^2 / C) P_line^-1 v + J^T A^-1 J v on nodal (n1, n2, n3, 3) fields.

    Both levels are in the units of M_eps. P_line is electro3d.line_metric,
    whose x3 blocks carry the unit-coefficient term int |d3 v / eps|^2; on
    fields that vary along x3, M_eps = eps^-2 int W(grad_eps y) has the
    Hessian eps^-2 int Q3(d3 v / eps (x) e3), so the fine level is
    (C / eps^2) P_line with C = rq.column_stiffness[2, 2], the normal
    x3-gradient stiffness (2 mu + lam for the isotropic form). The coarse
    term (Nicolaides, SIAM J. Numer. Anal. 24, 1987) adds the bending
    stiffness of the 2D limit: J is kirchhoff_jacobian at the midline
    angles of y and A^-1 is bending2d.bending_metric_inverse. J v sums v
    over x2 first and J^T broadcasts along x2; the coarse products are
    matrix-vector products, so their summation order does not depend on the
    BLAS thread count. The line factors are cached, so a rebuild computes
    only J and A^-1.
    """
    line = electro3d.line_metric(grid, eps)
    fine = eps * eps / rq.column_stiffness[2, 2]
    J = kirchhoff_jacobian(midline_angles(y, grid), eps, grid)
    A_inv = bending2d.bending_metric_inverse(grid, rq)
    coarse_shape = (grid.n1, 1, grid.n3, 3)

    def inv_metric(v):
        out = line(v)
        out *= fine
        out += (J.T @ (A_inv @ (J @ v.sum(axis=1).reshape(-1)))).reshape(coarse_shape)
        return out

    return inv_metric


def _mollifier_evaluation(v, d, grid, eps, tau, q_h):
    """(objective, (v, G, H, |G|^2, |H|^2)): the smoothing objective with the derivatives (H as six pairs) and squared norms it took."""
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    G = fields.scaled_gradient(v, grid, 1.0)
    H = fields.scaled_hessian(v, grid, 1.0)
    g2 = np.einsum("nk,nk->n", G.reshape(-1, 9), G.reshape(-1, 9)).reshape(grid.cshape)
    h2 = fields.hessian_norm_squared(H)
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
    out += fields.hessian_scatter(H, scale * _norm_weight(h2, q_h), grid, 1.0)
    out += grid.node_measure()[..., None] * (v - d)
    return out


def _stiffness_modes(grid, a):
    """Axis a's cosine basis V (V^T diag(w_a) V = I) and the stiffness quotients kappa_k = v_k^T K_a v_k."""
    n = grid.shape[a]
    V = np.cos(np.pi * np.outer(np.arange(n), np.arange(n)) / (n - 1))
    V[:, 1:-1] *= np.sqrt(2.0)
    CV = grid.axis_ops(a)["cell"][2] @ V
    return fields._read_only(V), fields._read_only(grid.spacing[a] * np.einsum("ck,ck->k", CV, CV))


def _stiffness_metric(grid, alpha):
    """u -> M^-1 u on nodal (n1,n2,n3,3) fields, M = W + alpha sum_a K_a (x) W_b (x) W_c.

    K_a = (C D2)^T h_a (C D2) is the axis stiffness of scaled_hessian's
    cell-averaged second difference. M^-1 = V diag(1 / (1 + alpha sum_a
    kappa_a)) V^T, V = V_0 (x) V_1 (x) V_2 (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964); alpha = 0 gives W^-1. Returns a buffer the next call overwrites.
    """
    (V0, k0), (V1, k1), (V2, k2) = (grid._cached(("stiffness_modes", a), lambda: _stiffness_modes(grid, a)) for a in range(3))
    n1, n2, n3 = grid.shape
    scale = 1.0 / (1.0 + alpha * (k0[:, None, None, None] + k1[:, None, None] + k2[:, None]))
    a, b = np.empty(grid.shape + (3,)), np.empty(grid.shape + (3,))

    def apply(u):
        np.matmul(V0.T, u.reshape(n1, -1), out=a.reshape(n1, -1))
        np.matmul(V1.T, a.reshape(n1, n2, -1), out=b.reshape(n1, n2, -1))
        np.matmul(V2.T, b.reshape(-1, n3, 3), out=a.reshape(-1, n3, 3))
        np.multiply(a, scale, out=a)
        np.matmul(V2, a.reshape(-1, n3, 3), out=b.reshape(-1, n3, 3))
        np.matmul(V1, b.reshape(n1, n2, -1), out=a.reshape(n1, n2, -1))
        np.matmul(V0, a.reshape(n1, -1), out=b.reshape(n1, -1))
        return b

    return apply


def mollify_field(d, grid, eps, tau=None, q_h=4.0, iters=500, grad_tol=1e-8):
    """Minimize the smoothing objective by L-BFGS from the raw field.

    The metric is _stiffness_metric's (lumped mass plus alpha times the
    pure second differences' stiffness), alpha = eps^tau / q_h times the
    cell mean of |H(d)|^(q_h - 2), read from the first evaluation: the
    penalty's weight frozen at its mean over d, at 1/q_h of the frozen
    Hessian's scale, an empirical choice sized at q_h 4 and eps 0.25. The
    gradient and the seminorm reuse each evaluation's derivatives and
    per-cell squared norms. Returns (smoothed field, info dict);
    info["iters"] counts gradient evaluations and info["converged"] says
    whether the gradient norm at the returned field is at most grad_tol.
    eps must be positive and finite, d finite, and tau (default q_h / 2)
    inside (0, q_h) for the fidelity term to win in the small-eps limit.
    """
    if tau is None:
        tau = 0.5 * q_h
    if not 0.0 < tau < q_h:
        raise ValueError("tau must lie in (0, q_h)")
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    d = np.asarray(d, dtype=float)
    if d.ndim != 4 or d.shape[-1] != 3 or not np.all(np.isfinite(d)):
        raise ValueError("mollify_field expects a finite nodal (n1,n2,n3,3) field")
    metric = []

    def evaluate(u):
        f, state = _mollifier_evaluation(u, d, grid, eps, tau, q_h)
        if not metric:
            metric.append(_stiffness_metric(grid, eps**tau / q_h * float(np.mean(_norm_weight(state[-1], q_h)))))
        return f, state

    v, (*_, h2), run = optimize.lbfgs(
        evaluate,
        lambda state: _mollifier_gradient(state, d, grid, eps, tau, q_h),
        d,
        lambda u: metric[0](u),
        max_iter=iters,
        grad_tol=grad_tol,
    )
    wn = grid.node_measure()
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
