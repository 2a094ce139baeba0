"""Configuration, orchestration and certification entry points.

JSON configs are validated with hard rejection of unknown keys and of any
exponent combination outside the admissible regime. The CLI exposes five
subcommands (sweep, solve3d, solve2d, relax, check); every run writes CSV
tables plus a JSON summary and exits 0 only when the enabled numerical
checks pass (1 on check failure, 2 on configuration problems).
"""

import argparse
import dataclasses
import json
import math
import os
import random
import sys
from collections import deque

import numpy as np

from . import bending2d, elastic3d, electro3d, fields, optimize, svgplot
from .bending2d import CylindricalIsometry, saddle_iterate_2d
from .material import (
    ChargeModel,
    CouplingConstants,
    ElasticParams,
    HyperParams,
    Material,
    PermittivityModel,
    PrestrainModel,
)
from .recovery import SWEEP_COLUMNS, RecoveryInputs, SweepRow, lift_deformation, optimal_corrector, recovery_sweep, two_level_metric
from .relaxation import RelaxedQ2
from .smallmat import QuadForm2

__all__ = [
    "ConfigError",
    "RunConfig",
    "check_conditions",
    "NormalSampler",
    "saddle_probe",
    "solve3d_alternating",
    "cli_main",
    "main",
]

_MODES = ("sweep", "solve3d", "solve2d", "relax", "check")


class ConfigError(Exception):
    """Configuration rejected before any computation."""


_MATERIAL = {
    "elastic": ElasticParams,
    "hyper": HyperParams,
    "prestrain": PrestrainModel,
    "permittivity": PermittivityModel,
    "charge": ChargeModel,
    "coupling": CouplingConstants,
}
_FIELD_KINDS = {float: "number", str: "text", np.ndarray: "matrix"}
# every key of every config section, with its kind: "number" (finite),
# "positive", "count" (a positive integer), "matrix" (3x3 numbers) or "text";
# the material sections are the fields of their dataclasses, as plain
# numbers: the dataclasses check their admissible ranges
_SECTIONS = {
    "grid": {"n1": "count", "n2": "count", "n3": "count", "n1_2d": "count", "n2_2d": "count"},
    **{name: {f.name: _FIELD_KINDS[f.type] for f in dataclasses.fields(model)} for name, model in _MATERIAL.items()},
    "isometry": {"kind": "text", "offset": "number", "slope": "number", "amplitude": "number"},
    "solver": {"poisson_tol": "positive", "grad_tol": "positive", "max_iters": "count"},
    "output": {"dir": "text"},
}


def _check_keys(section, allowed, name):
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(extra)}")


def _parse(value, kind, where):
    """value checked against its kind: a str, a float, an int for a count, or a 3x3 array."""
    if kind == "text":
        if not isinstance(value, str):
            raise ConfigError(f"'{where}' must be a string")
        return value
    if kind == "matrix":
        rows = value if isinstance(value, (list, tuple)) else ()
        if len(rows) != 3 or not all(isinstance(row, (list, tuple)) and len(row) == 3 for row in rows):
            raise ConfigError(f"'{where}' must be a 3x3 numeric array")
        return np.array([[_parse(v, "number", f"{where}.{i}.{j}") for j, v in enumerate(row)] for i, row in enumerate(rows)])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"'{where}' must be finite")
    if kind == "count" and int(value) != value:
        raise ConfigError(f"'{where}' must be an integer")
    if kind != "number" and value <= 0:
        raise ConfigError(f"'{where}' must be positive")
    return int(value) if kind == "count" else float(value)


def _section(data, name):
    """The keys that a config sets in section name, each parsed by its kind."""
    section, kinds = data.get(name, {}), _SECTIONS[name]
    _check_keys(section, kinds, name)
    return {key: _parse(value, kinds[key], f"{name}.{key}") for key, value in section.items()}


def _eps_list(values, name):
    """A thickness list that is nonempty, finite, positive and strictly decreasing."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"'{name}' must be a nonempty list")
    eps = [_parse(value, "positive", f"{name}.{i}") for i, value in enumerate(values)]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"'{name}' must be strictly decreasing")
    return eps


class RunConfig:
    """Validated run parameters: grids, thickness list, material, solver knobs.

    A key that a config leaves out takes its default: the material defaults
    are those of the material dataclasses, the others are set here.
    """

    def __init__(self, data):
        _check_keys(data, (*_SECTIONS, "eps", "mode", "seed"), "<top-level>")

        grid = _section(data, "grid")
        self.n1 = grid.get("n1", 17)
        self.n2 = grid.get("n2", 17)
        self.n3 = grid.get("n3", 9)
        self.n1_2d = grid.get("n1_2d", self.n1)
        self.n2_2d = grid.get("n2_2d", self.n2)
        for n in (self.n1, self.n2, self.n3, self.n1_2d, self.n2_2d):
            if n < 3:
                raise ConfigError("grid: node counts must be at least 3")

        self.eps_list = _eps_list(data.get("eps", [0.25, 0.125, 0.0625, 0.03125]), "eps")

        try:
            self.material = Material(**{name: model(**_section(data, name)) for name, model in _MATERIAL.items()})
        except ValueError as exc:
            raise ConfigError(f"inadmissible material parameters: {exc}")

        self.isometry = {"kind": "linear", "offset": 0.0, "slope": 1.0, "amplitude": 0.5, **_section(data, "isometry")}
        if self.isometry["kind"] not in ("constant", "linear", "cosine"):
            raise ConfigError("'isometry.kind' must be constant, linear or cosine")

        solver = _section(data, "solver")
        self.poisson_tol = solver.get("poisson_tol", 1e-10)
        self.grad_tol = solver.get("grad_tol", 1e-7)
        self.max_iters = solver.get("max_iters", 200)

        self.out_dir = _section(data, "output").get("dir", "out")

        # the subcommand decides what runs; a top-level 'mode' is validated and not stored
        if data.get("mode") not in (None, *_MODES):
            raise ConfigError(f"'mode' must be one of {_MODES}")
        seed = data.get("seed", 0)
        if _parse(seed, "number", "seed") < 0 or int(seed) != seed:
            raise ConfigError("'seed' must be a nonnegative integer")
        self.seed = int(seed)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, nesting too deep
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}")
        return cls(data)

    def grid3(self):
        return fields.Grid3(self.n1, self.n2, self.n3)

    def grid2(self, planar=False):
        if planar:
            return fields.Grid2(self.n1_2d, self.n2_2d)
        return fields.Grid2(self.n1, self.n2)

    def theta_profile(self, grid2):
        x = grid2.x1
        iso = self.isometry
        if iso["kind"] == "constant":
            return np.full_like(x, iso["offset"])
        if iso["kind"] == "linear":
            return iso["offset"] + iso["slope"] * x
        return iso["offset"] + iso["amplitude"] * np.cos(np.pi * x)

    def recovery_inputs(self, grid2):
        y0 = CylindricalIsometry(grid2, self.theta_profile(grid2))
        g_matrix = self.material.prestrain.mean_inplane()
        return RecoveryInputs(y0, self.material.prestrain, g_matrix)


# ---------------------------------------------------------------------------
# certification


def check_conditions(rows, targets=None):
    """Finite-thickness margins for the four limit conditions.

    rows are sweep rows ordered by decreasing eps; targets is (M0, E0, F0)
    and defaults to the targets stored in the rows. Each condition reports
    its margin sequence, the final value, a monotonicity flag, and a pass
    flag: the final margin must be within the tolerance, 2% of 1 + |target|.
    A margin that merely shrinks does not pass: a sweep far from the limit
    halves its margins too.
    """
    ok = [r for r in rows if r.ok]
    if len(ok) < 3:
        raise ValueError("check_conditions needs at least 3 valid rows")
    if targets is None:
        targets = (ok[-1].M0, ok[-1].E0, ok[-1].F0)
    m0, e0, f0 = (float(t) for t in targets)

    report = {}

    def record(name, values, target):
        vals = [float(v) for v in values]
        tol = 0.02 * (1.0 + abs(target))
        passed = vals[-1] <= tol
        trend = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        report[name] = {
            "values": vals,
            "final": vals[-1],
            "target": target,
            "tol": tol,
            "trend_ok": bool(trend),
            "pass": bool(passed),
        }

    record("mech_lower", [max(0.0, m0 - r.M_eps) for r in ok], m0)
    record("mech_recovery", [abs(r.M_eps - m0) for r in ok], m0)
    record("total_recovery", [abs(r.F_eps - f0) for r in ok], f0)
    record("elec_lower", [max(0.0, e0 - r.E_eps) for r in ok], e0)
    report["pass"] = bool(all(report[k]["pass"] for k in ("mech_lower", "mech_recovery", "total_recovery", "elec_lower")))
    return report


class NormalSampler:
    """Standard normal draws from the stdlib generator random.Random(seed).

    Each draw takes its 32-bit uniforms from one randbytes call, read as
    little-endian words so the values do not depend on the host, and pairs
    them by the Box-Muller transform (Box & Muller, Ann. Math. Statist. 29,
    1958). It offers the standard_normal(shape) call of numpy's Generator,
    the one call saddle_probe makes, without loading numpy.random and the
    modules it imports (secrets, hashlib and libcrypto), which would cost a
    run several MB of resident memory for a few probe directions.
    """

    def __init__(self, seed=0):
        self._random = random.Random(seed)

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        m = (n + 1) // 2
        words = np.frombuffer(self._random.randbytes(8 * m), dtype="<u4").reshape(2, m)
        # uniforms in (0, 1) at odd multiples of 2^-33: the logarithm stays finite
        radius = np.sqrt(-2.0 * np.log((words[0] + 0.5) * 2.0**-32))
        angle = (2.0 * np.pi * 2.0**-32) * words[1]
        z = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
        return z[:n].reshape(shape)


def _zero_mean_direction(shape, rng):
    v = rng.standard_normal(shape)
    v -= v.mean(axis=tuple(range(len(shape) if len(shape) <= 3 else 3)), keepdims=True)
    n = math.sqrt(optimize.vdot(v, v))
    if n == 0.0:
        v.flat[0] = 1.0
        n = 1.0
    return v / n


def saddle_probe(F, point, n_probes=50, radius=1e-3, rng=None, sides=("phi", "y")):
    """Worst saddle-inequality violations at (y, phi) under random probes.

    F is a two-argument evaluator; point = (y_like, phi_like). The phi side
    reports max F(y, phi_hat) - F(y, phi); the y side reports
    max F(y, phi) - F(y_hat, phi). Probes are gauge-compatible (zero-mean)
    normalized directions, tried with both signs.
    """
    y, phi = point
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if rng is None:
        rng = NormalSampler(0)
    base = float(F(y, phi))
    if not np.isfinite(base):
        raise ValueError("saddle_probe: F must be finite at the probe point")
    worst_phi = -np.inf
    worst_y = -np.inf
    for _ in range(n_probes):
        if "phi" in sides:
            v = _zero_mean_direction(phi.shape, rng)
            for s in (radius, -radius):
                worst_phi = max(worst_phi, float(F(y, phi + s * v)) - base)
        if "y" in sides:
            # raw directions: constant modes are real degrees of freedom here
            v = rng.standard_normal(y.shape)
            v /= max(math.sqrt(optimize.vdot(v, v)), 1e-300)
            for s in (radius, -radius):
                worst_y = max(worst_y, base - float(F(y + s * v, phi)))
    return {
        "phi_side": worst_phi if "phi" in sides else None,
        "y_side": worst_y if "y" in sides else None,
    }


# ---------------------------------------------------------------------------
# 3D alternating solver


_ORIENTATION_SAMPLES = (math.pi / 4.0, math.pi / 2.0)  # the two angles besides 0 that fix the orbit energy


def _rotated_about_x2(y, c):
    """The zero-mean deformation y rigidly rotated about the x2 axis through its centroid by the angle c."""
    cos_c, sin_c = math.cos(c), math.sin(c)
    rotated = y.copy()
    rotated[..., 0] = cos_c * y[..., 0] + sin_c * y[..., 2]
    rotated[..., 2] = cos_c * y[..., 2] - sin_c * y[..., 0]
    return rotated


def _orientation_step(trial, y, f_y):
    """The rigid rotation of y about x2 that minimises its frozen-potential energy: (angle, f, state), or None.

    At a frozen potential M_eps is invariant under the rotation R_c and the
    pulled-back permittivity det F F^-1 R_c^T k R_c F^-T is affine in
    (cos 2c, sin 2c) when k couples x2 to neither x1 nor x3, so the energy
    on the orbit is alpha + beta cos 2c + gamma sin 2c. The trials at the
    two sample angles and f_y at c = 0 fix it, and c* = atan2(-gamma,
    -beta) / 2 is its minimiser. The sample at pi/2 keeps its state, so a
    c* within sqrt(machine eps) of pi/2 modulo pi, as on a start even in c
    where gamma is round-off, costs no third trial and returns the angle
    pi/2; the one at pi/4 is dropped at once, which keeps at most one trial
    state besides y's alive. No step is taken when the orbit is flat to
    within sqrt(machine eps) of f_y (an isotropic k) or when the trial at c*
    does not lower f_y.
    """
    quarter, half = _ORIENTATION_SAMPLES
    tol = math.sqrt(np.finfo(float).eps)
    f_quarter = trial(_rotated_about_x2(y, quarter))[0]
    f_c, state = trial(_rotated_about_x2(y, half))
    alpha = 0.5 * (f_y + f_c)
    beta, gamma = f_y - alpha, f_quarter - alpha
    if not tol * abs(f_y) < math.hypot(beta, gamma) < math.inf:
        return None
    c = 0.5 * math.atan2(-gamma, -beta)
    if abs(math.remainder(c - half, math.pi)) <= tol:
        c = half  # the orbit energy has period pi: the sample holds the minimum
    else:
        state = None
        f_c, state = trial(_rotated_about_x2(y, c))
    return (c, f_c, state) if f_c < f_y else None


def solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, grad_tol=1e-7, max_iters=100, rng=None, *, telemetry=None):
    """Alternate exact potential solves with metric-scaled descent in y.

    Returns (y, phi, history, converged). Each deformation step
    is an optimize.backtrack search at the frozen potential from the unit
    step of an L-BFGS direction: the two-loop recursion in the two-level
    metric of recovery.two_level_metric (the x3-line metric plus the 2D
    bending metric lifted by the Kirchhoff map), rebuilt at each iterate's
    midline angles, over up to optimize.MEMORY curvature pairs (each step
    and the change of the gradient at solved potentials, kept by
    optimize.remember_pair only when their product is positive). A
    rejected finite trial moves the step to the safeguarded
    quadratic-interpolation guess. A search that fails with pairs stored is
    retried once along -M^-1 g with the pairs dropped. The first row's
    accepted point then takes the rigid orientation about x2 that
    _orientation_step finds at the same frozen potential, when that lowers
    its energy; the step is no gradient step, so no pair spans it. Each
    history row records the energy after the potential step and after the
    deformation step, the gradient norm, the accepted Armijo step, the
    weak-form residual of the solve, and the phi-side saddle probe (8
    probes of radius 1e-3) at the fresh potential. A row whose gradient
    norm is at most grad_tol ("converged") or whose search fails
    ("line_search") records a zero step and ends the run at its point and
    solved potential; after max_iters rows ("max_iters") the last accepted
    point's potential is solved. telemetry is the run-statistics channel:
    a dict, when given, that every potential solve adds its PCG iterations
    to, under "pcg_iterations", every line-search and orientation trial one
    evaluation to, under "line_search_evaluations", and that holds the
    orientation angle in radians (0.0 when none is taken) under
    "orientation_angle" and the stop under "termination".
    """
    if rng is None:
        rng = NormalSampler(0)
    if telemetry is None:
        telemetry = {}
    telemetry.setdefault("line_search_evaluations", 0)
    telemetry["orientation_angle"] = 0.0

    def evaluate(c):
        # the one evaluation of a point: the start, or a trial whose accepted state is the next iterate's
        c = fields.zero_mean_project(c, grid)
        m = elastic3d.M_eps(c, grid, eps, mat)
        try:
            return c, m, electro3d.assemble_poisson3(c, grid, eps, mat) if np.isfinite(m) else None
        except ValueError:  # a cell centre that loses orientation: infeasible, like an infinite M_eps
            return c, m, None

    def trial(c):
        # a line-search or orientation trial at the row's frozen potential phi
        telemetry["line_search_evaluations"] += 1
        c, m, system = evaluate(c)
        f = m - electro3d.electrostatic_energy(*system.energy_parts(phi)) if system is not None else np.inf
        return f, (c, m, system)

    y, m_y, system = evaluate(y_init)
    if system is None:
        raise ValueError("solve3d_alternating: infeasible initial deformation")
    rq = RelaxedQ2.of(mat)
    pairs = deque(maxlen=optimize.MEMORY)
    history = []
    phi = y_prev = g_prev = None
    for _ in range(int(max_iters)):
        phi = system.solve(tol=poisson_tol, x0=phi, telemetry=telemetry)
        # F_eps = M_eps - E_eps with M_eps and the assembled system
        # independent of phi: the phi-side evaluations are quadratic forms of
        # the iterate's system next to one M_eps
        parts = system.energy_parts(phi)
        pg0 = electro3d.weak_form_residual(*parts)

        def F_frozen_y(_y, p):
            return m_y - electro3d.electrostatic_energy(*system.energy_parts(p))

        f_phi = m_y - electro3d.electrostatic_energy(*parts)
        probe = saddle_probe(F_frozen_y, (y, phi), n_probes=8, radius=1e-3, rng=rng, sides=("phi",))
        # the gradient needs no system and each trial assembles its own:
        # dropping this one (found holds it too) keeps one alive at a time
        system = found = None
        g = elastic3d.grad_y_F_eps(y, phi, grid, eps, mat)
        gnorm = math.sqrt(optimize.vdot(g, g))
        converged = gnorm <= grad_tol
        if not converged:
            if y_prev is not None:
                optimize.remember_pair(pairs, y - y_prev, g - g_prev)
            y_prev = g_prev = None  # the pairs hold what the directions need
            found = optimize.lbfgs_search(trial, y, f_phi, g, pairs, two_level_metric(y, grid, eps, rq))
        if found is None:  # the run ends at the point and potential this row certified
            telemetry["termination"] = "converged" if converged else "line_search"
            history.append((f_phi, f_phi, gnorm, 0.0, pg0, probe["phi_side"]))
            break
        y_prev, g_prev = y, g
        _, f_y, (y, m_y, system), t = found
        if not history:
            # rebinding found releases its hold on y1's system, which a step replaces
            found = _orientation_step(trial, y, f_y)
            if found is not None:
                telemetry["orientation_angle"], f_y, (y, m_y, system) = found
                y_prev = g_prev = None  # no gradient step: row 2 stores no pair, so the memory stays empty
        history.append((f_phi, f_y, gnorm, t, pg0, probe["phi_side"]))
    else:  # every row stepped: the last accepted point has its system but no solved potential yet
        telemetry["termination"] = "max_iters"
        phi = system.solve(tol=poisson_tol, x0=phi, telemetry=telemetry)
    return y, phi, np.array(history), telemetry["termination"] == "converged"


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sweep(cfg, out_dir):
    inputs = cfg.recovery_inputs(cfg.grid2())
    try:
        rows = recovery_sweep(inputs, cfg.material, cfg.grid3(), cfg.eps_list, solver_tol=cfg.poisson_tol)
    except (ValueError, electro3d.SolverError) as exc:  # the 2D targets failed; a failed 3D row stays in rows instead
        return _report_failure(out_dir, exc, mode="sweep", seed=cfg.seed, eps=cfg.eps_list)
    _write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_COLUMNS, [r.values() for r in rows])
    xs = [r.eps for r in rows]
    svgplot.write_loglog_svg(
        os.path.join(out_dir, "sweep.svg"),
        xs,
        [
            ("mech gap", [abs(r.M_eps - r.M0) for r in rows]),
            ("hyper", [r.hyper for r in rows]),
            ("elec gap", [abs(r.E_eps - r.E0) for r in rows]),
        ],
        title="sweep convergence",
    )
    summary = {
        "mode": "sweep",
        "seed": cfg.seed,
        "eps": xs,
        "rows_ok": int(sum(r.ok for r in rows)),
        "failed_rows": [{"eps": r.eps, "reason": r.reason} for r in rows if not r.ok],
    }
    try:
        checks = check_conditions(rows)
    except ValueError as exc:
        summary["error"] = str(exc)
        summary["pass"] = False
        _write_json(os.path.join(out_dir, "summary.json"), summary)
        return 1
    summary["conditions"] = checks
    summary["pass"] = bool(checks["pass"] and all(r.ok for r in rows))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0 if summary["pass"] else 1


def _report_failure(out_dir, exc, **facts):
    """Write a failed run's summary.json (the facts, pass false and the error) and return exit code 1."""
    _write_json(os.path.join(out_dir, "summary.json"), {**facts, "error": f"{type(exc).__name__}: {exc}", "pass": False})
    return 1


def _bending_ground_state(y0, rq):
    """The minimiser of M0 with y0's mean angle: y0 after one Newton step on M0.

    M0 is quadratic in the nodal angles, and bending_metric_inverse inverts
    its exact Hessian on the profiles of zero sum, where grad M0 lies. The
    step theta0 - A^-1 grad M0(theta0) therefore lands on the minimiser,
    the curvature -b/2a of the bending density a k^2 + b k + c in every
    cell, and keeps the mean angle of theta0, the only part of it that is
    left.
    """
    step = bending2d.bending_metric_inverse(y0.grid, rq) @ bending2d.grad_M0_theta(y0, rq)
    return CylindricalIsometry(y0.grid, y0.theta - step)


def _cmd_solve3d(cfg, out_dir):
    eps = cfg.eps_list[0]
    grid3 = cfg.grid3()
    mat = cfg.material
    inputs = cfg.recovery_inputs(cfg.grid2())
    rq = RelaxedQ2.of(mat)
    # the start lifts the 2D limit's bending ground state, not the configured profile
    inputs.isometry = _bending_ground_state(inputs.isometry, rq)
    d = optimal_corrector(inputs, grid3, rq)
    y_init = lift_deformation(inputs.isometry, eps, grid3, inputs.g_matrix, d)
    rng = NormalSampler(cfg.seed)
    telemetry = {}
    try:
        y, phi, history, converged = solve3d_alternating(
            grid3,
            eps,
            mat,
            y_init,
            poisson_tol=cfg.poisson_tol,
            grad_tol=cfg.grad_tol,
            max_iters=cfg.max_iters,
            rng=rng,
            telemetry=telemetry,
        )
    except (ValueError, electro3d.SolverError) as exc:  # an infeasible start, or a potential solve that failed
        return _report_failure(out_dir, exc, mode="solve3d", seed=cfg.seed, eps=eps)
    header = ["F_after_phi", "F_after_y", "grad_norm", "step", "pg0_res", "phi_probe"]
    _write_csv(os.path.join(out_dir, "solve3d_history.csv"), header, history)
    worst_probe = float(max(h[5] for h in history))
    worst_pg0 = float(max(h[4] for h in history))
    finite = bool(np.all(np.isfinite(history)))
    # certification: finite energies, exact phi-step (probe + weak-form residual);
    # gradient convergence is reported but the iterate is a heuristic
    summary = {
        "mode": "solve3d",
        "seed": cfg.seed,
        "eps": eps,
        "converged": bool(converged),
        "iterations": len(history),
        "F_eps": float(history[-1][1]),
        "grad_norm": float(history[-1][2]),
        "worst_pg0": worst_pg0,
        "worst_phi_probe": worst_probe,
        **telemetry,
        "pass": bool(finite and worst_probe <= 1e-8 and worst_pg0 <= 1e-8),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0 if summary["pass"] else 1


def _cmd_solve2d(cfg, out_dir):
    grid2 = cfg.grid2(planar=True)
    mat = cfg.material
    theta0 = cfg.theta_profile(grid2)
    rq = RelaxedQ2.of(mat)
    try:
        y0, phi, history, converged = saddle_iterate_2d(
            theta0, grid2, mat, iters=cfg.max_iters, tol=cfg.grad_tol, rq=rq, solver_tol=cfg.poisson_tol
        )
    except (ValueError, electro3d.SolverError) as exc:  # a potential solve that failed
        return _report_failure(out_dir, exc, mode="solve2d", seed=cfg.seed)
    header = ["F_after_phi", "F_after_theta", "grad_norm", "step"]
    _write_csv(os.path.join(out_dir, "solve2d_history.csv"), header, history)
    rng = NormalSampler(cfg.seed)

    def F(theta, p):
        return bending2d.F0(CylindricalIsometry(grid2, theta), p, mat, rq)

    probes = saddle_probe(F, (y0.theta, phi), n_probes=50, radius=1e-3, rng=rng)
    virial = bending2d.check_virial(y0, phi, mat)
    # one history row per gradient evaluation; the cap stops a run before its line search
    termination = "converged" if converged else "max_iters" if len(history) == cfg.max_iters else "line_search"
    summary = {
        "mode": "solve2d",
        "seed": cfg.seed,
        "converged": bool(converged),
        "termination": termination,
        "iterations": len(history),
        "F0": float(history[-1][1]),
        "virial": virial,
        "phi_probe": probes["phi_side"],
        "y_probe": probes["y_side"],
        "pass": bool(virial <= 1e-7 and probes["phi_side"] <= 1e-10 and probes["y_side"] <= 1e-8),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0 if summary["pass"] else 1


def _cmd_relax(cfg, out_dir):
    mat = cfg.material
    rq = RelaxedQ2.of(mat)
    mu, lam = mat.elastic.mu, mat.elastic.lam
    # closed form: column relaxation of an isotropic form is isotropic in 2D
    A_ref = QuadForm2.isotropic(mu, 2.0 * mu * lam / (2.0 * mu + lam)).A
    dev = float(np.max(np.abs(rq.q2.A - A_ref)))
    P, q, r = rq.qbar2_coefficients()
    payload = {
        "mode": "relax",
        "q2_matrix": rq.q2.A.tolist(),
        "q2_closed_form_dev": dev,
        "qbar2_quadratic": P.tolist(),
        "qbar2_linear": q.tolist(),
        "qbar2_constant": r,
        "pass": bool(dev <= 1e-10),
    }
    _write_json(os.path.join(out_dir, "relax.json"), payload)
    return 0 if payload["pass"] else 1


def _cmd_check(cfg, out_dir):
    path = os.path.join(out_dir, "sweep.csv")
    if not os.path.exists(path):
        raise ConfigError(f"check: no sweep table at {path}; run sweep first")
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:  # a directory, or a non-numeric entry
        raise ConfigError(f"check: cannot read sweep table {path}: {exc}")
    if table.shape[1] != len(SWEEP_COLUMNS):
        raise ConfigError("check: sweep table has unexpected columns")
    rows = []
    for raw in table:
        row = SweepRow(*[float(v) for v in raw])
        row.ok = bool(np.all(np.isfinite(raw)))
        rows.append(row)
    try:
        checks = check_conditions(rows)
    except ValueError as exc:
        raise ConfigError(f"check: {exc}")
    payload = {"mode": "check", "conditions": checks, "pass": bool(checks["pass"])}
    _write_json(os.path.join(out_dir, "check.json"), payload)
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# CLI


def _build_parser():
    parser = argparse.ArgumentParser(prog="thinvolt", description="thin-plate electro-elastic verification harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--eps", default=None, help="comma-separated decreasing thickness override")
        p.add_argument("--seed", type=int, default=None)
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig.from_file(args.config)
        if args.eps is not None:
            try:
                eps = [float(tok) for tok in args.eps.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError("--eps must be a comma-separated number list")
            cfg.eps_list = _eps_list(eps, "--eps")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            cfg.seed = int(args.seed)
        out_dir = args.out if args.out is not None else cfg.out_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
        except (OSError, ValueError) as exc:  # --out names an existing file, or the path holds a NUL
            raise ConfigError(f"cannot create output directory: {exc}")
        handler = {
            "sweep": _cmd_sweep,
            "solve3d": _cmd_solve3d,
            "solve2d": _cmd_solve2d,
            "relax": _cmd_relax,
            "check": _cmd_check,
        }[args.command]
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))
