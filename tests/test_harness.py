import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from thinvolt.fields import Grid3
from thinvolt.harness import (
    ConfigError,
    NormalSampler,
    RunConfig,
    check_conditions,
    cli_main,
    _orientation_step,
    _rotated_about_x2,
    saddle_probe,
    solve3d_alternating,
)
from thinvolt.material import Material, PermittivityModel
from thinvolt.recovery import SWEEP_COLUMNS, SweepRow


def _write_config(path, extra=None):
    data = {
        "grid": {"n1": 9, "n2": 9, "n3": 5},
        "eps": [0.25, 0.125, 0.0625],
        "solver": {"poisson_tol": 1e-10, "grad_tol": 1e-7, "max_iters": 50},
    }
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _bending_config(path, grid, solver=None):
    # configs/bending.json on another grid, optionally with other solver keys
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bending.json")) as fh:
        data = json.load(fh)
    data["grid"].update(grid)
    data["solver"].update(solver or {})
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = RunConfig({})
    assert (cfg.n1, cfg.n2, cfg.n3) == (17, 17, 9)
    assert cfg.eps_list == [0.25, 0.125, 0.0625, 0.03125]
    assert cfg.material.elastic.q_w == 26.0
    assert cfg.material.hyper.alpha_h == 10.5
    assert np.max(np.abs(cfg.material.permittivity.k - np.diag([1.0, 1.0, 4.0]))) == 0.0
    assert cfg.material.charge.mode == "cosine"
    assert cfg.seed == 0
    assert cfg.isometry["kind"] == "linear"
    grid = cfg.grid3()
    assert grid.shape == (17, 17, 9)


def test_config_material_defaults_are_the_dataclass_defaults():
    got, want = RunConfig({}).material, Material()
    for section in dataclasses.fields(Material):
        a, b = getattr(got, section.name), getattr(want, section.name)
        for f in dataclasses.fields(b):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (section.name, f.name)


@pytest.mark.parametrize(
    "data",
    [
        {"unknown_section": {}},
        {"grid": {"n1": 9, "bogus": 1}},
        {"grid": {"n1": 2}},
        {"eps": []},
        {"eps": "0.25"},
        {"eps": [0.25, 0.5]},
        {"eps": [0.25, -0.1]},
        {"elastic": 5},
        {"elastic": {"q_w": 8.0}},
        {"charge": {"mode": "sawtooth"}},
        {"prestrain": {"B0": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}},
        {"permittivity": {"k": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}},
        {"isometry": {"kind": "spiral"}},
        {"solver": {"poisson_tol": -1.0}},
        {"mode": "explode"},
        {"seed": -3},
        {"output": {"dir": 7}},
        {"eps": ["0.25", 0.1, 0.05]},
        {"eps": [True]},
        {"permittivity": {"k": [[1, 0, 0], [0, 1, 0], [0, 0, "4"]]}},
        {"permittivity": {"k": [[True, False, False], [False, True, False], [False, False, True]]}},
        {"prestrain": {"B1": [["0.5", 0, 0], [0, 0, 0], [0, 0, 0]]}},
        {"prestrain": {"B0": None}},
        {"prestrain": {"B1": None}},
        {"permittivity": {"k": None}},
    ],
)
def test_config_rejections(data):
    with pytest.raises(ConfigError):
        RunConfig(data)


def test_config_accepts_the_top_level_mode_without_storing_it():
    # the subcommand decides what runs: a valid 'mode' changes nothing in the config
    plain = RunConfig({"seed": 3})
    for mode in (None, "sweep", "solve3d", "solve2d", "relax", "check"):
        cfg = RunConfig({"mode": mode, "seed": 3})
        assert not hasattr(cfg, "mode")
        assert vars(cfg).keys() == vars(plain).keys()
        assert cfg.seed == 3 and cfg.eps_list == plain.eps_list


def test_config_material_ranges_are_the_dataclass_ranges(tmp_path):
    # lam = 0 is admissible for ElasticParams (gamma_d = 0), so the config accepts it
    assert RunConfig({"elastic": {"lam": 0}}).material.elastic.lam == 0.0
    assert cli_main(["relax", "--config", _write_config(tmp_path / "ok.json", extra={"elastic": {"lam": 0}}), "--out", str(tmp_path / "ok")]) == 0
    out = tmp_path / "bad"
    assert cli_main(["relax", "--config", _write_config(tmp_path / "bad.json", extra={"elastic": {"lam": -1}}), "--out", str(out)]) == 2
    assert not (out / "relax.json").exists()


def test_config_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(str(bad))


def test_theta_profiles():
    grid2 = RunConfig({}).grid2()
    cfg = RunConfig({"isometry": {"kind": "constant", "offset": 0.3}})
    assert np.all(cfg.theta_profile(grid2) == 0.3)
    cfg = RunConfig({"isometry": {"kind": "linear", "offset": 0.1, "slope": 2.0}})
    assert np.max(np.abs(cfg.theta_profile(grid2) - (0.1 + 2.0 * grid2.x1))) < 1e-15
    cfg = RunConfig({"isometry": {"kind": "cosine", "amplitude": 0.5}})
    want = 0.5 * np.cos(np.pi * grid2.x1)
    assert np.max(np.abs(cfg.theta_profile(grid2) - want)) < 1e-15


def test_recovery_inputs_pick_up_prestrain_mean():
    cfg = RunConfig({"prestrain": {"B0": [[0.2, 0, 0], [0, 0.1, 0], [0, 0, 0]]}})
    inputs = cfg.recovery_inputs(cfg.grid2())
    assert np.max(np.abs(inputs.g_matrix - np.diag([0.2, 0.1]))) < 1e-14


# ---------------------------------------------------------------------------
# certification helpers


def _synthetic_rows(eps_list, m0=1.0 / 9.0, e0=0.01, mech_rate=0.01, elec_rate=0.001):
    rows = []
    for eps in eps_list:
        m = m0 + mech_rate * eps
        e = e0 + elec_rate * eps
        row = SweepRow(
            eps=eps,
            Mel_scaled=m,
            hyper=0.0,
            M_eps=m,
            E_eps=e,
            F_eps=m - e,
            M0=m0,
            E0=e0,
            F0=m0 - e0,
            d2_ratio=0.1,
            pW_norm=0.2,
            min_det=0.9,
            pg0_res=1e-12,
        )
        row.ok = True
        rows.append(row)
    return rows


def test_check_conditions_pass_and_structure():
    rows = _synthetic_rows([0.25, 0.125, 0.0625])
    report = check_conditions(rows)
    assert report["pass"]
    for name in ("mech_lower", "mech_recovery", "total_recovery", "elec_lower"):
        entry = report[name]
        assert entry["pass"] and entry["trend_ok"]
        assert len(entry["values"]) == 3
        assert entry["final"] <= entry["tol"]


def test_check_conditions_negative_control():
    rows = _synthetic_rows([0.25, 0.125, 0.0625])
    # shifting the mechanical target up by 1 breaks the lower-bound margin
    report = check_conditions(rows, targets=(rows[0].M0 + 1.0, rows[0].E0, rows[0].F0))
    assert not report["mech_lower"]["pass"]
    assert not report["pass"]


def test_check_conditions_needs_three_rows():
    with pytest.raises(ValueError):
        check_conditions(_synthetic_rows([0.25, 0.125]))
    bad = _synthetic_rows([0.25, 0.125, 0.0625])
    for row in bad:
        row.ok = False
    with pytest.raises(ValueError):
        check_conditions(bad)


# ---------------------------------------------------------------------------
# saddle probes


def test_saddle_probe_quadratic_model():
    # exact saddle: minimum in y, maximum in phi
    a = np.full((4, 3), 0.7)
    b = np.zeros((5, 5))

    def F(y, phi):
        return float(np.sum((y - a) ** 2) - np.sum((phi - b) ** 2))

    probes = saddle_probe(F, (a, b), n_probes=20, radius=1e-3)
    assert probes["phi_side"] <= 0.0
    assert probes["y_side"] <= 0.0
    # a displaced deformation admits descent directions
    probes = saddle_probe(F, (a + 0.01, b), n_probes=40, radius=1e-3)
    assert probes["y_side"] > 1e-6
    one_sided = saddle_probe(F, (a, b), n_probes=5, sides=("phi",))
    assert one_sided["y_side"] is None
    with pytest.raises(ValueError):
        saddle_probe(lambda y, p: np.inf, (a, b), n_probes=1)


def test_normal_sampler_is_seeded_and_standard():
    a, b = NormalSampler(3).standard_normal((17, 5)), NormalSampler(3).standard_normal((17, 5))
    assert a.shape == (17, 5) and a.tobytes() == b.tobytes()
    assert not np.array_equal(a, NormalSampler(4).standard_normal((17, 5)))
    # successive draws continue one stream
    sampler = NormalSampler(3)
    assert not np.array_equal(sampler.standard_normal(7), sampler.standard_normal(7))
    assert np.shape(NormalSampler(0).standard_normal(())) == ()
    n = 200_000
    z = NormalSampler(5).standard_normal(n)
    assert abs(z.mean()) <= 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_normal_sampler_is_box_muller_on_the_stdlib_stream():
    # pairs (u1, u2) from the seeded Mersenne Twister's 32-bit words, the first
    # half of the words for u1 and the second for u2, on any host byte order
    n = 9
    m = (n + 1) // 2
    stream = random.Random(11)
    words = [stream.getrandbits(32) for _ in range(2 * m)]
    radius = [math.sqrt(-2.0 * math.log((w + 0.5) * 2.0**-32)) for w in words[:m]]
    angle = [2.0 * math.pi * w * 2.0**-32 for w in words[m:]]
    want = [r * math.cos(t) for r, t in zip(radius, angle)] + [r * math.sin(t) for r, t in zip(radius, angle)]
    got = NormalSampler(11).standard_normal((3, 3))
    assert np.allclose(got.ravel(), want[:n], rtol=1e-13, atol=0.0)


def test_solve3d_alternating_bookkeeping():
    from thinvolt.elastic3d import flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y, phi, history, converged = solve3d_alternating(
        grid, eps, mat, flat_deformation(grid, eps), poisson_tol=1e-11, grad_tol=1e-9, max_iters=4
    )
    assert history.shape[1] == 6
    assert 1 <= history.shape[0] <= 4
    assert np.all(np.isfinite(history))
    for r in range(history.shape[0]):
        # deformation step never increases the frozen-potential energy
        assert history[r, 1] <= history[r, 0] + 1e-12
        assert history[r, 4] <= 1e-8  # weak-form residual of each solve
        assert history[r, 5] <= 1e-8  # phi-side probe at each solve
        if r > 0:
            assert history[r, 0] >= history[r - 1, 1] - 1e-9
    assert phi.shape == grid.shape
    with pytest.raises(ValueError):
        bad = flat_deformation(grid, eps)
        bad[..., 2] *= -1.0
        solve3d_alternating(grid, eps, mat, bad)


def test_solve3d_first_row_matches_full_F_eps():
    # the phi-side evaluations reuse one M_eps per iterate; the values must
    # be bit-identical to full F_eps calls at the first iterate
    from thinvolt import electro3d, fields
    from thinvolt.elastic3d import F_eps, flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y_init = flat_deformation(grid, eps)
    y1, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-11, max_iters=1)
    y0 = fields.zero_mean_project(y_init, grid)
    phi1 = electro3d.solve_potential3(electro3d.assemble_poisson3(y0, grid, eps, mat), tol=1e-11)
    assert history[0, 0] == F_eps(y0, phi1, grid, eps, mat)
    # the accepted deformation is the trial the line search evaluated
    assert history[0, 3] > 0.0 and history[0, 1] == F_eps(y1, phi1, grid, eps, mat)
    probe = saddle_probe(
        lambda _y, p: F_eps(y0, p, grid, eps, mat),
        (y0, phi1),
        n_probes=8,
        radius=1e-3,
        rng=NormalSampler(0),
        sides=("phi",),
    )
    assert history[0, 5] == probe["phi_side"]


def test_solve3d_first_row_pg0_matches_check_pg0():
    # pg0 and f_phi share one energy_parts evaluation per iterate; the
    # residual must be bit-identical to a full check_pg0 call
    from thinvolt import electro3d, fields
    from thinvolt.elastic3d import flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y_init = flat_deformation(grid, eps)
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-11, max_iters=1)
    y0 = fields.zero_mean_project(y_init, grid)
    phi1 = electro3d.solve_potential3(electro3d.assemble_poisson3(y0, grid, eps, mat), tol=1e-11)
    assert history[0, 4] == electro3d.check_pg0(y0, phi1, grid, eps, mat)


def _infinite_away_from_start(monkeypatch, grid, y_init):
    # M_eps is +inf at every point but the projected start, so every
    # line-search trial is +inf and the first search fails
    from thinvolt import elastic3d, fields

    start = fields.zero_mean_project(y_init, grid)
    M_eps = elastic3d.M_eps
    monkeypatch.setattr(elastic3d, "M_eps", lambda c, *args: M_eps(c, *args) if np.array_equal(c, start) else np.inf)


def test_solve3d_line_search_failure_records_zero_step(monkeypatch):
    # every deformation trial is infinite, so the first line search fails:
    # the run stops with one zero-step row at the projected start
    from thinvolt import fields
    from thinvolt.elastic3d import flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y_init = flat_deformation(grid, eps)
    _infinite_away_from_start(monkeypatch, grid, y_init)
    telemetry = {}
    y, _, history, converged = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-11, max_iters=5, telemetry=telemetry)
    assert history.shape == (1, 6)
    assert history[0, 3] == 0.0 and history[0, 1] == history[0, 0]
    assert not converged and telemetry["termination"] == "line_search"
    assert np.array_equal(y, fields.zero_mean_project(y_init, grid))


def test_solve3d_evaluates_M_eps_once_per_point(monkeypatch):
    # the start is evaluated once, each trial once, and the accepted trial's
    # value serves the next iterate: M_eps calls = 1 + the trials telemetry
    # counts, the line searches' and the first row's two or three
    # orientation trials
    from thinvolt import elastic3d, optimize
    from thinvolt.elastic3d import flat_deformation

    calls = {"M_eps": 0, "trials": 0}
    M_eps, backtrack = elastic3d.M_eps, optimize.backtrack

    def counted_M_eps(*args):
        calls["M_eps"] += 1
        return M_eps(*args)

    def counted_backtrack(fun, *args):
        def counted_fun(c):
            calls["trials"] += 1
            return fun(c)

        return backtrack(counted_fun, *args)

    monkeypatch.setattr(elastic3d, "M_eps", counted_M_eps)
    monkeypatch.setattr(optimize, "backtrack", counted_backtrack)
    grid = Grid3(5, 5, 4)
    eps = 0.25
    telemetry = {}
    _, _, history, _ = solve3d_alternating(
        grid, eps, Material(), flat_deformation(grid, eps), poisson_tol=1e-11, max_iters=4, telemetry=telemetry
    )
    assert history.shape[0] == 4 and calls["trials"] >= 4
    assert telemetry["line_search_evaluations"] - calls["trials"] in (2, 3)
    assert calls["M_eps"] == 1 + telemetry["line_search_evaluations"]


@pytest.mark.parametrize("stop", ["converged", "max_iters", "line_search"])
def test_solve3d_assembles_once_per_point(monkeypatch, stop):
    # the start and each finite trial assemble one system, and the accepted
    # trial's system serves the next iterate; no exit assembles again. Each
    # row solves its potential once; only the iteration cap solves once more,
    # at the last accepted point, while the other exits return the potential
    # their last row certified. The trials telemetry counts beyond the line
    # searches' are the first row's orientation trials, rigid rotations of a
    # feasible point and so all finite: none when the first row converges or
    # its search fails, two or three otherwise
    from thinvolt import electro3d, optimize
    from thinvolt.elastic3d import flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y_init = flat_deformation(grid, eps)
    calls = {"assemble": 0, "solve": 0, "trials": 0, "finite_trials": 0}
    assemble, solve, backtrack = electro3d.assemble_poisson3, electro3d.PoissonSystem.solve, optimize.backtrack

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def counted_backtrack(fun, *args):
        def counted_fun(c):
            f, state = fun(c)
            calls["trials"] += 1
            calls["finite_trials"] += bool(np.isfinite(f))
            return f, state

        return backtrack(counted_fun, *args)

    monkeypatch.setattr(electro3d, "assemble_poisson3", counted_assemble)
    monkeypatch.setattr(electro3d.PoissonSystem, "solve", counted_solve)
    monkeypatch.setattr(optimize, "backtrack", counted_backtrack)
    if stop == "line_search":
        _infinite_away_from_start(monkeypatch, grid, y_init)
    grad_tol = 1e3 if stop == "converged" else 1e-7
    telemetry = {}
    y, phi, history, converged = solve3d_alternating(
        grid, eps, mat, y_init, poisson_tol=1e-11, grad_tol=grad_tol, max_iters=4, telemetry=telemetry
    )
    assert telemetry["termination"] == stop and converged == (stop == "converged")
    assert calls["finite_trials"] >= (4 if stop == "max_iters" else 0)
    orientation_trials = telemetry["line_search_evaluations"] - calls["trials"]
    assert orientation_trials in ((2, 3) if stop == "max_iters" else (0,))
    assert calls["assemble"] == 1 + calls["finite_trials"] + orientation_trials
    assert calls["solve"] == len(history) + (stop == "max_iters")
    pg0 = electro3d.check_pg0(y, phi, grid, eps, mat)
    if stop == "max_iters":
        assert pg0 <= 1e-8
    else:
        # the returned potential is the one the last row's residual certified
        assert pg0 == history[-1, 4]


def test_solve3d_rejects_a_trial_whose_assembly_fails(monkeypatch):
    # a trial whose cell centre loses orientation can have a finite M_eps
    # while its assembly raises; the line search must halve the step, not stop
    from thinvolt import electro3d
    from thinvolt.elastic3d import flat_deformation

    assemble = electro3d.assemble_poisson3
    calls = []

    def failing_first_trial(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("deformation not orientation-preserving at cell (0, 0, 1)")
        return assemble(*args)

    monkeypatch.setattr(electro3d, "assemble_poisson3", failing_first_trial)
    grid = Grid3(5, 5, 4)
    eps = 0.25
    _, _, history, _ = solve3d_alternating(grid, eps, Material(), flat_deformation(grid, eps), poisson_tol=1e-11, max_iters=3)
    assert history.shape == (3, 6) and np.all(history[:, 3] > 0.0)


def _lifted_coupled_start(n1=9, n2=9, n3=5, eps_index=0):
    # configs/coupled.json on a small grid at one of its eps (the largest by default), started from the lifted configured profile
    from thinvolt.recovery import lift_deformation, optimal_corrector
    from thinvolt.relaxation import RelaxedQ2

    cfg = RunConfig.from_file(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "coupled.json"))
    cfg.n1, cfg.n2, cfg.n3 = n1, n2, n3
    grid, eps = cfg.grid3(), cfg.eps_list[eps_index]
    inputs = cfg.recovery_inputs(cfg.grid2())
    d = optimal_corrector(inputs, grid, RelaxedQ2.of(cfg.material))
    return grid, eps, cfg.material, lift_deformation(inputs.isometry, eps, grid, inputs.g_matrix, d)


def _solve3d_trials(monkeypatch, start):
    # (history, trials per line search) of ten solve3d rows from start
    from thinvolt import optimize

    trials = []
    backtrack = optimize.backtrack

    def counted_backtrack(fun, *args):
        trials.append(0)

        def counted_fun(c):
            trials[-1] += 1
            return fun(c)

        return backtrack(counted_fun, *args)

    monkeypatch.setattr(optimize, "backtrack", counted_backtrack)
    grid, eps, mat, y_init = start
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, max_iters=10)
    return history, trials


def test_solve3d_metric_steps_are_accepted_near_the_unit_step(monkeypatch):
    # the metric's x3-line part absorbs the 1/eps^2 thickness stiffness, so the
    # direction's unit step is accepted after at most one rejected trial on
    # average; Euclidean directions need several halvings per row
    history, trials = _solve3d_trials(monkeypatch, _lifted_coupled_start())
    assert history.shape[0] == 10 and sum(trials) <= 2 * 10
    # the step column is the accepted Armijo step
    assert np.all((history[:, 3] > 0.0) & (history[:, 3] <= 1.0))


def test_solve3d_steps_near_the_unit_step_after_the_first_row_on_the_shipped_grid(monkeypatch):
    # on the shipped 17x17x9 grid the first row has no pair, and its
    # quadratic-interpolation trials reach an accepted step within four;
    # after it the scaled L-BFGS direction's unit step is accepted on nearly
    # every row: at most 14 trials in all, 13 measured (14 with the fine
    # level in unit scale)
    history, trials = _solve3d_trials(monkeypatch, _lifted_coupled_start(17, 17, 9))
    assert history.shape[0] == 10 and len(trials) == 10 and sum(trials) <= 14
    assert 0.0 < history[0, 3] < 1.0 and trials[0] <= 4


def test_solve3d_reaches_the_rotated_branch_within_budget():
    # the first row's orientation step puts the lifted start on the rotated
    # branch, where it converges to |g| <= 1e-4 in 46 rows on this grid at
    # F_eps 0.0062631; without the step it stayed on the configured branch
    # and took 46 rows to its critical point (69 with the fine level in unit
    # scale), and Euclidean steps stay above 0.2 after 160
    grid, eps, mat, y_init = _lifted_coupled_start()
    _, _, history, converged = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, grad_tol=1e-4, max_iters=150)
    assert converged and history[-1, 2] <= 1e-4 and abs(history[-1, 1] - 0.0062631) <= 1e-6
    assert np.max(history[:, 4]) <= 1e-8 and np.max(history[:, 5]) <= 1e-8


def test_solve3d_two_level_metric_ends_the_bench_budget_far_lower():
    # the bench's ten rows on the shipped grid: the x3-line metric alone ends
    # at F_eps 0.2425; the lifted bending metric, built once at the start with
    # one curvature pair, at 0.1277; rebuilt at every iterate with up to ten
    # pairs, at 0.0987 with the fine level in unit scale and at 0.02503 with it
    # in M_eps's units; with the first row's orientation step, at 0.0065337,
    # every row's phi-side certificates within their gates
    grid, eps, mat, y_init = _lifted_coupled_start(17, 17, 9)
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-12, grad_tol=1e-8, max_iters=10)
    assert history.shape == (10, 6) and history[-1, 1] <= 0.007
    assert np.max(history[:, 4]) <= 1e-8 and np.max(history[:, 5]) <= 1e-8


def test_orientation_orbit_energy_is_affine_in_the_double_angle():
    # at the potential solved at y, the frozen potential of solve3d's trials,
    # the energy of the rigid rotations R_c y about x2 is
    # alpha + beta cos 2c + gamma sin 2c: the samples at 0, pi/4 and pi/2
    # give it at every other angle to 1e-12 relative (2e-15 measured), and
    # the orientation step's third trial lands on its minimum
    from thinvolt import elastic3d, electro3d, fields

    grid, eps, mat, y = _lifted_coupled_start()
    y = fields.zero_mean_project(y, grid)
    phi = electro3d.assemble_poisson3(y, grid, eps, mat).solve(tol=1e-10)

    def frozen(c):
        c = fields.zero_mean_project(c, grid)
        return elastic3d.M_eps(c, grid, eps, mat) - electro3d.electrostatic_energy(*electro3d.assemble_poisson3(c, grid, eps, mat).energy_parts(phi))

    f0, f_quarter, f_half = (frozen(_rotated_about_x2(y, c)) for c in (0.0, math.pi / 4, math.pi / 2))
    alpha = 0.5 * (f0 + f_half)
    beta, gamma = f0 - alpha, f_quarter - alpha
    for c in (0.1, 0.3, 1.0, 2.0, -0.7, math.pi / 3):
        f = frozen(_rotated_about_x2(y, c))
        assert abs(f - (alpha + beta * math.cos(2 * c) + gamma * math.sin(2 * c))) <= 1e-12 * abs(f)
    trials = []

    def trial(c):
        trials.append(c)
        return frozen(c), c

    angle, f, rotated = _orientation_step(trial, y, f0)
    assert len(trials) == 3 and np.array_equal(rotated, _rotated_about_x2(y, angle))
    assert abs(f - (alpha - math.hypot(beta, gamma))) <= 1e-12 * abs(f) and f < f_half < f0


def test_orientation_step_is_not_taken_with_isotropic_permittivity(monkeypatch):
    # negative control: with k = 2 I the energy is the same on the whole
    # orbit to round-off, so the first row runs its two sample trials, takes
    # no step and records the angle 0
    from thinvolt import optimize

    grid, eps, mat, y_init = _lifted_coupled_start()
    mat = dataclasses.replace(mat, permittivity=PermittivityModel(k=2 * np.eye(3)))
    searched = [0]
    backtrack = optimize.backtrack

    def counted_backtrack(fun, *args):
        def counted_fun(c):
            searched[0] += 1
            return fun(c)

        return backtrack(counted_fun, *args)

    monkeypatch.setattr(optimize, "backtrack", counted_backtrack)
    telemetry = {}
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, max_iters=2, telemetry=telemetry)
    assert history.shape == (2, 6) and np.all(history[:, 3] > 0.0)
    assert telemetry["orientation_angle"] == 0.0
    assert telemetry["line_search_evaluations"] - searched[0] == 2


def _thin_regime_rows(eps_index):
    # twenty solve3d rows on the shipped grid at a thinner configured eps;
    # every row's phi-side certificates within their gates
    grid, eps, mat, y_init = _lifted_coupled_start(17, 17, 9, eps_index=eps_index)
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-12, grad_tol=1e-8, max_iters=20)
    assert history.shape == (20, 6)
    assert np.max(history[:, 4]) <= 1e-8 and np.max(history[:, 5]) <= 1e-8
    return eps, history


def test_solve3d_two_level_metric_descends_in_the_thin_regime():
    # eps 1/8, where the bending stiffness is small against the thickness
    # stiffness: twenty rows end at F_eps 0.006424 on the rotated branch
    # (0.02500 without the orientation step, and 0.066 with the fine level in
    # unit scale, which outweighs the coarse one by about 3 / eps^2)
    eps, history = _thin_regime_rows(1)
    assert eps == 0.125 and history[-1, 1] <= 0.007


def test_solve3d_two_level_metric_descends_at_eps_one_sixteenth():
    # twenty rows end at F_eps 0.006553 on the rotated branch (0.0253 without
    # the orientation step, 0.137 with the fine level in unit scale)
    eps, history = _thin_regime_rows(2)
    assert eps == 0.0625 and history[-1, 1] <= 0.007


@pytest.mark.parametrize("eps_index", [0, 2])
def test_two_level_metric_fine_level_follows_the_thickness_hessian(eps_index):
    # on fields odd in x3 (no x3-constant part) and odd about x2 = 1/2 (J v = 0,
    # so M^-1 is its fine level alone), the Rayleigh quotient of M_eps's
    # Hessian at the lifted start against the fine level's stays in one band
    # at eps 1/4 and 1/16: 0.47-0.53 and 0.28-0.33 measured. The unit-scaled
    # level's quotient is C / eps^2 = 48 and 768 times larger
    from thinvolt.elastic3d import grad_M_eps
    from thinvolt.recovery import two_level_metric
    from thinvolt.relaxation import RelaxedQ2

    grid, eps, mat, y = _lifted_coupled_start(eps_index=eps_index)
    metric = two_level_metric(y, grid, eps, RelaxedQ2.of(mat))
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = rng.standard_normal((grid.n1, grid.n2, 1, 3)) * grid.x3[None, None, :, None]
        u -= u[:, ::-1].copy()
        v = metric(u)  # M_fine v = u, so v . M_fine v = v . u
        # central differences of the exact gradient, h rms(v) = 1e-6
        h = 1e-6 / np.sqrt(np.mean(v * v))
        Hv = (grad_M_eps(y + h * v, grid, eps, mat) - grad_M_eps(y - h * v, grid, eps, mat)) / (2.0 * h)
        assert 0.2 <= np.vdot(v, Hv) / np.vdot(v, u) <= 1.0


def _recorded_directions(monkeypatch, fake_row=None):
    # records each row's deformation, gradient and the pairs its direction
    # sees, and whether each of the row's line searches failed; at fake_row
    # the gradient is replaced by g_prev - (y - y_prev), whose pair has
    # s.dg = -|s|^2 < 0
    from thinvolt import elastic3d, optimize

    rows = {"y": [], "g": [], "pairs": [], "failed": []}
    grad, direction, backtrack = elastic3d.grad_y_F_eps, optimize._direction, optimize.backtrack

    def recorded_grad(y, *args):
        g = grad(y, *args)
        if len(rows["g"]) == fake_row:
            g = rows["g"][-1] - (y - rows["y"][-1])
        rows["y"].append(y.copy())
        rows["g"].append(g.copy())
        return g

    def recorded_direction(g, pairs, inv_metric):
        rows["pairs"].append([(s.copy(), dg.copy(), rho) for s, dg, rho in pairs])
        rows["failed"].append([])
        return direction(g, pairs, inv_metric)

    def recorded_backtrack(*args):
        found = backtrack(*args)
        rows["failed"][-1].append(found is None)
        return found

    monkeypatch.setattr(elastic3d, "grad_y_F_eps", recorded_grad)
    monkeypatch.setattr(optimize, "_direction", recorded_direction)
    monkeypatch.setattr(optimize, "backtrack", recorded_backtrack)
    return rows


def test_solve3d_direction_sees_the_newest_positive_curvature_pairs(monkeypatch):
    # every row's direction sees, oldest first, the newest optimize.MEMORY
    # pairs (y_k - y_k-1, g_k - g_k-1) with a positive product, kept since the
    # last failed search or orientation step: the first row's orientation
    # step clears the pairs and forms none, the forged pair of row 4 is
    # skipped and the two older pairs stay, the search along the forged
    # gradient's direction fails, and its retry along -M^-1 g drops the memory
    from thinvolt.optimize import MEMORY

    rows = _recorded_directions(monkeypatch, fake_row=4)
    grid, eps, mat, y_init = _lifted_coupled_start()
    telemetry = {}
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, max_iters=MEMORY + 5, telemetry=telemetry)
    assert len(rows["pairs"]) == MEMORY + 5 and np.all(history[:, 3] > 0.0)
    assert telemetry["orientation_angle"] != 0.0
    kept = []
    for k, (pairs, failed) in enumerate(zip(rows["pairs"], rows["failed"])):
        if k == 1:
            kept = []  # the orientation step after row 0
        elif k > 1:
            s, dg = rows["y"][k] - rows["y"][k - 1], rows["g"][k] - rows["g"][k - 1]
            if np.vdot(s, dg) > 0.0:
                kept = (kept + [(s, dg, 1.0 / float(np.vdot(s, dg)))])[-MEMORY:]
            else:
                assert k == 4
        assert len(pairs) == len(kept)
        for (s, dg, rho), (s_want, dg_want, rho_want) in zip(pairs, kept):
            assert np.array_equal(s, s_want) and np.array_equal(dg, dg_want) and rho == rho_want
        # a failed search is retried once, with the pairs dropped, only when pairs were stored
        assert failed in ([False], [True, False]) and (failed == [False] or pairs)
        if failed[0]:
            kept = []
    assert [k for k, failed in enumerate(rows["failed"]) if failed[0]] == [4]
    assert [len(pairs) for pairs in rows["pairs"][:6]] == [0, 0, 1, 2, 2, 1]
    assert len(rows["pairs"][-1]) == MEMORY


def test_solve3d_retries_a_failed_search_along_the_metric_gradient(monkeypatch):
    # a search along the L-BFGS direction that fails is retried once along
    # -M^-1 g, M the two-level metric at the current iterate, with the pairs
    # dropped; the retry's accepted step fills the row. The first row's
    # orientation step clears the pairs, so row 2 is the first whose
    # direction sees one
    from thinvolt import fields, optimize
    from thinvolt.recovery import two_level_metric
    from thinvolt.relaxation import RelaxedQ2

    rows = _recorded_directions(monkeypatch)
    searches = []
    backtrack = optimize.backtrack

    def failing_with_a_pair(fun, x, f, g, p):
        searches.append(p.copy())
        if rows["pairs"][-1] and len(searches) == 3:
            return None
        return backtrack(fun, x, f, g, p)

    monkeypatch.setattr(optimize, "backtrack", failing_with_a_pair)
    grid, eps, mat, y_init = _lifted_coupled_start()
    _, _, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, max_iters=4)
    assert [len(pairs) for pairs in rows["pairs"][:3]] == [0, 0, 1] and len(searches) == 5
    rq = RelaxedQ2.of(mat)
    retry = -two_level_metric(rows["y"][2], grid, eps, rq)(rows["g"][2])
    assert np.array_equal(searches[3], retry)
    # the metric follows the iterate: the start's gives another direction
    assert not np.array_equal(retry, -two_level_metric(fields.zero_mean_project(y_init, grid), grid, eps, rq)(rows["g"][2]))
    # the dropped memory holds only the newest pair at the next row
    assert len(rows["pairs"][3]) <= 1
    assert history.shape == (4, 6) and np.all(history[:, 3] > 0.0)


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_config_errors(tmp_path):
    missing = str(tmp_path / "none.json")
    assert cli_main(["sweep", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {"n1": "lots"}}')
    assert cli_main(["sweep", "--config", str(bad)]) == 2
    cfgpath = _write_config(tmp_path / "ok.json")
    assert cli_main(["sweep", "--config", cfgpath, "--eps", "0.1,0.2"]) == 2
    assert cli_main(["sweep", "--config", cfgpath, "--seed", "-1"]) == 2
    assert cli_main(["bogus-command", "--config", cfgpath]) == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"seed": 0, "note": "\u00e9"}'.encode("latin-1"))
    assert cli_main(["relax", "--config", str(latin1)]) == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert cli_main(["relax", "--config", str(deep)]) == 2
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert cli_main(["relax", "--config", cfgpath, "--out", str(not_a_dir)]) == 2
    nul_dir = _write_config(tmp_path / "nul.json", extra={"output": {"dir": str(tmp_path / "bad\u0000dir")}})
    assert cli_main(["relax", "--config", nul_dir]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        {"eps": [float("nan"), 0.1, 0.05]},
        {"eps": [float("inf"), 0.1, 0.05]},
        {"solver": {"poisson_tol": float("inf")}},
        {"solver": {"max_iters": float("nan")}},
        {"grid": {"n1": float("inf")}},
        {"elastic": {"mu": float("nan")}},
        {"charge": {"amplitude": float("-inf")}},
        {"coupling": {"gamma": float("nan")}},
        {"permittivity": {"k": [[1, 0, 0], [0, float("nan"), 0], [0, 0, 1]]}},
        {"seed": float("inf")},
    ],
)
def test_cli_non_finite_config_exits_2(tmp_path, extra):
    cfgpath = _write_config(tmp_path / "cfg.json", extra=extra)
    out = tmp_path / "out"
    assert cli_main(["relax", "--config", cfgpath, "--out", str(out)]) == 2
    assert not (out / "relax.json").exists()


def test_cli_non_finite_eps_override_exits_2(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    assert cli_main(["relax", "--config", cfgpath, "--eps", "nan,0.1"]) == 2


def test_cli_sweep_reports_failed_row_reason(tmp_path, monkeypatch):
    from thinvolt import electro3d

    real = electro3d.assemble_poisson3

    def failing(y, grid, eps, mat):
        if eps == 0.125:
            raise electro3d.SolverError("forced failure", [1.0])
        return real(y, grid, eps, mat)

    monkeypatch.setattr(electro3d, "assemble_poisson3", failing)
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfgpath, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows_ok"] == 2
    assert summary["failed_rows"] == [{"eps": 0.125, "reason": "SolverError: forced failure"}]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",") == SWEEP_COLUMNS
    assert lines[2].split(",")[0] == "0.125" and all(v == "nan" for v in lines[2].split(",")[1:])


def test_cli_relax(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = str(tmp_path / "out")
    assert cli_main(["relax", "--config", cfgpath, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "relax.json").read_text())
    assert payload["pass"]
    assert payload["q2_closed_form_dev"] <= 1e-10
    assert np.array(payload["qbar2_quadratic"]).shape == (4, 4)


def test_cli_sweep_writes_artifacts_and_is_deterministic(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    code_a = cli_main(["sweep", "--config", cfgpath, "--out", out_a])
    code_b = cli_main(["sweep", "--config", cfgpath, "--out", out_b])
    assert code_a == code_b
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert csv_a == csv_b
    header = csv_a.decode().splitlines()[0].split(",")
    assert header == SWEEP_COLUMNS
    assert len(csv_a.decode().splitlines()) == 4  # header + one row per eps
    assert (tmp_path / "a" / "sweep.svg").exists()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["mode"] == "sweep" and "pass" in summary
    assert summary["failed_rows"] == []


def test_cli_sweep_too_few_rows_fails(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json", extra={"eps": [0.25, 0.125]})
    out = str(tmp_path / "out")
    assert cli_main(["sweep", "--config", cfgpath, "--out", out]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["pass"] and "error" in summary


def test_cli_check_roundtrip(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfgpath = _write_config(tmp_path / "cfg.json")
    rows = _synthetic_rows([0.25, 0.125, 0.0625])
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join("%.17g" % float(v) for v in row.values()))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    assert cli_main(["check", "--config", cfgpath, "--out", str(out)]) == 0
    payload = json.loads((out / "check.json").read_text())
    assert payload["pass"]
    # a sweep stuck a constant distance below the target must fail
    bad = _synthetic_rows([0.25, 0.125, 0.0625])
    for row in bad:
        row.M_eps = row.M0 - 1.0
        row.F_eps = row.M_eps - row.E_eps
    lines = [",".join(SWEEP_COLUMNS)]
    for row in bad:
        lines.append(",".join("%.17g" % float(v) for v in row.values()))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    assert cli_main(["check", "--config", cfgpath, "--out", str(out)]) == 1
    # missing and malformed tables are configuration errors
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli_main(["check", "--config", cfgpath, "--out", str(empty)]) == 2
    (out / "sweep.csv").write_text("a,b\n1,2\n")
    assert cli_main(["check", "--config", cfgpath, "--out", str(out)]) == 2
    # unreadable tables too: a non-numeric entry, and a directory at the path
    (out / "sweep.csv").write_text("eps,a\n1,zz\n")
    assert cli_main(["check", "--config", cfgpath, "--out", str(out)]) == 2
    as_dir = tmp_path / "as_dir"
    (as_dir / "sweep.csv").mkdir(parents=True)
    assert cli_main(["check", "--config", cfgpath, "--out", str(as_dir)]) == 2


def _solve2d_config(path, max_iters):
    return _write_config(
        path,
        extra={
            "grid": {"n1": 9, "n2": 9, "n3": 5, "n1_2d": 33, "n2_2d": 7},
            "isometry": {"kind": "linear", "slope": 0.3},
            "solver": {"poisson_tol": 1e-12, "grad_tol": 1e-8, "max_iters": max_iters},
        },
    )


def test_cli_solve2d(tmp_path):
    cfgpath = _solve2d_config(tmp_path / "cfg.json", 200)
    out = str(tmp_path / "out")
    assert cli_main(["solve2d", "--config", cfgpath, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass"] and summary["converged"]
    assert summary["termination"] == "converged"
    assert summary["virial"] <= 1e-7
    assert summary["phi_probe"] <= 1e-10
    assert summary["y_probe"] <= 1e-8
    hist = (tmp_path / "out" / "solve2d_history.csv").read_text().splitlines()
    assert hist[0] == "F_after_phi,F_after_theta,grad_norm,step"
    assert len(hist) >= 2
    rows = np.loadtxt(hist[1:], delimiter=",", ndmin=2)
    assert len(rows) == summary["iterations"]
    # F_after_theta is f at the next iterate, which the next row starts from
    assert np.array_equal(rows[1:, 0], rows[:-1, 1])
    assert rows[-1, 3] == 0.0 and rows[-1, 0] == rows[-1, 1] == summary["F0"]


def test_cli_solve2d_reports_iteration_cap(tmp_path):
    cfgpath = _solve2d_config(tmp_path / "cfg.json", 1)
    out = str(tmp_path / "out")
    assert cli_main(["solve2d", "--config", cfgpath, "--out", out]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["converged"]
    assert summary["termination"] == "max_iters"
    assert summary["iterations"] == 1


def test_cli_solve3d(tmp_path):
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        extra={
            "grid": {"n1": 5, "n2": 5, "n3": 4},
            "eps": [0.25],
            "solver": {"poisson_tol": 1e-11, "grad_tol": 1e-7, "max_iters": 3},
        },
    )
    out = str(tmp_path / "out")
    assert cli_main(["solve3d", "--config", cfgpath, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["pass"]
    assert summary["worst_pg0"] <= 1e-8
    assert summary["worst_phi_probe"] <= 1e-8
    # one potential solve per row and the final one, each at least one PCG iteration
    assert isinstance(summary["pcg_iterations"], int) and summary["pcg_iterations"] >= 3 + 1
    # an unconverged row evaluates at least one line-search trial
    assert isinstance(summary["line_search_evaluations"], int) and summary["line_search_evaluations"] >= summary["iterations"]
    # the angle of the first row's orientation step about x2, taken with the
    # default anisotropic k: the orbit energy's minimiser in [-pi/2, pi/2]
    assert isinstance(summary["orientation_angle"], float) and 0.0 < abs(summary["orientation_angle"]) <= math.pi / 2
    hist = (tmp_path / "out" / "solve3d_history.csv").read_text().splitlines()
    assert hist[0] == "F_after_phi,F_after_y,grad_norm,step,pg0_res,phi_probe"


def test_cli_solve3d_reports_termination(tmp_path):
    for grad_tol, max_iters, want in ((1e-7, 2, "max_iters"), (1e3, 5, "converged")):
        cfgpath = _write_config(
            tmp_path / "cfg.json",
            extra={
                "grid": {"n1": 5, "n2": 5, "n3": 4},
                "eps": [0.25],
                "solver": {"poisson_tol": 1e-11, "grad_tol": grad_tol, "max_iters": max_iters},
            },
        )
        out = tmp_path / want
        assert cli_main(["solve3d", "--config", cfgpath, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == want
        assert summary["converged"] == (want == "converged")
        assert summary["iterations"] == (max_iters if want == "max_iters" else 1)


@pytest.mark.parametrize(
    "extra, reason",
    [
        ({"isometry": {"kind": "cosine", "amplitude": 50.0}}, "infeasible initial deformation"),
        ({"prestrain": {"B1": [[-20.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}}, "prestrain factor loses orientation"),
    ],
    ids=["lifted-start", "prestrain-orientation"],
)
def test_cli_solve3d_infeasible_start_reports_error(tmp_path, capsys, extra, reason):
    cfgpath = _write_config(
        tmp_path / "cfg.json",
        extra={"grid": {"n1": 5, "n2": 5, "n3": 4}, "eps": [0.25], "solver": {"max_iters": 3}, **extra},
    )
    out = tmp_path / "out"
    assert cli_main(["solve3d", "--config", cfgpath, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and summary["mode"] == "solve3d"
    assert summary["error"].startswith("ValueError: ") and reason in summary["error"]
    assert not (out / "solve3d_history.csv").exists()
    assert capsys.readouterr().err == ""


def test_cli_solve2d_failed_potential_solve_reports_error(tmp_path, capsys, monkeypatch):
    from thinvolt import bending2d, electro3d

    def failing(*args, **kwargs):
        raise electro3d.SolverError("pcg: operator lost positive definiteness", [1.0])

    monkeypatch.setattr(bending2d, "solve_potential2", failing)
    cfgpath = _write_config(tmp_path / "cfg.json", extra={"solver": {"max_iters": 3}})
    out = tmp_path / "out"
    assert cli_main(["solve2d", "--config", cfgpath, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and summary["mode"] == "solve2d" and summary["seed"] == 0
    assert summary["error"] == "SolverError: pcg: operator lost positive definiteness"
    assert not (out / "solve2d_history.csv").exists()
    assert capsys.readouterr().err == ""


def test_cli_sweep_failed_target_solve_reports_error(tmp_path, capsys, monkeypatch):
    from thinvolt import bending2d, electro3d

    def failing(*args, **kwargs):
        raise electro3d.SolverError("pcg: operator lost positive definiteness", [1.0])

    monkeypatch.setattr(bending2d, "solve_potential2", failing)
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfgpath, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {
        "mode": "sweep",
        "seed": 0,
        "eps": [0.25, 0.125, 0.0625],
        "error": "SolverError: pcg: operator lost positive definiteness",
        "pass": False,
    }
    assert not (out / "sweep.csv").exists()
    assert capsys.readouterr().err == ""


def test_cli_sweep_with_a_tolerance_below_roundoff_stops_at_the_gap(tmp_path, capsys):
    # no residual reaches 1e-300, so every solve, the 2D target's included,
    # ends at pcg's energy-gap certificate and the sweep passes
    cfgpath = _bending_config(tmp_path / "cfg.json", {"n1": 17, "n2": 17, "n3": 5}, {"poisson_tol": 1e-300})
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfgpath, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True and summary["rows_ok"] == 4
    assert (out / "sweep.csv").exists()
    assert capsys.readouterr().err == ""


def test_cli_sweep_is_byte_identical_across_blas_thread_counts(tmp_path):
    # OpenBLAS splits ddot and dnrm2 across threads above 10,000 entries;
    # 25x25x17 has 10,625 nodes, so a BLAS reduction in the potential solve
    # or the energies would move the CSV's last bits with the thread count
    import thinvolt

    cfgpath = _bending_config(tmp_path / "cfg.json", {"n1": 25, "n2": 25, "n3": 17})
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinvolt.__file__)))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        }
        subprocess.run([sys.executable, "-m", "thinvolt", "sweep", "--config", cfgpath, "--out", str(out)], env=env, check=True, capture_output=True)
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_cli_solve3d_is_byte_identical_across_blas_thread_counts(tmp_path):
    # three rows of the shipped solve3d, and two on 25x25x17: the potential
    # solves, the energies, the two-level metric's coarse products and the
    # L-BFGS inner products and norms must not move a bit with the thread
    # count. OpenBLAS splits ddot across threads above 10,000 entries; the
    # shipped 17x17x9 deformation has 7,803, the 25x25x17 one 31,875 and its
    # potential 10,625 nodes
    import thinvolt

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "coupled.json")) as fh:
        shipped = json.load(fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinvolt.__file__)))
    for name, grid, rows in (("shipped", {}, 3), ("fine", {"n1": 25, "n2": 25, "n3": 17}, 2)):
        data = json.loads(json.dumps(shipped))
        data["grid"].update(grid)
        data["solver"]["max_iters"] = rows
        cfgpath = tmp_path / f"{name}.json"
        cfgpath.write_text(json.dumps(data))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-threads{threads}"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            }
            subprocess.run([sys.executable, "-m", "thinvolt", "solve3d", "--config", str(cfgpath), "--out", str(out)], env=env, check=True, capture_output=True)
            written.append([(out / f).read_bytes() for f in ("solve3d_history.csv", "summary.json")])
        assert written[0][0].count(b"\n") == rows + 1 and written[0] == written[1], name


def test_cli_eps_override(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = str(tmp_path / "out")
    cli_main(["sweep", "--config", cfgpath, "--out", out, "--eps", "0.5,0.25,0.125,0.0625"])
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("0.5")


def test_cli_sweep_fails_far_from_the_limit(tmp_path):
    # negative control: the shipped bending config at thick eps is far from its
    # 2D limit (final mech_recovery margin about 0.51 against a 0.022
    # tolerance) although its margins shrink; the sweep must fail
    cfgpath = _bending_config(tmp_path / "cfg.json", {"n1": 17, "n2": 17, "n3": 9})
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", cfgpath, "--out", str(out), "--eps", "1.0,0.9,0.8"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False and summary["rows_ok"] == 3
    conditions = summary["conditions"]
    for name in ("mech_recovery", "total_recovery"):
        entry = conditions[name]
        assert not entry["pass"] and entry["final"] > 20.0 * entry["tol"]
        assert entry["final"] < entry["values"][-2]  # shrinking margins do not pass
    assert conditions["mech_lower"]["pass"] and conditions["elec_lower"]["pass"]


def test_cli_subcommands_do_not_load_numpy_random(tmp_path):
    # the probes draw from the stdlib generator: no subcommand imports
    # numpy.random, nor the secrets/hashlib chain (libcrypto) that it pulls in
    import thinvolt

    sweep = _write_config(tmp_path / "sweep.json")
    solve3d = _write_config(
        tmp_path / "solve3d.json",
        extra={"grid": {"n1": 5, "n2": 5, "n3": 4}, "eps": [0.25], "solver": {"poisson_tol": 1e-11, "max_iters": 2}},
    )
    solve2d = _solve2d_config(tmp_path / "solve2d.json", 200)
    runs = [
        ["solve3d", "--config", solve3d, "--out", str(tmp_path / "solve3d"), "--seed", "3"],
        ["solve2d", "--config", solve2d, "--out", str(tmp_path / "solve2d"), "--seed", "3"],
        ["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")],
        ["check", "--config", sweep, "--out", str(tmp_path / "sweep")],
        ["relax", "--config", sweep, "--out", str(tmp_path / "relax")],
    ]
    script = (
        "import json, sys\n"
        "from thinvolt.harness import cli_main\n"
        "codes = [cli_main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinvolt.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"][0] == 0 and result["codes"][1] == 0 and result["codes"][4] == 0
    assert result["codes"][2] == result["codes"][3]
    assert result["loaded"] == []
