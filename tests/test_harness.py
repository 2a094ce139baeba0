import dataclasses
import json
import os

import numpy as np
import pytest

from thinvolt.fields import Grid3
from thinvolt.harness import (
    ConfigError,
    RunConfig,
    check_conditions,
    cli_main,
    _termination,
    saddle_probe,
    solve3d_alternating,
)
from thinvolt.material import Material
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
    assert cfg.mode is None and cfg.seed == 0
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
        assert entry["final"] <= entry["tol"] or entry["final"] <= 0.5 * entry["values"][-2]


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
        rng=np.random.default_rng(0),
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
    y, _, history, converged = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-11, max_iters=5)
    assert history.shape == (1, 6)
    assert history[0, 3] == 0.0 and history[0, 1] == history[0, 0]
    assert not converged and _termination(converged, history) == "line_search"
    assert np.array_equal(y, fields.zero_mean_project(y_init, grid))


def test_solve3d_evaluates_M_eps_once_per_point(monkeypatch):
    # the start is evaluated once, each trial once, and the accepted trial's
    # value serves the next iterate: M_eps calls = 1 + line-search trials
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
    _, _, history, _ = solve3d_alternating(grid, eps, Material(), flat_deformation(grid, eps), poisson_tol=1e-11, max_iters=4)
    assert history.shape[0] == 4 and calls["trials"] >= 4
    assert calls["M_eps"] == 1 + calls["trials"]


@pytest.mark.parametrize("stop", ["converged", "max_iters", "line_search"])
def test_solve3d_assembles_once_per_point(monkeypatch, stop):
    # the start and each finite trial assemble one system, and the accepted
    # trial's system serves the next iterate and, at the iteration cap, the
    # final solve; the other exits dropped it before the gradient and
    # assemble once more for the final solve
    from thinvolt import electro3d, optimize
    from thinvolt.elastic3d import flat_deformation

    grid = Grid3(5, 5, 4)
    eps = 0.25
    mat = Material()
    y_init = flat_deformation(grid, eps)
    calls = {"assemble": 0, "finite_trials": 0}
    assemble, backtrack = electro3d.assemble_poisson3, optimize.backtrack

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    def counted_backtrack(fun, *args):
        def counted_fun(c):
            f, state = fun(c)
            calls["finite_trials"] += bool(np.isfinite(f))
            return f, state

        return backtrack(counted_fun, *args)

    monkeypatch.setattr(electro3d, "assemble_poisson3", counted_assemble)
    monkeypatch.setattr(optimize, "backtrack", counted_backtrack)
    if stop == "line_search":
        _infinite_away_from_start(monkeypatch, grid, y_init)
    grad_tol = 1e3 if stop == "converged" else 1e-7
    y, phi, history, converged = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-11, grad_tol=grad_tol, max_iters=4)
    assert _termination(converged, history) == stop
    assert calls["finite_trials"] >= (4 if stop == "max_iters" else 0)
    assert calls["assemble"] == 1 + calls["finite_trials"] + (stop != "max_iters")
    assert electro3d.check_pg0(y, phi, grid, eps, mat) <= 1e-8


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


def test_solve3d_termination_reasons():
    accepted = np.array([[1.0, 0.9, 0.1, 0.5, 0.0, 0.0]])
    failed = np.array([[1.0, 1.0, 0.1, 0.0, 0.0, 0.0]])
    assert _termination(False, accepted) == "max_iters"
    assert _termination(False, failed) == "line_search"
    assert _termination(True, failed) == "converged"


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


def test_cli_solve2d_failed_potential_solve_reports_error(tmp_path, capsys):
    # a tolerance below roundoff: the potential solve loses positive definiteness
    cfgpath = _write_config(tmp_path / "cfg.json", extra={"solver": {"poisson_tol": 1e-300, "max_iters": 3}})
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


def test_cli_eps_override(tmp_path):
    cfgpath = _write_config(tmp_path / "cfg.json")
    out = str(tmp_path / "out")
    cli_main(["sweep", "--config", cfgpath, "--out", out, "--eps", "0.5,0.25,0.125,0.0625"])
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("0.5")
