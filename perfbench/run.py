"""thinvolt benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of sweep-bending,
solve3d-coupled, mollify-corrector, or ``all`` for every workload in turn.

With ``--trace 0`` the workload runs the way a user runs it, in a fresh
process per repetition (through ``python -m thinvolt`` where a CLI exists),
as often as fits in S seconds, after a few set-up probes, all on one core
with a thread that samples that core's speed (``hostspeed.py``). Every
time (wall, CPU, set-up) is scaled by the core's speed during it, so that
it reads in seconds at full speed. ``wall_s`` and ``cpu_s`` are those of the
fastest repetition after scaling; every other end-to-end metric is the
median over the repetitions (set-up: over the probes). With ``--trace 1`` each
repetition is a pair of in-process runs of the same workload, one untraced
and one with every layer in ``tracer.LAYERS`` wrapped; the per-layer
metrics come from the traced run and the pair's difference is the tracing
overhead. Every repetition's output is checked. A human-readable report
goes to standard output and its last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import collections
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import workloads
from tracer import LAYERS, aggregate, count_under, root_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
REFERENCE_SWEEP = os.path.join(HERE, "reference", "sweep-bending.csv")

SETUP_PROBES = 11
RUN_LIMIT_S = 165.0  # a whole invocation of one workload stays inside 180 s

# README contract for sweep.csv, and the acceptance tolerances the runs must meet
SWEEP_COLUMNS = ["eps", "Mel_scaled", "hyper", "M_eps", "E_eps", "F_eps", "M0", "E0", "F0", "d2_ratio", "pW_norm", "min_det", "pg0_res"]
ENERGY_COLUMNS = ["M_eps", "E_eps", "F_eps", "M0", "E0", "F0"]
ENERGY_RTOL = 1e-12
CERT_TOL = 1e-8
SOLVE3D_HISTORY = ["F_after_phi", "F_after_y", "grad_norm", "step", "pg0_res", "phi_probe"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_objective": "1"}
# Printed with the end-to-end table but kept out of its JSON: at the mollifier's
# iteration cap the gradient norm jumps by 2x between nearby inputs, so it cannot
# hold a bound across seeds. Traced runs report it as quality.final_grad_norm.
# The raw_* times are the measured seconds before the host-speed scaling, and
# core_speed is the sampled share of full speed during each repetition.
REPORT_ONLY = {"final_grad_norm": "1", "raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s", "core_speed": "1"}
# A core of the shared host runs at full speed or at about 1/1.65 of it, switching
# every few seconds; wall_s, cpu_s and setup_s are multiplied by the core's
# sampled speed during the process they time (see hostspeed.py). A sweep process
# also lands, at random, in a mode about 1.25x slower for its whole life that the
# probe does not see (see workloads.SWEEP_GRID), and contention only ever adds
# time, so a run reads wall_s and cpu_s from its fastest scaled repetition.
FASTEST = ("wall_s", "cpu_s")
KERNELS = ("electro3d.PoissonSystem3.apply", "fields.scaled_hessian")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, attr in LAYERS:
        units[f"{mod}.{attr}.calls"] = "count"
        units[f"{mod}.{attr}.self_s"] = "s"
    units["cg.pcg.iters"] = "count"
    units["cg.pcg.iters_max"] = "count"
    for name in KERNELS:
        units[f"{name}.flops_computed"] = "flop"
        units[f"{name}.bytes_computed"] = "B"
        units[f"{name}.gflops_per_s"] = "GFLOP/s"
        units[f"{name}.gbytes_per_s"] = "GB/s"
    units["recovery.mollify_field.iters"] = "count"
    units["recovery.mollify_field.evals_per_iter"] = "1"
    units["harness.solve3d_alternating.iters"] = "count"
    units["harness.solve3d_alternating.F_evals_per_iter"] = "1"
    units["trace.traced_call_s"] = "s"
    units["trace.untraced_call_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.spans"] = "count"
    units["quality.final_grad_norm"] = "1"
    return units


# ---------------------------------------------------------------------------
# processes


def child_env():
    """Environment of every workload process: single-threaded BLAS, the checkout's src."""
    env = {k: v for k, v in os.environ.items() if k not in ("THINVOLT_THREADS", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    return env


Proc = collections.namedtuple("Proc", "rc start wall_s cpu_s rss_mb")


def spawn(argv, log_path, deadline):
    """Run argv to completion; wall, CPU and peak RSS come from os.wait4.

    The process is killed if it outlives the deadline; either way it has
    been reaped when this returns.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_argv(mode, name, seed, out_dir=None, result=None, trace=False):
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, name, "--root", ROOT, "--work", WORK, "--seed", str(seed)]
    if out_dir is not None:
        argv += ["--out", out_dir]
    if result is not None:
        argv += ["--result", result]
    if trace:
        argv.append("--trace")
    return argv


def workload_argv(name, seed, rep_dir):
    """The user-facing command of one untraced repetition."""
    if name == "mollify-corrector":
        return child_argv("run", name, seed, result=os.path.join(rep_dir, "result.json"))
    config = workloads.config_path(name, ROOT, WORK)
    return [sys.executable, "-m", "thinvolt"] + workloads.cli_args(name, config, rep_dir, seed)


# ---------------------------------------------------------------------------
# correctness checks: each returns (problems, quality, facts)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_sweep(rep_dir, rc):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = _read_json(os.path.join(rep_dir, "summary.json"))
    if summary.get("pass") is not True or summary.get("rows_ok") != 4:
        problems.append(f"summary pass={summary.get('pass')} rows_ok={summary.get('rows_ok')}")
    header, rows = _read_csv(os.path.join(rep_dir, "sweep.csv"))
    if header != SWEEP_COLUMNS:
        problems.append(f"sweep.csv header {header}")
    ref_header, ref_rows = _read_csv(REFERENCE_SWEEP)
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} sweep rows, reference has {len(ref_rows)}")
    for row, ref in zip(rows, ref_rows):
        got, want = dict(zip(header, row)), dict(zip(ref_header, ref))
        if got.get("eps") != want["eps"]:
            problems.append(f"eps {got.get('eps')} != {want['eps']}")
        for col in ENERGY_COLUMNS:
            if not abs(got.get(col, float("nan")) - want[col]) <= ENERGY_RTOL * abs(want[col]):
                problems.append(f"eps={want['eps']} {col}={got.get(col)} differs from reference {want[col]}")
        if not got.get("pg0_res", float("nan")) <= CERT_TOL:
            problems.append(f"eps={want['eps']} pg0_res={got.get('pg0_res')}")
    last = dict(zip(header, rows[-1]))
    quality = {"final_objective": last["F_eps"], "final_grad_norm": abs(last["F_eps"] - last["F0"])}
    return problems, quality, {"rows": len(rows)}


def check_solve3d(rep_dir, rc):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = _read_json(os.path.join(rep_dir, "summary.json"))
    if summary.get("pass") is not True:
        problems.append("summary pass is not true")
    if not (summary["worst_phi_probe"] <= CERT_TOL and summary["worst_pg0"] <= CERT_TOL):
        problems.append(f"probe {summary['worst_phi_probe']} pg0 {summary['worst_pg0']} above {CERT_TOL}")
    header, rows = _read_csv(os.path.join(rep_dir, "solve3d_history.csv"))
    if header != SOLVE3D_HISTORY:
        problems.append(f"history header {header}")
    if len(rows) != workloads.SOLVE3D_BUDGET and summary.get("converged") is not True:
        problems.append(f"{len(rows)} history rows, budget {workloads.SOLVE3D_BUDGET}, not converged")
    if len(rows) != summary.get("iterations"):
        problems.append(f"{len(rows)} history rows, summary says {summary.get('iterations')}")
    quality = {"final_objective": summary["F_eps"], "final_grad_norm": summary["grad_norm"]}
    return problems, quality, {"rows": len(rows)}


def check_mollify(rep_dir, rc):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    result = _read_json(os.path.join(rep_dir, "result.json"))
    if result.get("finite") is not True:
        problems.append("mollified field or info is not finite")
    if not result["objective_end"] <= result["objective_start"] + 1e-15:
        problems.append(f"objective {result['objective_end']} above start {result['objective_start']}")
    info = result["info"]
    quality = {"final_objective": info["objective"], "final_grad_norm": info["grad_norm"]}
    return problems, quality, {"iters": info["iters"]}


CHECKS = {"sweep-bending": check_sweep, "solve3d-coupled": check_solve3d, "mollify-corrector": check_mollify}
OPERATIONS = {"sweep-bending": 4, "solve3d-coupled": 1, "mollify-corrector": 1}  # a sweep row, or a run


def check(name, rep_dir, rc):
    """Problems, quality and facts of one repetition; unreadable output is a problem."""
    try:
        return CHECKS[name](rep_dir, rc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"exit code {rc}; output unreadable: {exc!r}"], {}, {}


def self_check(name, spans, facts):
    """Traced counts against the counts implied by the outputs."""
    layers = aggregate(spans)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    if name == "sweep-bending":
        expect = {"cg.pcg.calls": facts["rows"] + 1, "electro3d.assemble_poisson3.calls": facts["rows"]}
        got = {"cg.pcg.calls": calls("cg.pcg"), "electro3d.assemble_poisson3.calls": calls("electro3d.assemble_poisson3")}
    elif name == "solve3d-coupled":
        expect = {"harness.solve3d_alternating.iters": facts["rows"], "cg.pcg.calls": facts["rows"] + 1}
        got = {
            "harness.solve3d_alternating.iters": count_under(spans, "elastic3d.grad_y_F_eps", "harness.solve3d_alternating"),
            "cg.pcg.calls": calls("cg.pcg"),
        }
    else:
        expect = {"recovery.mollify_field.iters": facts["iters"]}
        got = {"recovery.mollify_field.iters": count_under(spans, "recovery._mollifier_gradient", "recovery.mollify_field")}
    return [f"tracer self-check: {k} = {got[k]}, outputs imply {expect[k]}" for k in expect if got[k] != expect[k]]


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans, traced_s, untraced_s):
    layers = aggregate(spans)
    m = {}
    for mod, attr in LAYERS:
        entry = layers.get(f"{mod}.{attr}", {})
        m[f"{mod}.{attr}.calls"] = entry.get("calls", 0)
        m[f"{mod}.{attr}.self_s"] = entry.get("self_s", 0.0)
    pcg = layers.get("cg.pcg", {})
    m["cg.pcg.iters"] = pcg.get("iters", 0)
    m["cg.pcg.iters_max"] = pcg.get("iters_max", 0)
    for name in KERNELS:
        entry = layers.get(name, {})
        calls, self_s = entry.get("calls", 0), entry.get("self_s", 0.0)
        m[f"{name}.flops_computed"] = entry["flops"] / calls if calls else 0
        m[f"{name}.bytes_computed"] = entry["bytes"] / calls if calls else 0
        m[f"{name}.gflops_per_s"] = entry["flops"] / self_s / 1e9 if calls else 0.0
        m[f"{name}.gbytes_per_s"] = entry["bytes"] / self_s / 1e9 if calls else 0.0
    iters = count_under(spans, "recovery._mollifier_gradient", "recovery.mollify_field")
    evals = count_under(spans, "recovery.mollifier_objective", "recovery.mollify_field")
    m["recovery.mollify_field.iters"] = iters
    m["recovery.mollify_field.evals_per_iter"] = evals / iters if iters else 0.0
    iters = count_under(spans, "elastic3d.grad_y_F_eps", "harness.solve3d_alternating")
    evals = count_under(spans, "elastic3d.F_eps", "harness.solve3d_alternating")
    m["harness.solve3d_alternating.iters"] = iters
    m["harness.solve3d_alternating.F_evals_per_iter"] = evals / iters if iters else 0.0
    m["trace.traced_call_s"] = traced_s
    m["trace.untraced_call_s"] = untraced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.unattributed_s"] = traced_s - root_time(spans)
    m["trace.spans"] = len(spans)
    return m


class Tally:
    """Attempted and failed operations of one invocation, and every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, label, problems):
        ops = OPERATIONS[name]
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += [f"{name} {label}: {p}" for p in problems]


def _rep_dir(name, label):
    path = os.path.join(WORK, name, label)
    os.makedirs(path, exist_ok=True)
    return path


def _keep_going(start, seconds, reps):
    """Start another repetition only if one as long as the longest so far still fits."""
    longest = max(r["rep_s"] for r in reps)
    return time.perf_counter() + longest <= start + seconds


def measure_untraced(name, seed, seconds, tally):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    # One core for this runner, its speed sampler and every process it starts
    # (children inherit the affinity), so the sampler sees the workload's core.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        setup = []
        for k in range(SETUP_PROBES):
            proc = spawn(child_argv("setup", name, seed), os.path.join(_rep_dir(name, "setup"), f"probe{k}.log"), deadline)
            if proc.rc != 0:
                tally.problems.append(f"{name} setup probe {k}: exit code {proc.rc}")
            setup.append((proc.wall_s, sampler.speed(proc.start, proc.start + proc.wall_s)))
        reps = []
        while not reps or _keep_going(start, seconds, reps):
            rep_dir = _rep_dir(name, f"rep{len(reps)}")
            proc = spawn(workload_argv(name, seed, rep_dir), os.path.join(rep_dir, "process.log"), deadline)
            problems, quality, _ = check(name, rep_dir, proc.rc)
            tally.add(name, f"rep {len(reps)}", problems)
            speed = sampler.speed(proc.start, proc.start + proc.wall_s)
            reps.append({
                "rep_s": proc.wall_s,
                "raw_wall_s": proc.wall_s,
                "raw_cpu_s": proc.cpu_s,
                "wall_s": proc.wall_s * speed,
                "cpu_s": proc.cpu_s * speed,
                "core_speed": speed,
                "peak_rss_mb": proc.rss_mb,
                **quality,
            })
    finally:
        sampler.stop()
        os.sched_setaffinity(0, cores)
    samples = {key: [r[key] for r in reps if key in r] for key in {**END_TO_END, **REPORT_ONLY}}
    samples["raw_setup_s"] = [wall for wall, _ in setup]
    samples["setup_s"] = [wall * speed for wall, speed in setup]
    return samples


def measure_traced(name, seed, seconds, tally):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps = []
    while not reps or _keep_going(start, seconds, reps):
        t0 = time.perf_counter()
        calls = {}
        for label, trace in (("untraced", False), ("traced", True)):
            rep_dir = _rep_dir(name, f"pair{len(reps)}-{label}")
            result_path = os.path.join(rep_dir, "result.json")
            proc = spawn(child_argv("run", name, seed, rep_dir, result_path, trace), os.path.join(rep_dir, "process.log"), deadline)
            problems, quality, facts = check(name, rep_dir, proc.rc)
            try:
                result = _read_json(result_path)
            except (OSError, ValueError):
                result = {}
            if trace and not problems:
                problems = self_check(name, result.get("spans", []), facts)
                if result.get("missing_layers"):
                    print(f"# layers missing in this version: {', '.join(result['missing_layers'])}")
            tally.add(name, f"pair {len(reps)} {label}", problems)
            calls[label] = (result, quality)
        (traced, quality), (untraced, _) = calls["traced"], calls["untraced"]
        rep = {"rep_s": time.perf_counter() - t0}
        if "spans" in traced and "call_s" in untraced:
            rep.update(layer_metrics(traced["spans"], traced["call_s"], untraced["call_s"]))
        if "final_grad_norm" in quality:
            rep["quality.final_grad_norm"] = quality["final_grad_norm"]
        reps.append(rep)
    return {key: [r[key] for r in reps if key in r] for key in per_layer_units()}


# ---------------------------------------------------------------------------
# report


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for level, key in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            caches[level] = os.sysconf(key)
        except (ValueError, OSError):
            caches[level] = None
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "env": {k: env.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "THINVOLT_THREADS")},
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summarize(name, samples, units, header, extra_units=None):
    """Each metric's run value: the fastest repetition for FASTEST, the median otherwise.

    Prints that value with the median, minimum, maximum and sample count.
    Returns the metrics of ``units``; those of ``extra_units`` are printed only.
    """
    print(f"# {name}: {header}")
    print(f"#   {'metric':48s} {'value':>11s} {'median':>11s} {'min':>11s} {'max':>11s} {'n':>3s}  unit")
    metrics = {}
    for key, unit in {**units, **(extra_units or {})}.items():
        values = samples.get(key, [])
        if not values:
            continue
        value = min(values) if key in FASTEST else statistics.median(values)
        if key in units:
            metrics[key] = {"value": value, "unit": unit}
        cols = " ".join(f"{_fmt(v):>11s}" for v in (value, statistics.median(values), min(values), max(values)))
        print(f"#   {key:48s} {cols} {len(values):3d}  {unit}")
    for key in ("wall_s", "raw_wall_s", "core_speed", "setup_s", "raw_setup_s", "trace.untraced_call_s", "trace.traced_call_s"):
        if key in samples:
            print(f"#   every {key}: " + " ".join(f"{v:.4g}" for v in samples[key]))
    return metrics


def run_workload(name, seed, seconds, trace, tally):
    if trace:
        samples = measure_traced(name, seed, seconds, tally)
        return summarize(name, samples, per_layer_units(), "traced in-process pairs (per-layer self times, counts per run)")
    samples = measure_untraced(name, seed, seconds, tally)
    header = f"untraced, one fresh process per repetition, {SETUP_PROBES} set-up probes; times scaled by the core's sampled speed"
    return summarize(name, samples, END_TO_END, header, REPORT_ONLY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for needed in ("src/thinvolt/__init__.py", "configs/bending.json", "configs/coupled.json", "perfbench/reference/sweep-bending.csv"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a thinvolt checkout", file=sys.stderr)
            return 2

    # SIGTERM unwinds like an exception, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    print("# env " + json.dumps(environment(), sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    workloads.write_configs(ROOT, WORK)

    tally = Tally()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics = {}
    for name in names:
        modes = (False, True) if args.workload == "all" and args.trace else (bool(args.trace),)
        for trace in modes:
            got = run_workload(name, args.seed, args.seconds, trace, tally)
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    for line in tally.problems:
        print(f"# FAILED {line}")
    ratio = tally.failed / tally.attempted
    print(f"# failed_ratio {tally.failed}/{tally.attempted} = {ratio:.6g} (operation: one sweep eps row, or one run)")
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
