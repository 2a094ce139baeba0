"""Child process of the benchmark runner: one set-up probe or one in-process workload run.

    python3 perfbench/child.py setup WORKLOAD --root R --work W --seed S
    python3 perfbench/child.py run WORKLOAD --root R --work W --seed S --out DIR --result FILE [--trace]

``setup`` does what a workload does before its first call into a layer
(interpreter start, ``import thinvolt``, config parse, grid build) and exits.
``run`` runs the workload in this process, through ``harness.cli_main`` for
the CLI workloads, times the call and writes a JSON result; with
``--trace`` the layers are wrapped first and the spans go into the result.
"""

import argparse
import json
import math
import os
import sys
import time

import workloads


def _check_import(root):
    import thinvolt

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(thinvolt.__file__).startswith(src + os.sep):
        sys.exit(f"thinvolt imported from {thinvolt.__file__}, not from {src}")


def _setup(args):
    if args.workload == "mollify-corrector":
        workloads.mollify_input(args.seed)
        return
    from thinvolt import harness

    cfg = harness.RunConfig.from_file(workloads.config_path(args.workload, args.root, args.work))
    cfg.grid3()
    cfg.grid2()


def _mollify_result(v, info, d, grid):
    """Checked quantities of one mollifier call."""
    import numpy as np
    from thinvolt.recovery import mollifier_objective as objective

    tau = 0.5 * workloads.MOLLIFY_Q_H
    values = [info["iters"], info["grad_norm"], info["objective"], info["l2_gap"], info["seminorm_scaled"]]
    return {
        "info": info,
        "finite": bool(np.all(np.isfinite(v)) and all(math.isfinite(x) for x in values)),
        "objective_start": objective(d, d, grid, workloads.MOLLIFY_EPS, tau, workloads.MOLLIFY_Q_H),
        "objective_end": objective(v, d, grid, workloads.MOLLIFY_EPS, tau, workloads.MOLLIFY_Q_H),
    }


def _run(args):
    """Run the workload once in this process; returns the exit code the CLI would give."""
    from thinvolt import harness, recovery

    mollify = args.workload == "mollify-corrector"
    if mollify:
        grid, d = workloads.mollify_input(args.seed)
    else:
        cli = workloads.cli_args(args.workload, workloads.config_path(args.workload, args.root, args.work), args.out, args.seed)
    tracer = None
    missing = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        missing = tracer.install()
    start = time.perf_counter()
    rc = 0
    if mollify:
        v, info = recovery.mollify_field(d, grid, workloads.MOLLIFY_EPS, q_h=workloads.MOLLIFY_Q_H)
    else:
        rc = harness.cli_main(cli)
    call_s = time.perf_counter() - start
    traced_in_call = len(tracer.spans) if tracer is not None else 0
    result = _mollify_result(v, info, d, grid) if mollify else {}
    result["call_s"] = call_s
    result["missing_layers"] = missing
    if tracer is not None:
        del tracer.spans[traced_in_call:]  # spans of the checks, not of the workload
        tracer.dump(args.result, **result)
    else:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
    return rc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    _check_import(args.root)
    if args.mode == "setup":
        _setup(args)
    else:
        sys.exit(_run(args))


if __name__ == "__main__":
    main()
