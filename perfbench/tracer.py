"""Span tracer that times thinvolt layers from outside the package.

Each traced function is replaced by a wrapper in every thinvolt module
namespace that holds it, so calls are caught where callers look the name up
(``electro3d.pcg``, ``elastic3d.W_el`` and the like are imported by name).
Spans are kept in memory as ``[name, start, end, parent, run_id, extra]``
and written out once the traced call returns; ``aggregate`` turns a span
list into per-layer counts and self times.
"""

import functools
import importlib
import json
import pkgutil
import time

# (module, attribute) of every traced layer; "Class.method" wraps on the class.
LAYERS = [
    ("cg", "pcg"),
    ("electro3d", "PoissonSystem3.apply"),
    ("electro3d", "assemble_poisson3"),
    ("electro3d", "E_eps"),
    ("electro3d", "check_pg0"),
    ("elastic3d", "F_eps"),
    ("elastic3d", "M_eps"),
    ("elastic3d", "M_eps_parts"),
    ("elastic3d", "grad_y_F_eps"),
    ("elastic3d", "apriori_report"),
    ("fields", "scaled_gradient"),
    ("fields", "gradient_scatter"),
    ("fields", "scaled_hessian"),
    ("fields", "hessian_scatter"),
    ("smallmat", "dist_SO3_sq"),
    ("material", "W_el"),
    ("material", "kappa_pullback"),
    ("recovery", "recovery_sweep"),
    ("recovery", "optimal_corrector"),
    ("recovery", "lift_deformation"),
    ("recovery", "mollify_field"),
    ("recovery", "mollifier_objective"),
    ("recovery", "_mollifier_gradient"),
    ("bending2d", "solve_potential2"),
    ("bending2d", "M0"),
    ("bending2d", "E0"),
    ("harness", "saddle_probe"),
    ("harness", "solve3d_alternating"),
    ("harness", "check_conditions"),
    ("svgplot", "write_loglog_svg"),
]

F64 = 8  # bytes per double


def _apply_counts(args, _result):
    """Computed work of one PoissonSystem3.apply: dense 8x8 cell matvec plus scatter adds.

    Bytes are the compulsory traffic: Kloc, the input and the output once each.
    """
    system, phi = args[0], args[1]
    ncell = system.Kloc.shape[0] * system.Kloc.shape[1] * system.Kloc.shape[2]
    flops = ncell * (2 * 64 + 8)
    nbytes = (system.Kloc.size + 2 * phi.size) * F64
    return {"flops": flops, "bytes": nbytes}


def _hessian_counts(args, result):
    """Computed work of one scaled_hessian: three dense axis contractions per index pair.

    Each of the 6 pairs (i <= j) applies a dense (n-1) x n matrix along every
    axis in turn (tensordot), then scales; bytes are the input field and the
    Hessian output once each.
    """
    y = args[0]
    n1, n2, n3 = y.shape[:3]
    ncomp = y.size // (n1 * n2 * n3)
    per_pair = 2 * ncomp * ((n1 - 1) * n1 * n2 * n3 + (n1 - 1) * (n2 - 1) * n2 * n3 + (n1 - 1) * (n2 - 1) * (n3 - 1) * n3)
    per_pair += ncomp * (n1 - 1) * (n2 - 1) * (n3 - 1)
    return {"flops": 6 * per_pair, "bytes": (y.size + result.size) * F64}


def _pcg_counts(_args, result):
    return {"iters": len(result[1]) - 1}


EXTRAS = {
    "electro3d.PoissonSystem3.apply": _apply_counts,
    "fields.scaled_hessian": _hessian_counts,
    "cg.pcg": _pcg_counts,
}


class Tracer:
    """Collects spans from wrapped thinvolt functions for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer in LAYERS wherever a thinvolt module namespace holds it.

        Returns the layers that do not exist in this version of the package;
        they are left out and read as zero calls.
        """
        import thinvolt

        names = [m.name for m in pkgutil.iter_modules(thinvolt.__path__) if not m.name.startswith("_")]
        modules = [thinvolt] + [importlib.import_module(f"thinvolt.{name}") for name in names]
        missing = []
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            try:
                owner = importlib.import_module(f"thinvolt.{mod_name}")
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            if cls_path:
                setattr(owner, leaf, self._wrap(original, name))
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing

    def dump(self, path, **fields):
        with open(path, "w") as fh:
            json.dump(dict(fields, run_id=self.run_id, spans=self.spans), fh)


def aggregate(spans):
    """Per-layer calls, self time and extras from a span list.

    Self time is a span's duration minus the time covered by its direct
    children; calls run on one thread, so children never overlap.
    Returns {name: {"calls", "self_s", "total_s", extras...}}; an "iters"
    extra also gets its per-call maximum as "iters_max".
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {}
    for i, (name, start, end, _parent, _run, extra) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
            if key == "iters":
                entry["iters_max"] = max(entry.get("iters_max", 0), value)
    return layers


def count_under(spans, name, ancestor):
    """Number of spans called ``name`` that run inside a span called ``ancestor``."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def root_time(spans):
    """Wall time covered by spans that have no traced parent."""
    return sum(end - start for _n, start, end, parent, _r, _e in spans if parent < 0)
