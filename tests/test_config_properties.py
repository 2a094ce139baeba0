"""Property tests of config validation: any JSON-shaped input loads or is rejected cleanly."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from thinvolt.harness import ConfigError, RunConfig

SECTIONS = {
    "grid": ("n1", "n2", "n3", "n1_2d", "n2_2d"),
    "elastic": ("mu", "lam", "q_w"),
    "hyper": ("q_h", "alpha_h", "c_h"),
    "prestrain": ("B0", "B1"),
    "permittivity": ("k",),
    "charge": ("mode", "amplitude"),
    "coupling": ("beta", "gamma"),
    "isometry": ("kind", "offset", "slope", "amplitude"),
    "solver": ("poisson_tol", "grad_tol", "max_iters"),
    "output": ("dir",),
}
WORDS = ("cosine", "constant", "linear", "uniform", "sweep", "solve3d", "out", "")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# numbers near the admissible ranges reach the checks behind the type checks
numbers = st.integers(-3, 40) | st.floats(-2.0, 40.0) | st.sampled_from([0.5, 1.0, 4.0, 26.0, 1e-10, 1e308])
matrices = st.lists(st.lists(numbers | scalars, min_size=3, max_size=3), min_size=3, max_size=3)


def _mostly(strategy):
    """strategy three times in four, any JSON value otherwise."""
    return st.one_of(strategy, strategy, strategy, json_values)


def _value(key):
    if key in ("B0", "B1", "k"):
        return _mostly(matrices)
    if key in ("mode", "kind", "dir"):
        return _mostly(st.sampled_from(WORDS))
    return _mostly(numbers)


def _section(keys):
    entries = st.fixed_dictionaries({}, optional={key: _value(key) for key in keys})
    return _mostly(entries)


top_level = st.fixed_dictionaries(
    {},
    optional={
        **{name: _section(keys) for name, keys in SECTIONS.items()},
        "eps": _mostly(st.lists(_mostly(numbers), max_size=5)),
        "mode": _value("mode"),
        "seed": _value("seed"),
    },
)
configs = _mostly(top_level)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(configs)
def test_any_json_config_loads_or_raises_config_error(data):
    data = json.loads(json.dumps(data))  # JSON-shaped: what json.load can return
    try:
        cfg = RunConfig(data)
    except ConfigError:
        return
    assert cfg.eps_list and all(e > 0 for e in cfg.eps_list)
