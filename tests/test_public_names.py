"""Every public name of a thinvolt module has a caller.

A name in a module's __all__ must be referenced somewhere other than its
own def or class and its __all__ entry: by the package's modules (the
re-exports of __init__.py do not count), by the benchmark harness under
perfbench/, by the acceptance tests, or by a console-script entry point in
pyproject.toml. Unit tests alone do not keep a name alive. References are
read from the syntax tree: names, attributes, imported names and
identifier strings such as the benchmark tracer's (module, name) targets.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thinvolt"


def _all_assignment(node):
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _public_names(tree):
    for node in tree.body:
        if _all_assignment(node):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree):
    """Every identifier the module uses, outside its __all__ assignment."""
    skip = {id(node) for stmt in tree.body if _all_assignment(stmt) for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            found.update(node.value.split("."))
    return found


def test_every_public_name_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    callers = [*modules.values()]
    callers += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    callers.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    used = set().union(*map(_references, callers))
    used.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    unused = [f"{module}.{name}" for module, tree in modules.items() for name in _public_names(tree) if name not in used]
    assert not unused, f"public names with no caller outside the unit tests: {unused}"
