"""The package's module layering: each module imports only modules below it,
and only at module level, so there is no import cycle to break by hand."""

import ast
from pathlib import Path

import hermiwitt

LAYERS = ("errors", "padic", "quaternion", "hermitian", "wittclass", "morita",
          "endo", "serialize", "randgen", "selftest", "cli")
SRC = Path(hermiwitt.__file__).parent


def _imported(node):
    """The hermiwitt modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("hermiwitt.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "hermiwitt":
            return []
        return [parts[1]] if len(parts) > 1 else [a.name for a in node.names]
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name for a in node.names]


def _in_function(tree):
    """The hermiwitt imports inside a function or method body."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [m for node in ast.walk(fn) for m in _imported(node)]
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


def test_modules_import_only_lower_layers_at_module_level():
    for i, name in enumerate(LAYERS):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        used = {m for node in ast.walk(tree) for m in _imported(node)}
        assert used <= set(LAYERS[:i]), (name, used - set(LAYERS[:i]))
        assert _in_function(tree) == [], name
