"""The package's modules import one another in layers.

This walks the syntax trees of src/dephaser itself, as
tests/test_private_names.py does, and holds three rules: every import
sits at the top level of its module, never inside a function or class;
the imports between package modules form an acyclic graph; and `model`,
`coupling` and `quadrature`, the bottom layer, import no package module.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dephaser"
LEAVES = ("model", "coupling", "quadrature")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree: ast.Module) -> set:
    """The package modules a module imports, relatively or by dephaser.<name>."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "dephaser")
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "dephaser":
                continue
            rest = module[1:] if node.level == 0 else [m for m in module if m]
            # `from . import x` and `from dephaser import x` name modules or
            # names of __init__; either way they depend on the package root
            found.add(rest[0] if rest else "__init__")
    return found


def test_no_import_inside_a_function_or_class():
    nested = []
    for name, tree in _trees().items():
        for scope in (n for n in ast.walk(tree) if isinstance(n, _SCOPES)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    nested.append(f"{name}.py:{node.lineno}")
    assert sorted(set(nested)) == []


def test_package_imports_form_an_acyclic_graph():
    graph = {name: _package_imports(tree) for name, tree in _trees().items()}
    assert len(graph) >= 9 and "quadrature" in graph["rates"]  # the walk found the package
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("leaf", LEAVES)
def test_bottom_layer_imports_no_package_module(leaf):
    assert _package_imports(_trees()[leaf]) == set()
