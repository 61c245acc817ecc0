"""Every module-level private name of the package is used somewhere.

No linter ships with the test dependencies, so this walks the syntax
trees itself: a `_name` defined at the top level of a module under
src/dephaser must be loaded (read as a variable or as an attribute) in
src/, tests/ or perfbench/. Its own definition and an import of it do not
count, so a constant or helper left behind by a deletion fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dephaser"


def _private_definitions() -> dict:
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
    return defined


def _loaded_names() -> set:
    loaded = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return loaded


def test_every_private_module_name_is_loaded_somewhere():
    defined = _private_definitions()
    assert len(defined) > 50  # the walk found the package
    loaded = _loaded_names()
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in loaded)
    assert dead == []
