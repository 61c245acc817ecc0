"""The README's fenced python blocks run as written, every module it names
imports, and it names every module, so they cannot go stale."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def _named_modules() -> set:
    return set(re.findall(r"\bdephaser\.([a-z_]+)\b", README.read_text(encoding="utf-8")))


def test_every_module_the_readme_names_imports():
    names = sorted(_named_modules())
    assert names
    for name in names:
        importlib.import_module(f"dephaser.{name}")


def test_the_readme_names_every_module():
    package = Path(importlib.import_module("dephaser").__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert modules - _named_modules() == set()
