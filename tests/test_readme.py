"""The README's fenced python blocks run as written, and every module it
names imports, so they cannot go stale."""

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


def test_every_module_the_readme_names_imports():
    text = README.read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bdephaser\.([a-z_]+)\b", text)))
    assert names
    for name in names:
        importlib.import_module(f"dephaser.{name}")
