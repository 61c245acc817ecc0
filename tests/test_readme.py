"""The README's fenced python blocks run as written, its CLI examples exit
0, every module it names imports, and it names every module, so they
cannot go stale."""

import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from dephaser.cli import main
from dephaser.harmonic import MarkovValidityWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_every_python_block_of_the_readme_runs(capsys):
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_every_cli_example_of_the_readme_exits_zero(tmp_path, monkeypatch, capsys):
    commands = [line for block in _blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dephaser ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    # the table the tabulated curve example reads: the parametric example's
    # density, J = 1e-82 omega^2 exp(-(omega/1e13)^2), at 30 knots
    omega = np.linspace(1e11, 3e13, 30)
    j = 1e-82 * omega**2 * np.exp(-(omega / 1e13) ** 2)
    Path("sd.csv").write_text(
        "omega_rad_per_s,j_value\n"
        + "".join(f"{w!r},{v!r}\n" for w, v in zip(omega.tolist(), j.tolist())),
        encoding="utf-8")
    # the evolve example's gamma = 1e12 1/s is past the Markov limit
    with pytest.warns(MarkovValidityWarning):
        for line in commands:
            assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()


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
