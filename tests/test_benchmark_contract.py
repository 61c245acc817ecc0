"""What the benchmark in perfbench/ uses of the package, read from perfbench/.

The benchmark binds package names by string: the tracer's shims, the
workloads' task functions, the setup probe's code and the timed command
lines; its own tests read module attributes. A rename or deletion in the
package breaks the benchmark without failing any other test here, so each
binding is checked against the current package. The contract itself is
read from perfbench/, not copied.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dephaser
from dephaser.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import harness  # noqa: E402
    import tracer  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def _module_bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "dephaser" or name.startswith("dephaser."))
            for attr, value in vars(mod).items()}


def test_tracer_installs_and_restores_every_binding():
    before = _module_bindings()
    t = tracer.Tracer()
    try:
        t.install()
        assert _module_bindings() != before
    finally:
        t.uninstall()
    after = _module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", ["sweep", "deep"])
def test_every_workload_task_names_a_package_callable(workload):
    tasks = workloads.build(workload)
    assert tasks
    for task in tasks:
        assert callable(getattr(dephaser, task.func, None)), task.func


def test_setup_code_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", harness.SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("metric", sorted(harness.CLI_COMMANDS))
def test_cli_command_parses(metric):
    args = _build_parser().parse_args(harness.CLI_COMMANDS[metric])
    assert callable(args.func)


def _package_attribute_loads(path: Path) -> set:
    """(module, attribute chain) of every `<module>.<attr>` load in path
    whose base name an import binds to a package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.asname or "dephaser": alias.name if alias.asname else "dephaser"
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.partition(".")[0] == "dephaser"}
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                loads.add((modules[base.id], tuple(chain)))
    return loads


def test_every_package_attribute_the_benchmark_tests_read_exists():
    loads = _package_attribute_loads(ROOT / "perfbench" / "tests" / "test_perfbench.py")
    assert {("dephaser.quadrature", ("integrate",)), ("dephaser.rates", ("integrate",)),
            ("dephaser.sweep", ("rate_closed_form",)),
            ("dephaser", ("specfun", "BoseMomentTable", "eval"))} <= loads
    for module, chain in sorted(loads):
        obj = importlib.import_module(module)
        for attr in chain:
            assert hasattr(obj, attr), f"{module}.{'.'.join(chain)}"
            obj = getattr(obj, attr)
