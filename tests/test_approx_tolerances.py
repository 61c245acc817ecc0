"""Every relative `pytest.approx` check in the suite states its absolute window.

`pytest.approx` adds a default absolute tolerance of 1e-12 to `rel`, and the
larger of the two wins. Wherever |expected| * rel < 1e-12 (a time of 1e-12 s,
hbar, a 2e-14 error estimate) that default makes the check vacuous: it
passes for any value within 1e-12. So a call that passes `rel=` must also
pass `abs=`: 0 where the expected value cannot be 0, a stated window where
it can.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_pytest_approx(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "approx"
            and isinstance(func.value, ast.Name) and func.value.id == "pytest")


def _relative_calls_without_abs(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _is_pytest_approx(node.func):
            keywords = {k.arg for k in node.keywords}
            if "rel" in keywords and "abs" not in keywords:
                found.append(node.lineno)
    return found


def test_the_guard_sees_a_relative_check_without_abs():
    assert _relative_calls_without_abs(
        "assert x == pytest.approx(1e-12, rel=1e-9)\n"
        "assert y == pytest.approx(2.0,\n    rel=1e-9)\n"
        "assert z == pytest.approx(3.0, rel=1e-9, abs=0)\n") == [1, 2]


def test_every_relative_approx_states_abs():
    offenders = [f"{path.name}:{line}"
                 for path in sorted(TESTS.glob("*.py"))
                 for line in _relative_calls_without_abs(path.read_text(encoding="utf-8"))]
    assert offenders == []
