"""A method name selects a rate route in one place only: rates._rates.

This walks the syntax trees of src/dephaser, as tests/test_import_layering.py
does, and fails when a function other than rates._rates (or a function
nested in it) compares anything with METHOD_CLOSED, METHOD_DOUBLE or
METHOD_MC, by name or by their string values. Every other caller passes
the name on to compute_rate or rates._rates. The one listed exception
picks a field, not a route.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dephaser"
NAMES = {"METHOD_CLOSED", "METHOD_DOUBLE", "METHOD_MC"}
VALUES = {"closed-form", "double-integral", "monte-carlo"}
DISPATCH = "rates._rates"
# reports error_estimate_per_s as the standard error of a Monte Carlo result
EXCEPTIONS = {"rates.RateResult.mc_std_error_per_s"}


def _names_a_method(node: ast.AST) -> bool:
    return any((isinstance(n, ast.Name) and n.id in NAMES)
               or (isinstance(n, ast.Attribute) and n.attr in NAMES)
               or (isinstance(n, ast.Constant) and n.value in VALUES)
               for n in ast.walk(node))


def _method_comparisons(scope: str, node: ast.AST) -> list:
    """The dotted scope of every comparison with a method name under node."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _method_comparisons(f"{scope}.{child.name}", child)
            continue
        if isinstance(child, ast.Compare) and any(
                _names_a_method(op) for op in [child.left, *child.comparators]):
            found.append(scope)
        elif isinstance(child, ast.match_case) and _names_a_method(child.pattern):
            found.append(scope)
        found += _method_comparisons(scope, child)
    return found


def _all_comparisons() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _method_comparisons(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_only_rates_dispatch_compares_with_a_method_name():
    found = _all_comparisons()
    stray = sorted({scope for scope in found if scope not in EXCEPTIONS
                    and scope != DISPATCH and not scope.startswith(DISPATCH + ".")})
    assert stray == []
    assert DISPATCH in found  # the walk reaches the dispatch


def test_every_listed_exception_still_compares():
    assert EXCEPTIONS <= set(_all_comparisons())
