"""Which package functions the three rate routes share, declared.

Agreement between routes is evidence only where they run different code.
closed and double share the quadrature engine, the interference factor
and the far pass (quadrature._sin_passes forms both for both routes), so
a fault there moves both together; each such function has its own oracle
(sinc_deficit and _fourier_moments against mpmath, the sin-weighted rule
against QAWO, both routes against the low-temperature series). This test
traces one call of each route with sys.setprofile and fails when the
shared set changes, so a newly shared function is declared here, with its
oracle, before it lands. mc meets the others only in the model's scale
and the route frame (rates._route: the T = 0 / D = 0 short-circuit, the
NonConvergence label and the result record).
"""

import sys
import threading
from pathlib import Path

import pytest

import dephaser
from dephaser.model import GAAS, DotGeometry, ThermalEnv
from dephaser.rates import rate_closed_form, rate_double_integral, rate_monte_carlo
from dephaser.specfun import get_moment_table

PACKAGE = str(Path(dephaser.__file__).parent)

# the model's scale, the route frame and the result record: the only
# functions mc may share
SCALE = {"model.derived_scales", "model.coupling_scale", "model.RateIntegralParams.__init__",
         "rates._route", "rates.RateResult.__init__", "rates.RateResult.__post_init__"}
# the engine and the interference factor, run by closed and double at every point
ENGINE = {"quadrature.QuadratureConfig.__init__", "quadrature.QuadratureConfig.__post_init__",
          "quadrature.QuadratureResult.__init__", "quadrature.integrate",
          "quadrature._adaptive", "quadrature._eval_panels", "quadrature._gauss_kronrod",
          "quadrature._sample", "quadrature._ordered_sum", "quadrature._rule",
          "quadrature._sin_passes", "quadrature._sin_passes.<locals>.f",
          "quadrature.sinc_deficit"}
# the engine's bisection, where both routes' passes split a panel
BISECTION = {"quadrature._worst_panels", "quadrature._grown",
             "quadrature._adaptive.<locals>.<genexpr>"}
# the far pass of the sin-weighted rule, past the crossover
FAR = {"quadrature._sin_passes.<locals>.pair", "quadrature._sin_clenshaw_curtis",
       "quadrature._fourier_moments"}

SHARED = {
    (1e-3, 10e-9): SCALE | ENGINE | BISECTION,
    (1e-3, 1e-3): SCALE | ENGINE,  # a X is below the crossover at 1 mK
    (100.0, 10e-9): SCALE | ENGINE,
    (100.0, 1e-3): SCALE | ENGINE | BISECTION | FAR,
}


def _traced(call) -> set:
    """The package functions one call enters, as module.qualname; a
    dataclass's generated __init__ is named after its class. Threads that
    the call starts (mc's block pool) are traced too."""
    seen = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE):
            seen.add(f"{frame.f_globals['__name__'].rpartition('.')[2]}.{code.co_qualname}")
        elif code.co_name == "__init__" and code.co_filename == "<string>":
            cls = type(frame.f_locals.get("self"))
            if cls.__module__.startswith("dephaser."):
                seen.add(f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}.__init__")

    previous = sys.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
    return seen


@pytest.mark.parametrize("T, D", sorted(SHARED))
def test_routes_share_only_the_declared_functions(T, D):
    get_moment_table()  # built once, outside the traced calls
    geom, env = DotGeometry(4e-9, D), ThermalEnv(T)
    closed = _traced(lambda: rate_closed_form(GAAS, geom, env))
    double = _traced(lambda: rate_double_integral(GAAS, geom, env))
    mc = _traced(lambda: rate_monte_carlo(GAAS, geom, env, samples=10**4))
    assert "rates.rate_closed_form" in closed and "rates._mc_block" in mc
    assert sorted(closed & double) == sorted(SHARED[T, D])
    assert (mc & closed) | (mc & double) <= SCALE
