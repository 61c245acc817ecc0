"""Tests for the three dephasing-rate routes and their cross-validation.

The two deterministic reference rates were computed with
scipy.integrate.quad on the reduced one-dimensional integral, entirely
outside this package. The Monte Carlo pins freeze the output of the
sampler's PCG64 stream for one seed; any change to the sampling layout is
meant to show up here.

Bit contract of the Monte Carlo route: identical bits run to run and for
any DEPHASER_THREADS on one numpy build and CPU. Across builds or CPUs,
values agree to about 1e-14 relative. The pins are therefore checked to
rel=1e-12: platform drift (with AVX-512 dispatch turned off, at most
2e-16 on the pins and 6e-15 on an estimate at 10^4 K) is far below that, while adding
or dropping a single sample moves the estimate and its standard error by
about 1e-6 relative.
"""

import json
import math
import os
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dephaser.quadrature as quadrature_module
import dephaser.rates as rates_module
from dephaser.model import CONST, GAAS, DotGeometry, MaterialParams, ThermalEnv, derived_scales
from dephaser.quadrature import NonConvergence
from dephaser.rates import (
    METHOD_CLOSED,
    METHOD_DOUBLE,
    METHOD_MC,
    METHODS,
    CutoffValidityWarning,
    RateResult,
    ValidationReport,
    compute_rate,
    rate_closed_form,
    rate_double_integral,
    rate_monte_carlo,
    rate_validate,
    worker_count,
)
from dephaser.specfun import (_MOMENT_TAIL_CUT, BoseMomentTable, _moment_integrand,
                              bose_fifth_moment, get_moment_table)
from dephaser.sweep import SweepSpec, fit_log_law, run_sweep
from record_closed_box import box_points

GEOM = DotGeometry(width_L_m=4e-9, separation_D_m=10e-9)
REFERENCE_BOX = Path(__file__).with_name("closed_box_reference.json")

# scipy quad oracles at L = 4 nm, D = 10 nm
ORACLE_GAMMA_100K = 1040671074013.1287
ORACLE_GAMMA_50K = 97274256900.25523
# at 10^4 K, x_D = 0.043; the moment bracket is 8.76327e-7 there
ORACLE_GAMMA_10000K = 252983991317069.12

# frozen sampler output, 10^6 samples at the 100 K point
MC_PIN_GAMMA = 1142740876266.5754
MC_PIN_SE = 66235417050.34374
MC_PIN_GAMMA_SEED999 = 1014573240824.4406

# recorded 10^8-sample run at the same point with the default seed (not
# re-run in tests; about 5 s on two cores)
MC_LONG_GAMMA = 1044769914273.9678
MC_LONG_SE = 5774701847.432322


@pytest.mark.parametrize(
    "T, expected",
    [(100.0, ORACLE_GAMMA_100K), (50.0, ORACLE_GAMMA_50K)],
)
def test_closed_form_matches_independent_oracle(T, expected):
    res = rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=T))
    assert res.gamma_per_s == pytest.approx(expected, rel=1e-7, abs=0)
    assert res.method == METHOD_CLOSED
    assert res.t2_s == pytest.approx(1.0 / expected, rel=1e-7, abs=0)


def test_closed_form_error_estimate_is_tight():
    res = rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=100.0))
    assert res.error_estimate_per_s <= 1e-6 * res.gamma_per_s
    assert abs(res.gamma_per_s - ORACLE_GAMMA_100K) <= 1e-6 * res.gamma_per_s


@pytest.mark.parametrize(
    "T, D",
    [(100.0, 10e-9), (50.0, 10e-9), (200.0, 30e-9), (300.0, 1e-6), (5.0, 10e-9),
     (1.0, 2e-6)]
    # the benchmark's double grid, with (2 K, 500 nm)
    + [(T, D) for T in (2.0, 20.0, 300.0) for D in (10e-9, 50e-9, 500e-9)],
)
def test_double_integral_agrees_with_closed_form(T, D):
    geom = DotGeometry(width_L_m=4e-9, separation_D_m=D)
    env = ThermalEnv(T_K=T)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-6, abs=0)


def test_double_integral_matches_the_10000_K_oracle():
    # closed sits 9.4e-6 below this oracle here: the moment table's absolute
    # interpolation error at x_D = 0.043. double uses no moment table
    res = rate_double_integral(GAAS, GEOM, ThermalEnv(T_K=1e4))
    assert res.gamma_per_s == pytest.approx(ORACLE_GAMMA_10000K, rel=1e-10, abs=0)


@pytest.mark.parametrize("L, D", [(4e-9, 10e-9), (100e-9, 1e-6)])
def test_double_integral_agrees_with_closed_form_at_1_mK(L, D):
    # x_D is 4.3e5 here: an outer panel over all of [0, x_D] puts every
    # node where the Bose weight is 0. The rates are far below approx's
    # default absolute tolerance, so it is turned off
    geom, env = DotGeometry(width_L_m=L, separation_D_m=D), ThermalEnv(T_K=1e-3)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-6, abs=0.0)


def _low_temperature_terms(T, L, D, n) -> list:
    """The first n terms of the rate's low-temperature series, in 1/s.

    Where M(x_D) is 120 zeta(5) (x_D > 60), with r = x_D/U and
    e^{-x^2} (1 - sin(a x)/(a x)) = sum_k c_k x^{2k}, the closed integral is
    sum_k c_k (2k+5)! zeta(2k+5)/(2k r^{2k}), term by term from
    Int_0^inf y^{2k-1} (120 zeta(5) - M(y)) dy = (2k+5)! zeta(2k+5)/(2k).
    c_k = (-1)^{k+1} sum_{m=1..k} a^{2m}/((2m+1)! (k-m)!). The series is
    asymptotic and shares no code with any route: no quadrature, no sin
    rule, no moment table.
    """
    p = derived_scales(GAAS, DotGeometry(L, D), ThermalEnv(T))
    assert p.x_debye > _MOMENT_TAIL_CUT
    a, r = p.sep_ratio, p.x_debye / p.form_factor_limit
    terms = []
    for k in range(1, n + 1):
        c = (-1) ** (k + 1) * sum(a ** (2 * m) / math.factorial(2 * m + 1) / math.factorial(k - m)
                                  for m in range(1, k + 1))
        moment = math.factorial(2 * k + 5) * float(mpmath.zeta(2 * k + 5)) / (2 * k)
        terms.append(p.prefactor_per_s * c * moment / r ** (2 * k))
    return terms


LOW_T_POINTS = [(1e-3, 4e-9, 10e-9), (1e-3, 4e-9, 100e-9), (1e-2, 4e-9, 10e-9)]


@pytest.mark.parametrize("T, L, D", LOW_T_POINTS)
@pytest.mark.parametrize("route", [rate_closed_form, rate_double_integral])
def test_deterministic_routes_match_the_low_temperature_series(route, T, L, D):
    # three terms, the fourth as the truncation allowance (1.9e-18, 9.3e-14
    # and 1.9e-12 of the rate at the three points). Seen: closed +6.1e-13,
    # +4.4e-13, -1.4e-12, stating 1.2e-12; double -5.9e-15, -1.6e-13,
    # -2.0e-12, stating 5.3e-11
    *terms, omitted = _low_temperature_terms(T, L, D, 4)
    series = sum(terms)
    res = route(GAAS, DotGeometry(L, D), ThermalEnv(T))
    allowance = res.error_estimate_per_s / res.gamma_per_s + abs(omitted / series)
    assert abs(res.gamma_per_s / series - 1.0) <= allowance


@pytest.mark.parametrize("T", [1e-3, 1e-2])
def test_monte_carlo_matches_the_low_temperature_series(T):
    # z = +0.57 and -0.27 at both temperatures: at this L and D the sampler's
    # draws and weights scale together with T
    series = sum(_low_temperature_terms(T, 4e-9, 10e-9, 3))
    for seed in (1, 2):
        res = rate_monte_carlo(GAAS, DotGeometry(4e-9, 10e-9), ThermalEnv(T),
                               samples=2**20, seed=seed)
        assert abs(res.gamma_per_s - series) <= 3.0 * res.mc_std_error_per_s


@pytest.mark.parametrize("L", [0.1e-9, 4e-9])
@pytest.mark.parametrize("T", [0.3, 1.0, 3.0, 7.0, 12.0])
def test_double_integral_agrees_with_closed_form_past_moment_argument_30(T, L):
    # x_D > 30 at every T here, so the closed route's bracket is a difference
    # of two moment-table reads close to their common limit; double forms no
    # such difference. At L = 0.1 nm closed warns that its cut is marginal
    for D in (1e-9, 10e-9, 100e-9):
        geom, env = DotGeometry(width_L_m=L, separation_D_m=D), ThermalEnv(T_K=T)
        assert derived_scales(GAAS, geom, env).x_debye > 30.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffValidityWarning)
            closed = rate_closed_form(GAAS, geom, env).gamma_per_s
        double = rate_double_integral(GAAS, geom, env).gamma_per_s
        assert closed == pytest.approx(double, rel=1e-10, abs=0.0)


def test_small_separation_routes_agree():
    geom = DotGeometry(width_L_m=4e-9, separation_D_m=4e-15)
    env = ThermalEnv(T_K=100.0)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert closed > 0.0
    assert double == pytest.approx(closed, rel=1e-4, abs=0)


def _counting_table(monkeypatch):
    """Patch the engine loop and integrate to list the double route's table
    passes, as (a, b, omega), and its outer passes, as (a, b)."""
    passes, outer = [], []
    adaptive, integrate = quadrature_module._adaptive, quadrature_module.integrate

    def counting_adaptive(f, a, b, cfg, omega=None, edges=None):
        passes.append((a, b, omega))
        return adaptive(f, a, b, cfg, omega, edges)

    def counting_integrate(f, a, b, cfg=None):
        outer.append((a, b))
        return integrate(f, a, b, cfg)

    monkeypatch.setattr(quadrature_module, "_adaptive", counting_adaptive)
    monkeypatch.setattr(quadrature_module, "integrate", counting_integrate)
    return passes, outer


@pytest.mark.parametrize("D", [50e-9])
def test_double_integral_makes_one_table_pass_and_one_outer_pass(monkeypatch, D):
    # below the crossover the inner integral is tabulated by one engine pass
    # over [0, 8.5], then read at every node of one outer integrate over [0, x_D]
    passes, outer = _counting_table(monkeypatch)
    geom, env = DotGeometry(4e-9, D), ThermalEnv(20.0)
    res = rate_double_integral(GAAS, geom, env)
    x_debye = derived_scales(GAAS, geom, env).x_debye
    assert passes == [(0.0, rates_module._FORM_FACTOR_CUT, None), (0.0, x_debye, None)]
    assert outer == [(0.0, x_debye)]
    assert res.gamma_per_s == pytest.approx(rate_closed_form(GAAS, geom, env).gamma_per_s,
                                            rel=1e-6, abs=0)


def test_double_integral_far_table_makes_two_passes_and_one_outer_pass(monkeypatch):
    # at 10 um, alpha * 8.5 = 30,052 is past the crossover: the table is
    # Gauss-Kronrod on [0, 1/alpha] and the sin-weighted rule on [1/alpha, 8.5],
    # the closed route's two passes, read by one outer integrate over [0, x_D]
    passes, outer = _counting_table(monkeypatch)
    geom, env = DotGeometry(4e-9, 10e-6), ThermalEnv(20.0)
    res = rate_double_integral(GAAS, geom, env)
    p = derived_scales(GAAS, geom, env)
    alpha = p.sep_ratio
    assert alpha * rates_module._FORM_FACTOR_CUT > quadrature_module._FAR_CROSSOVER
    assert passes == [(0.0, 1.0 / alpha, None),
                      (1.0 / alpha, rates_module._FORM_FACTOR_CUT, alpha),
                      (0.0, p.x_debye, None)]
    assert outer == [(0.0, p.x_debye)]
    assert res.gamma_per_s == pytest.approx(rate_closed_form(GAAS, geom, env).gamma_per_s,
                                            rel=1e-8, abs=0)


def _omega_of_each_pass(monkeypatch) -> list:
    """Patch the engine loop to list the omega of every pass, None for a
    Gauss-Kronrod pass, whichever route or engine function runs it."""
    omegas, adaptive = [], quadrature_module._adaptive

    def listing(f, a, b, cfg, omega=None, edges=None):
        omegas.append(omega)
        return adaptive(f, a, b, cfg, omega, edges)

    monkeypatch.setattr(quadrature_module, "_adaptive", listing)
    return omegas


def test_one_crossover_switches_both_routes(monkeypatch):
    # at (20 K, 4 nm, 10 um), a X = a t_top = 30,052: both routes make a far
    # pass. quadrature._FAR_CROSSOVER alone moves both to Gauss-Kronrod
    # panels pi/a wide, and each route agrees with its own far-pass rate
    geom, env = DotGeometry(4e-9, 10e-6), ThermalEnv(20.0)
    a = derived_scales(GAAS, geom, env).sep_ratio
    routes = (rate_closed_form, rate_double_integral)
    omegas = _omega_of_each_pass(monkeypatch)
    far = [route(GAAS, geom, env) for route in routes]
    # closed: [0, 1/a], the far pass; double: the two table passes, the outer pass
    assert omegas == [None, a, None, a, None]
    omegas.clear()
    monkeypatch.setattr(quadrature_module, "_FAR_CROSSOVER", math.inf)
    panels = [route(GAAS, geom, env) for route in routes]
    assert omegas == [None, None, None]
    for got, ref in zip(panels, far):
        assert got.gamma_per_s == pytest.approx(ref.gamma_per_s, rel=1e-8, abs=0.0)


def test_every_pass_of_the_kernel_integral_runs_at_one_tolerance(monkeypatch):
    # at (100 K, 4 nm, 1 mm) both routes run the near and the far pass: the
    # closed route's two passes and the double route's two table passes all
    # run at the one route tolerance; only double's outer pass has its own
    geom, env = DotGeometry(4e-9, 1e-3), ThermalEnv(100.0)
    p = derived_scales(GAAS, geom, env)
    passes, adaptive = [], quadrature_module._adaptive

    def recording(f, a, b, cfg, omega=None, edges=None):
        passes.append((a, b, omega, cfg))
        return adaptive(f, a, b, cfg, omega, edges)

    monkeypatch.setattr(quadrature_module, "_adaptive", recording)
    rate_closed_form(GAAS, geom, env)
    closed = passes[:]
    passes.clear()
    rate_double_integral(GAAS, geom, env)
    *table, outer = passes
    assert [w for _, _, w, _ in closed] == [None, p.sep_ratio] == [w for _, _, w, _ in table]
    assert outer[:3] == (0.0, p.x_debye, None)
    assert {(cfg.abs_tol, cfg.rel_tol) for *_, cfg in closed + table} == {(1e-250, 1e-10)}


@pytest.mark.parametrize("T, D", [(1e-3, 10e-9), (100.0, 1e-3)])
def test_closed_route_reads_the_debye_edge_once(monkeypatch, T, D):
    # M(x_D) is one read a call, a column of the point's one row; every
    # integrand call, near pass or far, makes one (1, n) read of its n nodes,
    # and the engine's sampler calls it once. Both points make several
    # calls: bisections at 1 mK, a far pass at 1 mm
    geom, env = DotGeometry(4e-9, D), ThermalEnv(T)
    x_debye = derived_scales(GAAS, geom, env).x_debye
    reads, samples = [], []
    table_eval, sample = BoseMomentTable.eval, quadrature_module._sample

    def counting_eval(self, x):
        reads.append(x)
        return table_eval(self, x)

    def counting_sample(f, nodes, shape):
        samples.append(nodes.size)
        return sample(f, nodes, shape)

    get_moment_table()
    monkeypatch.setattr(BoseMomentTable, "eval", counting_eval)
    monkeypatch.setattr(quadrature_module, "_sample", counting_sample)
    rate_closed_form(GAAS, geom, env)
    edges = [x for x in reads if np.ndim(x) == 1]
    assert len(edges) == 1 and edges[0].tolist() == [x_debye] and len(samples) > 1
    assert [np.shape(x) for x in reads if np.ndim(x) == 2] == [(1, n) for n in samples]
    assert len(reads) == 1 + len(samples)


def test_sin_rule_reads_stay_within_the_block_bound(monkeypatch):
    # at (1 K, 4 nm, 2 um), just past the crossover, the outer pass reads
    # about 1,900 partial panels of the sin-weighted rule at once, 50 values
    # each (25 nodes of a pair): 95,850 values in one call unchunked. Every
    # call holds at most _BLOCK_ELEMS, and chunking never changes the nodes
    # or their sums, so the bits are those of one call
    geom, env = DotGeometry(4e-9, 2e-6), ThermalEnv(1.0)
    sizes, rule = [], quadrature_module._sin_clenshaw_curtis
    per_panel = 2 * quadrature_module._CC_NODES.size

    def sized(f, lefts, rights, shape, omega):
        sizes.append(per_panel * lefts.size)
        return rule(f, lefts, rights, shape, omega)

    monkeypatch.setattr(quadrature_module, "_sin_clenshaw_curtis", sized)
    chunked = rate_double_integral(GAAS, geom, env)
    bound = quadrature_module._BLOCK_ELEMS
    assert bound - per_panel < max(sizes) <= bound
    sizes.clear()
    monkeypatch.setattr(quadrature_module, "_BLOCK_ELEMS", 1 << 30)
    whole = rate_double_integral(GAAS, geom, env)
    assert max(sizes) > bound
    assert chunked.gamma_per_s.hex() == whole.gamma_per_s.hex()
    assert chunked.error_estimate_per_s.hex() == whole.error_estimate_per_s.hex()


def test_double_integral_at_1_mm_agrees_with_closed_form():
    # pi/alpha panels over [0, 8.5] would ask for 956,587 seed panels here,
    # above the engine's cap of 200,000; the far table is seeded at decades
    geom, env = DotGeometry(4e-9, 1e-3), ThermalEnv(50.0)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("route", [rate_closed_form, rate_double_integral])
def test_deterministic_routes_zero_limits(route):
    frozen = route(GAAS, GEOM, ThermalEnv(T_K=0.0))
    merged = route(GAAS, DotGeometry(width_L_m=4e-9, separation_D_m=0.0),
                   ThermalEnv(T_K=100.0))
    for res in (frozen, merged):
        assert res.gamma_per_s == 0.0
        assert math.isinf(res.t2_s)
        assert res.error_estimate_per_s == 0.0


@pytest.mark.parametrize("route, T, D, where, interval", [
    # at 1 mm the near pass over [0, 1/a] converges on its seed panels, the far one not
    (rate_closed_form, 100.0, 1e-3, "separation_D_m=0.001: ", "[2.82842712474619e-06, 8.5]"),
    # at 1 mK the one pass over [0, X] gives up; the point's one row names no component
    (rate_closed_form, 1e-3, 10e-9, "separation_D_m=1e-08: ", "[0.0, 0.008628317792496345]"),
    (rate_double_integral, 100.0, 10e-9, "separation_D_m=1e-08: outer axis: ",
     "[0.0, 4.327058755197736]"),
    (rate_double_integral, 100.0, 1e-3, "separation_D_m=0.001: inner axis: ",
     "[2.82842712474619e-06, 8.5]"),
])
def test_an_engine_failure_names_the_route_and_the_point(monkeypatch, route, T, D, where,
                                                         interval):
    # with no bisection allowed the engine itself gives up, and the route
    # puts its point (and for double the engine's axis) before its text
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 0)
    with pytest.raises(NonConvergence) as info:
        route(GAAS, DotGeometry(width_L_m=4e-9, separation_D_m=D), ThermalEnv(T_K=T))
    msg = str(info.value)
    label = METHOD_CLOSED if route is rate_closed_form else METHOD_DOUBLE
    assert msg.startswith(f"{label} rate at T_K={T}, width_L_m=4e-09, {where}error estimate ")
    assert "above tolerance" in msg and msg.endswith(f"after 0 subdivisions of {interval}")


def test_monte_carlo_zero_limits():
    res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=0.0), samples=10**4)
    assert res.gamma_per_s == 0.0
    assert res.mc_std_error_per_s == 0.0
    assert math.isinf(res.t2_s)


def test_rate_increases_with_temperature_and_separation():
    temps = [20.0, 50.0, 100.0, 200.0]
    seps = [2e-9, 4e-9, 6e-9, 10e-9]
    grid = np.array([
        [rate_closed_form(GAAS, DotGeometry(4e-9, D), ThermalEnv(T)).gamma_per_s
         for D in seps]
        for T in temps
    ])
    assert np.all(np.diff(grid, axis=0) > 0.0)
    assert np.all(np.diff(grid, axis=1) > 0.0)


def _upper(p):
    """X, where the closed route truncates its integral."""
    return min(rates_module._FORM_FACTOR_CUT, p.form_factor_limit,
               _MOMENT_TAIL_CUT * p.form_factor_limit / p.x_debye)


def _crossover_separation(T, L):
    """The D at which a X reaches the crossover, past which the closed route
    splits its integral at x = 1/a and runs the far pass beyond."""
    p = derived_scales(GAAS, DotGeometry(L, 1.0), ThermalEnv(T))
    return quadrature_module._FAR_CROSSOVER / _upper(p) * L / math.sqrt(2.0)


def _closed(T, L, D, crossover=None):
    """rate_closed_form, with the crossover moved to force one path if given."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        if crossover is not None:
            mp.setattr(quadrature_module, "_FAR_CROSSOVER", crossover)
        warnings.simplefilter("ignore", CutoffValidityWarning)
        return rate_closed_form(GAAS, DotGeometry(L, D), ThermalEnv(T))


def _counting_engine(monkeypatch):
    """Patch the engine loop, whoever calls it, to add every pass's
    evaluations to the returned list's last entry."""
    adaptive, counts = quadrature_module._adaptive, [0]

    def counting(*args, **kwargs):
        res = adaptive(*args, **kwargs)
        counts[-1] += res[-1]
        return res

    monkeypatch.setattr(quadrature_module, "_adaptive", counting)
    return counts


def _log_kernel(a):
    """K(a) = Int_0^inf exp(-x^2) (1 - sin(a x)/(a x))/x dx for large a.

    K(a) = ln a - 1 + gamma_E/2 + sum_n c_n/a^(2n) with
    c_n = (2n-1)!! 2^(n-1)/(n (2n-1)) = 1, 1, 4, 30, ...: K is the mean of
    Int exp(-x^2)(1 - cos(a t x))/x dx over t in [0, 1], whose derivative
    in a t is Dawson's function. The series is cut after 4/a^6.
    """
    y = 1.0 / (a * a)
    return math.log(a) - 1.0 + 0.5 * np.euler_gamma + y * (1.0 + y * (1.0 + 4.0 * y))


def _log_law_split(T, L, D):
    """(value, allowance) of the closed integral as B0 K(a) + R, B0 = B(0).

    R = Int_0^8.5 exp(-x^2) (B - B0)/x dx (with B = 0 past sqrt(2) k_D L)
    comes from scipy. The allowance adds scipy's error estimates to the
    leading-order bound on the dropped term -(1/a) Int sin(a x) G(x) dx,
    G = exp(-x^2) (B - B0)/x^2: B0 [2.12/(a l)^4 + 4 exp(-U^2)/(a l)^3],
    with U = sqrt(2) k_D L and l = min(1, U, U/x_D) the narrowest scale
    of exp(-x^2) B.
    """
    p = derived_scales(GAAS, DotGeometry(L, D), ThermalEnv(T))
    a, u = p.sep_ratio, p.form_factor_limit
    ratio = p.x_debye / u
    table = get_moment_table()
    b0 = table.eval(p.x_debye)
    upper = min(rates_module._FORM_FACTOR_CUT, u)
    opts = dict(epsabs=1e-14 * b0, epsrel=1e-13, limit=500)
    r, r_err = quad(lambda x: math.exp(-x * x) / x
                    * (max(b0 - table.eval(x * ratio), 0.0) - b0), 0.0, upper, **opts)
    if upper < rates_module._FORM_FACTOR_CUT:
        tail, tail_err = quad(lambda x: -b0 * math.exp(-x * x) / x, upper,
                              rates_module._FORM_FACTOR_CUT, **opts)
        r, r_err = r + tail, r_err + tail_err
    s = a * min(1.0, u, u / p.x_debye)
    return b0 * _log_kernel(a) + r, b0 * (2.12 / s**4 + 4.0 * math.exp(-u * u) / s**3) + r_err


@pytest.mark.parametrize("a", [30.0, 100.0, 1e3, 1e4, 1e5, 1e6])
def test_log_kernel_matches_hypergeometric_oracle(a):
    # K(a) = (a^2/12) 2F2(1, 1; 2, 5/2; -a^2/4), its small-a series summed
    # exactly; the asymptotic series is cut after 4/a^6 and the next term
    # is 30/a^8. The series is the test oracle of the log law below
    with mpmath.workdps(40):
        oracle = float(a * a / 12 * mpmath.hyp2f2(1, 1, 2, 2.5, -a * a / 4))
    k = _log_kernel(a)
    assert abs(k - oracle) <= 31.0 / a**8 + 1e-15 * oracle


@pytest.mark.parametrize(
    "T, L", [(50.0, 4e-9), (4.0, 4e-9), (300.0, 1e-10), (1e4, 4e-9)],
)
def test_closed_form_follows_the_log_law_split_from_100_um_to_1_m(T, L):
    # the closed route shares no code with K(a), and is within the dropped
    # term's bound of B0 K(a) + R at every D
    _assert_follows_the_log_law_split(_closed, T, L)


@pytest.mark.parametrize("T, L", [(50.0, 4e-9), (4.0, 4e-9), (300.0, 1e-10)])
def test_double_integral_follows_the_log_law_split_from_100_um_to_1_m(T, L):
    # as for closed. The split reads B0 and B from the moment table, whose
    # error puts it 9.1e-6 from double at (10^4 K, 4 nm): that row checks
    # closed, which reads the same table, alone
    _assert_follows_the_log_law_split(
        lambda T, L, D: rate_double_integral(GAAS, DotGeometry(L, D), ThermalEnv(T)), T, L)


def _assert_follows_the_log_law_split(route, T, L):
    """route(T, L, D) at D = 100 um, 1 mm and 1 m is within its stated error
    plus the split's allowance of B0 K(a) + R."""
    for D in (100e-6, 1e-3, 1.0):
        res = route(T, L, D)
        p = derived_scales(GAAS, DotGeometry(L, D), ThermalEnv(T))
        split, allowance = _log_law_split(T, L, D)
        value = res.gamma_per_s / p.prefactor_per_s
        assert abs(value - split) <= allowance + res.error_estimate_per_s / p.prefactor_per_s


@pytest.mark.parametrize(
    "T, L, D",
    # at L = 0.1 nm the form-factor limit is below 8.5, so B ends at
    # X < 8.5 with a kink
    [(4.0, 4e-9, 10e-6), (4.0, 4e-9, 100e-6), (300.0, 4e-9, 10e-6),
     (300.0, 4e-9, 100e-6), (300.0, 1e-10, 10e-6)],
)
def test_adaptive_and_split_closed_forms_agree_from_10_to_100_um(T, L, D):
    # the route splits the integral at 1/a and runs the far pass beyond;
    # Gauss-Kronrod panels pi/a wide over all of [0, X] give the same value
    assert D > _crossover_separation(T, L)
    split = _closed(T, L, D)
    adaptive = _closed(T, L, D, math.inf)
    assert split.gamma_per_s == pytest.approx(adaptive.gamma_per_s, rel=1e-8, abs=0)
    assert split.error_estimate_per_s <= 1e-10 * split.gamma_per_s


def test_split_error_estimate_covers_the_switch_error():
    # just past the crossover, the far path and Gauss-Kronrod over all of
    # [0, X] agree within the sum of their stated errors, each below 1e-10
    T, L = 300.0, 1e-10
    D = 1.001 * _crossover_separation(T, L)
    split = _closed(T, L, D)
    adaptive = _closed(T, L, D, math.inf)
    assert split.gamma_per_s != adaptive.gamma_per_s
    assert (abs(split.gamma_per_s - adaptive.gamma_per_s)
            <= split.error_estimate_per_s + adaptive.error_estimate_per_s
            <= 1e-10 * split.gamma_per_s)


def test_switch_uses_the_thermal_scale_not_a_alone(monkeypatch):
    # at 10 mK and L = 4 nm, B falls to 0 within x ~ 0.09 = X, so a = 10,607
    # is only a X = 950: the route makes no pass of the sin-weighted rule and
    # stays on Gauss-Kronrod panels, bit for bit
    geom, env = DotGeometry(4e-9, 30e-6), ThermalEnv(T_K=0.01)
    p = derived_scales(GAAS, geom, env)
    assert p.sep_ratio > quadrature_module._FAR_CROSSOVER
    assert p.sep_ratio * _upper(p) < quadrature_module._FAR_CROSSOVER
    omegas = _omega_of_each_pass(monkeypatch)
    res = rate_closed_form(GAAS, geom, env)
    assert omegas == [None]
    assert res.gamma_per_s == _closed(0.01, 4e-9, 30e-6, math.inf).gamma_per_s


@pytest.mark.parametrize("T, L", [(50.0, 4e-9), (100.0, 4e-9), (300.0, 1e-10)])
def test_split_evaluation_count_does_not_depend_on_separation(monkeypatch, T, L):
    # every engine evaluation, in the Gauss-Kronrod pass on [0, 1/a] and in
    # the far pass; the far pass's seed panels are the decades of a, so its
    # count grows as ln a, at most 2x over four decades of D
    counts = _counting_engine(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffValidityWarning)
        for D in (100e-6, 1e-3, 1.0):
            counts.append(0)
            res = rate_closed_form(GAAS, DotGeometry(L, D), ThermalEnv(T_K=T))
            assert math.isfinite(res.gamma_per_s) and res.gamma_per_s > 0.0
    assert 0 < counts[1] and counts[3] <= 2 * counts[1]


@pytest.mark.parametrize(
    "T, uncapped",
    # the integral's value with panels over all of [0, 8.5]
    [(0.01, 4.57301083389036e-07), (0.1, 0.04570677220391435)],
)
def test_adaptive_closed_form_stops_where_the_bracket_vanishes(monkeypatch, T, uncapped):
    # at a l = 999, l = min(1, U, U/x_D), panels pi/a wide over all of
    # [0, 8.5] cost about 3e6 evaluations; B is below 1e-17 beyond
    # X = 60 U/x_D, where the route stops
    p = derived_scales(GAAS, DotGeometry(4e-9, 1.0), ThermalEnv(T))
    scale = min(1.0, p.form_factor_limit, p.form_factor_limit / p.x_debye)
    counts = _counting_engine(monkeypatch)
    res = rate_closed_form(GAAS, DotGeometry(4e-9, 999.0 / scale * 4e-9 / math.sqrt(2.0)),
                           ThermalEnv(T_K=T))
    assert counts[-1] <= 3e5
    assert res.gamma_per_s == pytest.approx(uncapped, rel=1e-8, abs=0.0)


def test_large_separation_slope_is_prefactor_times_b0():
    env = ThermalEnv(T_K=50.0)
    pts = [(D, rate_closed_form(GAAS, DotGeometry(4e-9, D), env).gamma_per_s)
           for D in np.geomspace(100e-6, 1.0, 9)]
    fit = fit_log_law(pts, (50e-6, 2.0))
    p = derived_scales(GAAS, DotGeometry(4e-9, 1.0), env)
    slope = p.prefactor_per_s * get_moment_table().eval(p.x_debye)
    assert fit.slope == pytest.approx(slope, rel=1e-8, abs=0)
    assert fit.residual_rms < 1e-8 * slope


@given(log_T=st.floats(min_value=-3.0, max_value=4.0),
       log_L=st.floats(min_value=-10.0, max_value=-7.0),
       log_D=st.floats(min_value=-12.0, max_value=0.0))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_closed_form_is_finite_and_non_decreasing_in_separation(log_T, log_L, log_D):
    # the box T 1 mK - 10^4 K, L 0.1 - 100 nm, D 0 - 1 m; each grid
    # straddles the crossover to the far pass
    T, L = 10.0**log_T, 10.0**log_L
    crossover = _crossover_separation(T, L)
    seps = sorted({0.0, 10.0**log_D, 0.999 * crossover, 1.001 * crossover, 1.0})
    gammas = [_closed(T, L, D).gamma_per_s for D in seps]
    assert all(math.isfinite(g) for g in gammas)
    assert gammas[0] == 0.0 and gammas[1] > 0.0
    for lo, hi in zip(gammas[1:], gammas[2:]):
        assert hi >= lo * (1.0 - 1e-8)


@pytest.mark.parametrize(
    "T, L, D",
    # points where one double call takes well under 0.5 s; a X is 6,600,
    # 2,200 and 30,052, so the far path is forced at all three
    [(300.0, 4e-10, 3e-7), (1e4, 1e-10, 1e-7), (300.0, 4e-9, 1e-5)],
)
def test_split_closed_form_agrees_with_double_integral(T, L, D):
    closed = _closed(T, L, D, 0.0).gamma_per_s
    double = rate_double_integral(GAAS, DotGeometry(L, D), ThermalEnv(T)).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-2, abs=0)


@pytest.mark.parametrize(
    "T, L, D", [(4.0, 4e-9, 100e-6), (300.0, 4e-9, 100e-6), (50.0, 4e-9, 300e-6)],
)
def test_double_integral_matches_split_closed_form(T, L, D):
    assert D > _crossover_separation(T, L)
    geom, env = DotGeometry(L, D), ThermalEnv(T)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-6, abs=0)


def test_closed_form_matches_the_recorded_box_reference():
    # tests/record_closed_box.py wrote these rates over the 560-point box
    # before the far pass replaced the log-law split
    rows = json.loads(REFERENCE_BOX.read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 560
    for T, L, D, expected in rows:
        assert _closed(T, L, D).gamma_per_s == pytest.approx(expected, rel=1e-10, abs=0.0), \
            (T, L, D)


def test_double_integral_matches_the_recorded_box_reference():
    # the recorder's 560 points, every one a converged rate (1.6-2.5 s on
    # two cores). At 10^4 K, x_D = 0.043 and closed carries the moment
    # table's interpolation error, up to 1.7e-5 of the rate (README,
    # "Documented result gaps"); double uses no moment table
    rows = json.loads(REFERENCE_BOX.read_text(encoding="utf-8"))["rows"]
    recorded = {(T, L, D): gamma for T, L, D, gamma in rows}
    points = box_points()
    assert len(points) == 560 and set(points) == set(recorded)
    for T, L, D in points:
        double = rate_double_integral(GAAS, DotGeometry(L, D), ThermalEnv(T)).gamma_per_s
        rel = 2e-5 if T >= 1e4 else 1e-8
        assert double == pytest.approx(recorded[T, L, D], rel=rel, abs=0.0), (T, L, D)


@pytest.mark.parametrize("T, L", [(100.0, 4e-9), (50.0, 4e-9), (300.0, 1e-10)])
def test_double_integral_evaluation_count_does_not_grow_with_separation(monkeypatch, T, L):
    # the route drops its QuadratureResult, so the count is read from
    # integrate_nested; the far table's seed panels are the decades of
    # alpha, so from 10 um to 1 m the count grows as ln alpha, under 2x
    counts, nested = [], rates_module.integrate_nested

    def counting(*args, **kwargs):
        res = nested(*args, **kwargs)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(rates_module, "integrate_nested", counting)
    for D in (10e-6, 1e-3, 1.0):
        rate_double_integral(GAAS, DotGeometry(L, D), ThermalEnv(T))
    assert len(counts) == 3
    assert max(counts[1:]) <= 2 * counts[0]


def test_monte_carlo_pinned_output():
    res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6)
    assert res.gamma_per_s == pytest.approx(MC_PIN_GAMMA, rel=1e-12, abs=0)
    assert res.mc_std_error_per_s == pytest.approx(MC_PIN_SE, rel=1e-12, abs=0)
    assert res.error_estimate_per_s == res.mc_std_error_per_s
    assert res.method == METHOD_MC


def test_monte_carlo_seed_changes_output():
    res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6,
                           seed=999)
    assert res.gamma_per_s == pytest.approx(MC_PIN_GAMMA_SEED999, rel=1e-12, abs=0)
    assert res.gamma_per_s != pytest.approx(MC_PIN_GAMMA, rel=1e-12, abs=0)


def test_monte_carlo_pin_consistent_with_oracle():
    # the pinned short run must sit within a few standard errors
    assert abs(MC_PIN_GAMMA - ORACLE_GAMMA_100K) <= 3.0 * MC_PIN_SE
    # record of the long run: 0.71 standard errors off the quad oracle
    assert abs(MC_LONG_GAMMA - ORACLE_GAMMA_100K) <= 3.0 * MC_LONG_SE


def test_monte_carlo_thread_count_invariance(monkeypatch):
    # the first two counts span several sampler blocks, so the reduction
    # order matters, and neither is a multiple of the chunk size; 2^20 + 3
    # ends in a block of 3 samples. The last two fit in one block, which
    # the pool runs on one thread whatever the thread count
    for samples in (2_500_000, 2**20 + 3, 2**20, 10**4):
        bits = set()
        for threads in ("1", "2", "7"):
            monkeypatch.setenv("DEPHASER_THREADS", threads)
            res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=40.0),
                                   samples=samples)
            bits.add((res.gamma_per_s.hex(), res.mc_std_error_per_s.hex()))
        assert len(bits) == 1


def test_monte_carlo_chunk_size_changes_rounding_only(monkeypatch):
    # a sample's draws do not depend on the chunk it is evaluated in, so
    # evaluating a block in one piece gives the same estimate up to the
    # order of the floating-point reduction
    env = ThermalEnv(T_K=100.0)
    chunked = rate_monte_carlo(GAAS, GEOM, env, samples=300_001)
    monkeypatch.setattr(rates_module, "_MC_CHUNK", rates_module._MC_BLOCK)
    whole = rate_monte_carlo(GAAS, GEOM, env, samples=300_001)
    assert chunked.gamma_per_s == pytest.approx(whole.gamma_per_s, rel=1e-12, abs=0)
    assert chunked.mc_std_error_per_s == pytest.approx(
        whole.mc_std_error_per_s, rel=1e-12, abs=0)


def _reference_mc_block(seed, lo, hi, table, x_per_k, lw, sep):
    """(count, mean, M2) of the estimator written out with np.sin on whole
    arrays, from the same PCG64 rows as rates._mc_block."""
    k_lo, width = table
    n_slots = width.size
    bitgen = np.random.PCG64(seed)
    bitgen.advance(lo * rates_module._MC_DRAWS)
    u = np.random.Generator(bitgen).random((hi - lo, rates_module._MC_DRAWS))
    v = u[:, 0] * n_slots
    slot = v.astype(np.intp)
    k = np.maximum(k_lo[slot] + (v - slot) * width[slot], 1e-12 * width[0])
    zn = 2.0 * u[:, 1] - 1.0
    zm = 2.0 * u[:, 2] - 1.0
    rn = np.sqrt(1.0 - zn * zn)
    rm = np.sqrt(1.0 - zm * zm)
    dz = zn - zm
    d2 = dz**2 + (rn - rm) ** 2 + 4.0 * rn * rm * np.sin(0.5 * math.pi * u[:, 3]) ** 2
    x = x_per_k * k
    occ = 1.0 / np.expm1(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.where(d2 > 0.0, np.exp(-0.5 * lw * lw * k * k * d2)
                       * np.sin(0.5 * sep * k * dz) ** 2 / d2, 0.0)
    est = 2.0 * (4.0 * math.pi) ** 2 * x * k**4 * occ * (occ + 1.0) * ang * n_slots * width[slot]
    mean = est.mean()
    return est.size, mean, ((est - mean) ** 2).sum()


def _mc_args(T, D):
    """The radial table and kernel arguments rate_monte_carlo uses at (T, D)."""
    x_per_k = CONST.hbar * GAAS.c_sound_m_per_s / (CONST.k_B * T)
    table = rates_module._radial_table(
        x_per_k, min(GAAS.k_D_per_m, _MOMENT_TAIL_CUT / x_per_k))
    return table, x_per_k, GEOM.width_L_m, D


@pytest.mark.parametrize("lo, hi", [(0, 2**20), (2**20, 2**20 + 3 * 2**15 + 5)],
                         ids=["full", "partial"])
@pytest.mark.parametrize("T, D", [(1e-3, 10e-9), (100.0, 10e-9), (1e4, 10e-9),
                                  (100.0, 500e-9)])
def test_mc_block_matches_reference_kernel(T, D, lo, hi):
    # the kernel's tan identities, reused buffers and chunked moments change
    # only rounding against the straightforward np.sin estimator
    args = _mc_args(T, D)
    count, mean, m2 = rates_module._mc_block(11, lo, hi, *args)
    ref_count, ref_mean, ref_m2 = _reference_mc_block(11, lo, hi, *args)
    assert count == ref_count == hi - lo
    assert mean == pytest.approx(ref_mean, rel=1e-13, abs=0)
    assert m2 == pytest.approx(ref_m2, rel=1e-13, abs=0)


def test_block_offset_continues_the_stream():
    # advance(lo * _MC_DRAWS) puts a block on the rows the stream from 0
    # gives it, for the generator and for the kernel: a block split at a
    # chunk boundary merges to the bits of the whole
    bitgen = np.random.PCG64(7)
    bitgen.advance(5 * rates_module._MC_DRAWS)
    rows = np.random.Generator(bitgen).random((3, rates_module._MC_DRAWS))
    stream = np.random.Generator(np.random.PCG64(7)).random((8, rates_module._MC_DRAWS))
    np.testing.assert_array_equal(rows, stream[5:])

    args = _mc_args(100.0, 10e-9)
    edge = rates_module._MC_BLOCK
    whole = rates_module._mc_block(7, 0, edge + 10, *args)
    split = rates_module._merge_moments([rates_module._mc_block(7, 0, edge, *args),
                                         rates_module._mc_block(7, edge, edge + 10, *args)])
    assert [float(v).hex() for v in whole] == [float(v).hex() for v in split]


@pytest.mark.parametrize("T", [1e-3, 0.1, 100.0, 1e4])
def test_radial_table_cells_hold_equal_weight(T):
    # the table rate_monte_carlo samples at T, up to its upper limit
    x_per_k = CONST.hbar * GAAS.c_sound_m_per_s / (CONST.k_B * T)
    k_max = min(GAAS.k_D_per_m, _MOMENT_TAIL_CUT / x_per_k)
    lo, width = rates_module._radial_table(x_per_k, k_max)
    n = rates_module._MC_CELLS
    assert lo.size == width.size == n
    assert np.all(width >= 0.0)
    edges = np.append(lo, lo[-1] + width[-1])
    assert edges[0] == 0.0 and edges[-1] == k_max
    np.testing.assert_array_equal(lo[1:], edges[1:-1])
    # equal shares of the fine-grid cumulative weight the edges invert
    grid = np.linspace(0.0, k_max, n + 1)
    cum = np.concatenate(
        ([0.0], np.cumsum(_moment_integrand(x_per_k * (grid[:-1] + 0.5 * grid[1])))))
    share = np.diff(np.interp(edges, grid, cum)) / cum[-1]
    np.testing.assert_allclose(share, 1.0 / n, rtol=1e-9)
    # and, to 1 %, of the exact fifth moment; every 97th cell and the last
    cells = np.append(np.arange(0, n, 97), n - 1)
    low, high = ([bose_fifth_moment(x_per_k * k) for k in edges[c]]
                 for c in (cells, cells + 1))
    total = bose_fifth_moment(x_per_k * k_max)
    np.testing.assert_allclose(np.subtract(high, low) / total, 1.0 / n, rtol=1e-2)


def test_equal_width_cells_give_the_same_mean(monkeypatch):
    # the radial density changes only the variance: equal-width cells over
    # the same range must estimate the same rate
    env = ThermalEnv(T_K=100.0)
    weighted = rate_monte_carlo(GAAS, GEOM, env, samples=2**20)

    def equal_width(x_per_k, k_max):
        edges = np.linspace(0.0, k_max, rates_module._MC_CELLS + 1)
        return edges[:-1], np.diff(edges)

    monkeypatch.setattr(rates_module, "_radial_table", equal_width)
    flat = rate_monte_carlo(GAAS, GEOM, env, samples=2**20)
    assert flat.mc_std_error_per_s > weighted.mc_std_error_per_s
    combined = math.hypot(weighted.mc_std_error_per_s, flat.mc_std_error_per_s)
    assert abs(weighted.gamma_per_s - flat.gamma_per_s) <= 4.0 * combined


def test_monte_carlo_agrees_with_closed_form_at_3_5_mK():
    # at 3.5 mK a thermal unit is k_D/1.2e5, so the weight must be resolved
    # on the thermal scale, not on k_D/10^4; eight seeds keep a single lucky
    # one from passing a biased or heavy-tailed estimator
    env = ThermalEnv(T_K=3.5e-3)
    closed = rate_closed_form(GAAS, GEOM, env).gamma_per_s
    for seed in range(8):
        res = rate_monte_carlo(GAAS, GEOM, env, samples=2**20, seed=seed)
        assert abs(res.gamma_per_s - closed) <= 4.0 * res.mc_std_error_per_s


@pytest.mark.parametrize("T", [1e-3, 0.1, 1e4])
def test_monte_carlo_raises_no_floating_point_warning(monkeypatch, T):
    # numpy's errstate is thread-local, so a floating-point warning in a
    # pool thread escapes any errstate the caller holds. The table stops at
    # x = 60, so its weight cannot overflow at 1 mK, and at 10^4 K it
    # spans all of [0, k_D]; at D = 1 mm there the phase sep k dz/2 that
    # goes through tan reaches about 1e7
    monkeypatch.setenv("DEPHASER_THREADS", "2")
    for geom in (GEOM, DotGeometry(width_L_m=4e-9, separation_D_m=1e-3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rate_monte_carlo(GAAS, geom, ThermalEnv(T_K=T), samples=2**20 + 3)
        assert math.isfinite(res.gamma_per_s) and res.gamma_per_s > 0.0
        assert math.isfinite(res.mc_std_error_per_s) and res.mc_std_error_per_s > 0.0


@pytest.mark.parametrize(
    "offset, rel",
    # the merge is exact up to the rounding of each block mean, ulp(offset);
    # at 1e12 that is 1.2e-4 against a spread of 1, which no merge of
    # double-precision means escapes (5e-8 here; np.var is itself off by
    # 1.3e-8), so the reference is the exactly shifted data
    [(1e6, 1e-12), (1e12, 1e-6)],
)
def test_variance_merge_is_stable(offset, rel):
    rng = np.random.default_rng(3)
    blocks = [offset + rng.standard_normal(n) for n in (1 << 16, 1 << 16, 3, 40_000)]
    count, mean, m2 = rates_module._merge_moments(
        rates_module._moments(b) for b in blocks)
    data = np.concatenate(blocks)
    exact_var = np.var(data - offset, ddof=1)   # the shift is exact here
    assert count == data.size
    assert mean == pytest.approx(data.mean(), rel=1e-15, abs=0)
    assert m2 / (count - 1) == pytest.approx(exact_var, rel=rel, abs=0)
    if rel == 1e-12:
        assert m2 / (count - 1) == pytest.approx(np.var(data, ddof=1), rel=1e-12, abs=0)
    # the one-pass formula this merge replaces is off by 2e-4 at 1e6 and
    # negative at 1e12
    naive = ((data * data).sum() - count * (data.sum() / count) ** 2) / (count - 1)
    assert abs(naive / exact_var - 1.0) > 1e-5


def test_monte_carlo_error_scaling():
    # quadrupling the sample count should halve the standard error; the
    # estimator is heavy-tailed, so this needs >~ 10^5 samples to settle
    small = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=250_000)
    large = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6)
    assert large.mc_std_error_per_s == pytest.approx(
        0.5 * small.mc_std_error_per_s, rel=0.25, abs=0
    )


def test_monte_carlo_input_validation():
    env = ThermalEnv(T_K=100.0)
    with pytest.raises(ValueError, match="10000"):
        rate_monte_carlo(GAAS, GEOM, env, samples=9999)
    with pytest.raises(ValueError, match="integer"):
        rate_monte_carlo(GAAS, GEOM, env, samples=1e4)
    with pytest.raises(ValueError, match="integer"):
        rate_monte_carlo(GAAS, GEOM, env, samples=True)
    with pytest.raises(ValueError, match="seed"):
        rate_monte_carlo(GAAS, GEOM, env, samples=10**4, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        rate_monte_carlo(GAAS, GEOM, env, samples=10**4, seed=1.5)


def test_narrow_cutoff_warning():
    narrow = MaterialParams(k_D_per_m=1e9)
    geom = DotGeometry(width_L_m=1e-9, separation_D_m=5e-10)
    with pytest.warns(CutoffValidityWarning):
        rate_closed_form(narrow, geom, ThermalEnv(T_K=10.0))


@pytest.mark.parametrize("path", ["rate_closed_form", "compute_rate", "run_sweep",
                                  "rate_validate"])
def test_narrow_cutoff_warning_names_the_callers_line(path):
    # at L = 0.1 nm the form-factor limit is 1.56; whichever public call
    # reaches the closed route, the warning names this file, not the package
    geom, env = DotGeometry(1e-10, 1e-8), ThermalEnv(100.0)
    calls = {
        "rate_closed_form": lambda: rate_closed_form(GAAS, geom, env),
        "compute_rate": lambda: compute_rate(METHOD_CLOSED, GAAS, geom, env),
        "run_sweep": lambda: run_sweep(SweepSpec(axis="temperature", min_value=100.0,
                                                 max_value=200.0, points=2,
                                                 width_L_m=1e-10, fixed_D_m=1e-8)),
        "rate_validate": lambda: rate_validate(GAAS, geom, env, samples=10**4),
    }
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        calls[path]()
    assert seen and all(w.category is CutoffValidityWarning for w in seen)
    assert {w.filename for w in seen} == {__file__}


def test_no_warning_for_wide_cutoff():
    with warnings.catch_warnings():
        warnings.simplefilter("error", CutoffValidityWarning)
        rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=100.0))


def test_validation_passes_at_reference_point():
    report = rate_validate(GAAS, GEOM, ThermalEnv(T_K=50.0), samples=10**5)
    assert report.passed
    assert report.double_passed and report.mc_passed


def test_validation_catches_inconsistent_routes(monkeypatch):
    # doubling the form-factor deficit 1 - sin(a x)/(a x) doubles both
    # deterministic routes and leaves the sampler untouched (the three
    # routes share their scale through derived_scales), so the
    # closed-form vs monte-carlo comparison must fail
    true_deficit = quadrature_module.sinc_deficit
    monkeypatch.setattr(quadrature_module, "sinc_deficit", lambda y: 2.0 * true_deficit(y))
    report = rate_validate(GAAS, GEOM, ThermalEnv(T_K=50.0), samples=10**5)
    assert report.double_passed      # both deterministic routes doubled
    assert not report.mc_passed
    assert not report.passed


def test_validation_verdicts_follow_the_differences():
    def report(double, mc, mc_se=0.0):
        return ValidationReport(RateResult(100.0, METHOD_CLOSED, 0.0),
                                RateResult(double, METHOD_DOUBLE, 0.0),
                                RateResult(mc, METHOD_MC, mc_se))

    edge = report(101.0, 105.0)
    assert (edge.rel_diff_double, edge.rel_diff_mc, edge.mc_allowance_rel) == (0.01, 0.05, 0.05)
    assert edge.passed
    assert not report(101.01, 100.0).double_passed
    assert not report(100.0, 105.01).mc_passed
    assert not report(100.0, 105.01).passed
    # three standard errors above 5 % widen the allowance
    wide = report(100.0, 105.01, mc_se=2.0)
    assert wide.mc_allowance_rel == 0.06
    assert wide.passed


def test_validation_rejects_degenerate_points():
    with pytest.raises(ValueError):
        rate_validate(GAAS, GEOM, ThermalEnv(T_K=0.0))
    with pytest.raises(ValueError):
        rate_validate(GAAS, DotGeometry(width_L_m=4e-9, separation_D_m=0.0),
                      ThermalEnv(T_K=50.0))


def test_validation_checks_sampling_before_any_route(monkeypatch):
    # a bad samples value must be reported first, without running a route
    def fail(*args, **kwargs):
        raise AssertionError("a route ran before samples was checked")

    for name in ("rate_closed_form", "rate_double_integral", "rate_monte_carlo"):
        monkeypatch.setattr(rates_module, name, fail)
    with pytest.raises(ValueError, match="samples must be >= 10000"):
        rate_validate(GAAS, DotGeometry(4e-9, 1e-3), ThermalEnv(300.0), samples=5)


def test_rate_result_validation():
    with pytest.raises(ValueError):
        RateResult(gamma_per_s=-1.0, method=METHOD_CLOSED, error_estimate_per_s=0.0)
    assert math.isinf(RateResult(gamma_per_s=0.0, method=METHOD_CLOSED,
                                 error_estimate_per_s=0.0).t2_s)
    ok = RateResult(gamma_per_s=2.0, method=METHOD_CLOSED, error_estimate_per_s=0.0)
    assert ok.t2_s == 0.5


def test_only_the_monte_carlo_route_reports_a_standard_error():
    env = ThermalEnv(T_K=50.0)
    assert rate_closed_form(GAAS, GEOM, env).mc_std_error_per_s is None
    assert rate_double_integral(GAAS, GEOM, env).mc_std_error_per_s is None
    mc = rate_monte_carlo(GAAS, GEOM, env, samples=10**4)
    assert mc.mc_std_error_per_s == mc.error_estimate_per_s > 0.0
    assert RateResult(1.0, METHOD_MC, 0.25).mc_std_error_per_s == 0.25


def test_method_labels():
    assert rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=50.0)).method == METHOD_CLOSED
    assert rate_double_integral(GAAS, GEOM, ThermalEnv(T_K=50.0)).method == METHOD_DOUBLE
    assert rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=50.0),
                            samples=10**4).method == METHOD_MC


def test_compute_rate_matches_each_route_bit_for_bit():
    env = ThermalEnv(T_K=50.0)
    direct = {
        METHOD_CLOSED: rate_closed_form(GAAS, GEOM, env),
        METHOD_DOUBLE: rate_double_integral(GAAS, GEOM, env),
        METHOD_MC: rate_monte_carlo(GAAS, GEOM, env, samples=10**4, seed=7),
    }
    assert tuple(direct) == METHODS
    for method, expected in direct.items():
        got = compute_rate(method, GAAS, GEOM, env, samples=10**4, seed=7)
        assert got.method == method
        assert got.gamma_per_s.hex() == expected.gamma_per_s.hex()
        assert got.error_estimate_per_s.hex() == expected.error_estimate_per_s.hex()


def test_compute_rate_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown rate method"):
        compute_rate("closed", GAAS, GEOM, ThermalEnv(T_K=50.0))


def test_compute_rate_calls_the_module_binding(monkeypatch):
    # a timing shim or test double that rebinds rates.rate_closed_form
    # must see every dispatched call
    stub = RateResult(gamma_per_s=2.0, method=METHOD_CLOSED, error_estimate_per_s=0.0)
    monkeypatch.setattr(rates_module, "rate_closed_form", lambda m, g, e: stub)
    assert compute_rate(METHOD_CLOSED, GAAS, GEOM, ThermalEnv(T_K=50.0)) is stub


def test_worker_count_defaults_to_cores(monkeypatch):
    monkeypatch.delenv("DEPHASER_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("DEPHASER_THREADS", "0")
    assert worker_count() >= 1


def test_worker_count_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("DEPHASER_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 1


def test_worker_count_explicit(monkeypatch):
    monkeypatch.setenv("DEPHASER_THREADS", "3")
    assert worker_count() == 3


@pytest.mark.parametrize("bad", ["-1", "two", "1.5"])
def test_worker_count_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("DEPHASER_THREADS", bad)
    with pytest.raises(ValueError):
        worker_count()
