"""Tests for the three dephasing-rate routes and their cross-validation.

The two deterministic reference rates were computed with
scipy.integrate.quad on the reduced one-dimensional integral, entirely
outside this package. The Monte Carlo pins freeze the output of the
counter-based sampler for one seed; any change to the sampling layout is
meant to show up here.

Bit contract of the Monte Carlo route: identical bits run to run and for
any DEPHASER_THREADS on one numpy build and CPU. Across builds or CPUs,
values agree to about 1e-15 relative. The pins are therefore checked to
rel=1e-12: platform drift (measured at 4.6e-16 on the estimate) is three
orders below that, while adding or dropping a single sample moves the
estimate and its standard error by about 1e-6 relative.
"""

import math

import numpy as np
import pytest

import dephaser.rates as rates_module
from dephaser.model import GAAS, DotGeometry, MaterialParams, ThermalEnv
from dephaser.rates import (
    METHOD_CLOSED,
    METHOD_DOUBLE,
    METHOD_MC,
    METHODS,
    CutoffValidityWarning,
    RateResult,
    ValidationFailed,
    compute_rate,
    rate_closed_form,
    rate_double_integral,
    rate_monte_carlo,
    rate_validate,
)

GEOM = DotGeometry(width_L_m=4e-9, separation_D_m=10e-9)

# scipy quad oracles at L = 4 nm, D = 10 nm
ORACLE_GAMMA_100K = 1040671074013.1287
ORACLE_GAMMA_50K = 97274256900.25523

# frozen sampler output, 10^6 samples at the 100 K point
MC_PIN_GAMMA = 1050067524091.3768
MC_PIN_SE = 104218557924.65688
MC_PIN_GAMMA_SEED999 = 1205292502773.7249

# recorded 10^8-sample run at the same point (not re-run in tests)
MC_LONG_GAMMA = 1033696873724.8337
MC_LONG_SE = 9648144291.573647


@pytest.mark.parametrize(
    "T, expected",
    [(100.0, ORACLE_GAMMA_100K), (50.0, ORACLE_GAMMA_50K)],
)
def test_closed_form_matches_independent_oracle(T, expected):
    res = rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=T))
    assert res.gamma_per_s == pytest.approx(expected, rel=1e-7)
    assert res.method == METHOD_CLOSED
    assert res.t2_s == pytest.approx(1.0 / expected, rel=1e-7)


def test_closed_form_error_estimate_is_tight():
    res = rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=100.0))
    assert res.error_estimate_per_s <= 1e-6 * res.gamma_per_s
    assert abs(res.gamma_per_s - ORACLE_GAMMA_100K) <= 1e-6 * res.gamma_per_s


@pytest.mark.parametrize(
    "T, D",
    [(100.0, 10e-9), (50.0, 10e-9), (200.0, 30e-9), (300.0, 1e-6), (5.0, 10e-9)],
)
def test_double_integral_agrees_with_closed_form(T, D):
    geom = DotGeometry(width_L_m=4e-9, separation_D_m=D)
    env = ThermalEnv(T_K=T)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert double == pytest.approx(closed, rel=1e-6)


def test_small_separation_routes_agree():
    geom = DotGeometry(width_L_m=4e-9, separation_D_m=4e-15)
    env = ThermalEnv(T_K=100.0)
    closed = rate_closed_form(GAAS, geom, env).gamma_per_s
    double = rate_double_integral(GAAS, geom, env).gamma_per_s
    assert closed > 0.0
    assert double == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("route", [rate_closed_form, rate_double_integral])
def test_deterministic_routes_zero_limits(route):
    frozen = route(GAAS, GEOM, ThermalEnv(T_K=0.0))
    merged = route(GAAS, DotGeometry(width_L_m=4e-9, separation_D_m=0.0),
                   ThermalEnv(T_K=100.0))
    for res in (frozen, merged):
        assert res.gamma_per_s == 0.0
        assert math.isinf(res.t2_s)
        assert res.error_estimate_per_s == 0.0


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


def test_monte_carlo_pinned_output():
    res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6)
    assert res.gamma_per_s == pytest.approx(MC_PIN_GAMMA, rel=1e-12)
    assert res.mc_std_error_per_s == pytest.approx(MC_PIN_SE, rel=1e-12)
    assert res.error_estimate_per_s == res.mc_std_error_per_s
    assert res.method == METHOD_MC


def test_monte_carlo_seed_changes_output():
    res = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6,
                           seed=999)
    assert res.gamma_per_s == pytest.approx(MC_PIN_GAMMA_SEED999, rel=1e-12)
    assert res.gamma_per_s != pytest.approx(MC_PIN_GAMMA, rel=1e-12)


def test_monte_carlo_pin_consistent_with_oracle():
    # the pinned short run must sit within a few standard errors
    assert abs(MC_PIN_GAMMA - ORACLE_GAMMA_100K) <= 3.0 * MC_PIN_SE
    # record of the long run: 0.7 standard errors off the quad oracle
    assert abs(MC_LONG_GAMMA - ORACLE_GAMMA_100K) <= 3.0 * MC_LONG_SE


def test_monte_carlo_thread_count_invariance(monkeypatch):
    # spans several sampler blocks so the reduction order matters
    samples = 2_500_000
    monkeypatch.setenv("DEPHASER_THREADS", "1")
    serial = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=40.0), samples=samples)
    monkeypatch.setenv("DEPHASER_THREADS", "7")
    threaded = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=40.0), samples=samples)
    assert serial.gamma_per_s == threaded.gamma_per_s
    assert serial.mc_std_error_per_s == threaded.mc_std_error_per_s


def test_monte_carlo_error_scaling():
    # quadrupling the sample count should halve the standard error; the
    # estimator is heavy-tailed, so this needs >~ 10^5 samples to settle
    small = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=250_000)
    large = rate_monte_carlo(GAAS, GEOM, ThermalEnv(T_K=100.0), samples=10**6)
    assert large.mc_std_error_per_s == pytest.approx(
        0.5 * small.mc_std_error_per_s, rel=0.25
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


def test_no_warning_for_wide_cutoff():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", CutoffValidityWarning)
        rate_closed_form(GAAS, GEOM, ThermalEnv(T_K=100.0))


def test_validation_passes_at_reference_point():
    report = rate_validate(GAAS, GEOM, ThermalEnv(T_K=50.0), samples=10**5)
    assert report.passed
    assert report.double_passed and report.mc_passed
    text = report.summary()
    assert "PASS" in text and "FAIL" not in text
    assert "validation PASSED" in text


def test_validation_catches_inconsistent_routes(monkeypatch):
    # doubling the deterministic prefactor leaves the sampler untouched,
    # so the closed-form vs monte-carlo comparison must fail
    true_scales = rates_module.derived_scales

    def doubled(material, geom, env):
        p = true_scales(material, geom, env)
        return type(p)(
            prefactor_per_s=2.0 * p.prefactor_per_s,
            x_debye=p.x_debye,
            kd_l=p.kd_l,
            sep_ratio=p.sep_ratio,
        )

    monkeypatch.setattr(rates_module, "derived_scales", doubled)
    with pytest.raises(ValidationFailed) as excinfo:
        rate_validate(GAAS, GEOM, ThermalEnv(T_K=50.0), samples=10**5)
    report = excinfo.value.report
    assert report.double_passed      # both deterministic routes doubled
    assert not report.mc_passed
    assert "FAIL" in report.summary()


def test_validation_rejects_degenerate_points():
    with pytest.raises(ValueError):
        rate_validate(GAAS, GEOM, ThermalEnv(T_K=0.0))
    with pytest.raises(ValueError):
        rate_validate(GAAS, DotGeometry(width_L_m=4e-9, separation_D_m=0.0),
                      ThermalEnv(T_K=50.0))


def test_rate_result_validation():
    with pytest.raises(ValueError):
        RateResult(gamma_per_s=-1.0, t2_s=1.0, method=METHOD_CLOSED,
                   error_estimate_per_s=0.0)
    with pytest.raises(ValueError, match="inf"):
        RateResult(gamma_per_s=0.0, t2_s=1.0, method=METHOD_CLOSED,
                   error_estimate_per_s=0.0)
    with pytest.raises(ValueError, match="1/gamma"):
        RateResult(gamma_per_s=2.0, t2_s=1.0, method=METHOD_CLOSED,
                   error_estimate_per_s=0.0)
    ok = RateResult(gamma_per_s=2.0, t2_s=0.5, method=METHOD_CLOSED,
                    error_estimate_per_s=0.0)
    assert ok.t2_s == 0.5


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
    stub = RateResult(gamma_per_s=2.0, t2_s=0.5, method=METHOD_CLOSED,
                      error_estimate_per_s=0.0)
    monkeypatch.setattr(rates_module, "rate_closed_form", lambda m, g, e: stub)
    assert compute_rate(METHOD_CLOSED, GAAS, GEOM, ThermalEnv(T_K=50.0)) is stub
