"""Tests for parameter sweeps, their CSV rows, and scaling fits."""

import math
import threading

import numpy as np
import pytest

import dephaser.rates as rates_module
from dephaser.cli import sweep_csv_text
from dephaser.quadrature import NonConvergence
from dephaser.rates import METHOD_CLOSED, METHOD_MC
from dephaser.sweep import (
    AXIS_DISTANCE,
    AXIS_TEMPERATURE,
    FitResult,
    SweepPoint,
    SweepSpec,
    fit_log_law,
    fit_power_law,
    run_sweep,
)

NOISE_SEED = 330217


def _temperature_spec(points=6, method=METHOD_CLOSED, **kwargs):
    defaults = dict(axis=AXIS_TEMPERATURE, min_value=10.0, max_value=100.0,
                    points=points, method=method, fixed_D_m=10e-9)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_log_grid_formula_is_exact():
    spec = _temperature_spec(points=7)
    i = np.arange(7)
    expected = 10.0 * (100.0 / 10.0) ** (i / 6.0)
    np.testing.assert_array_equal(spec.grid(), expected)


def test_linear_grid_formula_is_exact():
    spec = SweepSpec(axis=AXIS_DISTANCE, min_value=0.0, max_value=20e-9,
                     points=5, spacing="linear", fixed_T_K=50.0)
    i = np.arange(5)
    expected = 0.0 + (20e-9 - 0.0) * (i / 4.0)
    np.testing.assert_array_equal(spec.grid(), expected)


@pytest.mark.parametrize("spacing, lo, hi, points", [
    ("linear", 0.001, 0.01, 5),       # the formula gives 0.010000000000000002
    ("logarithmic", 0.003, 3.3, 3),   # the formula gives 3.3000000000000003
])
def test_grid_ends_exactly_at_max_value(spacing, lo, hi, points):
    grid = SweepSpec(axis=AXIS_TEMPERATURE, min_value=lo, max_value=hi,
                     points=points, spacing=spacing, fixed_D_m=1e-8).grid()
    assert grid[0] == lo and grid[-1] == hi
    assert np.all(np.diff(grid) > 0.0)


def test_fit_over_the_sweep_window_sees_every_point():
    # three points are the least a fit takes: a last point past max_value
    # would leave two inside (min_value, max_value)
    spec = SweepSpec(axis=AXIS_TEMPERATURE, min_value=0.001, max_value=0.01,
                     points=3, spacing="linear", fixed_D_m=1e-8)
    points = [(p.axis_value, p.result.gamma_per_s) for p in run_sweep(spec)]
    assert points[-1][0] == 0.01
    fit = fit_power_law(points, (spec.min_value, spec.max_value))
    assert fit.slope == pytest.approx(7.0, abs=1e-3)


def test_temperature_sweep_monotone_rates():
    points = run_sweep(_temperature_spec())
    assert len(points) == 6
    gammas = [p.result.gamma_per_s for p in points]
    t2s = [p.result.t2_s for p in points]
    assert all(np.diff(gammas) > 0.0)
    assert all(np.diff(t2s) < 0.0)
    assert all(p.method == METHOD_CLOSED for p in points)


def test_distance_sweep_includes_zero_separation():
    spec = SweepSpec(axis=AXIS_DISTANCE, min_value=0.0, max_value=20e-9,
                     points=5, spacing="linear", fixed_T_K=50.0)
    points = run_sweep(spec)
    assert points[0].result.gamma_per_s == 0.0
    assert math.isinf(points[0].result.t2_s)
    assert all(p.result.gamma_per_s > 0.0 for p in points[1:])


def test_monte_carlo_sweep_runs():
    spec = _temperature_spec(points=2, method=METHOD_MC, samples=10**4)
    points = run_sweep(spec)
    assert all(p.result is not None for p in points)
    assert all(p.result.mc_std_error_per_s > 0.0 for p in points)


def test_sweep_is_deterministic_across_thread_counts(monkeypatch):
    spec = _temperature_spec()
    baseline = sweep_csv_text(run_sweep(spec), spec.axis)
    monkeypatch.setenv("DEPHASER_THREADS", "5")
    threaded = sweep_csv_text(run_sweep(spec), spec.axis)
    monkeypatch.setenv("DEPHASER_THREADS", "1")
    serial = sweep_csv_text(run_sweep(spec), spec.axis)
    assert baseline == threaded == serial


def test_csv_failure_row_renders_nan(tmp_path):
    broken = [SweepPoint(axis_value=1.0, method=METHOD_CLOSED, error="x")]
    text = sweep_csv_text(broken, AXIS_TEMPERATURE)
    row = text.splitlines()[1].split(",")
    assert row[2] == "nan" and row[3] == "nan" and row[5] == "nan"


def test_sweep_records_nonconvergence_and_continues(monkeypatch):
    spec = _temperature_spec(points=4)
    target = spec.grid()[2]
    true_rate = rates_module.rate_closed_form

    def flaky(material, geom, env):
        if env.T_K == target:
            raise NonConvergence("synthetic failure for this grid point")
        return true_rate(material, geom, env)

    monkeypatch.setattr(rates_module, "rate_closed_form", flaky)
    points = run_sweep(spec)
    assert points[2].result is None
    assert "synthetic failure" in points[2].error
    assert all(p.result is not None for i, p in enumerate(points) if i != 2)


def test_sweep_evaluates_every_point_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("DEPHASER_THREADS", "4")
    true_rate = rates_module.rate_closed_form
    threads = []

    def recording(material, geom, env):
        threads.append(threading.get_ident())
        return true_rate(material, geom, env)

    monkeypatch.setattr(rates_module, "rate_closed_form", recording)
    points = run_sweep(_temperature_spec(points=4))
    assert all(p.result is not None for p in points)
    assert threads == [threading.get_ident()] * 4


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(axis="pressure", fixed_D_m=1e-9), "axis"),
        (dict(spacing="cubic", fixed_D_m=1e-9), "spacing"),
        (dict(method="exact", fixed_D_m=1e-9), "method"),
        (dict(points=1, fixed_D_m=1e-9), "points"),
        (dict(min_value=100.0, max_value=10.0, fixed_D_m=1e-9), "min_value"),
        (dict(min_value=-1.0, fixed_D_m=1e-9), ">= 0"),
        (dict(min_value=0.0, fixed_D_m=1e-9), "logarithmic"),
        (dict(fixed_D_m=None), "fixed_D_m"),
        (dict(width_L_m=0.0, fixed_D_m=1e-9), "width_L_m"),
        (dict(points=2.5, fixed_D_m=1e-9), "integer"),
        (dict(points=True, fixed_D_m=1e-9), "integer"),
        (dict(fixed_D_m=math.nan), "separation_D_m"),
        (dict(fixed_D_m=math.inf), "separation_D_m"),
        (dict(axis=AXIS_DISTANCE, fixed_T_K=math.nan), "T_K"),
        (dict(method=METHOD_MC, fixed_D_m=1e-8, samples=5), "samples must be >= 10000"),
        (dict(fixed_D_m=1e-8, samples=2.5e7), "samples must be an integer"),
        (dict(fixed_D_m=1e-8, samples=True), "samples must be an integer"),
        (dict(fixed_D_m=1e-8, seed=-1), "seed"),
        (dict(fixed_D_m=1e-8, seed=1.5), "seed"),
    ],
)
def test_sweep_spec_validation(kwargs, match):
    base = dict(axis=AXIS_TEMPERATURE, min_value=10.0, max_value=100.0,
                points=4)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        SweepSpec(**base)


def test_distance_axis_requires_temperature():
    with pytest.raises(ValueError, match="fixed_T_K"):
        SweepSpec(axis=AXIS_DISTANCE, min_value=1e-9, max_value=1e-8, points=4)


def test_fit_power_law_exact_exponent():
    xs = np.geomspace(1.0, 10.0, 12)
    pts = [(x, x**7) for x in xs]
    fit = fit_power_law(pts, (0.5, 20.0))
    assert fit.slope == pytest.approx(7.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-11)
    assert fit.residual_rms < 1e-12


def test_fit_power_law_with_noise():
    rng = np.random.default_rng(NOISE_SEED)
    xs = np.geomspace(0.1, 10.0, 40)
    pts = [(x, 3.0 * x**2 * math.exp(rng.normal(0.0, 0.01))) for x in xs]
    fit = fit_power_law(pts, (0.05, 20.0))
    assert fit.slope == pytest.approx(2.0, abs=0.05)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=0.05)
    assert fit.residual_rms < 0.03


def test_fit_power_law_scale_equivariance():
    xs = np.geomspace(1.0, 100.0, 9)
    pts = [(x, 2.0 * x**3.5) for x in xs]
    scaled = [(x, 1e12 * y) for x, y in pts]
    base = fit_power_law(pts, (0.5, 200.0))
    shifted = fit_power_law(scaled, (0.5, 200.0))
    assert shifted.slope == pytest.approx(base.slope, rel=1e-12)
    assert shifted.intercept == pytest.approx(base.intercept + math.log(1e12),
                                              rel=1e-12)


def test_fit_log_law_exact():
    xs = np.geomspace(1.0, 50.0, 10)
    pts = [(x, 2.0 * math.log(x) + 1.0) for x in xs]
    fit = fit_log_law(pts, (0.5, 100.0))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_fit_log_law_flat_data():
    pts = [(x, 5.0) for x in (1.0, 2.0, 4.0, 8.0)]
    fit = fit_log_law(pts, (0.5, 10.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(5.0, rel=1e-12)


def test_fit_log_law_accepts_non_positive_y():
    # y = ln x / ln 2 - 1 passes through -1, 0 and 1
    fit = fit_log_law([(1.0, -1.0), (2.0, 0.0), (4.0, 1.0)], (0.5, 5.0))
    assert fit.slope == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    assert fit.intercept == pytest.approx(-1.0, rel=1e-12)


def test_fit_window_validation():
    pts = [(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)]
    with pytest.raises(ValueError, match="lo < hi"):
        fit_power_law(pts, (5.0, 1.0))
    with pytest.raises(ValueError, match="at least 3"):
        fit_power_law(pts, (0.5, 1.5))
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)], (0.5, 5.0))
    nan_y = [(1.0, 1.0), (2.0, math.nan), (3.0, 9.0), (4.0, 16.0)]
    for fit in (fit_power_law, fit_log_law):
        with pytest.raises(ValueError, match="positive x"):
            fit([(0.0, 1.0)] + pts, (-1.0, 5.0))
        with pytest.raises(ValueError, match="finite"):
            fit(nan_y, (0.5, 5.0))
        with pytest.raises(ValueError, match="finite"):
            fit([(math.nan, 1.0)] + pts, (0.5, 5.0))
    assert isinstance(fit_power_law(pts, (0.5, 5.0)), FitResult)
