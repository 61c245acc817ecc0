"""Tests for parameter sweeps, their CSV rows, and scaling fits."""

import contextlib
import math
import threading

import numpy as np
import pytest

import dephaser.quadrature as quadrature_module
import dephaser.rates as rates_module
import dephaser.sweep as sweep_module
from dephaser.cli import sweep_csv_text
from dephaser.quadrature import NonConvergence
from dephaser.model import GAAS
from dephaser.rates import (METHOD_CLOSED, METHOD_DOUBLE, METHOD_MC, CutoffValidityWarning,
                            compute_rate, rate_closed_form, rate_monte_carlo)
from dephaser.specfun import BoseMomentTable, get_moment_table
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
    # a sweep takes every point's outcome from rates._rates, which returns
    # a point's NonConvergence in its place
    spec = _temperature_spec(points=4)
    target = spec.grid()[2]
    true_rates = sweep_module._rates

    def flaky(method, material, points, *sampling):
        return [NonConvergence("synthetic failure for this grid point") if env.T_K == target
                else out for (_, env), out in zip(points, true_rates(method, material, points,
                                                                     *sampling))]

    monkeypatch.setattr(sweep_module, "_rates", flaky)
    points = run_sweep(spec)
    assert points[2].result is None
    assert "synthetic failure" in points[2].error
    assert all(p.result is not None for i, p in enumerate(points) if i != 2)


def test_sweep_records_an_engine_failure_and_continues(monkeypatch):
    # with no bisection allowed the closed route converges at 10 nm on its
    # seed panels and its far pass gives up at 3.2 um and 1 mm
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 0)
    spec = SweepSpec(axis=AXIS_DISTANCE, min_value=1e-8, max_value=1e-3, points=3,
                     fixed_T_K=100.0)
    points = run_sweep(spec)
    assert [p.axis_value for p in points] == list(spec.grid())
    assert points[0].result is not None and points[0].error is None
    for p in points[1:]:
        assert p.result is None
        assert p.error.startswith(f"closed-form rate at T_K=100.0, width_L_m=4e-09, "
                                  f"separation_D_m={p.axis_value!r}: error estimate ")
        assert "after 0 subdivisions of [" in p.error


def test_double_sweep_matches_compute_rate_at_every_point(monkeypatch):
    # with no bisection allowed the double route's outer axis gives up at
    # the four lowest temperatures and converges at 300 K
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 0)
    spec = SweepSpec(axis=AXIS_TEMPERATURE, min_value=1e-3, max_value=300.0, points=5,
                     method=METHOD_DOUBLE, fixed_D_m=50e-9)
    points = run_sweep(spec)
    assert [p.result is None for p in points] == [True] * 4 + [False]
    for p in points[:4]:
        with pytest.raises(NonConvergence) as raised:
            compute_rate(METHOD_DOUBLE, GAAS, *spec._inputs(p.axis_value))
        assert p.error == str(raised.value)
        assert "outer axis: error estimate " in p.error
    alone = compute_rate(METHOD_DOUBLE, GAAS, *spec._inputs(300.0))
    assert points[4].result.gamma_per_s.hex() == alone.gamma_per_s.hex()
    assert points[4].result.error_estimate_per_s.hex() == alone.error_estimate_per_s.hex()


def test_mc_sweep_point_is_rate_monte_carlo_at_the_same_seed():
    spec = _temperature_spec(points=2, method=METHOD_MC, samples=10**4, seed=99)
    point = run_sweep(spec)[1]
    alone = rate_monte_carlo(GAAS, *spec._inputs(point.axis_value), samples=10**4, seed=99)
    assert point.result.gamma_per_s.hex() == alone.gamma_per_s.hex()
    assert point.result.error_estimate_per_s.hex() == alone.error_estimate_per_s.hex()


def test_sweep_evaluates_every_point_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("DEPHASER_THREADS", "4")
    true_rates = sweep_module._rates
    threads = []

    def recording(method, material, points, *sampling):
        # one entry per point the dispatch is asked for, from the thread that asks
        threads.extend(threading.get_ident() for _ in points)
        return true_rates(method, material, points, *sampling)

    monkeypatch.setattr(sweep_module, "_rates", recording)
    points = run_sweep(_temperature_spec(points=4))
    assert all(p.result is not None for p in points)
    assert threads == [threading.get_ident()] * 4


def _workload_temperature_spec(L, D=1e-8):
    return SweepSpec(axis=AXIS_TEMPERATURE, min_value=1e-3, max_value=1e4, points=29,
                     width_L_m=L, fixed_D_m=D)


def _workload_distance_spec(T):
    return SweepSpec(axis=AXIS_DISTANCE, min_value=1e-10, max_value=1e-6, points=25,
                     width_L_m=4e-9, fixed_T_K=T)


def _per_point(spec, value):
    return rate_closed_form(GAAS, *spec._inputs(value))


@pytest.mark.parametrize("L, D", [pytest.param(4e-9, 1e-8, id="4e-09"),
                                  pytest.param(1e-10, 1e-8, id="1e-10"),
                                  pytest.param(1e-7, 1e-8, id="1e-07"),
                                  pytest.param(4e-9, 1e-5, id="4e-09-10um"),
                                  pytest.param(4e-9, 1e-3, id="4e-09-1mm")])
def test_closed_temperature_sweep_agrees_with_each_point_to_1e_12(L, D):
    # the rows of one batched pass meet the tolerance each on its own, on
    # other panels than their own calls, so they agree but not bit for bit;
    # at 10 um and 1 mm most rows are past the crossover, inside the batch
    spec = _workload_temperature_spec(L, D)
    narrow = pytest.warns(CutoffValidityWarning) if L < 1e-9 else contextlib.nullcontext()
    with narrow:
        points = run_sweep(spec)
        refs = [_per_point(spec, p.axis_value) for p in points]
    for p, ref in zip(points, refs):
        assert p.result.gamma_per_s == pytest.approx(ref.gamma_per_s, rel=1e-12, abs=0.0)


def test_zero_temperature_and_zero_separation_rows_are_exactly_zero():
    specs = [SweepSpec(axis=AXIS_TEMPERATURE, min_value=0.0, max_value=10.0, points=3,
                       spacing="linear", fixed_D_m=1e-8),
             SweepSpec(axis=AXIS_DISTANCE, min_value=0.0, max_value=2e-8, points=3,
                       spacing="linear", fixed_T_K=50.0),
             SweepSpec(axis=AXIS_TEMPERATURE, min_value=1.0, max_value=10.0, points=3,
                       fixed_D_m=0.0)]
    for spec, zeros in zip(specs, (1, 1, 3)):
        points = run_sweep(spec)
        assert [p.result.gamma_per_s for p in points[:zeros]] == [0.0] * zeros
        assert [p.result.error_estimate_per_s for p in points[:zeros]] == [0.0] * zeros
        assert all(p.result.gamma_per_s > 0.0 for p in points[zeros:])


def test_a_closed_temperature_sweep_is_one_engine_pass(monkeypatch):
    # every point of a T-sweep shares D and L, and at 10 nm none is past the
    # crossover, so one integrate call takes them all; each point of a
    # D-sweep has its own sep_ratio and pass
    true_integrate = quadrature_module.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return true_integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature_module, "integrate", counting)
    run_sweep(_workload_temperature_spec(4e-9))
    assert len(calls) == 1
    calls.clear()
    run_sweep(_workload_distance_spec(4.0))
    assert len(calls) == 25


def test_a_far_row_of_a_temperature_sweep_reads_only_its_own_moments(monkeypatch):
    # at 1 mm, 28 of the 29 rows are past the crossover; each far row's
    # passes ask the integrand for that row alone, so the sweep reads about
    # as many table points as its 29 lone calls (29 times as many if every
    # far node read all the rows)
    spec = _workload_temperature_spec(4e-9, 1e-3)
    points, table_eval = [], BoseMomentTable.eval

    def counting_eval(self, x):
        points.append(np.size(x))
        return table_eval(self, x)

    get_moment_table()
    monkeypatch.setattr(BoseMomentTable, "eval", counting_eval)
    run_sweep(spec)
    swept = sum(points)
    points.clear()
    for value in spec.grid():
        _per_point(spec, value)
    assert swept <= 1.5 * sum(points)


def test_a_closed_distance_sweep_point_is_its_own_call_bit_for_bit():
    # each point of a D-sweep has its own sep_ratio, so its pass is a batch
    # of one, the pass rate_closed_form makes at that point
    spec = _workload_distance_spec(4.0)
    points = run_sweep(spec)
    assert len(points) == 25
    for p in points:
        ref = _per_point(spec, p.axis_value)
        assert p.result.gamma_per_s.hex() == ref.gamma_per_s.hex()
        assert p.result.error_estimate_per_s.hex() == ref.error_estimate_per_s.hex()


def test_a_closed_sweep_derives_each_points_scales_once(monkeypatch):
    # the core groups the points by their scales and hands the same scales
    # to each point's frame, so they are derived once a point
    true_scales, calls = rates_module.derived_scales, []

    def counting(*args):
        calls.append(args)
        return true_scales(*args)

    monkeypatch.setattr(rates_module, "derived_scales", counting)
    run_sweep(_workload_temperature_spec(4e-9))
    assert len(calls) == 29


def test_a_failed_batched_pass_runs_its_points_one_at_a_time(monkeypatch):
    # with no bisection allowed the shared pass of these three points fails;
    # alone, 10 mK and 0.1 K converge on their seed panels and 1 K's far
    # pass gives up
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 0)
    spec = SweepSpec(axis=AXIS_TEMPERATURE, min_value=1e-2, max_value=1.0, points=3,
                     fixed_D_m=1e-5)
    points = run_sweep(spec)
    for p in points[:2]:
        ref = _per_point(spec, p.axis_value)
        assert p.error is None
        assert p.result.gamma_per_s.hex() == ref.gamma_per_s.hex()
        assert p.result.error_estimate_per_s.hex() == ref.error_estimate_per_s.hex()
    with pytest.raises(NonConvergence) as failed:
        _per_point(spec, 1.0)
    assert points[2].result is None and points[2].error == str(failed.value)
    assert points[2].error.startswith("closed-form rate at T_K=1.0, width_L_m=4e-09, "
                                      "separation_D_m=1e-05: error estimate ")


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
        (dict(fixed_D_m=1e-8, fixed_T_K=5.0), "fixed_T_K must be None"),
        (dict(axis=AXIS_DISTANCE, min_value=1e-9, max_value=1e-8,
              fixed_T_K=50.0, fixed_D_m=1e-8), "fixed_D_m must be None"),
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
    assert shifted.slope == pytest.approx(base.slope, rel=1e-12, abs=0)
    assert shifted.intercept == pytest.approx(base.intercept + math.log(1e12),
                                              rel=1e-12, abs=0)


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
    assert fit.intercept == pytest.approx(5.0, rel=1e-12, abs=0)


def test_fit_log_law_accepts_non_positive_y():
    # y = ln x / ln 2 - 1 passes through -1, 0 and 1
    fit = fit_log_law([(1.0, -1.0), (2.0, 0.0), (4.0, 1.0)], (0.5, 5.0))
    assert fit.slope == pytest.approx(1.0 / math.log(2.0), rel=1e-12, abs=0)
    assert fit.intercept == pytest.approx(-1.0, rel=1e-12, abs=0)


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
        # one distinct x: any slope fits, and at x = 1 (ln x = 0) polyfit's
        # SVD fails outright
        for x in (3.0, 1.0):
            with pytest.raises(ValueError, match="2 distinct x values"):
                fit([(x, 1.0), (x, 2.0), (x, 4.0), (10.0, 8.0)], (0.5, 5.0))
    assert isinstance(fit_power_law(pts, (0.5, 5.0)), FitResult)
