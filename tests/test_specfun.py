"""Tests for the Bose-related special functions.

Reference values were computed with scipy.integrate.quad at tight
tolerances; this package never imports scipy at runtime.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dephaser
import dephaser.quadrature as quadrature_module
from dephaser.specfun import (
    BOSE_FIFTH_MOMENT_INF,
    ZETA5,
    BoseMomentTable,
    _sin_sq,
    bose_fifth_moment,
    get_moment_table,
    sinc_deficit,
)

# quad oracles for the fifth Bose moment (epsabs 1e-18)
PHI_AT_0P2 = 3.991124427532959e-4
PHI_AT_2 = 3.229290166368405
PHI_AT_XD100 = 36.048440406100106  # argument 4.327058755197736

RNG_SEED = 20260401


def test_sinc_deficit_is_one_function_under_every_name():
    # quadrature defines it; the package and specfun export that object, so
    # a shim on any binding that replaces every binding of it sees each call
    assert dephaser.sinc_deficit is sinc_deficit is quadrature_module.sinc_deficit


def test_sinc_deficit_zero_and_analytic_points():
    assert sinc_deficit(0.0) == 0.0
    # 1 - sin(y)/y at y = pi/2 and y = pi
    assert sinc_deficit(math.pi / 2) == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-14, abs=0)
    assert sinc_deficit(math.pi) == pytest.approx(1.0, rel=1e-14, abs=0)


def test_sinc_deficit_series_joins_direct_branch():
    # each branch where they meet, against mpmath at its own y: the series
    # just below the cut within 1.5e-15, the direct branch just above it
    # within the docstring's 2^-52 6/y^2 (5.3e-15 there)
    for y, bound in ((0.5 * (1 - 1e-9), 1.5e-15), (0.5 * (1 + 1e-9), 2.0**-52 * 6.0 / 0.5**2)):
        with mpmath.workdps(40):
            ref = float(1 - mpmath.sin(mpmath.mpf(y)) / mpmath.mpf(y))
        assert sinc_deficit(y) == pytest.approx(ref, rel=bound, abs=0)


def test_sinc_deficit_small_argument_quadratic():
    y = np.array([1e-6, 1e-5, 1e-4])
    np.testing.assert_allclose(sinc_deficit(y), y * y / 6.0, rtol=1e-7)


def _sinc_deficit_both_branches(y):
    # the formula that evaluated the series and the direct branch on every
    # element and picked one by np.where
    y = np.asarray(y, dtype=float)
    small = y < 0.5
    y2 = np.where(small, y, 0.0) ** 2
    series = y2 * (1 / 6 - y2 * (1 / 120 - y2 * (1 / 5040 - y2 * (
        1 / 362880 - y2 * (1 / 39916800 - y2 / 6227020800)))))
    out = np.where(small, series, 1.0 - np.sinc(np.where(small, 1.0, y) / np.pi))
    return float(out) if out.ndim == 0 else out


def test_sinc_deficit_bits_match_the_both_branch_formula():
    # the series now runs on the small elements only; the closed and
    # double routes must see the same bits as before
    y = np.concatenate(([0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5,
                         np.nextafter(0.5, 1.0)],
                        np.geomspace(1e-5, 1e2, 2001), [math.pi, 1e7]))
    got = sinc_deficit(y.reshape(8, -1))
    assert got.shape == (8, y.size // 8)
    assert [v.hex() for v in got.ravel()] == [
        v.hex() for v in _sinc_deficit_both_branches(y)]
    for scalar in (0.0, 3e-3, 0.3, 0.5, 2.5):
        value = sinc_deficit(scalar)
        assert isinstance(value, float)
        assert value.hex() == _sinc_deficit_both_branches(scalar).hex()


def test_sinc_deficit_meets_its_stated_accuracy_against_mpmath():
    # the docstring's bounds: 1.5e-15 relative below the series cut y = 0.5
    # and above y = 1 (1.4e-15 and 7.0e-16 measured); between them the direct
    # branch still cancels, by up to two roundings of sin(y)/y near 1,
    # 2^-52 6/y^2 <= 5.3e-15 (3.4e-15 measured). The grid is dense from 0.25
    # to 1.2, so a cut moved to 0.25 or 1, or a series cut after y^10, fails here
    y = np.concatenate([np.geomspace(1e-8, 1e8, 2001), np.linspace(0.25, 1.2, 2001),
                        np.linspace(0.499, 0.501, 201)])
    got = sinc_deficit(y)
    with mpmath.workdps(40):
        ref = np.array([float(1 - mpmath.sin(mpmath.mpf(v)) / mpmath.mpf(v)) for v in y])
    rel = np.abs(got - ref) / ref
    cancels = (y >= 0.5) & (y < 1.0)
    bound = np.where(cancels, 2.0**-52 * 6.0 / y**2, 1.5e-15)
    worst = int(np.argmax(rel / bound))
    assert rel[worst] <= bound[worst], (y[worst], rel[worst])


@given(st.floats(min_value=1e-300, max_value=1e12, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_sinc_deficit_bounds(y):
    val = sinc_deficit(y)
    assert 0.0 <= val
    if y >= 1.0:
        assert val <= 1.0 + 1.0 / y


@pytest.mark.parametrize("bad", [-1e-12, -3.0, math.inf, math.nan])
def test_sinc_deficit_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        sinc_deficit(bad)


def test_sin_sq_matches_numpy_sin():
    rng = np.random.default_rng(4)
    x = np.concatenate((rng.random(10**6) * 1e7, rng.random(10**5) * 0.5 * math.pi,
                        np.arange(1, 10**5) * (0.5 * math.pi), [0.0]))
    with np.errstate(divide="ignore"):
        got = _sin_sq(x, np.empty_like(x))
    ref = np.sin(x) ** 2
    assert got[-1] == 0.0
    np.testing.assert_allclose(got[:-1], ref[:-1], rtol=2e-15, atol=0.0)


@pytest.mark.parametrize(
    "x, expected",
    [(0.2, PHI_AT_0P2), (2.0, PHI_AT_2), (4.327058755197736, PHI_AT_XD100)],
)
def test_fifth_moment_against_quad(x, expected):
    assert bose_fifth_moment(x) == pytest.approx(expected, rel=1e-10, abs=0)


def test_fifth_moment_endpoints():
    assert bose_fifth_moment(0.0) == 0.0
    assert bose_fifth_moment(61.0) == BOSE_FIFTH_MOMENT_INF
    assert BOSE_FIFTH_MOMENT_INF == 120.0 * ZETA5
    with pytest.raises(ValueError):
        bose_fifth_moment(-0.5)


def test_fifth_moment_small_x_series():
    # x^4/4 - x^6/72 + x^8/1920 + O(x^10)
    x = 0.2
    series = x**4 / 4 - x**6 / 72 + x**8 / 1920
    assert bose_fifth_moment(x) == pytest.approx(series, rel=1e-6, abs=0)


def test_moment_table_matches_direct_evaluation():
    table = get_moment_table()
    rng = np.random.default_rng(RNG_SEED)
    xs = rng.uniform(0.0, 60.0, size=400)
    for x in xs:
        assert abs(table.eval(float(x)) - bose_fifth_moment(float(x))) < 1e-9


def test_moment_table_is_monotone():
    table = get_moment_table()
    assert np.all(np.diff(table.values) >= 0.0)
    # evaluation rounds within an ulp of ~124.4 in the saturated region
    grid = np.linspace(0.0, 60.0, 20001)
    vals = np.array([table.eval(float(x)) for x in grid])
    assert np.all(np.diff(vals) >= -1e-13)


def test_moment_table_clamps_and_rejects():
    table = get_moment_table()
    assert table.eval(0.0) == 0.0
    assert table.eval(10 * 60.0) == BOSE_FIFTH_MOMENT_INF
    with pytest.raises(ValueError):
        table.eval(-1e-9)


def test_moment_table_cached_instance():
    assert get_moment_table() is get_moment_table()


def test_moment_table_grid_is_12000_panels_of_5e_3():
    nodes = BoseMomentTable.build().nodes
    np.testing.assert_array_equal(nodes, 60.0 * np.arange(12001) / 12000)
    np.testing.assert_array_equal(nodes, get_moment_table().nodes)
