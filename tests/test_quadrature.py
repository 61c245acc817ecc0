"""Tests for the adaptive quadrature engine: its Gauss-Kronrod panels and
its sin-weighted Clenshaw-Curtis rule.

scipy.integrate.quad supplies the cross-check values (with weight="sin",
QUADPACK's QAWO, for the sin-weighted rule); it is a test-only dependency.
"""

import heapq
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

import dephaser.quadrature as quadrature_module
from dephaser.quadrature import (
    _BLOCK_ELEMS,
    _CC_NODES,
    _EPS50,
    _NODES,
    _SMALL_CALL,
    _WG_FULL,
    _WK_FULL,
    _adaptive,
    _eval_panels,
    _fourier_moments,
    _ordered_sum,
    _rule,
    NonConvergence,
    NonFiniteSample,
    QuadratureConfig,
    QuadratureResult,
    integrate,
    integrate_nested,
    integrate_semi_infinite,
    integrate_sin_tail,
)
from dephaser.specfun import sinc_deficit

# quad oracle for the rate-style oscillatory kernel
# int_0^10 exp(-x^2) * sinc_deficit(50 x) / x dx
OSC_ORACLE = 3.2010309981356917

BATTERY_SEED = 915270

# the nested tests' tolerances: the outer pass at the engine's defaults,
# the inner table two orders below them
OUTER_CFG = QuadratureConfig()
INNER_CFG = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12)


def test_polynomial_is_exact():
    res = integrate(lambda x: x * x, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_sine_period():
    res = integrate(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-13, abs=0)


def test_gaussian_against_erf():
    res = integrate(lambda x: np.exp(-x * x), -6.0, 6.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13, abs=0)


def test_inverse_sqrt_edge_singularity(monkeypatch):
    # open rule: the x = 0 endpoint is never sampled; the algebraic
    # singularity converges but needs a large bisection budget
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 20000)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert res.value == pytest.approx(2.0, rel=1e-8, abs=0)


def test_oscillatory_rate_kernel_oracle():
    cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-10, panel_hint=math.pi / 50.0)
    res = integrate(
        lambda x: np.exp(-x * x) * sinc_deficit(50.0 * x) / x, 0.0, 10.0, cfg
    )
    assert res.value == pytest.approx(OSC_ORACLE, rel=1e-9, abs=0)
    assert res.abs_error_estimate < 1e-9


@pytest.mark.parametrize("alpha", [10.0, 100.0, 1000.0, 10000.0])
def test_fast_oscillations_with_panel_hint(alpha):
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-11, panel_hint=math.pi / alpha)
    res = integrate(lambda x: np.sin(alpha * x), 0.0, 1.0, cfg)
    exact = (1.0 - math.cos(alpha)) / alpha
    assert res.value == pytest.approx(exact, abs=5e-14)


def _damped_cosine(x):
    return np.exp(-x) * np.cos(3.0 * x)


def _scaled_pair(x):
    # two integrals over one panel set, twelve orders of magnitude apart
    return np.stack([1e-12 * np.exp(-x) * np.cos(3.0 * x), np.exp(-x * x) * np.sin(5.0 * x)])


def test_additivity_over_split_points():
    for f in (_damped_cosine, _scaled_pair):
        rng = np.random.default_rng(BATTERY_SEED)
        whole = integrate(f, 0.0, 2.0).value
        for z in rng.uniform(0.1, 1.9, size=8):
            parts = integrate(f, 0.0, float(z)).value + integrate(f, float(z), 2.0).value
            np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=0.0)


def test_batched_components_meet_their_own_tolerance():
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10, panel_hint=0.25)

    def f(x):
        return np.stack([1e-12 * np.sin(40.0 * x) / (1.0 + x),
                         np.exp(-x * x),
                         1e-12 * np.sqrt(x)])

    res = integrate(f, 0.0, 3.0, cfg)
    assert res.value.shape == res.abs_error_estimate.shape == (3,)
    assert np.all(res.abs_error_estimate <= cfg.rel_tol * np.abs(res.value))
    exact = [quad(lambda x: 1e-12 * math.sin(40.0 * x) / (1.0 + x), 0.0, 3.0,
                  limit=400, epsabs=0.0, epsrel=1e-12)[0],
             0.5 * math.sqrt(math.pi) * math.erf(3.0),
             1e-12 * 2.0 * 3.0**1.5 / 3.0]
    for i, ref in enumerate(exact):
        assert res.value[i] == pytest.approx(ref, rel=1e-9, abs=0)
        alone = integrate(lambda x, i=i: f(x)[i], 0.0, 3.0, cfg)
        assert res.value[i] == pytest.approx(alone.value, rel=1e-10, abs=0)


def test_batched_blocks_stay_bounded():
    # 250 components over 3,000 seed panels: no call may return more than
    # 2^16 values (512 kB); one block of all seeds would hold 11 million
    k = np.arange(1.0, 251.0)
    seen = []

    def f(x):
        seen.append(x.size)
        return np.cos(np.multiply.outer(k, x))

    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8, panel_hint=1e-3)
    res = integrate(f, 0.0, 3.0, cfg)
    assert max(seen) * k.size <= 1 << 16
    assert sum(seen) == res.evaluations
    np.testing.assert_allclose(res.value, np.sin(3.0 * k) / k, rtol=1e-8, atol=1e-10)


def test_first_block_holds_the_seed_panels_and_later_blocks_stay_bounded():
    # 199 components over 26 seed panels, the shape of a tabulated curve:
    # the first call comes before m is known and takes all 26 panels
    # (77,610 values, above 2^16); every later call holds at most 2^16
    k = np.arange(1.0, 200.0)
    blocks = []

    def f(x):
        out = np.cos(np.multiply.outer(k, x))
        blocks.append(out.size)
        return out

    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8, panel_hint=0.125)
    res = integrate(f, 0.0, 3.25, cfg)
    assert blocks[0] == 26 * 15 * k.size > _BLOCK_ELEMS
    assert blocks[0] <= _SMALL_CALL * 15 * k.size
    assert len(blocks) > 1 and max(blocks[1:]) <= _BLOCK_ELEMS
    np.testing.assert_allclose(res.value, np.sin(3.25 * k) / k, rtol=1e-8, atol=1e-10)


def _sin_weighted(omega, lo, hi, rel_tol=1e-12):
    """Int_lo^hi exp(-x^2)/x^2 sin(omega x) dx by the engine's sin-weighted
    rule: (value, evaluations)."""
    def pair(x):
        return np.stack([np.zeros_like(x), np.exp(-x * x) / (x * x)])

    vals, _, _, shape, evaluations = _adaptive(
        pair, lo, hi, QuadratureConfig(abs_tol=1e-300, rel_tol=rel_tol), omega=omega)
    assert shape == ()
    return float(_ordered_sum(vals)[0]), evaluations


@pytest.mark.parametrize("omega", [0.5, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8])
def test_sin_rule_matches_qawo_over_one_decade(omega):
    value, _ = _sin_weighted(omega, 1.0 / omega, 10.0 / omega)
    ref = quad(lambda x: math.exp(-x * x) / (x * x), 1.0 / omega, 10.0 / omega,
               weight="sin", wvar=omega, epsabs=1e-300, epsrel=1e-13, limit=500)[0]
    assert value == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("omega", [0.5, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6])
def test_sin_rule_matches_qawo_where_the_integral_is_small(omega):
    # on [0.3, 8.5] the integral is down to 3e-4 of the integrand's scale
    value, _ = _sin_weighted(omega, 0.3, 8.5)
    ref = quad(lambda x: math.exp(-x * x) / (x * x), 0.3, 8.5, weight="sin", wvar=omega,
               epsabs=1e-300, epsrel=1e-13, limit=500)[0]
    assert value == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_sin_rule_at_1e8_matches_the_asymptotic_series():
    # QAWO is 4.4e-7 off here. By parts, the integral of g sin(w x) is
    # -g cos/w + g' sin/w^2 + g'' cos/w^3 - g''' sin/w^4 taken from a to b,
    # the next term below 1e-35 of it. w x near 8.5e8 rad is rounded to
    # 1.2e-7 rad, which bounds what any rule can do in double precision
    value, _ = _sin_weighted(1e8, 0.3, 8.5)
    with mpmath.workdps(40):
        w = mpmath.mpf(1e8)

        def primitive(x):
            x = mpmath.mpf(x)
            c, s = mpmath.cos(w * x), mpmath.sin(w * x)
            terms = (-c / w, s / w**2, c / w**3, -s / w**4)
            return sum(mpmath.diff(lambda u: mpmath.exp(-u * u) / (u * u), x, k) * t
                       for k, t in enumerate(terms))

        ref = float(primitive(8.5) - primitive(0.3))
    assert value == pytest.approx(ref, rel=1e-8, abs=0.0)


def _fourier_moments_by_bessel(lam: float) -> np.ndarray:
    """I_k(lam), k = 0..24, from the Jacobi-Anger expansion in mpmath:
    e^{i lam cos th} = sum_n eps_n i^n J_n(lam) cos(n th), and
    Int_0^pi cos(k th) cos(n th) sin(th) dth = (w(k + n) + w(k - n))/2 with
    w(m) = Int_0^pi cos(m th) sin(th) dth, 2/(1 - m^2) for even m, else 0."""
    def w(m):
        return 0 if m % 2 else mpmath.mpf(2) / (1 - m * m)

    with mpmath.workdps(30):
        terms = [(1 if n == 0 else 2) * mpmath.mpc(0, 1) ** n * mpmath.besselj(n, lam)
                 for n in range(int(lam) + 60)]
        return np.array([complex(sum(c * (w(k + n) + w(k - n)) / 2 for n, c in enumerate(terms)))
                         for k in range(25)])


@pytest.mark.parametrize("lam", [0.5, 7.86, 23.9, 24.1, 30.0, 100.0, 1e3, 1e7])
def test_fourier_moments_match_a_direct_sum(lam):
    # I_k(lam) = Int_-1^1 T_k(t) e^{i lam t} dt: a Clenshaw-Curtis sum up
    # to lam = 24, the forward recurrence above; against a 300-point
    # Gauss-Legendre sum (within 2.4e-14 of mpmath up to lam = 100), the
    # closed forms of I_0, I_1 and, below 24, a Bessel series in mpmath
    # (the sum is within 7.8e-16 of it)
    got = _fourier_moments(np.array([lam]))[0]
    assert got[0] == pytest.approx(2.0 * math.sin(lam) / lam, rel=1e-13, abs=1e-15 / lam)
    assert got[1] == pytest.approx(2j * (math.sin(lam) - lam * math.cos(lam)) / lam**2,
                                   rel=1e-13, abs=1e-15 / lam)
    if lam <= 100.0:
        t, w = np.polynomial.legendre.leggauss(300)
        ref = (w * np.exp(1j * lam * t)) @ np.cos(np.outer(np.arccos(t), np.arange(25)))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=5e-14)
    if lam < 24.0:
        np.testing.assert_allclose(got, _fourier_moments_by_bessel(lam), rtol=0.0, atol=2e-15)


def test_sin_rule_counts_25_nodes_per_panel():
    seen = []

    def pair(x):
        seen.append(x.size)
        return np.stack([np.exp(-x), np.exp(-x)])

    edges = np.array([1.0, 2.0, 5.0])
    *_, evaluations = _adaptive(pair, 1.0, 5.0, QuadratureConfig(), omega=40.0, edges=edges)
    assert seen[0] == 2 * _CC_NODES.size
    assert evaluations == sum(seen) and evaluations % 25 == 0


def test_sin_rule_needs_an_integrand_pair():
    with pytest.raises(ValueError, match="components"):
        _adaptive(lambda x: np.exp(-x), 1.0, 2.0, QuadratureConfig(), omega=40.0)


def test_integrand_shape_errors():
    with pytest.raises(ValueError, match="expected"):
        integrate(lambda x: np.ones((2, 2, x.size)), 0.0, 1.0)
    calls = []

    def changing(x):
        calls.append(1)
        return np.ones((len(calls), x.size)) / (1e-3 + x)

    with pytest.raises(ValueError, match="components"):
        integrate(changing, 0.0, 1.0)


def test_error_estimate_honesty_battery():
    # random smooth integrands; the estimate may be beaten by at most one
    # case and never by more than a factor of ten
    rng = np.random.default_rng(BATTERY_SEED)
    violations = 0
    for _ in range(120):
        kind = rng.integers(3)
        if kind == 0:
            c, w = rng.uniform(0.2, 2.8), rng.uniform(0.02, 0.5)
            f = lambda x, c=c, w=w: np.exp(-((x - c) / w) ** 2)
        elif kind == 1:
            a, b_ = rng.uniform(1.0, 40.0), rng.uniform(-2.0, 2.0)
            f = lambda x, a=a, b_=b_: np.sin(a * x + b_) / (1.0 + x)
        else:
            p = rng.integers(1, 7)
            f = lambda x, p=p: x**p * np.exp(-x)
        res = integrate(f, 0.0, 3.0)
        ref, ref_err = quad(f, 0.0, 3.0, limit=400, epsabs=1e-13, epsrel=1e-12)
        actual = abs(res.value - ref)
        if actual > 10.0 * (res.abs_error_estimate + ref_err) + 1e-13:
            violations += 1
    assert violations <= 1


def test_non_finite_sample_reports_location():
    def f(x):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(NonFiniteSample, match="non-finite"):
        integrate(f, 0.0, 1.0)


@pytest.mark.parametrize("omega", [None, 3.0], ids=["gauss-kronrod", "sin-weighted"])
@pytest.mark.parametrize("row", [0, 1])
def test_non_finite_sample_names_the_first_bad_node_of_any_row(omega, row):
    # NaN above x = 0.5 in one row of a two-row integrand (for the
    # sin-weighted rule, in f0 or in f1): the text names the first node
    # above 0.5 in panel order, whichever row holds it
    rule, edges = _rule(omega), np.linspace(0.1, 1.0, 5)

    def f(x):
        y = np.ones((2, x.size))
        y[row, x > 0.5] = np.nan
        return y

    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * (_NODES if omega is None else _CC_NODES)).ravel()
    with pytest.raises(NonFiniteSample, match=re.escape(f"x={float(nodes[nodes > 0.5][0])!r}")):
        _eval_panels(f, edges[:-1], edges[1:], rule=rule)


def test_non_convergence_reports_budget(monkeypatch):
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 2)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-15)
    with pytest.raises(NonConvergence, match="subdivisions") as info:
        integrate(lambda x: np.sin(700.0 * x) / (1e-3 + x), 0.0, 1.0, cfg)
    assert "seed panels" not in str(info.value)


def test_non_convergence_names_a_component_only_among_several(monkeypatch):
    # an integrand of one row, (n,) or (1, n), gives one text; of two, the
    # text names the row that failed
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 2)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12)

    def wave(x):
        return np.sin(700.0 * x) / (1e-3 + x)

    texts = []
    for f in (wave, lambda x: wave(x)[None], lambda x: np.stack([np.ones_like(x), wave(x)])):
        with pytest.raises(NonConvergence) as info:
            integrate(f, 0.0, 1.0, cfg)
        texts.append(str(info.value))
    assert texts[0] == texts[1] and "component" not in texts[0]
    assert texts[2].endswith("after 2 subdivisions of [0.0, 1.0] in component 1 of 2")


def test_non_convergence_reports_the_seed_panel_cap(monkeypatch):
    # panel_hint asks for 10^6 seed panels; the engine uses _MAX_SEED_PANELS
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 1)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-15, panel_hint=1e-6)
    with pytest.raises(NonConvergence) as info:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert str(info.value).endswith(
        "after 1 subdivisions of [0.0, 1.0]; panel_hint asked for 1000000 seed panels, "
        "200000 used")


def test_a_scalar_integrand_broadcasts():
    # a scalar, or an (m, 1) column, stands for its value at every node
    res = integrate(lambda x: 2.0, 0.0, 3.0)
    assert res.value == pytest.approx(6.0, rel=1e-14, abs=0.0)
    assert res.evaluations == 15
    assert res == integrate(lambda x: np.full_like(x, 2.0), 0.0, 3.0)
    batched = integrate(lambda x: np.array([[1.0], [2.0]]), 0.0, 3.0)
    np.testing.assert_allclose(batched.value, [3.0, 6.0], rtol=1e-14, atol=0.0)
    assert batched.evaluations == 15


@pytest.mark.parametrize("omega", [None, 7.0], ids=["gauss-kronrod", "sin-weighted"])
def test_a_panels_bits_do_not_depend_on_its_batch(omega, monkeypatch):
    # the chunking contract of both panel rules: a panel's value and error
    # are the same bits computed alone, in calls of any size (set by
    # _BLOCK_ELEMS), from values 8 bytes off their usual alignment, and from
    # a constant returned as a scalar or an (m, 1) column instead of at every
    # node. 100 panels: above _SMALL_CALL, so the first call takes one
    rule = _rule(omega)
    rng = np.random.default_rng(20)
    lefts = np.sort(rng.uniform(0.01, 5.0, 100))
    rights = lefts + rng.uniform(1e-3, 2.0, lefts.size)

    def smooth(x):  # for the sin-weighted rule, the pair (f0, f1)
        y = np.exp(-x * x) / (0.1 + x)
        return np.stack([y, np.cos(3.0 * x) * y])

    def shifted(x):
        out = np.empty(2 * x.size + 1)[1:].reshape(2, x.size)
        out[...] = smooth(x)
        return out

    def panels(f, block=1 << 30, lo=lefts, hi=rights):
        monkeypatch.setattr(quadrature_module, "_BLOCK_ELEMS", block)
        v, e, _ = _eval_panels(f, lo, hi, rule=rule)
        return [tuple(x.hex() for x in (*v[:, j], *e[:, j])) for j in range(lo.size)]

    def alone(f):
        return [panels(f, lo=lefts[j:j + 1], hi=rights[j:j + 1])[0] for j in range(lefts.size)]

    expected = alone(smooth)
    for block in (1, 100, 350, 1 << 30):
        assert panels(smooth, block) == expected
    assert panels(shifted) == expected
    assert panels(lambda x: np.array([[1.0], [0.5]])) == alone(
        lambda x: np.stack([np.ones_like(x), np.full_like(x, 0.5)]))
    if omega is None:
        assert panels(lambda x: 0.5) == alone(lambda x: np.full_like(x, 0.5))


def test_limits_validation():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, math.inf)
    # an empty range samples nothing, whatever the integrand's shape
    assert integrate(np.sin, 2.0, 2.0) == QuadratureResult(0.0, 0.0, 0)
    assert integrate(lambda x: 1.0 / x, 0.0, 0.0) == QuadratureResult(0.0, 0.0, 0)
    batched = integrate(lambda x: np.ones((3, x.size)), 2.0, 2.0)
    np.testing.assert_array_equal(batched.value, np.zeros(3))
    np.testing.assert_array_equal(batched.abs_error_estimate, np.zeros(3))
    assert batched.evaluations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(panel_hint=-1.0)


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(lambda x: np.exp(-x * x), 0.0, 1.0)
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10, abs=0)


def test_semi_infinite_moment():
    # int_0^inf x^3 exp(-(x/2)^2) dx = 8
    res = integrate_semi_infinite(lambda x: x**3 * np.exp(-((x / 2.0) ** 2)), 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-10, abs=0)


def test_semi_infinite_rejects_bad_scale():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: np.exp(-x * x), 0.0, 0.0)


@pytest.mark.parametrize("omega", [None, 3.0])
def test_nested_empty_outer_range_samples_nothing(omega):
    # as integrate's empty range: no table, no outer nodes, value and error 0
    calls = []

    def inner(t):
        calls.append(t.size)
        return _sin_tail_g(t)

    res = integrate_nested(lambda x: 1.0, inner, 2.0, 2.0, lambda x: x,
                           OUTER_CFG, INNER_CFG, omega=omega)
    assert res == QuadratureResult(0.0, 0.0, 0)
    assert calls == []


def test_nested_triangle_area():
    res = integrate_nested(lambda x: 1.0, lambda t: np.ones_like(t), 0.0, 1.0, lambda x: x,
                           OUTER_CFG, INNER_CFG)
    assert res.value == pytest.approx(0.5, rel=1e-10, abs=0)


def test_nested_separable_product():
    # int_0^1 int_0^1 x t dt dx = 1/4
    res = integrate_nested(lambda x: x, lambda t: t, 0.0, 1.0, lambda x: 1.0,
                           OUTER_CFG, INNER_CFG)
    assert res.value == pytest.approx(0.25, rel=1e-10, abs=0)


@pytest.mark.parametrize("omega", [None, 30.0, 1e4], ids=["plain", "near", "far"])
def test_nested_scalar_inner_broadcasts(omega):
    # a scalar inner result stands for its value at every node, also at
    # omega t_top = 5,000, past the crossover, where the far pass samples
    # the pair (g, -g/(omega t)); t_max at t_top reads no partial panel
    def run(inner):
        return integrate_nested(lambda x: 1.0, inner, 0.0, 1.0, lambda x: 0.5,
                                OUTER_CFG, INNER_CFG, omega=omega)

    assert run(lambda t: 2.0) == run(lambda t: np.full_like(t, 2.0))


def test_nested_inner_limit_validation():
    with pytest.raises(ValueError, match="inner limit must be finite, non-negative"):
        integrate_nested(lambda x: 1.0, lambda t: t, 0.0, 1.0, lambda x: -1.0,
                         OUTER_CFG, INNER_CFG)
    # the table reaches the larger of t_max(a) and t_max(b) only
    with pytest.raises(ValueError, match=r"at most its value at a or b, got 0\.50"):
        integrate_nested(lambda x: 1.0, lambda t: t, 0.0, 1.0, lambda x: 0.5 + x * (1.0 - x),
                         OUTER_CFG, INNER_CFG)


@pytest.mark.parametrize("a", [50.0, 500.0])
def test_nested_oscillatory_inner_matches_analytic(a):
    # int_0^1 int_0^x cos(a t) dt dx = (1 - cos a)/a^2, with panel_hint pi/a
    shapes = set()

    def inner(t):
        shapes.add(t.shape[1:])
        return np.cos(a * t)

    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-11, panel_hint=math.pi / a)
    inner_cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12, panel_hint=math.pi / a)
    res = integrate_nested(lambda x: 1.0, inner, 0.0, 1.0, lambda x: x, cfg, inner_cfg)
    assert res.value == pytest.approx((1.0 - math.cos(a)) / a**2, rel=1e-10, abs=0)
    assert shapes == {()}


class _Phased:
    """Separable test integrand that tags each inner call with the number of
    t_max calls before it: 1 is the table pass, which follows the call at
    (a, b); later ones are partial panels at outer nodes."""

    def __init__(self, weight, inner, t_max):
        self.weight, self.inner, self.t_max = weight, inner, t_max
        self.phase, self.inner_calls, self.outer_nodes = 0, [], []

    def run(self, a, b, cfg=OUTER_CFG, inner_cfg=INNER_CFG):
        def t_max(x):
            self.phase += 1
            if self.phase > 1:
                self.outer_nodes.append(x.copy())
            return self.t_max(x)

        def inner(t):
            self.inner_calls.append((self.phase, t.copy()))
            return self.inner(t)

        return integrate_nested(self.weight, inner, a, b, t_max, cfg, inner_cfg)

    def values(self, table: bool) -> int:
        return sum(t.size for phase, t in self.inner_calls if (phase == 1) == table)


def test_nested_zero_length_inner_range_is_never_sampled():
    # sin(t)/t is 0/0 at t = 0, as the rate integrand is 0*inf there; nodes
    # with t_max = 0 add exactly 0 and get no partial panel.
    # int_0.5^1 Si(x) dx = [x Si(x) + cos x]
    run = _Phased(lambda x: 1.0, lambda t: np.sin(t) / t,
                  lambda x: np.where(x < 0.5, 0.0, x))
    res = run.run(0.0, 1.0)
    antiderivative = [x * sici(x)[0] + math.cos(x) for x in (0.5, 1.0)]
    assert res.value == pytest.approx(antiderivative[1] - antiderivative[0], rel=1e-10, abs=0)
    assert min(t.min() for _, t in run.inner_calls) > 0.0
    reached = sum(np.count_nonzero(x >= 0.5) for x in run.outer_nodes)
    assert 0 < reached < sum(x.size for x in run.outer_nodes)
    assert run.values(table=False) == 15 * reached


def test_nested_evaluations_count_values_computed():
    # the table over [0, 2] keeps its 20 seed panels (x t is linear in t);
    # no outer node lands on a table edge, so each gets one partial panel
    run = _Phased(lambda x: x, lambda t: t, lambda x: x)
    res = run.run(0.0, 2.0, QuadratureConfig(panel_hint=0.1),
                  QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12, panel_hint=0.1))
    assert res.value == pytest.approx(2.0, rel=1e-10, abs=0)
    nodes = sum(x.size for x in run.outer_nodes)
    assert run.values(table=True) == 15 * 20
    assert run.values(table=False) == 15 * nodes
    assert res.evaluations == run.values(table=True) + nodes + 15 * nodes


def test_nested_node_on_a_panel_edge_samples_nothing():
    # every outer node has tau = 0.5, an edge of the table's four seed
    # panels over [0, t_max(1)] = [0, 1]: H(0.5) is a prefix sum alone.
    # int_0^1 3 x^2 dx * int_0^0.5 t dt = 1/8
    run = _Phased(lambda x: 3.0 * x * x, lambda t: t, lambda x: np.where(x < 1.0, 0.5, 1.0))
    res = run.run(0.0, 1.0, inner_cfg=QuadratureConfig(panel_hint=0.25))
    assert res.value == pytest.approx(0.125, rel=1e-14, abs=0)
    assert run.values(table=True) == 15 * 4 and run.values(table=False) == 0
    assert res.evaluations == 15 * 4 + sum(x.size for x in run.outer_nodes)


@pytest.mark.parametrize("weight, inner, exact", [
    # H(tau) = 2 sqrt(tau): the table's first panel and every partial panel
    # from 0 carry the same relative error, well above rounding
    (lambda x: 1.0, lambda t: 1.0 / np.sqrt(t), 4.0 / 3.0),
    (lambda x: 3.0 * x * x, lambda t: 1.0 / np.sqrt(t), 12.0 / 7.0),
    # H(tau) = tau ln tau - tau
    (lambda x: 1.0, np.log, -0.75),
    # H(tau) = sin(30 tau)/30
    (lambda x: np.exp(x), lambda t: np.cos(30.0 * t),
     (math.exp(1.0) * (math.sin(30.0) - 30.0 * math.cos(30.0)) + 30.0) / 901.0 / 30.0),
])
def test_nested_error_estimate_covers_the_true_error(weight, inner, exact):
    loose = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-4)
    res = integrate_nested(weight, inner, 0.0, 1.0, lambda x: x, loose, loose)
    assert abs(res.value - exact) <= res.abs_error_estimate <= 1e-3 * abs(exact)


def test_nested_inner_nonconvergence_names_the_table_range(monkeypatch):
    # a budget of one subdivision stops the table pass; the outer pass never starts
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 1)
    inner_cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-12)
    with pytest.raises(NonConvergence) as info:
        integrate_nested(lambda x: 1.0, lambda t: np.cos(200.0 * t), 0.0, 1.0,
                         lambda x: 1.0 + x, OUTER_CFG, inner_cfg)
    msg = str(info.value)
    assert msg.startswith("inner axis: error estimate")
    assert "above tolerance" in msg and "after 1 subdivisions of [0.0, 2.0]" in msg


def test_nested_outer_nonconvergence_names_the_outer_axis(monkeypatch):
    # the table of a constant converges on its seed panel; the outer pass
    # of the oscillating weight cos(300 x) cannot in one subdivision
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 1)
    with pytest.raises(NonConvergence) as info:
        integrate_nested(lambda x: np.cos(300.0 * x), np.ones_like, 0.0, 1.0,
                         lambda x: x, OUTER_CFG, OUTER_CFG)
    msg = str(info.value)
    assert msg.startswith("outer axis: error estimate")
    assert "above tolerance" in msg and msg.endswith("after 1 subdivisions of [0.0, 1.0]")


@pytest.mark.parametrize("omega", [1e3, 1e4, 1e6])
def test_nested_far_table_matches_qawo(omega, monkeypatch):
    # h(t) = exp(-t^2)/t (1 - sin(omega t)/(omega t)), the rate's inner
    # integrand, is f0 + f1 sin(omega t) with f0 = g = exp(-t^2)/t and
    # f1 = -g/(omega t); the engine is given g and omega and forms both.
    # Its Gauss-Kronrod integrand calls quadrature.sinc_deficit once per call
    # of g, its pair never, so the two are counted apart. Weight 1 and
    # t_max(x) = x on [0, b] give Int_0^b (b - t) h(t) dt. scipy takes
    # [0, 1/omega] plainly, then each
    # decade above it as f0 plainly plus f1 by QAWO. Past the crossover an
    # outer node below 1/omega cuts a Gauss-Kronrod panel (15 nodes), one
    # above it a panel of the sin-weighted rule (25 nodes); at omega = 1e3,
    # omega b = 1,700 is below it, so the table is one Gauss-Kronrod pass
    # and every node reads 15. A node on a table edge samples nothing. b =
    # 1.7 keeps the nodes off the far table's edges (with b = 2 the
    # bisections of [0, 2] and of the decade [1, 2] share points); the one
    # Gauss-Kronrod table has 542 seed panels, and its edge 271 is b/2
    b = 1.7
    outer_nodes, values = [], {(phase, name): 0 for phase in ("table", "read")
                               for name in ("inner", "pair")}

    def t_max(x):
        outer_nodes.append(x.copy())  # the first call, at (0, b), precedes the table
        return x

    def count(name, size, sign=1):
        values["table" if len(outer_nodes) == 1 else "read", name] += sign * size

    def g(t):
        count("pair", t.size)
        return np.exp(-t * t) / t

    def deficit(y):
        # a Gauss-Kronrod sample, not a pair one
        count("pair", y.size, -1)
        count("inner", y.size)
        return sinc_deficit(y)

    monkeypatch.setattr(quadrature_module, "sinc_deficit", deficit)
    res = integrate_nested(lambda x: 1.0, g, 0.0, b, t_max, OUTER_CFG, INNER_CFG, omega=omega)

    # the far pieces' absolute tolerance is 1e-15 of the integral, about 10
    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=500)
    lo = 1.0 / omega
    ref = quad(lambda t: (b - t) * math.exp(-t * t) / t
               * (1.0 - math.sin(omega * t) / (omega * t)), 0.0, lo, **opts)[0]
    cuts = [lo * 10.0**j for j in range(1 + int(math.log10(b * omega)))] + [b]
    for u, v in zip(cuts, cuts[1:]):
        ref += quad(lambda t: (b - t) * math.exp(-t * t) / t, u, v, **opts)[0]
        ref += quad(lambda t: -(b - t) * math.exp(-t * t) / (omega * t * t), u, v,
                    weight="sin", wvar=omega, **opts)[0]
    assert res.value == pytest.approx(ref, rel=1e-10, abs=0.0)

    nodes = np.concatenate(outer_nodes[1:])
    if omega * b > quadrature_module._FAR_CROSSOVER:
        below, above = np.count_nonzero(nodes < lo), np.count_nonzero(nodes > lo)
        assert below > 0 and above > 0 and below + above == nodes.size
        assert values["table", "pair"] > 0
    else:
        below, above = nodes.size - np.count_nonzero(nodes == b / 2), 0
        assert values["table", "pair"] == 0
    assert values["read", "inner"] == 15 * below and values["read", "pair"] == 25 * above
    table = values["table", "inner"] + values["table", "pair"]
    assert res.evaluations == table + nodes.size + 15 * below + 25 * above


# the sin-tail entries' smooth factor, that of the double route's inner integrand
def _sin_tail_g(x):
    return np.exp(-x * x) / x


def _one_row(x, rows):
    # _sin_tail_g as integrate_sin_tail's g of one row
    return _sin_tail_g(x)[None]


def _sin_tail_reference(omega: float, b: float) -> float:
    """scipy's Int_0^b g(x) (1 - sin(omega x)/(omega x)) dx: [0, 1/omega]
    plainly, then each decade above it as g plainly plus -g/(omega x) by QAWO."""
    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=500)
    lo = 1.0 / omega
    ref = quad(lambda x: math.exp(-x * x) / x * (1.0 - math.sin(omega * x) / (omega * x)),
               0.0, lo, **opts)[0]
    cuts = [lo * 10.0**j for j in range(1 + int(math.log10(b * omega)))] + [b]
    for u, v in zip(cuts, cuts[1:]):
        ref += quad(lambda x: math.exp(-x * x) / x, u, v, **opts)[0]
        ref += quad(lambda x: -math.exp(-x * x) / (omega * x * x), u, v,
                    weight="sin", wvar=omega, **opts)[0]
    return ref


_SIN_TAIL_B = 3.0
_SIN_TAIL_CFG = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-10, panel_hint=0.5)


@pytest.mark.parametrize("omega_b", [1e2, 1e4, 1e7])
def test_sin_tail_matches_qawo(omega_b):
    # below the crossover (omega b = 100) one Gauss-Kronrod pass, above it
    # the near pass plus the sin-weighted far pass
    omega = omega_b / _SIN_TAIL_B
    res = integrate_sin_tail(_one_row, np.array([omega]), _SIN_TAIL_B, _SIN_TAIL_CFG)
    ref = _sin_tail_reference(omega, _SIN_TAIL_B)
    assert res.value[0] == pytest.approx(ref, rel=1e-9, abs=0.0)
    assert abs(res.value[0] - ref) <= res.abs_error_estimate[0]


def test_sin_tail_evaluations_grow_as_log_omega():
    # the far pass is seeded at the decades of 1/omega, so three more
    # decades of omega b add far less than the evaluations at 1e5
    counts = [integrate_sin_tail(_one_row, np.array([omega_b / _SIN_TAIL_B]), _SIN_TAIL_B,
                                 _SIN_TAIL_CFG).evaluations
              for omega_b in (1e5, 1e8)]
    assert counts[1] < 2 * counts[0]


@pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
def test_sin_tail_entries_reject_a_bad_omega(omega):
    with pytest.raises(ValueError, match="omega must be finite and > 0"):
        integrate_sin_tail(_one_row, np.array([omega]), 1.0, _SIN_TAIL_CFG)
    with pytest.raises(ValueError, match="omega must be finite and > 0"):
        integrate_nested(lambda x: 1.0, _sin_tail_g, 0.0, 1.0, lambda x: x,
                         OUTER_CFG, INNER_CFG, omega=omega)


@pytest.mark.parametrize("omega", [[1.0, 2.0], np.array([1.0, 5000.0]), np.array([3.0])])
def test_nested_rejects_an_omega_that_is_not_a_scalar(omega):
    # the inner table is built for one omega; an array would read only its first row's
    with pytest.raises(ValueError, match="omega must be a scalar"):
        integrate_nested(lambda x: 1.0, _sin_tail_g, 0.0, 1.0, lambda x: x,
                         OUTER_CFG, INNER_CFG, omega=omega)


@pytest.mark.parametrize("b", [-1.0, math.inf, math.nan])
def test_sin_tail_rejects_a_bad_upper_limit(b):
    with pytest.raises(ValueError, match="b must be finite and >= 0"):
        integrate_sin_tail(_one_row, np.array([10.0]), b, _SIN_TAIL_CFG)


def _scaled_rows(scales, asked=None):
    """A g(x, rows) of one row per scale c, c exp(-(c x)^2)/x; each call
    appends the rows it was asked for to `asked`."""
    def g(x, rows):
        if asked is not None:
            asked.append(list(rows))
        return np.stack([scales[k] * np.exp(-(scales[k] * x) ** 2) / x for k in rows])
    return g


def test_sin_tail_rows_agree_with_their_lone_calls():
    scales, omegas = [0.5, 1.0, 3.0, 0.1], np.array([0.2, 30.0, 7.0, 900.0])
    rows = integrate_sin_tail(_scaled_rows(scales), omegas, _SIN_TAIL_B, _SIN_TAIL_CFG)
    for k, c in enumerate(scales):
        alone = integrate_sin_tail(_scaled_rows([c]), omegas[k:k + 1], _SIN_TAIL_B,
                                   _SIN_TAIL_CFG)
        assert rows.value[k] == pytest.approx(alone.value[0], rel=2e-10, abs=0.0)
        assert abs(rows.value[k] - alone.value[0]) <= (rows.abs_error_estimate[k]
                                                       + alone.abs_error_estimate[0])


def test_sin_tail_rows_past_the_crossover_take_their_own_passes():
    scales = [1.0, 2.0, 0.7]
    omegas = np.array([10.0, 1e5, 3e6]) / _SIN_TAIL_B  # the last two past it
    asked = []
    rows = integrate_sin_tail(_scaled_rows(scales, asked), omegas, _SIN_TAIL_B, _SIN_TAIL_CFG)
    # the near pass asks for the near row, each far row's passes for that row alone
    assert {tuple(r) for r in asked} == {(0,), (1,), (2,)}
    near = integrate_sin_tail(_scaled_rows(scales[:1]), omegas[:1], _SIN_TAIL_B,
                              _SIN_TAIL_CFG)
    evaluations = near.evaluations
    for k in (1, 2):
        assert omegas[k] * _SIN_TAIL_B > quadrature_module._FAR_CROSSOVER
        alone = integrate_sin_tail(_scaled_rows(scales[k:k + 1]), omegas[k:k + 1],
                                   _SIN_TAIL_B, _SIN_TAIL_CFG)
        assert rows.value[k].hex() == alone.value[0].hex()
        assert rows.abs_error_estimate[k].hex() == alone.abs_error_estimate[0].hex()
        evaluations += alone.evaluations
    assert rows.value[0].hex() == near.value[0].hex()
    assert rows.evaluations == evaluations


def _split_first_pass(monkeypatch):
    """Patch _sin_passes to split its first pass at its midpoint: a pass list
    of another length, whose rules do not alternate, for both consumers."""
    passes = quadrature_module._sin_passes

    def split(g, omega, b, cfg):
        (f, lo, hi, *rest), *later = passes(g, omega, b, cfg)
        mid = 0.5 * (lo + hi)
        return [(f, lo, mid, *rest), (f, mid, hi, *rest), *later]

    monkeypatch.setattr(quadrature_module, "_sin_passes", split)


def test_nested_reads_each_table_panel_by_the_rule_of_its_pass(monkeypatch):
    # omega t_top = 17,000: the near pass in two halves, then the far pass.
    # Far panels read by Gauss-Kronrod would be 7.5e-7 off and state 0.56;
    # each panel read by its own pass's rule keeps the unsplit call's error
    def run():
        return integrate_nested(lambda x: np.exp(-x), _sin_tail_g, 0.0, 4.0,
                                lambda x: np.minimum(3.0 * x, 8.5), OUTER_CFG, INNER_CFG,
                                omega=2000.0)

    whole = run()
    _split_first_pass(monkeypatch)
    split = run()
    assert abs(split.value - whole.value) <= whole.abs_error_estimate + split.abs_error_estimate
    assert split.abs_error_estimate <= 2.0 * whole.abs_error_estimate


def test_sin_tail_runs_every_pass_of_any_pass_list(monkeypatch):
    # two rows share the near pass, two take their own passes past the crossover
    scales, omegas = [1.0, 0.5, 2.0, 0.7], np.array([10.0, 300.0, 1e5, 3e6]) / _SIN_TAIL_B
    whole = integrate_sin_tail(_scaled_rows(scales), omegas, _SIN_TAIL_B, _SIN_TAIL_CFG)
    _split_first_pass(monkeypatch)
    split = integrate_sin_tail(_scaled_rows(scales), omegas, _SIN_TAIL_B, _SIN_TAIL_CFG)
    assert np.all(np.abs(split.value - whole.value)
                  <= whole.abs_error_estimate + split.abs_error_estimate)


@pytest.mark.parametrize("omega", [None, 3.0])
def test_nested_empty_table_reads_zero_at_every_node(omega):
    # t_max = 0 leaves the table without a panel: the inner integrand is
    # only asked its shape, and every outer node reads H(0) = 0
    inner_nodes, outer_nodes = [], []

    def inner(t):
        inner_nodes.append(t.size)
        return _sin_tail_g(t)

    def weight(x):
        outer_nodes.append(x.size)
        return np.exp(-x)

    res = integrate_nested(weight, inner, 0.0, 1.0, np.zeros_like, OUTER_CFG, INNER_CFG,
                           omega=omega)
    assert res.value == 0.0 and res.abs_error_estimate == 0.0
    assert sum(inner_nodes) == 0
    assert res.evaluations == sum(outer_nodes) > 0


@pytest.mark.parametrize("omega", [np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0]),
                                   np.array([1.0, 1e5])])
def test_sin_tail_rows_reject_a_g_of_other_length(omega):
    # a g that returns all three of its rows, whatever it is asked for
    def g(x, rows):
        return _scaled_rows([1.0, 2.0, 3.0])(x, range(3))

    with pytest.raises(ValueError, match="for .* values of omega"):
        integrate_sin_tail(g, omega, _SIN_TAIL_B, _SIN_TAIL_CFG)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_sin_tail_rows_reject_a_bad_omega_in_any_row(bad):
    # a bad row is checked in the batched pass or, past the crossover, in its own
    with pytest.raises(ValueError, match="omega must be finite and > 0"):
        integrate_sin_tail(_scaled_rows([1.0, 2.0]), np.array([1.0, bad]), _SIN_TAIL_B,
                           _SIN_TAIL_CFG)


@pytest.mark.parametrize("omega", [np.array([]), np.ones((2, 2)), 3.0])
def test_sin_tail_rows_reject_an_omega_that_is_not_a_row_vector(omega):
    with pytest.raises(ValueError, match="1-d array of rows"):
        integrate_sin_tail(_scaled_rows([1.0]), omega, _SIN_TAIL_B, _SIN_TAIL_CFG)


def _sinc_kernel(x):
    return np.exp(-x * x) * sinc_deficit(50.0 * x) / x


def _sinc_kernels(x):
    return np.stack([_sinc_kernel(x), 1e-9 * np.exp(-x) * sinc_deficit(20.0 * x) / x])


def test_results_are_deterministic():
    cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-10, panel_hint=math.pi / 50.0)
    for f in (_sinc_kernel, _sinc_kernels):
        first = integrate(f, 0.0, 10.0, cfg)
        second = integrate(f, 0.0, 10.0, cfg)
        np.testing.assert_array_equal(first.value, second.value)
        np.testing.assert_array_equal(first.abs_error_estimate, second.abs_error_estimate)
        assert first.evaluations == second.evaluations


def _reference_panels(f, lefts, rights):
    # one call to f for all panels; each panel's four node sums computed on
    # their own, as the 15-term einsum dot product integrate uses, so that
    # the batched engine is checked against per-panel sums
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    ys = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    resk, resg, resabs, resasc = (np.empty(lefts.size) for _ in range(4))
    for i, y in enumerate(ys):
        resk[i] = half[i] * np.einsum("k,k->", y, _WK_FULL)
        resg[i] = half[i] * np.einsum("k,k->", y, _WG_FULL)
        resabs[i] = abs(half[i]) * np.einsum("k,k->", np.abs(y), _WK_FULL)
        mean = resk[i] / (rights[i] - lefts[i]) if rights[i] > lefts[i] else 0.0
        resasc[i] = abs(half[i]) * np.einsum("k,k->", np.abs(y - mean), _WK_FULL)
    raw = np.abs(resk - resg)
    scaled = np.where(
        (resasc > 0) & (raw > 0),
        resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
        raw,
    )
    return resk, np.maximum(scaled, _EPS50 * resabs)


def _reference_integrate(f, a, b, cfg, budget):
    """Scalar adaptive loop with a dict of panels and a heap of errors."""
    n0 = 1
    if cfg.panel_hint is not None and b > a:
        n0 = max(1, min(int(np.ceil((b - a) / cfg.panel_hint)), 200_000))
    edges = a + (b - a) * np.arange(n0 + 1) / n0
    vals, errs = _reference_panels(f, edges[:-1], edges[1:])
    panels = {i: (edges[i], edges[i + 1], vals[i], errs[i]) for i in range(n0)}
    heap = [(-errs[i], i) for i in range(n0)]
    heapq.heapify(heap)
    total_val, total_err = float(vals.sum()), float(errs.sum())
    evaluations, splits, next_id = 15 * n0, 0, n0
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
        batch = []
        while heap and len(batch) < 64 and splits + len(batch) < budget:
            negerr, pid = heapq.heappop(heap)
            if -negerr <= 0.0:
                break
            batch.append(pid)
        if not batch:
            return "no convergence", total_err, splits
        splits += len(batch)
        la, ra = np.empty(2 * len(batch)), np.empty(2 * len(batch))
        for j, pid in enumerate(batch):
            left, right, v, e = panels.pop(pid)
            m = 0.5 * (left + right)
            la[2 * j], ra[2 * j], la[2 * j + 1], ra[2 * j + 1] = left, m, m, right
            total_val -= v
            total_err -= e
        vals, errs = _reference_panels(f, la, ra)
        evaluations += 15 * len(la)
        for j in range(len(la)):
            panels[next_id] = (la[j], ra[j], vals[j], errs[j])
            heapq.heappush(heap, (-errs[j], next_id))
            next_id += 1
        total_val += float(vals.sum())
        total_err += float(errs.sum())
    ordered = sorted(panels.values(), key=lambda rec: rec[0])
    return (float(sum(rec[2] for rec in ordered)), float(sum(rec[3] for rec in ordered)),
            evaluations)


@pytest.mark.parametrize("hint", [None, 0.3, 1e-3])
@pytest.mark.parametrize("rel_tol, budget", [(1e-6, 2000), (1e-12, 2000), (1e-12, 40)])
@pytest.mark.parametrize(
    "f",
    [lambda x: np.abs(x - 0.37), lambda x: 1.0 / (1e-4 + (x - 1.1) ** 2), np.sqrt,
     lambda x: np.exp(-x * x) * sinc_deficit(50.0 * x) / x],
    ids=["kink", "peak", "sqrt", "sinc"],
)
def test_scalar_results_match_reference_loop(f, rel_tol, budget, hint, monkeypatch):
    # the batched engine must reproduce the scalar loop bit for bit: same
    # panels, same order of additions, same stopping point
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", budget)
    cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=rel_tol, panel_hint=hint)
    expected = _reference_integrate(f, 0.0, 2.0, cfg, budget)
    if expected[0] == "no convergence":
        with pytest.raises(NonConvergence, match=f"after {expected[2]} subdivisions"):
            integrate(f, 0.0, 2.0, cfg)
        return
    res = integrate(f, 0.0, 2.0, cfg)
    assert (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations) == (
        expected[0].hex(), expected[1].hex(), expected[2])
