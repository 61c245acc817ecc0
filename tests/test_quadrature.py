"""Tests for the adaptive quadrature engine: its Gauss-Kronrod panels and
its sin-weighted Clenshaw-Curtis rule.

scipy.integrate.quad supplies the cross-check values (with weight="sin",
QUADPACK's QAWO, for the sin-weighted rule); it is a test-only dependency.
"""

import heapq
import math

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
    _fourier_moments,
    _ordered_sum,
    NonConvergence,
    NonFiniteSample,
    QuadratureConfig,
    integrate,
    integrate_nested,
    integrate_semi_infinite,
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
    assert res.value == pytest.approx(2.0, rel=1e-13)


def test_gaussian_against_erf():
    res = integrate(lambda x: np.exp(-x * x), -6.0, 6.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-13)


def test_inverse_sqrt_edge_singularity(monkeypatch):
    # open rule: the x = 0 endpoint is never sampled; the algebraic
    # singularity converges but needs a large bisection budget
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 20000)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert res.value == pytest.approx(2.0, rel=1e-8)


def test_oscillatory_rate_kernel_oracle():
    cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-10, panel_hint=math.pi / 50.0)
    res = integrate(
        lambda x: np.exp(-x * x) * sinc_deficit(50.0 * x) / x, 0.0, 10.0, cfg
    )
    assert res.value == pytest.approx(OSC_ORACLE, rel=1e-9)
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
        assert res.value[i] == pytest.approx(ref, rel=1e-9)
        alone = integrate(lambda x, i=i: f(x)[i], 0.0, 3.0, cfg)
        assert res.value[i] == pytest.approx(alone.value, rel=1e-10)


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

    vals, _, _, _, shape, evaluations = _adaptive(
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


@pytest.mark.parametrize("lam", [0.5, 23.9, 24.1, 30.0, 100.0, 1e3, 1e7])
def test_fourier_moments_match_a_direct_sum(lam):
    # I_k(lam) = Int_-1^1 T_k(t) e^{i lam t} dt: a Clenshaw-Curtis sum up
    # to lam = 24, the forward recurrence above; against a 300-point sum
    # (exact to rounding up to lam = 100) and the closed forms of I_0, I_1
    got = _fourier_moments(np.array([lam]))[0]
    assert got[0] == pytest.approx(2.0 * math.sin(lam) / lam, rel=1e-13, abs=1e-15 / lam)
    assert got[1] == pytest.approx(2j * (math.sin(lam) - lam * math.cos(lam)) / lam**2,
                                   rel=1e-13, abs=1e-15 / lam)
    if lam <= 100.0:
        t, w = np.polynomial.legendre.leggauss(300)
        ref = (w * np.exp(1j * lam * t)) @ np.cos(np.outer(np.arccos(t), np.arange(25)))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=5e-14)


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


def test_non_convergence_reports_budget(monkeypatch):
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 2)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-15)
    with pytest.raises(NonConvergence, match="subdivisions") as info:
        integrate(lambda x: np.sin(700.0 * x) / (1e-3 + x), 0.0, 1.0, cfg)
    assert "seed panels" not in str(info.value)


def test_non_convergence_reports_the_seed_panel_cap(monkeypatch):
    # panel_hint asks for 10^6 seed panels; the engine uses _MAX_SEED_PANELS
    monkeypatch.setattr(quadrature_module, "_MAX_SUBDIVISIONS", 1)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-15, panel_hint=1e-6)
    with pytest.raises(NonConvergence) as info:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert str(info.value).endswith(
        "after 1 subdivisions of [0.0, 1.0]; panel_hint asked for 1000000 seed panels, "
        "200000 used")


def test_limits_validation():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, math.inf)
    assert integrate(np.sin, 2.0, 2.0).value == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(panel_hint=-1.0)


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(lambda x: np.exp(-x * x), 0.0, 1.0)
    assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-10)


def test_semi_infinite_moment():
    # int_0^inf x^3 exp(-(x/2)^2) dx = 8
    res = integrate_semi_infinite(lambda x: x**3 * np.exp(-((x / 2.0) ** 2)), 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-10)


def test_semi_infinite_rejects_bad_scale():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: np.exp(-x * x), 0.0, 0.0)


def test_nested_triangle_area():
    res = integrate_nested(lambda x: 1.0, lambda t: np.ones_like(t), 0.0, 1.0, lambda x: x,
                           OUTER_CFG, INNER_CFG)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_nested_separable_product():
    # int_0^1 int_0^1 x t dt dx = 1/4
    res = integrate_nested(lambda x: x, lambda t: t, 0.0, 1.0, lambda x: 1.0,
                           OUTER_CFG, INNER_CFG)
    assert res.value == pytest.approx(0.25, rel=1e-10)


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
    assert res.value == pytest.approx((1.0 - math.cos(a)) / a**2, rel=1e-10)
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
    assert res.value == pytest.approx(antiderivative[1] - antiderivative[0], rel=1e-10)
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
    assert res.value == pytest.approx(2.0, rel=1e-10)
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
    assert res.value == pytest.approx(0.125, rel=1e-14)
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


@pytest.mark.parametrize("omega", [1e3, 1e4, 1e6])
def test_nested_far_table_matches_qawo(omega):
    # h(t) = exp(-t^2)/t (1 - sin(omega t)/(omega t)), the rate's inner
    # integrand, is f0 + f1 sin(omega t) with f0 = exp(-t^2)/t and
    # f1 = -f0/(omega t). Weight 1 and t_max(x) = x on [0, b] give
    # Int_0^b (b - t) h(t) dt. scipy takes [0, 1/omega] plainly, then each
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

    def counted(name, f):
        def g(t):
            values["table" if len(outer_nodes) == 1 else "read", name] += t.size
            return f(t)
        return g

    inner = counted("inner", lambda t: np.exp(-t * t) / t * sinc_deficit(omega * t))
    pair = counted("pair", lambda t: np.stack([np.exp(-t * t) / t,
                                               -np.exp(-t * t) / (omega * t * t)]))
    res = integrate_nested(lambda x: 1.0, inner, 0.0, b, t_max, OUTER_CFG, INNER_CFG,
                           far=(pair, omega))

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
    # one call to f for all panels; per-panel arithmetic as in integrate
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.broadcast_to(np.asarray(f(nodes.ravel()), dtype=float), nodes.size)
    y = y.reshape(nodes.shape)
    resk = half * (y * _WK_FULL).sum(axis=1)
    resg = half * (y * _WG_FULL).sum(axis=1)
    resabs = np.abs(half) * (np.abs(y) * _WK_FULL).sum(axis=1)
    width = rights - lefts
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(width > 0, resk / np.where(width > 0, width, 1.0), 0.0)
    resasc = np.abs(half) * (np.abs(y - mean[:, None]) * _WK_FULL).sum(axis=1)
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
