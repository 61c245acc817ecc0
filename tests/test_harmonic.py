"""Tests for harmonic-reservoir decoherence curves and plateaus.

The finite-time reference value was computed with scipy.integrate.quad on
the exponent integral at epsabs 1e-14; the tabulated-density oracle calls
scipy.integrate.quad (a test-only dependency) with the table knots as
breakpoints.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import dephaser.harmonic as harmonic
from dephaser.cli import curve_csv_text, write_text
from dephaser.coupling import SpectralDensity, spectral_density
from dephaser.harmonic import (
    DecoherenceCurve,
    asymptotic_coherence,
    coherence_ratio,
    decoherence_curve,
    uniform_times,
)
from dephaser.model import CONST, ThermalEnv

# quad oracle: amplitude 1e-82, exponent 2, Gaussian cutoff 1e13 rad/s,
# T = 77 K (thermal weight coth(hbar w/(k_B T))), t = 0.5 ps
RATIO_ORACLE_77K = 0.832301966772657

SD_QUADRATIC = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1e-82,
                               exponent=2.0, cutoff_rad_per_s=1e13)
SD_CUBIC = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1e-95,
                           exponent=3.0, cutoff_rad_per_s=1e13)
SD_OHMIC = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1e-70,
                           exponent=1.0, cutoff_rad_per_s=1e13)
SD_GAPPED = SpectralDensity(form="tabulated",
                            table_omega_rad_per_s=np.array([1e12, 2e12]),
                            table_J=np.array([1e-57, 1e-57]))

# a 12-knot table with a Gaussian-cutoff quadratic profile: every interior
# knot is a kink of the interpolated density
TABLE_OMEGA = np.geomspace(1e12, 3e13, 12)
SD_TABLE = SpectralDensity(
    form="tabulated", table_omega_rad_per_s=TABLE_OMEGA,
    table_J=1e-82 * TABLE_OMEGA**2 * np.exp(-((TABLE_OMEGA / 1e13) ** 2)))
SD_EXPONENTIAL = SpectralDensity(form="power-law-exponential-cutoff", amplitude=1e-95,
                                 exponent=3.0, cutoff_rad_per_s=1e13)

COLD = ThermalEnv(T_K=0.0)
WARM = ThermalEnv(T_K=77.0)
LIQUID_HE = ThermalEnv(T_K=4.2)


def test_ratio_against_quad_oracle():
    assert coherence_ratio(SD_QUADRATIC, WARM, 5e-13) == pytest.approx(
        RATIO_ORACLE_77K, rel=1e-10, abs=0
    )


def test_zero_temperature_plateau_analytic():
    # for exponent 2 with a Gaussian cutoff the plateau integral is
    # elementary: A sqrt(pi) omega_c / (2 hbar^2)
    expected = math.exp(
        -1e-82 * math.sqrt(math.pi) * 1e13 / (2.0 * CONST.hbar**2)
    )
    plateau = asymptotic_coherence(SD_QUADRATIC, COLD)
    assert plateau == pytest.approx(expected, rel=1e-10, abs=0)


@pytest.mark.parametrize(
    "sd, env, finite",
    [
        (SD_OHMIC, WARM, False),       # linear exponent, warm: full decay
        (SD_QUADRATIC, WARM, False),   # quadratic, warm: still divergent
        (SD_QUADRATIC, COLD, True),    # quadratic, cold: partial dephasing
        (SD_CUBIC, WARM, True),        # cubic is super-Ohmic enough warm
        (SD_OHMIC, COLD, False),       # linear exponent diverges even cold
        (SD_GAPPED, WARM, True),       # gapped support is always finite
    ],
)
def test_plateau_dichotomy(sd, env, finite):
    plateau = asymptotic_coherence(sd, env)
    if finite:
        assert plateau is not None and 0.0 < plateau <= 1.0
    else:
        assert plateau is None


def test_zero_amplitude_keeps_full_coherence():
    sd = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=0.0)
    assert asymptotic_coherence(sd, WARM) == 1.0
    assert coherence_ratio(sd, WARM, 1e-12) == 1.0


def test_ratio_at_time_zero_is_exactly_one():
    assert coherence_ratio(SD_QUADRATIC, WARM, 0.0) == 1.0


def test_ratio_bounded_by_plateau_square():
    # sin^2 <= 1 caps the exponent at twice its long-time mean
    plateau = asymptotic_coherence(SD_CUBIC, WARM)
    for t in (1e-14, 1e-13, 1e-12, 1e-11):
        r = coherence_ratio(SD_CUBIC, WARM, t)
        assert plateau**2 - 1e-12 <= r <= 1.0


def test_ratio_converges_to_plateau():
    plateau = asymptotic_coherence(SD_QUADRATIC, COLD)
    late = coherence_ratio(SD_QUADRATIC, COLD, 100.0 / 1e13)
    assert late == pytest.approx(plateau, rel=0.01, abs=0)


def test_warmer_reservoir_decoheres_faster():
    hot = coherence_ratio(SD_QUADRATIC, ThermalEnv(T_K=150.0), 5e-13)
    assert hot < coherence_ratio(SD_QUADRATIC, WARM, 5e-13)


def test_tiny_temperature_matches_zero_for_gapped_reservoir():
    # k_B * 1e-6 K is far below the 1e12 rad/s support edge
    cold = coherence_ratio(SD_GAPPED, COLD, 3e-13)
    tiny = coherence_ratio(SD_GAPPED, ThermalEnv(T_K=1e-6), 3e-13)
    assert tiny == pytest.approx(cold, rel=1e-12, abs=0)


def test_thermal_weight_is_coth_of_hbar_omega_over_k_B_T():
    omega = np.array([CONST.k_B * WARM.T_K / CONST.hbar])
    assert harmonic._thermal_weight(omega, WARM)[0] == pytest.approx(
        1.0 / math.tanh(1.0), rel=1e-15, abs=0)


@pytest.mark.parametrize("T", [4.0, 77.0, 300.0])
def test_half_argument_convention_is_the_weight_at_twice_the_temperature(T):
    # coth(hbar w/(2 k_B T)) is the weight at 2T bit for bit: doubling is exact
    omega = np.geomspace(1e10, 1e14, 41)
    half = 1.0 / np.tanh(CONST.hbar * omega / (2.0 * CONST.k_B * T))
    doubled = harmonic._thermal_weight(omega, ThermalEnv(T_K=2.0 * T))
    assert [x.hex() for x in doubled] == [x.hex() for x in half]


def test_ratio_input_validation():
    with pytest.raises(ValueError):
        coherence_ratio(SD_QUADRATIC, WARM, -1e-12)
    with pytest.raises(ValueError):
        coherence_ratio(SD_QUADRATIC, WARM, math.inf)


def test_curve_grid_and_plateau():
    curve = decoherence_curve(SD_QUADRATIC, COLD, 1e-12, 5)
    expected = 1e-12 * np.arange(5) / 4.0
    np.testing.assert_array_equal(curve.times_s, expected)
    assert curve.ratio[0] == 1.0
    assert curve.plateau == asymptotic_coherence(SD_QUADRATIC, COLD)


def test_curve_degenerate_grids():
    assert decoherence_curve(SD_QUADRATIC, COLD, 0.0, 7).times_s.tolist() == [0.0]
    assert decoherence_curve(SD_QUADRATIC, COLD, 1e-12, 1).times_s.tolist() == [0.0]
    with pytest.raises(ValueError):
        decoherence_curve(SD_QUADRATIC, COLD, 1e-12, 0)
    with pytest.raises(ValueError):
        decoherence_curve(SD_QUADRATIC, COLD, -1.0, 5)
    with pytest.raises(ValueError, match="integer"):
        decoherence_curve(SD_QUADRATIC, COLD, 1e-12, 2.5)


@pytest.mark.parametrize("t_max, points", [(1e-12, 118), (3e-9, 11), (1e-8, 7)])
def test_uniform_times_end_exactly_at_t_max(t_max, points):
    # t_max * (points - 1) / (points - 1) is one ulp off for these
    times = uniform_times(t_max, points)
    assert times[-1] == t_max
    np.testing.assert_array_equal(times[:-1], t_max * np.arange(points - 1) / (points - 1))


@pytest.mark.parametrize(
    "t_max, points, match",
    [
        (1e-12, 2.5, "integer"),
        (1e-12, 3.0, "integer"),
        (1e-12, True, "integer"),
        (1e-12, 0, ">= 1"),
        (-1e-12, 3, "t_max"),
        (math.nan, 3, "t_max"),
        (math.inf, 3, "t_max"),
    ],
)
def test_uniform_times_rejects_bad_grids(t_max, points, match):
    with pytest.raises(ValueError, match=match):
        uniform_times(t_max, points)


def test_curve_is_deterministic(monkeypatch):
    first = decoherence_curve(SD_QUADRATIC, WARM, 2e-12, 9)
    monkeypatch.setenv("DEPHASER_THREADS", "3")
    second = decoherence_curve(SD_QUADRATIC, WARM, 2e-12, 9)
    np.testing.assert_array_equal(first.ratio, second.ratio)


def test_curve_validation():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        DecoherenceCurve(times_s=np.array([0.0]), ratio=np.array([1.5]),
                         plateau=None)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        DecoherenceCurve(times_s=np.array([0.0]), ratio=np.array([-1e-300]),
                         plateau=None)
    with pytest.raises(ValueError, match="finite"):
        DecoherenceCurve(times_s=np.array([0.0, 1.0]),
                         ratio=np.array([1.0, math.nan]), plateau=None)
    with pytest.raises(ValueError, match="finite"):
        DecoherenceCurve(times_s=np.array([0.0, math.nan]),
                         ratio=np.array([1.0, 0.5]), plateau=None)
    with pytest.raises(ValueError):
        DecoherenceCurve(times_s=np.array([0.0, 1.0]), ratio=np.array([1.0]),
                         plateau=None)
    curve = DecoherenceCurve(times_s=np.array([0.0]), ratio=np.array([1.0]),
                             plateau=None)
    with pytest.raises(ValueError):
        curve.ratio[0] = 0.5


def test_curve_keeps_an_underflowed_ratio():
    # the exponent passes 745 at the first positive time, so exp(-exponent)
    # is 0.0: a valid ratio, not an error
    sd = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1e-68,
                         exponent=1.0, cutoff_rad_per_s=1e13)
    curve = decoherence_curve(sd, ThermalEnv(T_K=300.0), 1e-10, 5)
    assert curve.ratio.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert curve.plateau is None


def test_curve_csv_round_trip(tmp_path):
    curve = decoherence_curve(SD_QUADRATIC, WARM, 1e-12, 3)
    text = curve_csv_text(curve)
    lines = text.splitlines()
    assert lines[0] == "t_s,coherence_ratio"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 1.0
    path = tmp_path / "curve.csv"
    write_text(path, text)
    assert path.read_text(encoding="utf-8") == text
    # repr round-trip keeps full precision
    assert float(lines[2].split(",")[1]) == curve.ratio[1]


def _table_exponent_oracle(t: float, env: ThermalEnv) -> float:
    def integrand(omega: float) -> float:
        weight = 1.0 / math.tanh(CONST.hbar * omega / (CONST.k_B * env.T_K))
        return (2.0 * weight * spectral_density(SD_TABLE, omega)
                * math.sin(0.5 * omega * t) ** 2 / (CONST.hbar * omega) ** 2)

    value, _ = quad(integrand, TABLE_OMEGA[0], TABLE_OMEGA[-1],
                    points=TABLE_OMEGA[1:-1], limit=1000, epsabs=0.0, epsrel=1e-13)
    return value


def test_tabulated_curve_against_quad_with_knot_breakpoints():
    curve = decoherence_curve(SD_TABLE, LIQUID_HE, 1e-11, 5)
    for t, r in zip(curve.times_s[1:], curve.ratio[1:]):
        expected = math.exp(-_table_exponent_oracle(float(t), LIQUID_HE))
        assert r == pytest.approx(expected, rel=1e-9, abs=0)


@pytest.mark.parametrize("t", [1e-13, 1e-12, 1e-11])
def test_tabulated_exponent_needs_no_bisection(monkeypatch, t):
    # seeded from knot to knot, every panel lies on one linear piece of the
    # table: the seed pass converges and J is sampled at 15 nodes per seed
    nodes = []

    def counting(sd, omega):
        nodes.append(np.size(omega))
        return spectral_density(sd, omega)

    monkeypatch.setattr(harmonic, "spectral_density", counting)
    coherence_ratio(SD_TABLE, LIQUID_HE, t)
    seeds = sum(math.ceil((hi - lo) / (math.pi / t))
                for lo, hi in zip(TABLE_OMEGA[:-1], TABLE_OMEGA[1:]))
    assert sum(nodes) == 15 * seeds


@pytest.mark.parametrize(
    "sd, env, t_max",
    [
        (SD_QUADRATIC, WARM, 1e-11),
        (SD_EXPONENTIAL, ThermalEnv(T_K=4.0), 4e-12),
        (SD_OHMIC, ThermalEnv(T_K=4.0), 1e-11),
        (SD_TABLE, LIQUID_HE, 1e-11),
    ],
    ids=["gaussian", "exponential", "ohmic", "tabulated"],
)
def test_curve_points_match_single_time_ratio(sd, env, t_max):
    curve = decoherence_curve(sd, env, t_max, 9)
    assert curve.ratio[0] == 1.0
    for t, r in zip(curve.times_s[1:], curve.ratio[1:]):
        assert r == pytest.approx(coherence_ratio(sd, env, float(t)), rel=1e-10, abs=0)


def test_long_curve_splits_times_into_bounded_passes(monkeypatch):
    # the support ends at 5.43 w_c, 173 seed panels of pi/t_max: a store of
    # 600 values takes 3 times a pass
    whole = decoherence_curve(SD_QUADRATIC, WARM, 1e-11, 9)
    rows = []
    original = harmonic._exponent_integrand

    def spy(sd, env, times):
        rows.append(times.size)
        return original(sd, env, times)

    monkeypatch.setattr(harmonic, "_exponent_integrand", spy)
    monkeypatch.setattr(harmonic, "_PASS_ELEMS", 600)
    split = decoherence_curve(SD_QUADRATIC, WARM, 1e-11, 9)
    assert rows == [3, 3, 2]
    np.testing.assert_allclose(split.ratio, whole.ratio, rtol=1e-10, atol=0.0)


def test_intervals_of_a_table_are_its_knot_pairs():
    assert harmonic._intervals(SD_TABLE) == list(zip(TABLE_OMEGA[:-1], TABLE_OMEGA[1:]))


def _tail_share(form, n, s):
    """The larger of J's and J/w^2's incomplete-gamma shares past s w_c, in mpmath.

    J/w^2's counts only where it is integrable (n > 1).
    """
    gaussian = form == "power-law-gaussian-cutoff"
    x = s * s if gaussian else s
    order = [n + 1] + ([n - 1] if n > 1 else [])
    return max(mpmath.gammainc(mpmath.mpf(m) / 2 if gaussian else m, x, regularized=True)
               for m in order)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("form", ["power-law-gaussian-cutoff",
                                  "power-law-exponential-cutoff"],
                         ids=["gaussian", "exponential"])
def test_intervals_of_a_parametric_form_end_where_the_tail_share_is_1e_12(form, n):
    sd = SpectralDensity(form=form, amplitude=1e-82, exponent=float(n),
                         cutoff_rad_per_s=1e13)
    [(lo, hi)] = harmonic._intervals(sd)
    s = hi / sd.cutoff_rad_per_s
    assert lo == 0.0
    assert _tail_share(form, n, s) <= 1e-12
    assert _tail_share(form, n, 0.95 * s) > 1e-12


def _mpmath_exponent(sd, T_K, t):
    """2 Int w_th J sin^2(wt/2)/(hbar w)^2 dw in mpmath at 20 digits.

    Integrated in u = w/w_c over [0, top] in 16 Gauss-Legendre pieces; past
    top the integrand is below e^-80 of its peak for every case here.
    """
    gaussian = sd.form == "power-law-gaussian-cutoff"
    n = sd.exponent
    with mpmath.workdps(20):
        omega_c = mpmath.mpf(sd.cutoff_rad_per_s)
        tau = omega_c * t
        beta = (mpmath.mpf(CONST.hbar) * omega_c / (mpmath.mpf(CONST.k_B) * T_K)
                if T_K else None)

        def f(u):
            weight = mpmath.coth(beta * u) if beta else 1
            cut = mpmath.exp(-u * u) if gaussian else mpmath.exp(-u)
            return weight * u ** (n - 2) * cut * mpmath.sin(u * tau / 2) ** 2

        top = math.sqrt(n) + 12 if gaussian else 2 * n + 100
        pieces = [top * k / 16 for k in range(17)]
        return (2 * mpmath.mpf(sd.amplitude) * omega_c ** (n - 1) / mpmath.mpf(CONST.hbar) ** 2
                * mpmath.quad(f, pieces, method="gauss-legendre"))


@pytest.mark.parametrize("T_K", [0.0, 77.0])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("form", ["power-law-gaussian-cutoff",
                                  "power-law-exponential-cutoff"],
                         ids=["gaussian", "exponential"])
def test_curve_exponent_matches_mpmath_at_both_ends_of_a_pass(form, n, T_K):
    # t runs from 0.01/w_c, where sin^2(wt/2) ~ (wt/2)^2 and J's tail share
    # rules, to 2/w_c, in one pass; w_c keeps w^40 finite up to the edge and
    # the amplitude puts the exponent at 100 at t_max
    omega_c = 1e13 if n <= 10 else 1e4
    t_max = 2.0 / omega_c
    unit = SpectralDensity(form=form, amplitude=1.0, exponent=float(n),
                           cutoff_rad_per_s=omega_c)
    sd = replace(unit, amplitude=float(100 / _mpmath_exponent(unit, T_K, t_max)))
    curve = decoherence_curve(sd, ThermalEnv(T_K=T_K), t_max, 201)
    for i in (1, -1):
        t = float(curve.times_s[i])
        assert -math.log(curve.ratio[i]) == pytest.approx(
            float(_mpmath_exponent(sd, T_K, t)), rel=1e-10, abs=0)


def _mpmath_plateau_exponent(sd, T_K):
    """Int_0^inf w_th J/(hbar w)^2 dw in mpmath at 30 digits, under w = w_c u^p.

    p = 1/q (q = n - 2 at T > 0, n - 1 at T = 0) turns the integrable
    w^(q-1) singularity at w = 0 into a finite value at u = 0; on the raw
    w integral mpmath's own error estimate understates its error (2e-9 off
    at n = 2.2, 4 K).
    """
    gaussian = sd.form == "power-law-gaussian-cutoff"
    with mpmath.workdps(30):
        n = mpmath.mpf(sd.exponent)
        omega_c = mpmath.mpf(sd.cutoff_rad_per_s)
        beta = (mpmath.mpf(CONST.hbar) * omega_c / (mpmath.mpf(CONST.k_B) * T_K)
                if T_K else None)
        p = 1 / (n - (2 if T_K else 1))

        def f(u):
            y = u**p  # w/w_c; dw = w_c p y/u du
            weight = y * mpmath.coth(beta * y) if beta else y
            cut = mpmath.exp(-y * y) if gaussian else mpmath.exp(-y)
            return p * weight * y ** (n - 2) * cut / u

        return (mpmath.mpf(sd.amplitude) * omega_c ** (n - 1) / mpmath.mpf(CONST.hbar) ** 2
                * mpmath.quad(f, [0, 1, mpmath.inf]))


@pytest.mark.parametrize("T_K, n", [(4.0, 2.02), (4.0, 2.2), (4.0, 2.5), (4.0, 2.8),
                                    (0.0, 1.2), (0.0, 1.5), (0.0, 1.8)])
@pytest.mark.parametrize("form", ["power-law-gaussian-cutoff",
                                  "power-law-exponential-cutoff"],
                         ids=["gaussian", "exponential"])
def test_plateau_with_a_singular_weight_matches_mpmath(form, T_K, n):
    # the weight goes as w^(n-3) at T > 0 and w^(n-2) at T = 0, integrable
    # but unbounded at w = 0; the amplitude puts the exponent near 1
    omega_c = 1e13
    sd = SpectralDensity(form=form, amplitude=CONST.hbar**2 * omega_c ** (1.0 - n),
                         exponent=n, cutoff_rad_per_s=omega_c)
    exponent = -math.log(asymptotic_coherence(sd, ThermalEnv(T_K=T_K)))
    assert exponent == pytest.approx(float(_mpmath_plateau_exponent(sd, T_K)), rel=1e-9, abs=0)


@pytest.mark.parametrize("n", [1.0001, 1.01, 1.99])
@pytest.mark.parametrize("form", ["power-law-gaussian-cutoff",
                                  "power-law-exponential-cutoff"],
                         ids=["gaussian", "exponential"])
def test_zero_temperature_plateau_near_the_divergence_is_a_gamma_function(form, n):
    # at T = 0 the exponent is A w_c^(n-1)/hbar^2 times Gamma(n-1)
    # (exponential cut-off) or Gamma((n-1)/2)/2 (Gaussian), up to the 1e-12
    # tail share; the amplitude puts it at 1. The weight goes as w^(n-2),
    # which n = 1.0001 makes nearly as singular as 1/w
    omega_c = 1e13
    gamma = (math.gamma((n - 1.0) / 2.0) / 2.0 if form == "power-law-gaussian-cutoff"
             else math.gamma(n - 1.0))
    sd = SpectralDensity(form=form, amplitude=CONST.hbar**2 * omega_c ** (1.0 - n) / gamma,
                         exponent=n, cutoff_rad_per_s=omega_c)
    exponent = -math.log(asymptotic_coherence(sd, COLD))
    assert exponent == pytest.approx(1.0, rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "form, n, omega_c, amplitude, t",
    [("power-law-exponential-cutoff", 30, 1e6, 3.7e-272, 1e-6),
     ("power-law-gaussian-cutoff", 40, 1e4, 8.2e-238, 1e-6),
     ("power-law-gaussian-cutoff", 60, 1e3, 9.2e-273, 1e-5)],
    ids=["exponential-30", "gaussian-40", "gaussian-60"],
)
def test_steep_cutoff_keeps_its_tail(form, n, omega_c, amplitude, t):
    # an edge where the cut-off factor is 1e-30 drops 1.2e-8 of the exponent
    # at exponential n = 30 (t = 1/w_c) and 6.5e-8 at Gaussian n = 60
    # (t = 0.01/w_c), 1.9e-12 at Gaussian n = 40
    sd = SpectralDensity(form=form, amplitude=amplitude, exponent=float(n),
                         cutoff_rad_per_s=omega_c)
    exponent = -math.log(coherence_ratio(sd, COLD, t))
    assert exponent == pytest.approx(float(_mpmath_exponent(sd, 0.0, t)), rel=1e-10, abs=0)


@pytest.mark.parametrize(
    "sd, env",
    [(SD_CUBIC, WARM), (SD_EXPONENTIAL, ThermalEnv(T_K=4.0)), (SD_TABLE, LIQUID_HE)],
    ids=["gaussian", "exponential", "tabulated"],
)
def test_one_integrate_call_per_piece(monkeypatch, sd, env):
    calls = []
    original = harmonic.integrate

    def spy(f, a, b, cfg=None):
        calls.append((a, b))
        return original(f, a, b, cfg)

    monkeypatch.setattr(harmonic, "integrate", spy)
    pieces = harmonic._intervals(sd)
    decoherence_curve(sd, env, 4e-12, 9)  # one pass over the times, then the plateau
    assert calls == pieces + pieces
    calls.clear()
    asymptotic_coherence(sd, env)
    assert calls == pieces


@pytest.mark.parametrize(
    "sd, env, t_max",
    [(SD_QUADRATIC, WARM, 1e-11), (SD_EXPONENTIAL, ThermalEnv(T_K=4.0), 4e-12),
     (SD_TABLE, LIQUID_HE, 1e-11)],
    ids=["gaussian", "exponential", "tabulated"],
)
def test_curve_with_numpy_sine_squared_agrees(monkeypatch, sd, env, t_max):
    fast = decoherence_curve(sd, env, t_max, 50)
    monkeypatch.setattr(harmonic, "_sin_sq",
                        lambda x, out: np.square(np.sin(x, out=out), out=out))
    plain = decoherence_curve(sd, env, t_max, 50)
    np.testing.assert_allclose(fast.ratio, plain.ratio, rtol=1e-14, atol=0.0)
