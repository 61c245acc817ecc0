"""Tests for harmonic-reservoir decoherence curves and plateaus.

The finite-time reference value was computed with scipy.integrate.quad on
the exponent integral at epsabs 1e-14; the tabulated-density oracle calls
scipy.integrate.quad (a test-only dependency) with the table knots as
breakpoints.
"""

import math

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
        RATIO_ORACLE_77K, rel=1e-10
    )


def test_zero_temperature_plateau_analytic():
    # for exponent 2 with a Gaussian cutoff the plateau integral is
    # elementary: A sqrt(pi) omega_c / (2 hbar^2)
    expected = math.exp(
        -1e-82 * math.sqrt(math.pi) * 1e13 / (2.0 * CONST.hbar**2)
    )
    plateau = asymptotic_coherence(SD_QUADRATIC, COLD)
    assert plateau == pytest.approx(expected, rel=1e-10)


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
    assert late == pytest.approx(plateau, rel=0.01)


def test_warmer_reservoir_decoheres_faster():
    hot = coherence_ratio(SD_QUADRATIC, ThermalEnv(T_K=150.0), 5e-13)
    assert hot < coherence_ratio(SD_QUADRATIC, WARM, 5e-13)


def test_tiny_temperature_matches_zero_for_gapped_reservoir():
    # k_B * 1e-6 K is far below the 1e12 rad/s support edge
    cold = coherence_ratio(SD_GAPPED, COLD, 3e-13)
    tiny = coherence_ratio(SD_GAPPED, ThermalEnv(T_K=1e-6), 3e-13)
    assert tiny == pytest.approx(cold, rel=1e-12)


def test_thermal_weight_is_coth_of_hbar_omega_over_k_B_T():
    omega = np.array([CONST.k_B * WARM.T_K / CONST.hbar])
    assert harmonic._thermal_weight(omega, WARM)[0] == pytest.approx(
        1.0 / math.tanh(1.0), rel=1e-15)


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
        assert r == pytest.approx(expected, rel=1e-9)


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
        assert r == pytest.approx(coherence_ratio(sd, env, float(t)), rel=1e-10)


def test_long_curve_splits_times_into_bounded_passes(monkeypatch):
    # 237 seed panels per pass: a store of 900 values takes 3 times a pass
    whole = decoherence_curve(SD_QUADRATIC, WARM, 1e-11, 9)
    rows = []
    original = harmonic._exponent_integrand

    def spy(sd, env, times):
        rows.append(times.size)
        return original(sd, env, times)

    monkeypatch.setattr(harmonic, "_exponent_integrand", spy)
    monkeypatch.setattr(harmonic, "_PASS_ELEMS", 900)
    split = decoherence_curve(SD_QUADRATIC, WARM, 1e-11, 9)
    assert rows == [3, 3, 2]
    np.testing.assert_allclose(split.ratio, whole.ratio, rtol=1e-10, atol=0.0)


def test_intervals_of_a_table_are_its_knot_pairs():
    assert harmonic._intervals(SD_TABLE) == list(zip(TABLE_OMEGA[:-1], TABLE_OMEGA[1:]))


@pytest.mark.parametrize(
    "sd, cutoff",
    [(SD_CUBIC, lambda s: math.exp(-s * s)), (SD_EXPONENTIAL, lambda s: math.exp(-s))],
    ids=["gaussian", "exponential"],
)
def test_intervals_of_a_parametric_form_end_where_the_cutoff_is_1e_30(sd, cutoff):
    [(lo, hi)] = harmonic._intervals(sd)
    assert lo == 0.0
    assert cutoff(hi / sd.cutoff_rad_per_s) == pytest.approx(1e-30, rel=1e-12)


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
