"""Acceptance gate: one test per shipped claim, run with pytest -v.

Each test name carries its criterion number, so the verbose pytest line
is the pass/fail record. One criterion, 05a, is expected to fail today
and is left failing on purpose; see README.md (documented result gaps)
for the measured value and why its cause is not settled. Weakening the
asserted window would hide a real property of the implemented model.

Criterion 02 checks the T^7 law where the model says it holds, well
below the crossover temperature T_D = hbar c / (k_B D); above T_D the
local exponent is lower (5.27 over 1-5 K at D = 10 nm).
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from dephaser.coupling import SpectralDensity
from dephaser.harmonic import (
    DensityMatrix2,
    LindbladParams,
    asymptotic_coherence,
    coherence_ratio,
    evolve_analytic,
    trajectory,
)
from dephaser.model import CONST, GAAS, DotGeometry, ThermalEnv
from dephaser.rates import (
    rate_closed_form,
    rate_double_integral,
    rate_monte_carlo,
)
from dephaser.specfun import bose_fifth_moment
from lindblad_reference import master_equation_state
from dephaser.sweep import (
    AXIS_TEMPERATURE,
    SweepSpec,
    fit_log_law,
    fit_power_law,
    run_sweep,
)

L_REF = 4e-9
GEOM_REF = DotGeometry(width_L_m=L_REF, separation_D_m=10e-9)


def test_criterion_01_three_route_equivalence():
    # 4 x 4 grid, 10^7 Monte Carlo samples per point; runs in about 8 s
    # on two cores, far under the five-minute budget
    for T in (20.0, 50.0, 100.0, 300.0):
        for D in (6e-9, 10e-9, 50e-9, 500e-9):
            geom = DotGeometry(width_L_m=L_REF, separation_D_m=D)
            env = ThermalEnv(T_K=T)
            closed = rate_closed_form(GAAS, geom, env)
            double = rate_double_integral(GAAS, geom, env)
            mc = rate_monte_carlo(GAAS, geom, env, samples=10**7)
            ref = closed.gamma_per_s
            rel_double = abs(ref - double.gamma_per_s) / ref
            rel_mc = abs(ref - mc.gamma_per_s) / ref
            allowance = max(0.05, 3.0 * mc.mc_std_error_per_s / ref)
            assert rel_double <= 0.01, (
                f"T={T} K D={D*1e9:.0f} nm: closed vs double {rel_double:.3e}"
            )
            assert rel_mc <= allowance, (
                f"T={T} K D={D*1e9:.0f} nm: closed vs monte-carlo "
                f"{rel_mc:.4f} > allowance {allowance:.4f}"
            )


def test_criterion_02_low_temperature_power_law():
    # T^7 is the T -> 0 asymptote: T^5 from the (k_B T / hbar Omega)^5
    # prefactor times T^2 from 1 - sin(ax)/(ax) ~ (ax)^2 / 6, which needs
    # the thermal phonon wavelength to exceed D, i.e. T << T_D =
    # hbar c / (k_B D) = 3.93 K at D = 10 nm. The fit window is
    # [T_D/400, T_D/80] (about 0.01-0.05 K); over 1-5 K, which straddles
    # T_D, the local slope is 5.27 (README, documented result gaps)
    D = 10e-9
    t_d = CONST.hbar * GAAS.c_sound_m_per_s / (CONST.k_B * D)
    t_lo, t_hi = t_d / 400.0, t_d / 80.0
    spec = SweepSpec(axis=AXIS_TEMPERATURE, min_value=t_lo, max_value=t_hi,
                     points=9, fixed_D_m=D, width_L_m=L_REF)
    pts = [(p.axis_value, p.result.gamma_per_s) for p in run_sweep(spec)]
    fit = fit_power_law(pts, (0.9 * t_lo, 1.1 * t_hi))
    assert abs(fit.slope - 7.0) <= 0.3, (
        f"ln gamma vs ln T slope over [{t_lo:.4g}, {t_hi:.4g}] K is "
        f"{fit.slope:.4f}, outside 7.0 +- 0.3"
    )


def test_criterion_03_quadratic_small_separation():
    env = ThermalEnv(T_K=50.0)
    ratios = []
    for frac in (0.05, 0.1, 0.2):
        D = frac * L_REF
        geom = DotGeometry(width_L_m=L_REF, separation_D_m=D)
        gamma = rate_closed_form(GAAS, geom, env).gamma_per_s
        ratios.append(gamma / D**2)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    assert spread < 0.05, f"gamma/D^2 spread {spread:.4f} >= 5%"


def test_criterion_04_logarithmic_large_separation():
    env = ThermalEnv(T_K=50.0)
    seps = np.geomspace(50.0 * L_REF, 500.0 * L_REF, 8)
    pts = [
        (float(D),
         rate_closed_form(GAAS, DotGeometry(L_REF, float(D)), env).gamma_per_s)
        for D in seps
    ]
    fit = fit_log_law(pts, (10.0 * L_REF, 1000.0 * L_REF))
    mean_gamma = float(np.mean([y for _, y in pts]))
    assert fit.residual_rms < 0.03 * mean_gamma, (
        f"log-law residual {fit.residual_rms:.3e} >= 3% of mean "
        f"{mean_gamma:.3e}"
    )


def test_criterion_05a_picosecond_anchor_100k():
    # documented result gap: the implemented rate gives 0.961 ps here,
    # about 4 % below the asserted [1, 30] ps window. All three routes and
    # the scipy oracle agree, so the miss is the model's overall scale or
    # the window itself; which one cannot be settled until the text of
    # Eq. (8) and the paper's parameter values are in the repository
    t2 = rate_closed_form(GAAS, GEOM_REF, ThermalEnv(T_K=100.0)).t2_s
    assert 1e-12 <= t2 <= 30e-12, f"T2(100 K) = {t2*1e12:.4f} ps not in [1, 30] ps"


def test_criterion_05b_nanosecond_anchor_20k():
    t2 = rate_closed_form(GAAS, GEOM_REF, ThermalEnv(T_K=20.0)).t2_s
    assert 0.1e-9 <= t2 <= 100e-9, f"T2(20 K) = {t2*1e9:.4f} ns not in [0.1, 100] ns"


def test_criterion_06_size_sensitivity_decays_with_distance():
    env = ThermalEnv(T_K=50.0)
    sensitivities = []
    for D in (100e-9, 300e-9, 1000e-9):
        g4 = rate_closed_form(GAAS, DotGeometry(4e-9, D), env).gamma_per_s
        g8 = rate_closed_form(GAAS, DotGeometry(8e-9, D), env).gamma_per_s
        sensitivities.append(abs(g4 - g8) / g4)
    assert sensitivities[0] > sensitivities[1] > sensitivities[2], (
        f"sensitivity sequence {sensitivities} is not decreasing"
    )


def test_criterion_07_exact_degenerate_cases():
    frozen = ThermalEnv(T_K=0.0)
    merged = DotGeometry(width_L_m=L_REF, separation_D_m=0.0)
    warm = ThermalEnv(T_K=100.0)
    for route in (rate_closed_form, rate_double_integral):
        assert route(GAAS, GEOM_REF, frozen).gamma_per_s == 0.0
        assert route(GAAS, merged, warm).gamma_per_s == 0.0
    assert rate_monte_carlo(GAAS, GEOM_REF, frozen,
                            samples=10**4).gamma_per_s == 0.0
    assert rate_monte_carlo(GAAS, merged, warm,
                            samples=10**4).gamma_per_s == 0.0


def test_criterion_08_thermal_integral_anchors():
    # package-independent brute force: scipy quadrature of the integrand
    # and a direct zeta(5) partial sum
    brute, _ = quad(lambda u: u**5 / (4.0 * math.sinh(0.5 * u) ** 2),
                    0.0, 120.0, limit=1000)
    zeta5 = sum(1.0 / n**5 for n in range(1, 200001))
    assert brute == pytest.approx(120.0 * zeta5, rel=1e-8, abs=0)
    series = 0.2**4 / 4.0 - 0.2**6 / 72.0 + 0.2**8 / 1920.0
    assert bose_fifth_moment(0.2) == pytest.approx(series, rel=1e-6, abs=0)
    assert series == pytest.approx(3.9911e-4, rel=1e-4, abs=0)


def test_criterion_09_master_equation_suite():
    # the reference solves the master equation as written, with H0 and sigma_z
    gamma = 1e9
    p = LindbladParams(gamma_per_s=gamma, level_splitting_E_J=2e-25)
    rho0 = DensityMatrix2(0.6, 0.3 + 0.2j)
    traj = trajectory(rho0, p, 10.0 / gamma, 21)  # gamma t = 0, 0.5, ..., 10
    for gamma_t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        row = round(2.0 * gamma_t)
        t = traj.times_s[row]
        assert t == pytest.approx(gamma_t / gamma, rel=1e-15, abs=0)
        ref = master_equation_state(rho0, p, t)
        exact = evolve_analytic(rho0, p, t)
        for rho00, rho01 in ((exact.rho00, exact.rho01),
                             (traj.rho00[row], traj.rho01[row])):
            assert abs(rho01 - ref[0, 1]) < 1e-8
            assert abs(rho00 - ref[0, 0]) < 1e-12
            assert abs((1.0 - rho00) - ref[1, 1]) < 1e-12
        assert abs(ref[0, 0] - rho0.rho00) < 1e-12
        assert abs(ref[1, 1] - rho0.rho11) < 1e-12
    t2 = 1.0 / gamma
    for at_t2 in (master_equation_state(rho0, p, t2)[0, 1],
                  evolve_analytic(rho0, p, t2).rho01):
        assert abs(at_t2) / abs(rho0.rho01) == pytest.approx(1.0 / math.e, rel=1e-9, abs=0)


def test_criterion_10_harmonic_plateau_dichotomy():
    super_ohmic = SpectralDensity(form="power-law-gaussian-cutoff",
                                  amplitude=1e-82, exponent=2.0,
                                  cutoff_rad_per_s=1e13)
    cold = ThermalEnv(T_K=0.0)
    plateau = asymptotic_coherence(super_ohmic, cold)
    assert plateau is not None
    late = coherence_ratio(super_ohmic, cold, 100.0 / 1e13)
    assert late == pytest.approx(plateau, rel=0.01, abs=0)

    ohmic = SpectralDensity(form="power-law-gaussian-cutoff",
                            amplitude=1e-70, exponent=1.0,
                            cutoff_rad_per_s=1e13)
    assert asymptotic_coherence(ohmic, ThermalEnv(T_K=77.0)) is None


def _cli(argv, threads):
    env = dict(os.environ, DEPHASER_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "dephaser.cli"] + argv,
                          capture_output=True, env=env, timeout=300)


def test_criterion_11_cli_byte_determinism(tmp_path):
    jobs = [
        (["rate", "--T", "40", "--L", "4e-9", "--D", "10e-9", "--method",
          "mc", "--samples", "2500000", "--seed", "7"], "rate.csv"),
        (["sweep", "--axis", "T", "--min", "20", "--max", "80", "--points",
          "4", "--log", "--L", "4e-9", "--D", "10e-9"], "sweep.csv"),
        (["curve", "--spectral", "power-law-gaussian-cutoff", "--A", "1e-82",
          "--n", "2", "--omega-c", "1e13", "--T", "77", "--tmax", "1e-12",
          "--points", "6"], "curve.csv"),
    ]
    for argv, name in jobs:
        paths = []
        for tag, threads in (("a", "1"), ("b", "6"), ("c", "6")):
            path = tmp_path / f"{tag}_{name}"
            run = _cli(argv + ["--out", str(path)], threads)
            assert run.returncode == 0, run.stderr.decode()
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2], f"{name} bytes differ"
