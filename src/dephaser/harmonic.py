"""Exact harmonic-reservoir decoherence of a two-level system.

For a purely harmonic reservoir the off-diagonal density-matrix element
never decays exponentially; its modulus follows

    |rho_01(t)| / |rho_01(0)| = exp[-2 Int dw w_th(w) J(w) sin^2(wt/2)/(hbar w)^2]

with the thermal weight w_th(w) = coth(hbar w/(k_B T)). For super-Ohmic
reservoirs the exponent saturates and the coherence reaches a finite
plateau (partial dephasing); for Ohmic reservoirs at T > 0 the exponent
grows without bound.

The weight depends on T alone, so the other common convention,
coth(hbar w/(2 k_B T)), is the same computation at twice the temperature:
pass 2T for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coupling import SpectralDensity, spectral_density
from .model import CONST, ThermalEnv, uniform_times
from .quadrature import _TRUNC_SIGMA, QuadratureConfig, integrate
from .specfun import _sin_sq

_EXP_CFG = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-10)
# Bound on times x seed panels in one batched pass: the engine keeps a value
# and an error per time and panel, 8 MB each at this size.
_PASS_ELEMS = 1 << 20


def _thermal_weight(omega: np.ndarray, env: ThermalEnv) -> np.ndarray:
    if env.T_K == 0.0:
        return np.ones_like(omega)
    return 1.0 / np.tanh(CONST.hbar * omega / (CONST.k_B * env.T_K))


def _intervals(sd: SpectralDensity) -> list:
    """The pieces (lo, hi) over which sd is integrated, and the only rule for them.

    A tabulated density goes from knot to knot, so no panel straddles a
    kink of the interpolated table. A parametric one is one piece [0, W],
    W the point where its cut-off falls to 1e-30: exp(-s^2) at
    s = _TRUNC_SIGMA, exp(-s) at s = _TRUNC_SIGMA^2 (s = w/w_c).
    """
    if sd.form == "tabulated":
        knots = sd.table_omega_rad_per_s
        return list(zip(knots[:-1], knots[1:]))
    edge = sd.cutoff_rad_per_s * _TRUNC_SIGMA
    if sd.form == "power-law-exponential-cutoff":
        edge *= _TRUNC_SIGMA
    return [(0.0, edge)]


def _over_spectrum(sd: SpectralDensity, integrand, cfg: QuadratureConfig):
    """Integral of integrand(omega) over the support of sd, piece by piece."""
    return sum(integrate(integrand, lo, hi, cfg).value for lo, hi in _intervals(sd))


def _spectral_weight(sd: SpectralDensity, env: ThermalEnv,
                     omega: np.ndarray) -> np.ndarray:
    """w_th(w) J(w)/(hbar w)^2, the weight of sin^2(wt/2) in the exponent."""
    return (_thermal_weight(omega, env) * spectral_density(sd, omega)
            / (CONST.hbar * omega) ** 2)


def _exponent_integrand(sd: SpectralDensity, env: ThermalEnv, times: np.ndarray):
    """Integrand of the decoherence exponent, one row per time."""
    half_t = 0.5 * times

    def integrand(omega: np.ndarray) -> np.ndarray:
        factor = 2.0 * _spectral_weight(sd, env, omega)
        osc = np.multiply.outer(half_t, omega)
        with np.errstate(divide="ignore"):
            _sin_sq(osc, osc)
        osc *= factor
        return osc

    return integrand


def _ratios(sd: SpectralDensity, env: ThermalEnv, times: np.ndarray) -> np.ndarray:
    """Coherence ratio at every time; the times share each quadrature pass.

    The time-independent factor 2 w_th J/(hbar w)^2 is evaluated once per
    node and multiplied by sin^2(wt/2) (specfun._sin_sq) for every time of
    a pass; each time keeps its own error estimate. Seed panels are
    pi/max(t) wide over each piece of _intervals(sd), fine enough for the
    fastest oscillation. A pass takes as many times as keep
    its (times x seed panels) store within _PASS_ELEMS: all of them unless
    the seed panels number in the thousands. t = 0 gives exactly 1.
    """
    exponents = np.zeros(times.shape)
    positive = np.flatnonzero(times > 0.0)
    if positive.size and (sd.form == "tabulated" or sd.amplitude != 0.0):
        cfg = replace(_EXP_CFG, panel_hint=math.pi / times.max())
        pieces = _intervals(sd)
        span = pieces[-1][1] - pieces[0][0]
        per_pass = max(1, int(_PASS_ELEMS / (span / cfg.panel_hint + 1.0)))
        for rows in np.split(positive, range(per_pass, positive.size, per_pass)):
            integrand = _exponent_integrand(sd, env, times[rows])
            exponents[rows] = _over_spectrum(sd, integrand, cfg)
    return np.exp(-exponents)


def coherence_ratio(sd: SpectralDensity, env: ThermalEnv, t: float) -> float:
    """|rho_01(t)|/|rho_01(0)| for the harmonic reservoir, in [0, 1].

    t = 0 returns exactly 1; 0.0 means exp(-exponent) underflowed (an
    exponent above about 745). The integrand vanishes as w^(n-1) at the
    origin for parametric J, so every finite-time value exists even when
    the long-time limit diverges.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")
    return float(_ratios(sd, env, np.array([float(t)]))[0])


def asymptotic_coherence(sd: SpectralDensity, env: ThermalEnv) -> Optional[float]:
    """Long-time coherence plateau, or None when no finite plateau exists.

    Replaces sin^2(wt/2) by its mean 1/2. The limit is finite for
    parametric exponents n > 2 at T > 0 and n > 1 at T = 0; at the
    boundary values the integral diverges logarithmically at w = 0 and
    None is returned (the coherence decays to zero instead). Tabulated
    densities have support bounded away from zero frequency, so their
    plateau is always finite.
    """
    if sd.form != "tabulated":
        if sd.amplitude == 0.0:
            return 1.0
        divergent = (env.T_K > 0.0 and sd.exponent <= 2.0) or (
            env.T_K == 0.0 and sd.exponent <= 1.0
        )
        if divergent:
            return None

    def integrand(omega: np.ndarray) -> np.ndarray:
        return _spectral_weight(sd, env, omega)

    return math.exp(-_over_spectrum(sd, integrand, _EXP_CFG))


@dataclass(frozen=True)
class DecoherenceCurve:
    """Sampled coherence ratio versus time with its long-time plateau.

    plateau is None when the exponent diverges (no partial dephasing,
    full decay). A ratio of 0.0 means exp(-exponent) underflowed.
    """

    times_s: np.ndarray
    ratio: np.ndarray
    plateau: Optional[float]

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        r = np.asarray(self.ratio, dtype=float)
        if t.ndim != 1 or t.shape != r.shape or t.size == 0:
            raise ValueError("times and ratio must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r))):
            raise ValueError("times and ratio must be finite")
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise ValueError("coherence ratio must lie in [0, 1]")
        t = t.copy()
        r = r.copy()
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "ratio", r)


def decoherence_curve(sd: SpectralDensity, env: ThermalEnv, t_max: float,
                      points: int) -> DecoherenceCurve:
    """Sample the coherence ratio on a uniform grid over [0, t_max].

    t_max = 0 produces the single trivial sample at t = 0. The points share
    batched quadrature passes (see _ratios), one unless the curve is very
    long; the curve is deterministic and uses no threads.
    """
    times = uniform_times(t_max, points)
    return DecoherenceCurve(times_s=times, ratio=_ratios(sd, env, times),
                            plateau=asymptotic_coherence(sd, env))
