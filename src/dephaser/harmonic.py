"""Coherence of a two-level system in time, and the time grid it is sampled on.

Two regimes share the uniform grid over [0, t_max]:

* Exact, for a purely harmonic reservoir. The off-diagonal density-matrix
  element never decays exponentially; its modulus follows

      |rho_01(t)| / |rho_01(0)| = exp[-2 Int dw w_th(w) J(w) sin^2(wt/2)/(hbar w)^2]

  with the thermal weight w_th(w) = coth(hbar w/(k_B T)). For super-Ohmic
  reservoirs the exponent saturates and the coherence reaches a finite
  plateau (partial dephasing); for Ohmic reservoirs at T > 0 the exponent
  grows without bound. The weight depends on T alone, so the other common
  convention, coth(hbar w/(2 k_B T)), is the same computation at twice the
  temperature: pass 2T for it.

* Markov limit, exponential at the rate gamma. The generator is the
  pure-dephasing Lindblad form

      d rho/dt = -(i/hbar) [H0, rho] + (gamma/2) (sigma_z rho sigma_z - rho)

  with H0 = -(1/2) E sigma_z. Populations are conserved; the coherence
  rotates at E/hbar and decays at gamma, so |rho_01| reaches 1/e of its
  initial value at t = 1/gamma, the operational definition of T2. Basis
  ordering puts |0> first, which fixes the coherence phase to
  rho_01(t) = rho_01(0) exp(+i E t/hbar) exp(-gamma t); only the modulus
  is ever compared against the rate engine.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .coupling import SpectralDensity, spectral_density
from .model import CONST, ThermalEnv
from .quadrature import QuadratureConfig, integrate
from .specfun import _sin_sq

_EXP_CFG = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-10)
# Bound on times x seed panels in one batched pass: the engine keeps a value
# and an error per time and panel, 8 MB each at this size.
_PASS_ELEMS = 1 << 20
# A parametric density's support ends where at most this share of the
# exponent's envelope lies past it, at every time and for the plateau.
_TAIL_SHARE = 1e-12


def uniform_times(t_max: float, points: int) -> np.ndarray:
    """Uniform grid of points times over [0, t_max], ending exactly at t_max.

    t_max = 0 or a single point gives the one sample t = 0.
    """
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool):
        raise ValueError("points must be an integer")
    if points < 1:
        raise ValueError("points must be >= 1")
    if not math.isfinite(t_max) or t_max < 0.0:
        raise ValueError("t_max must be finite and >= 0")
    if t_max == 0.0 or points == 1:
        return np.array([0.0])
    times = t_max * np.arange(points) / (points - 1)
    times[-1] = t_max
    return times


def _thermal_weight(omega: np.ndarray, env: ThermalEnv) -> np.ndarray:
    if env.T_K == 0.0:
        return np.ones_like(omega)
    return 1.0 / np.tanh(CONST.hbar * omega / (CONST.k_B * env.T_K))


def _log_tail_bound(a: float, x: float) -> float:
    """ln of an upper bound on Q(a, x) = Gamma(a, x)/Gamma(a), for a >= 1, x > a - 1.

    Past x, ln u <= ln x + (u - x)/x, so u^(a-1) e^-u <= x^(a-1) e^-x
    e^(-(u-x)(1 - (a-1)/x)), which integrates to Gamma(a, x) <= x^a e^-x/(x - a + 1).
    The bound exceeds Q by at most the factor x/(x - a + 1).
    """
    return a * math.log(x) - x - math.log(x - a + 1.0) - math.lgamma(a)


def _intervals(sd: SpectralDensity) -> list:
    """The pieces (lo, hi) over which sd is integrated, and the only rule for them.

    A tabulated density goes from knot to knot, so no panel straddles a
    kink of the interpolated table. A parametric one is one piece
    [0, s w_c]: s is the smallest edge at which the bound below puts the
    dropped share of the exponent at or under _TAIL_SHARE, for every time
    of a pass, every temperature and the plateau.

    The bound. Write J = A w^n c(w/w_c). The exponent at time t integrates
    w_th J h/(hbar w)^2 with h = sin^2(wt/2); the plateau's has h = 1/2.
    Bound h by e = min(1, (wt/2)^2). Then w_th e/w^2 does not increase
    with w: neither factor does, the thermal weight coth(hbar w/(k_B T))
    included. Weighting J by a non-increasing function moves its mass
    toward w = 0, so the share of the integral of w_th J e/w^2 beyond
    s w_c is at most J's own share: Q(n+1, s) for c(u) = e^-u,
    Q((n+1)/2, s^2) for c(u) = e^-u^2 (Q the regularized upper incomplete
    gamma function, Abramowitz & Stegun 6.5). J/w^2's share rules the
    long times and the plateau (e = 1 beyond w = 2/t). It is Q(n-1, s) or
    Q((n-1)/2, s^2), and never the larger, since Q(a, x) grows with a.
    So the thermal weight needs no factor of its own, and s depends on
    the form and n alone.

    Hence at every t the dropped part is at most _TAIL_SHARE of the
    envelope exponent, the integral of w_th J e/(hbar w)^2. The envelope
    tends to the exponent as t -> 0, and to twice it at long times and
    for the plateau, where sin^2 averages 1/2. Measured against the
    exponent itself (Gauss-Legendre, 0.001 <= t w_c <= 200, T = 0), the
    dropped share peaks at the shortest times, at J's share, for n <= 40.
    A Gaussian cut-off at n = 100 reaches 8.5e-12 at t w_c = 0.89, where
    its narrow bulk sits on a zero of sin^2. Both are far inside the
    passes' 1e-10.

    Q comes from _log_tail_bound, and the edge from bisection: 36.7 w_c
    for the exponential cut-off at n = 3 and 5.43 w_c for the Gaussian at
    n = 2, where mpmath's exact Q gives 36.73 and 5.428.
    """
    if sd.form == "tabulated":
        knots = sd.table_omega_rad_per_s
        return list(zip(knots[:-1], knots[1:]))
    gaussian = sd.form == "power-law-gaussian-cutoff"
    a = 0.5 * (sd.exponent + 1.0) if gaussian else sd.exponent + 1.0
    goal = math.log(_TAIL_SHARE)
    # bisect on x = s^2 (Gaussian) or s (exponential), from x = a
    lo, hi = a, 2.0 * a + 64.0
    while _log_tail_bound(a, hi) > goal:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if _log_tail_bound(a, mid) > goal:
            lo = mid
        else:
            hi = mid
    return [(0.0, sd.cutoff_rad_per_s * (math.sqrt(hi) if gaussian else hi))]


def _over_spectrum(pieces: list, integrand, cfg: QuadratureConfig):
    """Integral of integrand(omega) over the pieces of _intervals, one call each."""
    return sum(integrate(integrand, lo, hi, cfg).value for lo, hi in pieces)


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
    pi/max(t) wide over each piece of _intervals(sd), fine enough for
    the fastest oscillation; a parametric density's one piece drops at
    most 1e-12 of each time's envelope exponent (see there). A pass takes
    as many times as keep its (times x seed panels) store within
    _PASS_ELEMS: all of them unless the seed panels number in the
    thousands. t = 0 gives exactly 1.
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
            exponents[rows] = _over_spectrum(pieces, integrand, cfg)
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

    Replaces sin^2(wt/2) by its mean 1/2. For a parametric J = A w^n c(w/w_c)
    the weight w_th J/(hbar w)^2 goes as lead w^(q-1) at w -> 0, with
    q = n - 2, lead = A k_B T/hbar^3 at T > 0 and q = n - 1, lead = A/hbar^2
    at T = 0. For q <= 0 the integral diverges at w = 0 and None is returned
    (the coherence decays to zero instead). For 0 < q < 1 the weight is
    integrable but unbounded there, which the engine cannot resolve: on
    [0, w0], w0 = min(w_c, k_B T/hbar), lead w0^q/q is added in closed form
    and the engine integrates weight - lead w^(q-1), which vanishes as w^q.
    For q >= 1 the weight is bounded and is integrated as it stands.
    Tabulated densities have support bounded away from zero frequency, so
    their plateau is always finite. The integral runs over the pieces of
    _intervals(sd), the curve's; for a parametric density at most 1e-12
    of it lies beyond (J/w^2's tail share, bounded there).
    """
    def integrand(omega: np.ndarray) -> np.ndarray:
        return _spectral_weight(sd, env, omega)

    if sd.form != "tabulated":
        if sd.amplitude == 0.0:
            return 1.0
        warm = env.T_K > 0.0
        q = sd.exponent - (2.0 if warm else 1.0)
        if q <= 0.0:
            return None
        if q < 1.0:
            thermal = CONST.k_B * env.T_K / CONST.hbar if warm else math.inf
            lead = sd.amplitude / CONST.hbar**2 * (thermal if warm else 1.0)
            w0 = min(sd.cutoff_rad_per_s, thermal)
            [(_, top)] = _intervals(sd)

            def rest(omega: np.ndarray) -> np.ndarray:
                return integrand(omega) - lead * omega ** (q - 1.0)

            return math.exp(-(lead * w0**q / q + integrate(rest, 0.0, w0, _EXP_CFG).value
                              + integrate(integrand, w0, top, _EXP_CFG).value))

    return math.exp(-_over_spectrum(_intervals(sd), integrand, _EXP_CFG))


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


_PSD_TOL = 1e-12

# A rate above this puts T2 under 10 ps, comparable to the reservoir memory
# time, where the time-local (Markovian) description loses its premise.
MARKOV_RATE_LIMIT_PER_S = 1e11


class MarkovValidityWarning(UserWarning):
    """T2 is not long compared to the reservoir memory time."""


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix, stored as its population rho00 and coherence rho01.

    rho10 = conj(rho01) and rho11 = 1 - rho00 are derived, so the matrix is
    Hermitian with unit trace by construction. Positive semidefinite means
    |rho01|^2 <= rho00 (1 - rho00), checked to within 1e-12; this also puts
    rho00 in [0, 1].
    """

    rho00: float
    rho01: complex

    def __post_init__(self):
        object.__setattr__(self, "rho00", float(self.rho00))
        object.__setattr__(self, "rho01", complex(self.rho01))
        if not all(map(math.isfinite, (self.rho00, self.rho01.real, self.rho01.imag))):
            raise ValueError("density matrix entries must be finite")
        if abs(self.rho01) ** 2 > self.rho00 * (1.0 - self.rho00) + _PSD_TOL:
            raise ValueError("density matrix must be positive semidefinite")

    @property
    def rho10(self) -> complex:
        return self.rho01.conjugate()

    @property
    def rho11(self) -> float:
        return 1.0 - self.rho00


@dataclass(frozen=True)
class LindbladParams:
    """Dephasing rate and level splitting of the two-level system."""

    gamma_per_s: float
    level_splitting_E_J: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gamma_per_s) or self.gamma_per_s < 0.0:
            raise ValueError("gamma_per_s must be finite and >= 0")
        if not math.isfinite(self.level_splitting_E_J):
            raise ValueError("level_splitting_E_J must be finite")
        if self.gamma_per_s > MARKOV_RATE_LIMIT_PER_S:
            warnings.warn(
                f"gamma = {self.gamma_per_s:.3e} 1/s gives T2 < 10 ps, "
                "comparable to the reservoir memory time; the Markovian "
                "description is marginal",
                MarkovValidityWarning,
                stacklevel=3,
            )


def _coherence_factor(p: LindbladParams, t):
    """rho_01(t)/rho_01(0) = exp(L01 t), for scalar or array t.

    L01 = i E/hbar - gamma. For diagonal H0 = diag(-E/2, +E/2) and the
    sigma_z channel the generator acts entrywise, L_ij = -(i/hbar)(H_i - H_j)
    + (gamma/2)(sz_i sz_j - 1): L00 = L11 = 0 and L10 = conj(L01), so rho_01
    is the one entry that moves.
    """
    return np.exp((1j * p.level_splitting_E_J / CONST.hbar - p.gamma_per_s) * t)


def evolve_analytic(rho0: DensityMatrix2, p: LindbladParams,
                    t: float) -> DensityMatrix2:
    """Closed-form evolution: populations fixed, coherence rotated and damped."""
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")
    factor = complex(_coherence_factor(p, t))
    return DensityMatrix2(rho00=rho0.rho00, rho01=rho0.rho01 * factor)


@dataclass(frozen=True)
class Trajectory2:
    """Sampled analytic evolution of one initial state; rho11 = 1 - rho00."""

    times_s: np.ndarray
    rho00: np.ndarray
    rho01: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a non-empty 1-D array")
        for name in ("times_s", "rho00", "rho01"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != t.shape:
                raise ValueError("trajectory columns must share one shape")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def rho11(self) -> np.ndarray:
        return 1.0 - self.rho00


def trajectory(rho0: DensityMatrix2, p: LindbladParams, t_max: float,
               points: int) -> Trajectory2:
    """Analytic trajectory on a uniform grid over [0, t_max]."""
    times = uniform_times(t_max, points)
    factor = _coherence_factor(p, times)
    return Trajectory2(
        times_s=times,
        rho00=np.full(times.shape, rho0.rho00),
        rho01=rho0.rho01 * factor,
    )
