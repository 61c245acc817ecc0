"""Markovian pure-dephasing rate of the double dot by three independent routes.

All routes compute the same physical rate gamma = 1/T2:

* ``rate_closed_form``: the one-dimensional reduced integral over the
  Gaussian-damped wavefunction form factor times a difference of cumulative
  Bose fifth moments.
* ``rate_double_integral``: the two-dimensional thermal-shell form the
  closed form is obtained from by integration by parts plus extending the
  form-factor limit to infinity.
* ``rate_monte_carlo``: importance-sampled evaluation of the underlying
  six-dimensional two-mode scattering integral with the energy-conservation
  delta resolved analytically (one radial magnitude, two independent unit
  directions remain).

Cross-agreement of the three is the package's main correctness argument;
``rate_validate`` runs it on demand.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import CONST
from .model import DotGeometry, MaterialParams, ThermalEnv, coupling_scale, derived_scales
from .quadrature import NonConvergence, QuadratureConfig, integrate, integrate_nested
from .runtime import worker_count
from .specfun import _moment_bracket, sinc_deficit

METHOD_CLOSED = "closed-form"
METHOD_DOUBLE = "double-integral"
METHOD_MC = "monte-carlo"
METHODS = (METHOD_CLOSED, METHOD_DOUBLE, METHOD_MC)

# Beyond this the Gaussian form factor exp(-x^2) is below 1e-31.
_FORM_FACTOR_CUT = 8.5

_MIN_MC_SAMPLES = 10**4
_MC_BLOCK = 1 << 20
_MC_DRAWS = 5  # uniforms consumed per sample: radial + two directions
_MC_CELLS = 10**4


class CutoffValidityWarning(UserWarning):
    """The form-factor limits were extended to infinity outside their regime."""


class ValidationFailed(Exception):
    """Cross-route agreement check failed; carries the full report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class RateResult:
    """A dephasing rate with its inverse and an accuracy statement.

    t2_s is 1/gamma_per_s, or +inf when the rate vanishes exactly.
    error_estimate_per_s is the quadrature error bound for deterministic
    routes and equals mc_std_error_per_s for the Monte Carlo route.
    """

    gamma_per_s: float
    t2_s: float
    method: str
    error_estimate_per_s: float
    mc_std_error_per_s: Optional[float] = None

    def __post_init__(self):
        if not (self.gamma_per_s >= 0.0) or not math.isfinite(self.gamma_per_s):
            raise ValueError("gamma_per_s must be finite and >= 0")
        if self.gamma_per_s == 0.0:
            if not math.isinf(self.t2_s):
                raise ValueError("t2_s must be +inf when the rate vanishes")
        elif abs(self.t2_s * self.gamma_per_s - 1.0) > 1e-12:
            raise ValueError("t2_s must equal 1/gamma_per_s")


def _result(gamma: float, method: str, err: float,
            mc_se: Optional[float] = None) -> RateResult:
    return RateResult(
        gamma_per_s=gamma,
        t2_s=1.0 / gamma if gamma > 0.0 else math.inf,
        method=method,
        error_estimate_per_s=err,
        mc_std_error_per_s=mc_se,
    )


def _check_narrow_cutoff(root2_kdl: float) -> None:
    if root2_kdl < 10.0:
        warnings.warn(
            f"sqrt(2) k_D L = {root2_kdl:.3g} < 10: extending the form-factor "
            "limit to infinity is marginal here",
            CutoffValidityWarning,
            stacklevel=3,
        )


def rate_closed_form(material: MaterialParams, geom: DotGeometry,
                     env: ThermalEnv) -> RateResult:
    """Dephasing rate from the reduced one-dimensional integral.

    gamma = prefactor * Int_0^inf dx/x exp(-x^2) (1 - sin(a x)/(a x))
            * [moment(x_D) - moment(x x_D / (sqrt(2) k_D L))]

    with a = sqrt(2) D/L and x_D the Debye cutoff in thermal units. The
    infinite limit is truncated where the Gaussian is below 1e-31 or at
    the exact form-factor limit sqrt(2) k_D L, whichever is smaller.
    T = 0 and D = 0 short-circuit to a vanishing rate.
    """
    if env.T_K == 0.0 or geom.separation_D_m == 0.0:
        return _result(0.0, METHOD_CLOSED, 0.0)
    p = derived_scales(material, geom, env)
    root2_kdl = math.sqrt(2.0) * p.kd_l
    _check_narrow_cutoff(root2_kdl)
    alpha = p.sep_ratio
    ratio = p.x_debye / root2_kdl

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.exp(-x * x) / x * sinc_deficit(alpha * x) * _moment_bracket(
            p.x_debye, x * ratio)

    cfg = QuadratureConfig(
        abs_tol=1e-250,
        rel_tol=1e-8,
        panel_hint=min(0.5, math.pi / alpha),
    )
    upper = min(_FORM_FACTOR_CUT, root2_kdl)
    try:
        quad = integrate(integrand, 0.0, upper, cfg)
    except NonConvergence as exc:
        raise NonConvergence(
            f"{METHOD_CLOSED} rate at T_K={env.T_K}, width_L_m={geom.width_L_m}, "
            f"separation_D_m={geom.separation_D_m}: {exc}"
        ) from exc
    return _result(p.prefactor_per_s * quad.value, METHOD_CLOSED,
                   p.prefactor_per_s * quad.abs_error_estimate)


def rate_double_integral(material: MaterialParams, geom: DotGeometry,
                         env: ThermalEnv) -> RateResult:
    """Dephasing rate from the two-dimensional thermal-shell integral.

    gamma = prefactor * Int_0^{x_D} dx x^5 e^x/(e^x-1)^2
            * Int_0^{sqrt(2) k_D L x/x_D} dt/t exp(-t^2) (1 - sin(a t)/(a t))

    The Bose weight is evaluated as x^5 e^(-x)/expm1(-x)^2, which underflows
    to an exact zero far beyond the thermal peak instead of overflowing.
    """
    if env.T_K == 0.0 or geom.separation_D_m == 0.0:
        return _result(0.0, METHOD_DOUBLE, 0.0)
    p = derived_scales(material, geom, env)
    root2_kdl = math.sqrt(2.0) * p.kd_l
    alpha = p.sep_ratio
    slope = root2_kdl / p.x_debye

    def integrand(x: float, t: np.ndarray) -> np.ndarray:
        em = np.expm1(-x)
        weight = x**5 * math.exp(-x) / (em * em)
        return weight * np.exp(-t * t) / t * sinc_deficit(alpha * t)

    def t_upper(x: float) -> float:
        return min(slope * x, _FORM_FACTOR_CUT)

    cfg = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-8)
    inner_cfg = QuadratureConfig(
        abs_tol=1e-250,
        rel_tol=1e-10,
        panel_hint=min(0.5, math.pi / alpha),
    )
    try:
        quad = integrate_nested(integrand, 0.0, p.x_debye, t_upper, cfg,
                                inner_cfg=inner_cfg)
    except NonConvergence as exc:
        raise NonConvergence(
            f"{METHOD_DOUBLE} rate at T_K={env.T_K}, width_L_m={geom.width_L_m}, "
            f"separation_D_m={geom.separation_D_m}: {exc}"
        ) from exc
    return _result(p.prefactor_per_s * quad.value, METHOD_DOUBLE,
                   p.prefactor_per_s * quad.abs_error_estimate)


def _mc_block(seed: int, lo: int, hi: int, cum: np.ndarray, hist: np.ndarray,
              cell_w: float, k_total: float, x_per_k: float, lw: float,
              sep: float):
    """One deterministic sample block: (count, sum, sum of squares)."""
    offset = lo * _MC_DRAWS
    bitgen = np.random.Philox(key=seed)
    # advance() counts 128-bit increments, each worth 4 float64 draws;
    # block starts are multiples of 4 draws by construction.
    bitgen.advance(offset // 4)
    u = np.random.Generator(bitgen).random((hi - lo, _MC_DRAWS))

    s = u[:, 0] * k_total
    j = np.searchsorted(cum, s, side="right")
    frac = (s - (cum[j] - hist[j])) / hist[j]
    k = (j + np.clip(frac, 1e-12, 1.0)) * cell_w
    pdf = hist[j] / (k_total * cell_w)

    zn = 2.0 * u[:, 1] - 1.0
    zm = 2.0 * u[:, 3] - 1.0
    phin = (2.0 * math.pi) * u[:, 2]
    phim = (2.0 * math.pi) * u[:, 4]
    rn = np.sqrt(np.maximum(1.0 - zn * zn, 0.0))
    rm = np.sqrt(np.maximum(1.0 - zm * zm, 0.0))
    dx = rn * np.cos(phin) - rm * np.cos(phim)
    dy = rn * np.sin(phin) - rm * np.sin(phim)
    dz = zn - zm
    d2 = dx * dx + dy * dy + dz * dz

    x = x_per_k * k
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        occ = 1.0 / np.expm1(x)
        ang = np.where(
            d2 > 0.0,
            np.exp(-0.5 * lw * lw * k * k * d2)
            * np.sin(0.5 * k * sep * dz) ** 2 / d2,
            0.0,
        )
    est = k**4 * (2.0 * x) * occ * (occ + 1.0) * (4.0 * math.pi) ** 2 * ang / pdf
    return hi - lo, float(est.sum()), float((est * est).sum())


def rate_monte_carlo(material: MaterialParams, geom: DotGeometry,
                     env: ThermalEnv, samples: int = 10**7,
                     seed: int = 12345) -> RateResult:
    """Dephasing rate by importance-sampled momentum-space integration.

    Samples the on-shell two-mode integral directly: the radial magnitude
    is drawn from a 10^4-cell histogram proportional to k^2 times the
    thermal occupation, the two unit directions uniformly on the sphere.
    Samples are laid out in fixed counter-based blocks and reduced in
    block order, so a fixed seed gives identical bits run to run and for
    any DEPHASER_THREADS on one numpy build and CPU. Across builds or
    CPUs, values agree to about 1e-15 relative.
    """
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError("samples must be an integer")
    if samples < _MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {_MIN_MC_SAMPLES}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    samples = int(samples)
    seed = int(seed)
    if env.T_K == 0.0 or geom.separation_D_m == 0.0:
        return _result(0.0, METHOD_MC, 0.0, 0.0)

    k_debye = material.k_D_per_m
    thermal = CONST.k_B * env.T_K
    x_per_k = CONST.hbar * material.c_sound_m_per_s / thermal
    cell_w = k_debye / _MC_CELLS
    mids = (np.arange(_MC_CELLS) + 0.5) * cell_w
    with np.errstate(over="ignore"):
        hist = mids * mids / np.expm1(x_per_k * mids)
    k_total = float(hist.sum())
    if not math.isfinite(k_total) or k_total <= 0.0:
        return _result(0.0, METHOD_MC, 0.0, 0.0)
    cum = np.cumsum(hist)

    scale = (
        (8.0 / math.pi**4)
        / material.tau0_s
        * coupling_scale(material)
        * (material.c_sound_m_per_s / material.Omega_rad_per_s) ** 5
    )

    blocks = [(b * _MC_BLOCK, min(samples, (b + 1) * _MC_BLOCK))
              for b in range((samples + _MC_BLOCK - 1) // _MC_BLOCK)]

    def work(span):
        lo, hi = span
        return _mc_block(seed, lo, hi, cum, hist, cell_w, k_total, x_per_k,
                         geom.width_L_m, geom.separation_D_m)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        parts = list(pool.map(work, blocks))

    total = 0.0
    total_sq = 0.0
    count = 0
    for m, s1, s2 in parts:
        count += m
        total += s1
        total_sq += s2
    mean = total / count
    var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    se_mean = math.sqrt(var / count)
    return _result(scale * mean, METHOD_MC, scale * se_mean, scale * se_mean)


def compute_rate(method: str, material: MaterialParams, geom: DotGeometry,
                 env: ThermalEnv, *, samples: int = 10**7,
                 seed: int = 12345) -> RateResult:
    """Dephasing rate by the route named method, one of METHODS.

    samples and seed apply to the Monte Carlo route only. The routes are
    looked up as module globals at each call, so rebinding
    ``rates.rate_closed_form`` (a test double, a timing shim) reaches
    every caller of this dispatch.
    """
    if method == METHOD_CLOSED:
        return rate_closed_form(material, geom, env)
    if method == METHOD_DOUBLE:
        return rate_double_integral(material, geom, env)
    if method == METHOD_MC:
        return rate_monte_carlo(material, geom, env, samples=samples, seed=seed)
    raise ValueError(f"unknown rate method {method!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Cross-route agreement report for one parameter point."""

    closed_form: RateResult
    double_integral: RateResult
    monte_carlo: RateResult
    rel_diff_double: float
    rel_diff_mc: float
    mc_allowance_rel: float
    double_passed: bool
    mc_passed: bool
    passed: bool

    def lines(self) -> list:
        out = []
        for r in (self.closed_form, self.double_integral, self.monte_carlo):
            extra = ""
            if r.mc_std_error_per_s is not None:
                extra = f" (std error {r.mc_std_error_per_s:.3e})"
            out.append(f"{r.method}: gamma = {r.gamma_per_s:.9e} 1/s, "
                       f"t2 = {r.t2_s:.9e} s{extra}")
        out.append(
            f"closed-form vs double-integral: {self.rel_diff_double:.3e} rel "
            f"(limit 1.0e-02) {'PASS' if self.double_passed else 'FAIL'}")
        out.append(
            f"closed-form vs monte-carlo: {self.rel_diff_mc:.3e} rel "
            f"(limit {self.mc_allowance_rel:.3e}) "
            f"{'PASS' if self.mc_passed else 'FAIL'}")
        out.append("validation " + ("PASSED" if self.passed else "FAILED"))
        return out

    def summary(self) -> str:
        return "\n".join(self.lines())


def rate_validate(material: MaterialParams, geom: DotGeometry, env: ThermalEnv,
                  *, samples: int = 10**7, seed: int = 12345) -> ValidationReport:
    """Run all three routes and assert pairwise agreement.

    Closed form against the double integral must agree to 1% relative;
    closed form against Monte Carlo to max(5%, 3 standard errors).
    Raises ValidationFailed (report attached) on any miss.
    """
    if env.T_K <= 0.0 or geom.separation_D_m <= 0.0:
        raise ValueError("rate_validate requires T_K > 0 and separation_D_m > 0")
    r_closed = rate_closed_form(material, geom, env)
    r_double = rate_double_integral(material, geom, env)
    r_mc = rate_monte_carlo(material, geom, env, samples=samples, seed=seed)

    ref = r_closed.gamma_per_s
    diff_double = abs(r_closed.gamma_per_s - r_double.gamma_per_s) / ref
    diff_mc = abs(r_closed.gamma_per_s - r_mc.gamma_per_s) / ref
    allowance = max(0.05, 3.0 * r_mc.mc_std_error_per_s / ref)
    report = ValidationReport(
        closed_form=r_closed,
        double_integral=r_double,
        monte_carlo=r_mc,
        rel_diff_double=diff_double,
        rel_diff_mc=diff_mc,
        mc_allowance_rel=allowance,
        double_passed=diff_double <= 0.01,
        mc_passed=diff_mc <= allowance,
        passed=diff_double <= 0.01 and diff_mc <= allowance,
    )
    if not report.passed:
        raise ValidationFailed(report)
    return report
