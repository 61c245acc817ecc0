"""Markovian pure-dephasing rate of the double dot by three independent routes.

All routes compute the same physical rate gamma = 1/T2, and all stop at
x = 60 in thermal units (_MOMENT_TAIL_CUT), past which the Bose
fifth-moment weight holds less than 1e-19 of its total:

* ``rate_closed_form``: the one-dimensional reduced integral over the
  Gaussian-damped wavefunction form factor times a difference of cumulative
  Bose fifth moments.
* ``rate_double_integral``: the two-dimensional thermal-shell form; the
  closed form is the same integral with the order of integration swapped,
  the thermal-shell integral done in closed form as the moment bracket.
* ``rate_monte_carlo``: importance-sampled evaluation of the underlying
  six-dimensional two-mode scattering integral with the energy-conservation
  delta resolved analytically (one radial magnitude, two independent unit
  directions remain; by the symmetry about D only their polar cosines and
  relative azimuth are drawn), four uniforms per sample from one PCG64
  stream per seed.

One function, _rates, maps a method name to its route: compute_rate, and
through it each rate_* function and rate_validate, runs it at one point.

Cross-agreement of the three is the package's main correctness argument;
``rate_validate`` runs it on demand. A RateResult stores gamma and derives
T2 from it; a ValidationReport stores the three RateResults and derives
the relative differences, the Monte Carlo allowance and its verdicts
from them.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import DotGeometry, MaterialParams, RateIntegralParams, ThermalEnv, derived_scales
from .quadrature import (NonConvergence, NonFiniteSample, QuadratureConfig, integrate_nested,
                         integrate_sin_tail)
# only for perfbench/tests/test_perfbench.py, whose tracer test reads rates.integrate
from .quadrature import integrate  # noqa: F401
from .specfun import _MOMENT_TAIL_CUT, _moment_integrand, _sin_sq, get_moment_table

METHOD_CLOSED = "closed-form"
METHOD_DOUBLE = "double-integral"
METHOD_MC = "monte-carlo"
METHODS = (METHOD_CLOSED, METHOD_DOUBLE, METHOD_MC)

# Beyond this the Gaussian form factor exp(-x^2) is below 1e-31.
_FORM_FACTOR_CUT = 8.5
# every pass of the kernel integral: the closed route's one, double's inner table
_KERNEL_CFG = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-10, panel_hint=0.5)
# the double route's outer pass over the Bose weight
_OUTER_CFG = QuadratureConfig(abs_tol=1e-250, rel_tol=1e-8)

_MIN_MC_SAMPLES = 10**4
# the samples and seed wherever a Monte Carlo caller gives none
_MC_SAMPLES = 10**7
_MC_SEED = 12345
_MC_BLOCK = 1 << 20
# a block is drawn and evaluated this many samples at a time, in buffers
# of 256 kB reused from chunk to chunk, so its working set stays near the
# per-core cache
_MC_CHUNK = 1 << 15
# uniforms consumed per sample: one picks the radial cell and, through its
# leftover fraction, the position in it; then the two polar cosines and the
# relative azimuth of the two directions. Sample i takes steps 4 i to
# 4 i + 3 of the seed's PCG64 stream, whichever block it falls in
_MC_DRAWS = 4
_MC_CELLS = 10**4

# rate_validate's limit on |closed - double|/closed
_DOUBLE_REL_LIMIT = 0.01


class CutoffValidityWarning(UserWarning):
    """The form-factor limits were extended to infinity outside their regime."""


@dataclass(frozen=True)
class RateResult:
    """A dephasing rate with an accuracy statement.

    error_estimate_per_s is the quadrature error bound for deterministic
    routes and the standard error of the mean for the Monte Carlo route,
    which alone also reports it as mc_std_error_per_s (None otherwise).
    """

    gamma_per_s: float
    method: str
    error_estimate_per_s: float

    def __post_init__(self):
        if not (self.gamma_per_s >= 0.0) or not math.isfinite(self.gamma_per_s):
            raise ValueError("gamma_per_s must be finite and >= 0")

    @property
    def t2_s(self) -> float:
        """1/gamma_per_s, or +inf when the rate vanishes exactly."""
        return 1.0 / self.gamma_per_s if self.gamma_per_s > 0.0 else math.inf

    @property
    def mc_std_error_per_s(self) -> Optional[float]:
        return self.error_estimate_per_s if self.method == METHOD_MC else None


def _check_narrow_cutoff(p: RateIntegralParams) -> None:
    if p.form_factor_limit < 10.0:
        # the warning names the first caller outside the package
        frame, level = sys._getframe(1), 2
        while frame.f_back and frame.f_globals.get("__name__", "").partition(".")[0] == "dephaser":
            frame, level = frame.f_back, level + 1
        warnings.warn(f"sqrt(2) k_D L = {p.form_factor_limit:.3g} < 10: extending the "
                      "form-factor limit to infinity is marginal here",
                      CutoffValidityWarning, stacklevel=level)


def _route(method: str, geom: DotGeometry, env: ThermalEnv,
           rate: Callable[[], tuple]) -> RateResult:
    """The frame every route runs in: T = 0 and D = 0 short-circuit to a
    vanishing rate; otherwise rate() gives (gamma, error), and a
    NonConvergence is relabelled with the route and the point."""
    if env.T_K == 0.0 or geom.separation_D_m == 0.0:
        return RateResult(0.0, method, 0.0)
    try:
        gamma, error = rate()
    except NonConvergence as exc:
        raise NonConvergence(f"{method} rate at T_K={env.T_K}, width_L_m={geom.width_L_m}, "
                             f"separation_D_m={geom.separation_D_m}: {exc}") from exc
    return RateResult(gamma, method, error)


def rate_closed_form(material: MaterialParams, geom: DotGeometry,
                     env: ThermalEnv) -> RateResult:
    """Dephasing rate from the reduced one-dimensional integral.

    gamma = prefactor * Int_0^inf dx/x exp(-x^2) (1 - sin(a x)/(a x)) B(x),
    B(x) = moment(x_D) - moment(x x_D / (sqrt(2) k_D L)),

    with a = sqrt(2) D/L and x_D the Debye cutoff in thermal units. The
    infinite limit is truncated at X, the smallest of 8.5 (the Gaussian is
    below 1e-31), the form-factor limit sqrt(2) k_D L and
    x = 60 sqrt(2) k_D L / x_D, past which B is below 1e-17; moment(x_D) is
    read once a call. One call of quadrature.integrate_sin_tail takes the
    smooth factor exp(-x^2) B/x as one row, a and _KERNEL_CFG (every pass at
    rel 1e-10); the engine forms the interference factor and decides where
    its far pass takes over. The error is the engine's estimate; T = 0 and
    D = 0 short-circuit to a vanishing rate. This is a batch of one of the
    route's batched core, _closed_pass, which a sweep gives its whole grid.
    """
    return compute_rate(METHOD_CLOSED, material, geom, env)


def _closed_pass(ps: list) -> list:
    """(gamma, error) of the closed route at each of ps, which share
    sep_ratio a, from one call of integrate_sin_tail.

    Row i, with its own limit X_i, is written in x = y/s_i over [0, X],
    X = max X_i and s_i = X_i/X: its smooth factor exp(-y^2) B_i(y)/x at
    omega = a s_i, so every row has support on the whole range and the rows
    share the engine's batched panels. s_i, the row's moment ratio and its
    M(x_D) are columns, which smooth reads at the rows the engine asks for;
    a lone point is a batch of one row with s = 1.
    """
    table = get_moment_table()
    ratio = np.array([p.x_debye / p.form_factor_limit for p in ps])
    upper = np.array([min(_FORM_FACTOR_CUT, p.form_factor_limit, _MOMENT_TAIL_CUT / r)
                      for p, r in zip(ps, ratio)])
    top = float(upper.max())
    s, r = (upper / top)[:, None], ratio[:, None]
    e = table.eval(np.array([p.x_debye for p in ps]))[:, None]

    def smooth(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        y = s[rows] * x
        return np.exp(-y * y) / x * np.maximum(e[rows] - table.eval(y * r[rows]), 0.0)

    quad = integrate_sin_tail(smooth, ps[0].sep_ratio * s[:, 0], top, _KERNEL_CFG)
    return [(p.prefactor_per_s * float(v), p.prefactor_per_s * float(err))
            for p, v, err in zip(ps, quad.value, quad.abs_error_estimate)]


def rate_double_integral(material: MaterialParams, geom: DotGeometry,
                         env: ThermalEnv) -> RateResult:
    """Dephasing rate from the two-dimensional thermal-shell integral.

    gamma = prefactor * Int_0^{x_D} dx x^5 e^x/(e^x-1)^2
            * Int_0^{sqrt(2) k_D L x/x_D} dt/t exp(-t^2) (1 - sin(a t)/(a t))

    The outer limit is min(x_D, 60). The Bose weight is evaluated as
    x^5 e^(-x)/expm1(-x)^2, which does not overflow. quadrature.integrate_nested
    tabulates the inner integral and reads it at every outer node; given the
    smooth factor exp(-t^2)/t and omega = a, it forms the interference factor
    and decides where the table's far pass takes over, as for closed.
    """
    return compute_rate(METHOD_DOUBLE, material, geom, env)


def _double_pass(p: RateIntegralParams) -> tuple:
    """(gamma, error) of the double route at the point of scales p."""
    def weight(x: np.ndarray) -> np.ndarray:
        em = np.expm1(-x)
        return x**5 * np.exp(-x) / (em * em)

    def inner(t: np.ndarray) -> np.ndarray:
        return np.exp(-t * t) / t

    slope = p.form_factor_limit / p.x_debye
    quad = integrate_nested(weight, inner, 0.0, min(p.x_debye, _MOMENT_TAIL_CUT),
                            lambda x: np.minimum(slope * x, _FORM_FACTOR_CUT),
                            _OUTER_CFG, _KERNEL_CFG, omega=p.sep_ratio)
    return p.prefactor_per_s * quad.value, p.prefactor_per_s * quad.abs_error_estimate


def _radial_table(x_per_k: float, k_max: float) -> Optional[tuple]:
    """Edges (lo, width) of _MC_CELLS cells of equal weight over [0, k_max].

    The weight, the Bose fifth-moment integrand at x = x_per_k k, is the
    radial integrand without its angular factor. Its cumulative sum over
    _MC_CELLS midpoints is inverted by linear interpolation. None when the
    weight does not sum to a finite positive value.
    """
    grid = np.linspace(0.0, k_max, _MC_CELLS + 1)
    mids = grid[:-1] + 0.5 * grid[1]
    cum = np.concatenate(([0.0], np.cumsum(_moment_integrand(x_per_k * mids))))
    if not math.isfinite(cum[-1]) or cum[-1] <= 0.0:
        return None
    edges = np.interp(np.linspace(0.0, cum[-1], _MC_CELLS + 1), cum, grid)
    return edges[:-1], np.diff(edges)


def _moments(x: np.ndarray) -> tuple:
    """(count, mean, M2) of x by two passes: M2 is the sum of squared
    deviations from the mean."""
    mean = x.sum() / x.size
    dev = x - mean
    dev *= dev
    return x.size, float(mean), float(dev.sum())


def _merge_moments(parts) -> tuple:
    """Merge (count, mean, M2) triples strictly in the order given.

    Chan, Golub & LeVeque's pairwise update; unlike sum(x^2) - n mean^2 it
    does not cancel when the spread is small against the mean.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for n, mu, s2 in parts:
        total = count + n
        delta = mu - mean
        mean += delta * (n / total)
        m2 += s2 + delta * delta * (count * n / total)
        count = total
    return count, mean, m2


def _mc_block(seed: int, lo: int, hi: int, table: tuple, x_per_k: float,
              lw: float, sep: float) -> tuple:
    """(count, mean, M2) of the estimator over samples [lo, hi)."""
    k_lo, width = table
    n_slots = width.size
    # one PCG64 stream per seed; a float64 uniform is one 64-bit step of
    # it, so the block starts lo * _MC_DRAWS steps in
    bitgen = np.random.PCG64(seed)
    bitgen.advance(lo * _MC_DRAWS)
    gen = np.random.Generator(bitgen)
    # one set of chunk buffers per block, filled in place through out=
    size = min(_MC_CHUNK, hi - lo)
    draws = np.empty((size, _MC_DRAWS))
    slots = np.empty(size, dtype=np.intp)
    positive = np.empty(size, dtype=bool)
    bufs = np.empty((6, size))
    parts = []
    # errstate is thread-local, so it is set here, in the worker thread
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(lo, hi, _MC_CHUNK):
            n = min(_MC_CHUNK, hi - start)
            u = gen.random(out=draws[:n])
            slot, ok = slots[:n], positive[:n]
            k, w, a, b, c, d = bufs[:, :n]

            # radial cell and position in it: k = k_lo + f w, 1/pdf = n_slots w
            np.multiply(u[:, 0], n_slots, out=a)
            np.copyto(slot, a, casting="unsafe")
            a -= slot
            np.take(width, slot, out=w)
            np.take(k_lo, slot, out=k)
            a *= w
            k += a
            # k = 0 (u = 0 exactly) would give 0 * inf below
            np.maximum(k, 1e-12 * width[0], out=k)

            # D lies along z, so of the two directions only the polar
            # cosines and the relative azimuth dphi enter, through
            # |n - m|^2 = dz^2 + (rn - rm)^2 + 4 rn rm sin^2(dphi/2), a sum
            # of non-negative terms; sin^2(dphi/2) has the same law for
            # dphi/2 uniform on [0, pi/2) as on [0, pi)
            np.multiply(u[:, 1], 2.0, out=a)
            a -= 1.0                                # zn
            np.multiply(u[:, 2], 2.0, out=b)
            b -= 1.0                                # zm
            np.multiply(a, a, out=c)
            np.subtract(1.0, c, out=c)
            np.sqrt(c, out=c)                       # rn
            np.multiply(b, b, out=d)
            np.subtract(1.0, d, out=d)
            np.sqrt(d, out=d)                       # rm
            a -= b                                  # dz
            np.subtract(c, d, out=b)                # dr
            c *= 4.0
            c *= d
            np.multiply(u[:, 3], 0.5 * math.pi, out=d)
            c *= _sin_sq(d, d)                      # 4 rn rm sin^2(dphi/2)
            b *= b
            np.multiply(a, a, out=d)
            d += b
            d += c                                  # d2 = |n - m|^2

            np.multiply(k, 0.5 * sep, out=b)
            b *= a
            _sin_sq(b, b)                           # sin^2(sep k dz/2)
            # exp takes a slow path when its result underflows; clamping the
            # exponent at -700 changes a sample by at most 1e-304 of its
            # value without the Gaussian
            np.multiply(k, k, out=a)                # k^2
            np.multiply(a, -0.5 * lw * lw, out=c)
            c *= d
            np.maximum(c, -700.0, out=c)
            np.exp(c, out=c)
            c *= b
            # d2 = 0 only where n = m, where dz = 0 has already made c 0
            np.greater(d, 0.0, out=ok)
            np.divide(c, d, out=c, where=ok)        # angular factor

            np.multiply(k, x_per_k, out=b)          # x
            np.expm1(b, out=d)
            np.divide(1.0, d, out=d)                # occupation
            np.add(d, 1.0, out=k)
            b *= 2.0 * (4.0 * math.pi) ** 2
            b *= a
            b *= a
            b *= d
            b *= k
            b *= c
            w *= n_slots
            b *= w
            parts.append(_moments(b))
    return _merge_moments(parts)


def worker_count() -> int:
    """Thread count from DEPHASER_THREADS; 0 or unset means all cores this
    process may use (its CPU affinity where the platform reports one).

    Results never depend on this value, only wall time does: work items
    are mapped in deterministic order and reduced sequentially.
    """
    raw = os.environ.get("DEPHASER_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"DEPHASER_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("DEPHASER_THREADS must be >= 0")
    if n == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return n


def _check_sampling(samples: int, seed: int) -> None:
    """The Monte Carlo input rule of rate_monte_carlo, SweepSpec and the CLI."""
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError("samples must be an integer")
    if samples < _MIN_MC_SAMPLES:
        raise ValueError(f"samples must be >= {_MIN_MC_SAMPLES}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")


def rate_monte_carlo(material: MaterialParams, geom: DotGeometry,
                     env: ThermalEnv, samples: int = _MC_SAMPLES,
                     seed: int = _MC_SEED) -> RateResult:
    """Dephasing rate by importance-sampled momentum-space integration.

    Samples the on-shell two-mode integral directly: the radial magnitude
    is drawn from 10^4 cells holding equal shares of the Bose fifth-moment
    weight over [0, min(k_D, 60 k_B T/(hbar c))] (one uniform picks the
    cell, its leftover fraction the position in the cell). D lies
    along z, so of the two unit directions only the polar cosines and the
    relative azimuth are drawn, uniformly. Samples are laid out in fixed
    blocks of 2^20 along one PCG64 stream per seed, each block starting at
    its own offset (PCG64.advance) and evaluated in chunks of 2^15; the
    sines come from numpy's vectorised tan. Every call maps its blocks
    through one thread pool of min(worker_count(), blocks) threads.
    The mean and variance of chunks, then of blocks, are merged in order by
    Chan, Golub and LeVeque's update, so a fixed seed gives identical bits
    run to run and for any DEPHASER_THREADS on one numpy build and CPU.
    Across builds or CPUs, values agree to about 1e-14 relative.
    """
    return compute_rate(METHOD_MC, material, geom, env, samples=samples, seed=seed)


def _mc_pass(p: RateIntegralParams, material: MaterialParams, geom: DotGeometry,
             samples: int, seed: int) -> tuple:
    """(gamma, error) of the Monte Carlo route at the point of scales p."""
    x_per_k = p.x_debye / material.k_D_per_m
    table = _radial_table(x_per_k, min(material.k_D_per_m, _MOMENT_TAIL_CUT / x_per_k))
    if table is None:
        return 0.0, 0.0
    scale = p.prefactor_per_s * x_per_k**5 / (8.0 * math.pi**2)
    blocks = [(b * _MC_BLOCK, min(samples, (b + 1) * _MC_BLOCK))
              for b in range((samples + _MC_BLOCK - 1) // _MC_BLOCK)]

    with ThreadPoolExecutor(max_workers=min(worker_count(), len(blocks))) as pool:
        count, mean, m2 = _merge_moments(pool.map(
            lambda span: _mc_block(seed, *span, table, x_per_k,
                                   geom.width_L_m, geom.separation_D_m), blocks))
    return scale * mean, scale * math.sqrt(m2 / (count - 1) / count)


def compute_rate(method: str, material: MaterialParams, geom: DotGeometry,
                 env: ThermalEnv, *, samples: int = _MC_SAMPLES,
                 seed: int = _MC_SEED) -> RateResult:
    """Dephasing rate by the route named method, one of METHODS.

    samples and seed apply to the Monte Carlo route only. This is _rates
    at one point, raising that point's NonConvergence.
    """
    result, = _rates(method, material, [(geom, env)], samples, seed)
    if isinstance(result, NonConvergence):
        raise result
    return result


def _rates(method: str, material: MaterialParams, points, samples: int = _MC_SAMPLES,
           seed: int = _MC_SEED) -> list:
    """The rate by the route named method at each (geom, env) of points, in
    order: its RateResult, or the NonConvergence it raises there. The one
    place a method name selects a route; each point's scales are derived
    once, and each point runs in _route.

    Closed points that share sep_ratio (a T-sweep) go through one
    _closed_pass, where the points at or below the engine's crossover share
    one batched pass and each point past it takes its own near and far
    passes. A shared pass that raises NonConvergence or NonFiniteSample runs
    its points again one at a time, so each ends with its own call's bits.
    """
    if method not in METHODS:
        raise ValueError(f"unknown rate method {method!r}")
    if method == METHOD_MC:
        _check_sampling(samples, seed)
        samples, seed = int(samples), int(seed)
    scales = {i: derived_scales(material, geom, env) for i, (geom, env) in enumerate(points)
              if env.T_K != 0.0 and geom.separation_D_m != 0.0}
    done = {}
    if method == METHOD_CLOSED:
        groups = {}
        for i, p in scales.items():
            _check_narrow_cutoff(p)
            groups.setdefault(p.sep_ratio, []).append(i)
        for rows in groups.values():
            if len(rows) > 1:
                try:
                    done.update(zip(rows, _closed_pass([scales[i] for i in rows])))
                except (NonConvergence, NonFiniteSample):
                    pass  # its points run again one at a time below

    def rate(i: int, geom: DotGeometry) -> tuple:
        if method == METHOD_CLOSED:
            return done[i] if i in done else _closed_pass([scales[i]])[0]
        if method == METHOD_DOUBLE:
            return _double_pass(scales[i])
        return _mc_pass(scales[i], material, geom, samples, seed)

    def outcome(i: int, geom: DotGeometry, env: ThermalEnv):
        try:
            return _route(method, geom, env, lambda: rate(i, geom))
        except NonConvergence as exc:
            return exc

    return [outcome(i, geom, env) for i, (geom, env) in enumerate(points)]


@dataclass(frozen=True)
class ValidationReport:
    """Cross-route agreement report for one parameter point. It stores the
    three results and derives the rest: the verdicts compare rel_diff_double
    with 1 % and rel_diff_mc with mc_allowance_rel, all relative to the
    closed-form rate, which must therefore be positive."""

    closed_form: RateResult
    double_integral: RateResult
    monte_carlo: RateResult

    def __post_init__(self):
        if self.closed_form.gamma_per_s == 0.0:
            raise ValueError("the closed-form rate vanishes here, so the routes' "
                             "relative differences are undefined")

    @property
    def rel_diff_double(self) -> float:
        ref = self.closed_form.gamma_per_s
        return abs(ref - self.double_integral.gamma_per_s) / ref

    @property
    def rel_diff_mc(self) -> float:
        ref = self.closed_form.gamma_per_s
        return abs(ref - self.monte_carlo.gamma_per_s) / ref

    @property
    def mc_allowance_rel(self) -> float:
        """max(5 %, 3 Monte Carlo standard errors), relative to closed."""
        return max(0.05, 3.0 * self.monte_carlo.mc_std_error_per_s
                   / self.closed_form.gamma_per_s)

    @property
    def double_passed(self) -> bool:
        return self.rel_diff_double <= _DOUBLE_REL_LIMIT

    @property
    def mc_passed(self) -> bool:
        return self.rel_diff_mc <= self.mc_allowance_rel

    @property
    def passed(self) -> bool:
        return self.double_passed and self.mc_passed


def rate_validate(material: MaterialParams, geom: DotGeometry, env: ThermalEnv,
                  *, samples: int = _MC_SAMPLES, seed: int = _MC_SEED) -> ValidationReport:
    """Check every input, then run the three routes and report their agreement.

    Closed form against the double integral must agree to 1% relative;
    closed form against Monte Carlo to max(5%, 3 standard errors). The
    report's passed says whether both did.
    """
    if env.T_K <= 0.0 or geom.separation_D_m <= 0.0:
        raise ValueError("rate_validate requires T_K > 0 and separation_D_m > 0")
    _check_sampling(samples, seed)
    return ValidationReport(
        closed_form=compute_rate(METHOD_CLOSED, material, geom, env),
        double_integral=compute_rate(METHOD_DOUBLE, material, geom, env),
        monte_carlo=compute_rate(METHOD_MC, material, geom, env, samples=samples, seed=seed),
    )
