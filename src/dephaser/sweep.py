"""Parameter sweeps over temperature and dot separation, plus scaling fits.

The sweep engine reproduces the two panels of the rate-versus-parameter
study: gamma(T) at fixed geometry and gamma(D) at fixed temperature. Fits
extract the limiting scaling exponents: the low-temperature power law, the
quadratic small-separation growth, and the logarithmic large-separation
growth. Fit windows are explicit inputs; no regime auto-detection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import GAAS, DotGeometry, MaterialParams, ThermalEnv
from .quadrature import NonConvergence
from .rates import (_MC_SAMPLES, _MC_SEED, METHOD_CLOSED, METHODS, RateResult,
                    _check_sampling, compute_rate)
# Bound here only because perfbench/tests/test_perfbench.py checks that its
# tracer restores sweep.rate_closed_form; points go through compute_rate.
from .rates import rate_closed_form  # noqa: F401

AXIS_TEMPERATURE = "temperature"
AXIS_DISTANCE = "distance"


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description.

    axis "temperature" varies T_K with fixed separation fixed_D_m; axis
    "distance" varies the separation with fixed fixed_T_K. Values are SI
    (kelvin and meters).
    """

    axis: str
    min_value: float
    max_value: float
    points: int
    spacing: str = "logarithmic"
    method: str = METHOD_CLOSED
    material: MaterialParams = GAAS
    width_L_m: float = 4e-9
    fixed_D_m: Optional[float] = None
    fixed_T_K: Optional[float] = None
    samples: int = _MC_SAMPLES
    seed: int = _MC_SEED

    def __post_init__(self):
        if self.axis not in (AXIS_TEMPERATURE, AXIS_DISTANCE):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown rate method {self.method!r}")
        if not isinstance(self.points, (int, np.integer)) or isinstance(self.points, bool):
            raise ValueError("points must be an integer")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not (math.isfinite(self.min_value) and math.isfinite(self.max_value)):
            raise ValueError("sweep bounds must be finite")
        if not self.min_value < self.max_value:
            raise ValueError("min_value must be < max_value")
        if self.min_value < 0.0:
            raise ValueError("sweep values must be >= 0")
        if self.spacing == "logarithmic" and self.min_value <= 0.0:
            raise ValueError("logarithmic spacing requires min_value > 0")
        if self.axis == AXIS_TEMPERATURE and self.fixed_D_m is None:
            raise ValueError("temperature axis requires fixed_D_m >= 0")
        if self.axis == AXIS_DISTANCE and self.fixed_T_K is None:
            raise ValueError("distance axis requires fixed_T_K >= 0")
        # the width and the fixed value, checked by what run_sweep builds
        self._inputs(self.min_value)
        _check_sampling(self.samples, self.seed)

    def _inputs(self, value: float) -> Tuple[DotGeometry, ThermalEnv]:
        """The geometry and environment of the grid point at value."""
        if self.axis == AXIS_TEMPERATURE:
            D, T = self.fixed_D_m, float(value)
        else:
            D, T = float(value), self.fixed_T_K
        return DotGeometry(width_L_m=self.width_L_m, separation_D_m=D), ThermalEnv(T_K=T)

    def grid(self) -> np.ndarray:
        """The axis grid, ending exactly at max_value; same bits every run."""
        frac = np.arange(self.points) / (self.points - 1)
        if self.spacing == "logarithmic":
            values = self.min_value * (self.max_value / self.min_value) ** frac
        else:
            values = self.min_value + (self.max_value - self.min_value) * frac
        values[-1] = self.max_value
        return values


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: either a rate result or a recorded failure."""

    axis_value: float
    method: str
    result: Optional[RateResult] = None
    error: Optional[str] = None


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the rate on the sweep grid, one SweepPoint per grid value.

    Points are evaluated in grid order on the calling thread; only the
    Monte Carlo route starts worker threads (DEPHASER_THREADS), and no
    value depends on their number. A point that fails to converge is
    recorded in place with its error message; the sweep continues.
    """

    def one(value: float) -> SweepPoint:
        geom, env = spec._inputs(value)
        try:
            result = compute_rate(spec.method, spec.material, geom, env,
                                  samples=spec.samples, seed=spec.seed)
        except NonConvergence as exc:
            return SweepPoint(axis_value=float(value), method=spec.method,
                              error=str(exc))
        return SweepPoint(axis_value=float(value), method=spec.method,
                          result=result)

    return [one(value) for value in spec.grid()]


@dataclass(frozen=True)
class FitResult:
    """Least-squares line fit on transformed coordinates."""

    slope: float
    intercept: float
    residual_rms: float
    window: Tuple[float, float]


def _fit_line(points, window, log_y: bool) -> FitResult:
    """Least squares of y (or ln y) on ln x over the points inside window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    xs, ys = [], []
    for x, y in points:
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("fit requires finite x and y values")
        if lo <= x <= hi:
            xs.append(x)
            ys.append(y)
    if len(xs) < 3:
        raise ValueError("need at least 3 points inside the fit window")
    x = np.asarray(xs)
    y = np.asarray(ys)
    if np.any(x <= 0.0):
        raise ValueError("fit requires positive x values")
    if log_y and np.any(y <= 0.0):
        raise ValueError("a power-law fit requires positive y values")
    lx = np.log(x)
    ty = np.log(y) if log_y else y
    slope, intercept = np.polyfit(lx, ty, 1)
    resid = ty - (slope * lx + intercept)
    return FitResult(slope=float(slope), intercept=float(intercept),
                     residual_rms=float(np.sqrt(np.mean(resid**2))),
                     window=(lo, hi))


def fit_power_law(points: Sequence[Tuple[float, float]],
                  window: Tuple[float, float]) -> FitResult:
    """Fit y = c x^slope on the points with x inside the window.

    Least squares on (ln x, ln y); the slope is the power-law exponent and
    residual_rms is measured in ln y.
    """
    return _fit_line(points, window, log_y=True)


def fit_log_law(points: Sequence[Tuple[float, float]],
                window: Tuple[float, float]) -> FitResult:
    """Fit y = slope ln x + intercept; residual_rms is in y units."""
    return _fit_line(points, window, log_y=False)
