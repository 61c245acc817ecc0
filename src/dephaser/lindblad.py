"""Two-level Markovian pure-dephasing evolution.

The generator is the pure-dephasing Lindblad form

    d rho/dt = -(i/hbar) [H0, rho] + (gamma/2) (sigma_z rho sigma_z - rho)

with H0 = -(1/2) E sigma_z. Populations are conserved; the coherence
rotates at E/hbar and decays at gamma, so |rho_01| reaches 1/e of its
initial value at t = 1/gamma, the operational definition of T2.

Basis ordering puts |0> first, which fixes the coherence phase to
rho_01(t) = rho_01(0) exp(+i E t/hbar) exp(-gamma t); only the modulus is
ever compared against the rate engine.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .runtime import csv_text, fmt_float, uniform_times

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

    def as_array(self) -> np.ndarray:
        return np.array([[self.rho00, self.rho01],
                         [self.rho10, self.rho11]], dtype=complex)


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
                stacklevel=2,
            )


def _generator_coefficients(p: LindbladParams) -> np.ndarray:
    """Elementwise generator: entry (i, j) evolves as d rho_ij/dt = L_ij rho_ij.

    For diagonal H0 = diag(-E/2, +E/2) and the sigma_z channel the full
    generator acts entrywise with
    L_ij = -(i/hbar)(H_i - H_j) + (gamma/2)(sz_i sz_j - 1).
    """
    rot = 1j * p.level_splitting_E_J / CONST.hbar
    g = p.gamma_per_s
    return np.array([[0.0, rot - g], [-rot - g, 0.0]], dtype=complex)


def _coherence_factor(p: LindbladParams, t):
    """rho_01(t)/rho_01(0) = exp((i E/hbar - gamma) t), for scalar or array t."""
    return np.exp((1j * p.level_splitting_E_J / CONST.hbar - p.gamma_per_s) * t)


def evolve_analytic(rho0: DensityMatrix2, p: LindbladParams,
                    t: float) -> DensityMatrix2:
    """Closed-form evolution: populations fixed, coherence rotated and damped."""
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")
    factor = complex(_coherence_factor(p, t))
    return DensityMatrix2(rho00=rho0.rho00, rho01=rho0.rho01 * factor)


def evolve_numeric(rho0: DensityMatrix2, p: LindbladParams, t: float,
                   steps: int = 10**4, *, return_error: bool = False):
    """Classical fixed-step fourth-order integration of the master equation.

    With the default 10^4 steps the result matches evolve_analytic to
    better than 1e-8 for gamma t <= 10. When return_error is true the
    integration is repeated at half resolution and the result carries a
    Richardson truncation-error estimate: (state, estimate).
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("t must be finite and >= 0")

    def run(n: int) -> np.ndarray:
        lam = _generator_coefficients(p)
        rho = rho0.as_array()
        h = t / n
        for _ in range(n):
            k1 = lam * rho
            k2 = lam * (rho + 0.5 * h * k1)
            k3 = lam * (rho + 0.5 * h * k2)
            k4 = lam * (rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return rho

    final = run(steps)
    # the generator leaves the diagonal untouched, so final[0, 0] is rho00
    state = DensityMatrix2(rho00=final[0, 0].real, rho01=final[0, 1])
    if not return_error:
        return state
    if steps == 1:
        coarse = rho0.as_array()
    else:
        coarse = run(max(steps // 2, 1))
    estimate = float(np.max(np.abs(final - coarse))) / 15.0
    return state, estimate


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


def trajectory_csv_text(traj: Trajectory2) -> str:
    rows = []
    for t, p0, p1, c in zip(traj.times_s, traj.rho00, traj.rho11, traj.rho01):
        rows.append([fmt_float(t), fmt_float(p0), fmt_float(p1),
                     fmt_float(c.real), fmt_float(c.imag), fmt_float(abs(c))])
    return csv_text(["t_s", "rho00", "rho11", "re_rho01", "im_rho01",
                     "abs_rho01"], rows)
