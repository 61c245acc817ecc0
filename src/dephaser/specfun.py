"""Numerically stable special functions shared by the rate and coherence
integrands; sinc_deficit, defined in quadrature, is exported from here."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureConfig, _eval_panels, integrate, sinc_deficit  # noqa: F401

ZETA5 = 1.0369277551433699

# Limit of the cumulative fifth moment of the Bose occupation derivative:
# integral of u^5 e^u/(e^u-1)^2 over [0, inf) = 120 zeta(5).
BOSE_FIFTH_MOMENT_INF = 120.0 * ZETA5

# Beyond this the fifth moment equals its limit to better than 1e-15 absolute.
_MOMENT_TAIL_CUT = 60.0

_MOMENT_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
# The moment table's panels, of equal width 5e-3 over [0, _MOMENT_TAIL_CUT].
_MOMENT_TABLE_PANELS = 12_000


def _sin_sq(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin(x)^2 into out (which may be x), as 1/(1 + 1/tan(x)^2).

    numpy's float64 sin is scalar code while its tan is vectorised, so this
    is several times faster; on [0, 1e7) it is within 7e-16 relative of
    np.sin(x)**2. At tan(x) = 0 it divides by zero on its way to 0, so it
    is called under errstate(divide="ignore").
    """
    np.tan(x, out=out)
    out *= out
    np.divide(1.0, out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _moment_integrand(u: np.ndarray) -> np.ndarray:
    # u^5 e^u/(e^u-1)^2 in the overflow-free form u^5/(4 sinh^2(u/2))
    s = np.sinh(0.5 * u)
    return u**5 / (4.0 * s * s)


def bose_fifth_moment(x: float) -> float:
    """Cumulative fifth moment of the Bose occupation derivative.

    Parameters
    ----------
    x : float
        Upper limit of the integral of u^5 e^u/(e^u-1)^2 du from 0, x >= 0.

    Returns
    -------
    float
        The integral to absolute accuracy 1e-12*max(1, value). Clamped to
        its limit 120 zeta(5) above x = 60 where the remainder is < 1e-15.
    """
    x = float(x)
    if not np.isfinite(x) or x < 0.0:
        raise ValueError("bose_fifth_moment requires finite x >= 0")
    if x == 0.0:
        return 0.0
    if x > _MOMENT_TAIL_CUT:
        return BOSE_FIFTH_MOMENT_INF
    return integrate(_moment_integrand, 0.0, x, _MOMENT_CFG).value


@dataclass(frozen=True)
class BoseMomentTable:
    """Precomputed fifth-moment values with monotone cubic interpolation.

    One grid, _MOMENT_TABLE_PANELS panels over [0, 60]; past 60 eval returns
    BOSE_FIFTH_MOMENT_INF. Node values come from panel-wise Gauss-Kronrod
    integration accumulated left to right; slopes are the exact integrand,
    clamped into the monotonicity region of the cubic. Nodes are right to
    1e-15 relative; between them the cubic is within 3e-11 absolute, up to
    all of the value below x = 5e-3 (the moment is x^4/4 there), 4e-2 of it
    below 0.05 (9e-6 at 0.043, the Debye edge at 10^4 K), 5e-6 up to x = 1
    and 1e-14 past 10. Near the limit 120 zeta(5) - eval(z) keeps the
    absolute error: 2e-7 relative at z = 30, 2e-6 at 33, 3e-5 at 36.
    Immutable, so safe for concurrent reads.
    """

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    @classmethod
    def build(cls) -> "BoseMomentTable":
        n = _MOMENT_TABLE_PANELS
        nodes = _MOMENT_TAIL_CUT * np.arange(n + 1) / n
        panel_vals, _, _ = _eval_panels(_moment_integrand, nodes[:-1], nodes[1:])
        values = np.concatenate([[0.0], np.cumsum(panel_vals[0])])
        slopes = np.empty_like(nodes)
        slopes[1:] = _moment_integrand(nodes[1:])
        slopes[0] = 0.0  # integrand behaves as u^3 at the origin
        # clamp into the monotone region: slope <= 3 * adjacent secant
        sec = np.diff(values) / np.diff(nodes)
        cap = 3.0 * np.minimum(np.concatenate([sec, [sec[-1]]]),
                               np.concatenate([[sec[0]], sec]))
        slopes = np.minimum(slopes, cap)
        for arr in (nodes, values, slopes):
            arr.setflags(write=False)
        return cls(nodes=nodes, values=values, slopes=slopes)

    def eval(self, x):
        """Interpolated moment at x (scalar or array, x >= 0)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)) or np.any(x < 0.0):
            raise ValueError("table evaluation requires finite x >= 0")
        xc = np.minimum(x, self.nodes[-1])
        idx = np.clip(np.searchsorted(self.nodes, xc, side="right") - 1, 0, len(self.nodes) - 2)
        h = self.nodes[idx + 1] - self.nodes[idx]
        s = (xc - self.nodes[idx]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        out = (
            h00 * self.values[idx]
            + h10 * h * self.slopes[idx]
            + h01 * self.values[idx + 1]
            + h11 * h * self.slopes[idx + 1]
        )
        out = np.where(x > self.nodes[-1], BOSE_FIFTH_MOMENT_INF, out)
        return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def get_moment_table() -> BoseMomentTable:
    return BoseMomentTable.build()
