"""Generic reservoir spectral densities J(ω), parametric or tabulated."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

SPECTRAL_FORMS = (
    "power-law-gaussian-cutoff",
    "power-law-exponential-cutoff",
    "tabulated",
)


@dataclass(frozen=True)
class SpectralDensity:
    """Reservoir spectral density J(ω), parametric or tabulated.

    Parametric forms evaluate amplitude · ωⁿ · cutoff(ω/ω_c) with a Gaussian
    (exp(−(ω/ω_c)²)) or exponential (exp(−ω/ω_c)) cutoff. The amplitude
    carries n-dependent SI units chosen so J(ω) has units of energy²·time.
    Tabulated densities interpolate linearly and vanish outside the table.
    """

    form: str
    amplitude: float = 0.0
    exponent: float = 1.0
    cutoff_rad_per_s: float = 1.0
    table_omega_rad_per_s: Optional[np.ndarray] = None
    table_J: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.form not in SPECTRAL_FORMS:
            raise ValueError(f"unknown spectral form {self.form!r}")
        if self.form == "tabulated":
            if self.table_omega_rad_per_s is None or self.table_J is None:
                raise ValueError("tabulated form requires both table arrays")
            om = np.asarray(self.table_omega_rad_per_s, dtype=float)
            jv = np.asarray(self.table_J, dtype=float)
            if om.ndim != 1 or om.shape != jv.shape or om.size < 2:
                raise ValueError("table arrays must be 1-D, equal length >= 2")
            if not (np.all(np.isfinite(om)) and np.all(np.isfinite(jv))):
                raise ValueError("table entries must be finite")
            if om[0] <= 0.0 or np.any(np.diff(om) <= 0.0):
                raise ValueError("table frequencies must be positive and strictly increasing")
            if np.any(jv < 0.0):
                raise ValueError("table J values must be non-negative")
            om = om.copy()
            jv = jv.copy()
            om.setflags(write=False)
            jv.setflags(write=False)
            object.__setattr__(self, "table_omega_rad_per_s", om)
            object.__setattr__(self, "table_J", jv)
        else:
            if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
                raise ValueError("amplitude must be non-negative and finite")
            if not math.isfinite(self.exponent) or self.exponent < 1.0:
                raise ValueError("exponent must be >= 1")
            if not math.isfinite(self.cutoff_rad_per_s) or self.cutoff_rad_per_s <= 0.0:
                raise ValueError("cutoff_rad_per_s must be positive and finite")


def spectral_density(sd: SpectralDensity, omega):
    """Evaluate J(ω) for scalar or array ω ≥ 0."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega < 0.0):
        raise ValueError("omega must be finite and >= 0")
    if sd.form == "tabulated":
        out = np.interp(omega, sd.table_omega_rad_per_s, sd.table_J,
                        left=0.0, right=0.0)
    else:
        # an overflow's inf or nan reaches the engine, which raises NonFiniteSample
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = omega / sd.cutoff_rad_per_s
            if sd.form == "power-law-gaussian-cutoff":
                cut = np.exp(-scaled * scaled)
            else:
                cut = np.exp(-scaled)
            out = sd.amplitude * omega**sd.exponent * cut
    return float(out) if out.ndim == 0 else out


def load_spectral_table(path) -> SpectralDensity:
    """Read a tabulated spectral density from two-column CSV.

    Columns are omega_rad_per_s, J_value. Blank rows are skipped, and so
    is a non-numeric first row (a header); a later one raises ValueError.
    """
    omegas, values = [], []
    rows = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for row in csv.reader(fh):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: expected two columns, got {row!r}")
            rows += 1
            try:
                om, jv = float(row[0]), float(row[1])
            except ValueError:
                if rows == 1:
                    continue  # header row
                raise ValueError(f"{path}: unparsable row {row!r}") from None
            omegas.append(om)
            values.append(jv)
    if len(omegas) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return SpectralDensity(
        form="tabulated",
        table_omega_rad_per_s=np.asarray(omegas),
        table_J=np.asarray(values),
    )
