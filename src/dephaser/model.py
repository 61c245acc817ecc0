"""Model parameters: physical and material constants, dot geometry and
thermal environment.

Everything downstream consumes the dimensionless bundle produced by
``derived_scales``, so unit handling is concentrated here. All inputs are SI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values (SI), compiled in so results are bit-reproducible.
    Not user-configurable."""

    hbar: float = 1.054571817e-34  # J s
    k_B: float = 1.380649e-23  # J / K
    e_charge: float = 1.602176634e-19  # C
    eps0: float = 8.8541878128e-12  # F / m


CONST = PhysicalConstants()


class MaterialFileError(Exception):
    """Raised when a material parameter file cannot be parsed or validated."""


@dataclass(frozen=True)
class MaterialParams:
    """Bulk material constants of the phonon reservoir.

    Attributes
    ----------
    Omega_rad_per_s : float
        Optical phonon frequency entering the anharmonic coupling strength.
    tau0_s : float
        Zero-temperature lifetime of a zone-edge acoustic phonon against
        anharmonic decay; sets the overall scale of the dephasing rate.
    c_sound_m_per_s : float
        Longitudinal sound velocity (linear dispersion assumed).
    k_D_per_m : float
        Debye wavenumber bounding the acoustic branch.
    eps_lattice : float
        Effective lattice dielectric constant screening the carrier-phonon
        interaction.
    """

    Omega_rad_per_s: float = 5.4e13
    tau0_s: float = 9.2e-12
    c_sound_m_per_s: float = 5150.0
    k_D_per_m: float = 1.1e10
    eps_lattice: float = 70.0

    def __post_init__(self):
        for name in _MATERIAL_KEYS:
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be a positive finite number")


_MATERIAL_KEYS = tuple(f.name for f in fields(MaterialParams))
GAAS = MaterialParams()


@dataclass(frozen=True)
class DotGeometry:
    """Double-dot geometry: wavefunction width and center separation.

    ``width_L_m`` is the isotropic Gaussian width of each dot state,
    ``separation_D_m`` the distance between the two dot centers along z.
    Separation zero is allowed and means fully overlapping dots.
    """

    width_L_m: float
    separation_D_m: float

    def __post_init__(self):
        if not math.isfinite(self.width_L_m) or self.width_L_m <= 0.0:
            raise ValueError("width_L_m must be finite and > 0")
        if not math.isfinite(self.separation_D_m) or self.separation_D_m < 0.0:
            raise ValueError("separation_D_m must be finite and >= 0")


@dataclass(frozen=True)
class ThermalEnv:
    """Reservoir temperature in kelvin; zero is allowed."""

    T_K: float

    def __post_init__(self):
        if not math.isfinite(self.T_K) or self.T_K < 0.0:
            raise ValueError("T_K must be finite and >= 0")


@dataclass(frozen=True)
class RateIntegralParams:
    """Dimensionless bundle the rate integrals run on.

    Attributes
    ----------
    prefactor_per_s : float
        Overall rate scale multiplying the dimensionless double integral.
    x_debye : float
        Debye cutoff in thermal units, hbar c k_D / (k_B T).
    form_factor_limit : float
        U = sqrt(2) k_D L, the form-factor limit of the rate integrals.
    sep_ratio : float
        sqrt(2) D / L, the argument scale of the oscillatory deficit factor.
    """

    prefactor_per_s: float
    x_debye: float
    form_factor_limit: float
    sep_ratio: float


def coupling_scale(material: MaterialParams) -> float:
    """Dimensionless carrier-phonon coupling e^2/(eps0 eps~ hbar c)."""
    return CONST.e_charge**2 / (
        CONST.eps0 * material.eps_lattice * CONST.hbar * material.c_sound_m_per_s
    )


def derived_scales(material: MaterialParams, geom: DotGeometry,
                   env: ThermalEnv) -> RateIntegralParams:
    """Collapse SI inputs into the dimensionless rate-integral parameters.

    Requires T > 0; the T = 0 limit is handled upstream by the rate
    routines, which short-circuit to a vanishing rate.
    """
    if env.T_K <= 0.0:
        raise ValueError("derived_scales requires T_K > 0")
    thermal = CONST.k_B * env.T_K
    pre = (
        (64.0 / math.pi**2)
        / material.tau0_s
        * coupling_scale(material)
        * (thermal / (CONST.hbar * material.Omega_rad_per_s)) ** 5
    )
    return RateIntegralParams(
        prefactor_per_s=pre,
        x_debye=CONST.hbar * material.c_sound_m_per_s * material.k_D_per_m / thermal,
        form_factor_limit=math.sqrt(2.0) * (material.k_D_per_m * geom.width_L_m),
        sep_ratio=math.sqrt(2.0) * geom.separation_D_m / geom.width_L_m,
    )


def load_material(path) -> MaterialParams:
    """Read a ``key = value`` material file; missing keys keep defaults.

    Lines starting with ``#`` and blank lines are ignored. Unknown keys,
    unparsable values, and non-positive values are rejected with
    MaterialFileError naming the offending line.
    """
    overrides = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MaterialFileError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _MATERIAL_KEYS:
                raise MaterialFileError(f"{path}:{lineno}: unknown key {key!r}")
            if key in overrides:
                raise MaterialFileError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                overrides[key] = float(text.strip())
            except ValueError:
                raise MaterialFileError(
                    f"{path}:{lineno}: could not parse value for {key!r}"
                ) from None
    try:
        return MaterialParams(**overrides)
    except ValueError as exc:
        raise MaterialFileError(f"{path}: {exc}") from None
