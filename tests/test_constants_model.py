"""Tests for physical constants and model parameter handling."""

import math

import mpmath
import pytest
from scipy import constants as sc

from dephaser.model import (
    CONST,
    GAAS,
    DotGeometry,
    MaterialFileError,
    MaterialParams,
    ThermalEnv,
    coupling_scale,
    derived_scales,
    load_material,
)

GEOM = DotGeometry(width_L_m=4e-9, separation_D_m=10e-9)

# change detectors for the GaAs scales at T = 100 K
X_DEBYE_100K = 4.327058755197736


def test_constants_match_codata():
    # k_B and e are exact in SI since 2019 and hbar = h/(2 pi) is given to
    # the ten digits CODATA prints (6.1e-10 below h/(2 pi)); eps0 is the
    # CODATA 2018 value that PhysicalConstants names (CODATA 2022, scipy's,
    # is 8.8541878188e-12, 6.8e-10 higher)
    assert CONST.hbar == pytest.approx(sc.hbar, rel=1e-9, abs=0)
    assert CONST.k_B == sc.k
    assert CONST.e_charge == sc.e
    assert CONST.eps0 == 8.8541878128e-12


def test_constants_frozen():
    with pytest.raises(Exception):
        CONST.hbar = 1.0


def test_debye_cutoff_in_thermal_units():
    params = derived_scales(GAAS, GEOM, ThermalEnv(T_K=100.0))
    direct = CONST.hbar * 5150.0 * 1.1e10 / (CONST.k_B * 100.0)
    assert params.x_debye == direct
    assert params.x_debye == pytest.approx(X_DEBYE_100K, rel=1e-12, abs=0)


def test_prefactor_regrouping():
    # the single-expression literal must equal the factored implementation
    T = 100.0
    params = derived_scales(GAAS, GEOM, ThermalEnv(T_K=T))
    literal = (
        (64.0 / math.pi**2)
        * CONST.e_charge**2
        * (CONST.k_B * T) ** 5
        / (
            GAAS.tau0_s
            * CONST.hbar**6
            * GAAS.Omega_rad_per_s**5
            * CONST.eps0
            * GAAS.eps_lattice
            * GAAS.c_sound_m_per_s
        )
    )
    assert params.prefactor_per_s == pytest.approx(literal, rel=1e-12, abs=0)


def test_prefactor_temperature_power():
    p1 = derived_scales(GAAS, GEOM, ThermalEnv(T_K=50.0)).prefactor_per_s
    p2 = derived_scales(GAAS, GEOM, ThermalEnv(T_K=100.0)).prefactor_per_s
    assert p2 / p1 == pytest.approx(2.0**5, rel=1e-12, abs=0)


def test_geometry_ratios():
    params = derived_scales(GAAS, GEOM, ThermalEnv(T_K=100.0))
    assert params.form_factor_limit == math.sqrt(2.0) * (GAAS.k_D_per_m * GEOM.width_L_m)
    assert params.form_factor_limit == pytest.approx(math.sqrt(2.0) * 1.1e10 * 4e-9,
                                                     rel=1e-15, abs=0)
    assert params.sep_ratio == pytest.approx(math.sqrt(2.0) * 2.5, rel=1e-15, abs=0)


def test_derived_scales_rejects_zero_temperature():
    with pytest.raises(ValueError, match="T_K > 0"):
        derived_scales(GAAS, GEOM, ThermalEnv(T_K=0.0))


def test_coupling_scale_value():
    direct = CONST.e_charge**2 / (CONST.eps0 * 70.0 * CONST.hbar * 5150.0)
    assert coupling_scale(GAAS) == direct


@pytest.mark.parametrize(
    "field, value",
    [
        ("Omega_rad_per_s", 0.0),
        ("tau0_s", -1e-12),
        ("c_sound_m_per_s", math.inf),
        ("k_D_per_m", math.nan),
        ("eps_lattice", 0.0),
    ],
)
def test_material_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        MaterialParams(**{field: value})


def test_geometry_validation():
    with pytest.raises(ValueError):
        DotGeometry(width_L_m=0.0, separation_D_m=1e-9)
    with pytest.raises(ValueError):
        DotGeometry(width_L_m=4e-9, separation_D_m=-1e-9)
    with pytest.raises(ValueError, match="finite"):
        DotGeometry(width_L_m=math.nan, separation_D_m=1e-9)
    with pytest.raises(ValueError, match="finite"):
        DotGeometry(width_L_m=4e-9, separation_D_m=math.nan)
    geom = DotGeometry(width_L_m=4e-9, separation_D_m=0.0)
    assert geom.separation_D_m == 0.0


def test_thermal_env_validation():
    assert ThermalEnv(T_K=0.0).T_K == 0.0
    with pytest.raises(ValueError):
        ThermalEnv(T_K=-0.1)
    with pytest.raises(ValueError, match="finite"):
        ThermalEnv(T_K=math.nan)


def _write(tmp_path, text):
    path = tmp_path / "material.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_material_defaults_and_overrides(tmp_path):
    path = _write(tmp_path, "# comment line\n\ntau0_s = 4.6e-12  # halved\n")
    mat = load_material(path)
    assert mat.tau0_s == 4.6e-12
    assert mat.Omega_rad_per_s == GAAS.Omega_rad_per_s
    assert mat.eps_lattice == GAAS.eps_lattice


def test_load_material_reads_past_a_byte_order_mark(tmp_path):
    mat = load_material(_write(tmp_path, "\ufefftau0_s = 4.6e-12\n"))
    assert mat.tau0_s == 4.6e-12


def test_load_material_empty_file_gives_defaults(tmp_path):
    assert load_material(_write(tmp_path, "")) == GAAS


def test_load_material_unknown_key(tmp_path):
    path = _write(tmp_path, "speed = 5150\n")
    with pytest.raises(MaterialFileError, match="unknown key"):
        load_material(path)


def test_load_material_duplicate_key(tmp_path):
    path = _write(tmp_path, "tau0_s = 1e-12\ntau0_s = 2e-12\n")
    with pytest.raises(MaterialFileError, match="duplicate"):
        load_material(path)


def test_load_material_bad_number(tmp_path):
    path = _write(tmp_path, "tau0_s = fast\n")
    with pytest.raises(MaterialFileError, match="could not parse"):
        load_material(path)


def test_load_material_missing_equals(tmp_path):
    path = _write(tmp_path, "tau0_s 4.6e-12\n")
    with pytest.raises(MaterialFileError, match="key = value"):
        load_material(path)


def test_load_material_negative_value(tmp_path):
    path = _write(tmp_path, "tau0_s = -4.6e-12\n")
    with pytest.raises(MaterialFileError, match="tau0_s"):
        load_material(path)


def test_load_material_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_material(tmp_path / "absent.txt")


@pytest.mark.parametrize("T_K, L_m, D_m", [(1e-3, 0.1e-9, 0.0), (100.0, 4e-9, 10e-9),
                                           (1e4, 100e-9, 1e-3)])
def test_derived_scales_match_si_by_hand(T_K, L_m, D_m):
    # every route's scale, recomputed at 30 digits from SI literals: CODATA
    # 2018 and the GaAs defaults, typed here rather than read from the package
    with mpmath.workdps(30):
        hbar, k_B = mpmath.mpf("1.054571817e-34"), mpmath.mpf("1.380649e-23")
        e, eps0 = mpmath.mpf("1.602176634e-19"), mpmath.mpf("8.8541878128e-12")
        Omega, tau0 = mpmath.mpf("5.4e13"), mpmath.mpf("9.2e-12")
        c, k_D, eps_lattice = mpmath.mpf(5150), mpmath.mpf("1.1e10"), mpmath.mpf(70)
        T, L, D = mpmath.mpf(T_K), mpmath.mpf(L_m), mpmath.mpf(D_m)
        expected = {
            "prefactor_per_s": 64 / mpmath.pi**2 / tau0 * e**2 / (eps0 * eps_lattice * hbar * c)
            * (k_B * T / (hbar * Omega)) ** 5,
            "x_debye": hbar * c * k_D / (k_B * T),
            "form_factor_limit": mpmath.sqrt(2) * k_D * L,
            "sep_ratio": mpmath.sqrt(2) * D / L,
        }
    params = derived_scales(GAAS, DotGeometry(width_L_m=L_m, separation_D_m=D_m),
                            ThermalEnv(T_K=T_K))
    for name, value in expected.items():
        assert getattr(params, name) == pytest.approx(float(value), rel=1e-14, abs=0), name
