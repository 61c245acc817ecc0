"""Tests for the reservoir spectral densities."""

import math

import numpy as np
import pytest

from dephaser.coupling import (
    SPECTRAL_FORMS,
    SpectralDensity,
    load_spectral_table,
    spectral_density,
)


def test_spectral_density_power_law_values():
    sd = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1.0,
                         exponent=2.0, cutoff_rad_per_s=1e30)
    assert spectral_density(sd, 3.0) == pytest.approx(9.0, rel=1e-12, abs=0)
    assert spectral_density(sd, 0.0) == 0.0


def test_spectral_density_cutoff_shapes():
    gauss = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=2.0,
                            exponent=1.0, cutoff_rad_per_s=5.0)
    expo = SpectralDensity(form="power-law-exponential-cutoff", amplitude=2.0,
                           exponent=1.0, cutoff_rad_per_s=5.0)
    assert spectral_density(gauss, 5.0) == pytest.approx(10.0 * math.exp(-1.0), rel=1e-14, abs=0)
    assert spectral_density(expo, 5.0) == pytest.approx(10.0 * math.exp(-1.0), rel=1e-14, abs=0)
    assert spectral_density(gauss, 10.0) == pytest.approx(20.0 * math.exp(-4.0), rel=1e-14, abs=0)
    assert spectral_density(expo, 10.0) == pytest.approx(20.0 * math.exp(-2.0), rel=1e-14, abs=0)


def test_spectral_density_tabulated_interpolation():
    sd = SpectralDensity(form="tabulated",
                         table_omega_rad_per_s=np.array([1.0, 3.0]),
                         table_J=np.array([1.0, 3.0]))
    assert spectral_density(sd, 2.0) == pytest.approx(2.0, rel=1e-15, abs=0)
    assert spectral_density(sd, 1.0) == 1.0
    assert spectral_density(sd, 0.5) == 0.0
    assert spectral_density(sd, 4.0) == 0.0
    out = spectral_density(sd, np.array([0.0, 2.0]))
    assert out.shape == (2,)


def test_spectral_density_rejects_bad_omega():
    sd = SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1.0)
    with pytest.raises(ValueError):
        spectral_density(sd, -1.0)
    with pytest.raises(ValueError):
        spectral_density(sd, math.nan)


def test_spectral_forms_constant():
    assert "tabulated" in SPECTRAL_FORMS
    with pytest.raises(ValueError, match="unknown spectral form"):
        SpectralDensity(form="ohmic")


@pytest.mark.parametrize(
    "omega, values",
    [
        ([2.0, 1.0], [1.0, 1.0]),          # decreasing
        ([0.0, 1.0], [1.0, 1.0]),          # starts at zero
        ([1.0], [1.0]),                    # too short
        ([1.0, 2.0], [1.0, -1.0]),         # negative J
        ([1.0, 2.0], [1.0, math.nan]),     # non-finite
    ],
)
def test_tabulated_validation(omega, values):
    with pytest.raises(ValueError):
        SpectralDensity(form="tabulated",
                        table_omega_rad_per_s=np.array(omega, dtype=float),
                        table_J=np.array(values, dtype=float))


def test_parametric_validation():
    with pytest.raises(ValueError, match="amplitude"):
        SpectralDensity(form="power-law-gaussian-cutoff", amplitude=-1.0)
    with pytest.raises(ValueError, match="exponent"):
        SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1.0, exponent=0.5)
    with pytest.raises(ValueError, match="cutoff"):
        SpectralDensity(form="power-law-gaussian-cutoff", amplitude=1.0,
                        cutoff_rad_per_s=0.0)


def test_tabulated_arrays_frozen():
    sd = SpectralDensity(form="tabulated",
                         table_omega_rad_per_s=np.array([1.0, 3.0]),
                         table_J=np.array([1.0, 3.0]))
    with pytest.raises(ValueError):
        sd.table_J[0] = 5.0


def _write_csv(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_spectral_table_with_header(tmp_path):
    path = _write_csv(tmp_path, "omega_rad_per_s,J\n1.0,1.0\n3.0,3.0\n")
    sd = load_spectral_table(path)
    assert spectral_density(sd, 2.0) == pytest.approx(2.0)


def test_load_spectral_table_without_header(tmp_path):
    path = _write_csv(tmp_path, "1.0,1.0\n\n3.0,3.0\n")
    sd = load_spectral_table(path)
    assert sd.table_omega_rad_per_s.tolist() == [1.0, 3.0]


def test_load_spectral_table_reads_past_a_byte_order_mark(tmp_path):
    # the mark is not text: the first row is data, not a header
    path = _write_csv(tmp_path, "\ufeff1e12,1\n2e12,2\n3e12,3\n")
    sd = load_spectral_table(path)
    assert sd.table_omega_rad_per_s.tolist() == [1e12, 2e12, 3e12]


def test_load_spectral_table_rejects_short(tmp_path):
    path = _write_csv(tmp_path, "omega,J\n1.0,1.0\n")
    with pytest.raises(ValueError, match="two data rows"):
        load_spectral_table(path)


def test_load_spectral_table_rejects_single_column(tmp_path):
    path = _write_csv(tmp_path, "1.0\n2.0\n")
    with pytest.raises(ValueError, match="two columns"):
        load_spectral_table(path)


def test_load_spectral_table_rejects_text_mid_file(tmp_path):
    path = _write_csv(tmp_path, "1.0,1.0\noops,3.0\n")
    with pytest.raises(ValueError, match="unparsable"):
        load_spectral_table(path)


def test_load_spectral_table_skips_only_the_first_row(tmp_path):
    path = _write_csv(tmp_path, "omega,J\nfoo,bar\n1e12,1\n2e12,2\n")
    with pytest.raises(ValueError, match="unparsable row"):
        load_spectral_table(path)
