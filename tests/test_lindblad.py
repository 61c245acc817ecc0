"""Tests for the two-level pure-dephasing master equation: its one evaluator
(evolve_analytic at one time, trajectory on a grid) against the reference in
lindblad_reference.py, which solves the equation as written."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephaser.cli import trajectory_csv_text, write_text
from dephaser.harmonic import (
    MARKOV_RATE_LIMIT_PER_S,
    DensityMatrix2,
    LindbladParams,
    MarkovValidityWarning,
    Trajectory2,
    evolve_analytic,
    trajectory,
)
from dephaser.model import CONST
from lindblad_reference import master_equation_state

BALANCED = DensityMatrix2(0.5, 0.5)
TILTED = DensityMatrix2(0.6, 0.3 + 0.2j)

STATE_SEED = 47119


def _random_state(rng):
    p0 = rng.uniform(0.05, 0.95)
    r = rng.uniform(0.0, 1.0) * math.sqrt(p0 * (1.0 - p0))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    c = r * cmath.exp(1j * phase)
    return DensityMatrix2(p0, c)


def test_zero_time_is_identity():
    p = LindbladParams(gamma_per_s=1e9)
    out = evolve_analytic(TILTED, p, 0.0)
    assert out.rho00 == TILTED.rho00
    assert out.rho01 == pytest.approx(TILTED.rho01)


def test_half_life_of_coherence():
    p = LindbladParams(gamma_per_s=1e9)
    out = evolve_analytic(BALANCED, p, math.log(2.0) / 1e9)
    assert out.rho01 == pytest.approx(0.25, rel=1e-13)
    assert out.rho00 == 0.5 and out.rho11 == 0.5


def test_coherence_reaches_inverse_e_at_t2():
    gamma = 7.3e8
    p = LindbladParams(gamma_per_s=gamma)
    out = evolve_analytic(BALANCED, p, 1.0 / gamma)
    assert abs(out.rho01) == pytest.approx(0.5 / math.e, rel=1e-12)


def test_populations_are_conserved_exactly():
    p = LindbladParams(gamma_per_s=2e9, level_splitting_E_J=1e-24)
    out = evolve_analytic(TILTED, p, 3e-9)
    assert out.rho00 == TILTED.rho00
    assert out.rho11 == TILTED.rho11


def _random_params(rng):
    gamma = 10.0 ** rng.uniform(7.0, 10.0)
    omega = 10.0 ** rng.uniform(7.0, 11.0)
    return LindbladParams(gamma_per_s=gamma, level_splitting_E_J=omega * CONST.hbar)


def test_numeric_matches_analytic_for_random_states():
    # numeric: the master equation as written, solved on the whole matrix
    rng = np.random.default_rng(STATE_SEED)
    for _ in range(50):
        rho0 = _random_state(rng)
        p = _random_params(rng)
        t = rng.uniform(0.0, 5.0) / p.gamma_per_s
        ref = master_equation_state(rho0, p, t)
        exact = evolve_analytic(rho0, p, t)
        assert abs(exact.rho00 - ref[0, 0]) < 1e-12
        assert abs(exact.rho01 - ref[0, 1]) < 1e-12


def test_trajectory_matches_the_2x2_reference():
    rng = np.random.default_rng(STATE_SEED)
    for _ in range(20):
        rho0 = _random_state(rng)
        p = _random_params(rng)
        traj = trajectory(rho0, p, rng.uniform(0.5, 5.0) / p.gamma_per_s,
                          int(rng.integers(2, 40)))
        for t, rho00, rho01 in zip(traj.times_s, traj.rho00, traj.rho01):
            ref = master_equation_state(rho0, p, t)
            assert abs(rho00 - ref[0, 0]) < 1e-12
            assert abs(rho01 - ref[0, 1]) < 1e-12
            assert abs(np.conj(rho01) - ref[1, 0]) < 1e-12


def test_numeric_conserves_trace_and_populations():
    # the master equation as written leaves the populations alone, which is
    # why DensityMatrix2 stores rho00 and the package evolves rho01 only
    p = LindbladParams(gamma_per_s=1e9, level_splitting_E_J=1e-24)
    ref = master_equation_state(TILTED, p, 4e-9)
    assert abs(np.trace(ref) - 1.0) < 1e-12
    assert abs(ref[0, 0] - 0.6) < 1e-12
    assert abs(ref[1, 0] - np.conj(ref[0, 1])) < 1e-15
    assert abs(evolve_analytic(TILTED, p, 4e-9).rho00 - ref[0, 0]) < 1e-12


def test_analytic_semigroup_property():
    p = LindbladParams(gamma_per_s=8e8, level_splitting_E_J=5e-25)
    t1, t2 = 1.3e-9, 2.4e-9
    direct = evolve_analytic(TILTED, p, t1 + t2)
    stepped = evolve_analytic(evolve_analytic(TILTED, p, t1), p, t2)
    assert abs(direct.rho01 - stepped.rho01) < 1e-12


def test_pure_rotation_when_rate_vanishes():
    E = 1e-24
    p = LindbladParams(gamma_per_s=0.0, level_splitting_E_J=E)
    t = 2.7e-10
    out = evolve_analytic(BALANCED, p, t)
    assert abs(out.rho01) == pytest.approx(0.5, rel=1e-14)
    expected_phase = E * t / CONST.hbar
    assert cmath.phase(out.rho01 / BALANCED.rho01) == pytest.approx(
        math.remainder(expected_phase, 2.0 * math.pi), abs=1e-12
    )


def test_evolution_preserves_positivity():
    # DensityMatrix2 construction enforces the PSD check at every step
    p = LindbladParams(gamma_per_s=3e9, level_splitting_E_J=1e-24)
    pure = DensityMatrix2(0.5, 0.5)
    for t in np.linspace(0.0, 5e-9, 40):
        out = evolve_analytic(pure, p, float(t))
        assert abs(out.rho01) <= math.sqrt(out.rho00.real * out.rho11.real) + 1e-12


def test_evolve_input_validation():
    p = LindbladParams(gamma_per_s=1e9)
    with pytest.raises(ValueError):
        evolve_analytic(BALANCED, p, -1e-9)
    with pytest.raises(ValueError):
        evolve_analytic(BALANCED, p, math.nan)


def test_lindblad_params_validation():
    with pytest.raises(ValueError):
        LindbladParams(gamma_per_s=-1.0)
    with pytest.raises(ValueError):
        LindbladParams(gamma_per_s=math.inf)
    with pytest.raises(ValueError):
        LindbladParams(gamma_per_s=1e9, level_splitting_E_J=math.nan)


def test_markov_validity_warning():
    with pytest.warns(MarkovValidityWarning) as record:
        LindbladParams(gamma_per_s=2.0 * MARKOV_RATE_LIMIT_PER_S)
    # the warning names the line that built the parameters
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error", MarkovValidityWarning)
        LindbladParams(gamma_per_s=1e10)


@pytest.mark.parametrize(
    "entries",
    [
        (0.5, 0.6),                        # |rho01| too large: not PSD
        (math.nan, 0.0),                   # non-finite population
        (0.5, complex(0.0, math.inf)),     # non-finite coherence
        (1.2, 0.0),                        # population above 1: not PSD
        (-0.1, 0.0),                       # negative population: not PSD
    ],
)
def test_density_matrix_rejects_invalid(entries):
    with pytest.raises(ValueError):
        DensityMatrix2(*entries)


def test_off_diagonal_partner_and_second_population_are_derived():
    assert TILTED.rho10 == 0.3 - 0.2j
    assert TILTED.rho11 == 1.0 - 0.6
    traj = trajectory(TILTED, LindbladParams(gamma_per_s=1e9), 1e-9, 3)
    np.testing.assert_array_equal(traj.rho11, np.full(3, TILTED.rho11))


def test_density_matrix_accepts_pure_boundary():
    state = DensityMatrix2(0.5, 0.5)
    assert state.rho00 + state.rho11 == 1.0
    assert abs(state.rho01) ** 2 == state.rho00 * state.rho11


@given(
    p0=st.floats(min_value=0.05, max_value=0.95),
    frac=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    gamma_t=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_coherence_modulus_decay_law(p0, frac, phase, gamma_t):
    c = frac * math.sqrt(p0 * (1.0 - p0)) * cmath.exp(1j * phase)
    rho0 = DensityMatrix2(p0, c)
    gamma = 1e9
    out = evolve_analytic(rho0, LindbladParams(gamma_per_s=gamma), gamma_t / gamma)
    assert abs(out.rho01) == pytest.approx(abs(c) * math.exp(-gamma_t), abs=1e-12)


def test_trajectory_grid_and_decay():
    p = LindbladParams(gamma_per_s=1e9)
    traj = trajectory(BALANCED, p, 4e-9, 5)
    np.testing.assert_array_equal(traj.times_s, 4e-9 * np.arange(5) / 4.0)
    np.testing.assert_array_equal(traj.rho00, np.full(5, 0.5))
    expected = 0.5 * np.exp(-1e9 * traj.times_s)
    np.testing.assert_allclose(np.abs(traj.rho01), expected, rtol=1e-12)


def test_trajectory_degenerate_grid():
    p = LindbladParams(gamma_per_s=1e9)
    assert trajectory(BALANCED, p, 0.0, 9).times_s.tolist() == [0.0]
    assert trajectory(BALANCED, p, 1e-9, 1).times_s.tolist() == [0.0]
    with pytest.raises(ValueError):
        trajectory(BALANCED, p, 1e-9, 0)
    with pytest.raises(ValueError):
        trajectory(BALANCED, p, -1e-9, 5)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="shape"):
        Trajectory2(times_s=np.array([0.0, 1.0]), rho00=np.array([0.5]),
                    rho01=np.array([0.1, 0.1]))


def test_trajectory_csv_round_trip(tmp_path):
    p = LindbladParams(gamma_per_s=1e9, level_splitting_E_J=1e-25)
    traj = trajectory(TILTED, p, 2e-9, 3)
    text = trajectory_csv_text(traj)
    lines = text.splitlines()
    assert lines[0] == "t_s,rho00,rho11,re_rho01,im_rho01,abs_rho01"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == abs(TILTED.rho01)
    path = tmp_path / "trajectory.csv"
    write_text(path, text)
    assert path.read_text(encoding="utf-8") == text
