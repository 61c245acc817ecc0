"""The tests' one reference for the Markov-limit qubit: the master equation as written.

    d rho/dt = -(i/hbar) [H0, rho] + (gamma/2) (sigma_z rho sigma_z - rho),
    H0 = -(E/2) sigma_z,

is solved on the whole 2x2 matrix. Its 4x4 Liouvillian is assembled by
applying that right-hand side to each matrix unit, and rho(t) =
expm(L t) rho(0) with scipy (a test-only dependency). Nothing here uses
the package's entrywise rate L01 = i E/hbar - gamma, so a wrong sign or
factor in that derivation shows up as a mismatch.
"""

import numpy as np
from scipy.linalg import expm

from dephaser.model import CONST

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def liouvillian(p) -> np.ndarray:
    """The generator on row-major vec(rho), one column per matrix unit."""
    h0 = -0.5 * p.level_splitting_E_J * SIGMA_Z

    def rhs(rho):
        return (-1j / CONST.hbar * (h0 @ rho - rho @ h0)
                + 0.5 * p.gamma_per_s * (SIGMA_Z @ rho @ SIGMA_Z - rho))

    return np.column_stack([rhs(unit.reshape(2, 2)).ravel()
                            for unit in np.eye(4, dtype=complex)])


def master_equation_state(rho0, p, t: float) -> np.ndarray:
    """rho(t) as a 2x2 complex matrix, from the DensityMatrix2 rho0."""
    start = np.array([rho0.rho00, rho0.rho01, rho0.rho10, rho0.rho11], dtype=complex)
    return (expm(liouvillian(p) * t) @ start).reshape(2, 2)
