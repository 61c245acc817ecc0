"""Phonon-induced pure dephasing of a double quantum dot.

Computes the Markovian dephasing rate gamma = 1/T2 of an electron
delocalized over two dots, coupled to an anharmonic acoustic-phonon
reservoir, by three independent numerical routes, together with the exact
harmonic-reservoir (partial-dephasing) benchmark and the resulting
two-level Lindblad dynamics.
"""
from .coupling import (
    SPECTRAL_FORMS,
    SpectralDensity,
    load_spectral_table,
    spectral_density,
)
from .harmonic import (
    MARKOV_RATE_LIMIT_PER_S,
    DecoherenceCurve,
    DensityMatrix2,
    LindbladParams,
    MarkovValidityWarning,
    Trajectory2,
    asymptotic_coherence,
    coherence_ratio,
    decoherence_curve,
    evolve_analytic,
    trajectory,
)
from .model import (
    CONST,
    GAAS,
    DotGeometry,
    MaterialFileError,
    MaterialParams,
    PhysicalConstants,
    RateIntegralParams,
    ThermalEnv,
    coupling_scale,
    derived_scales,
    load_material,
)
from .quadrature import (
    NonConvergence,
    NonFiniteSample,
    QuadratureConfig,
    QuadratureResult,
    integrate,
    integrate_nested,
    integrate_semi_infinite,
)
from .rates import (
    METHOD_CLOSED,
    METHOD_DOUBLE,
    METHOD_MC,
    CutoffValidityWarning,
    RateResult,
    ValidationReport,
    rate_closed_form,
    rate_double_integral,
    rate_monte_carlo,
    rate_validate,
)
from .specfun import (
    BOSE_FIFTH_MOMENT_INF,
    BoseMomentTable,
    bose_fifth_moment,
    get_moment_table,
    sinc_deficit,
)
from .sweep import (
    AXIS_DISTANCE,
    AXIS_TEMPERATURE,
    FitResult,
    SweepPoint,
    SweepSpec,
    fit_log_law,
    fit_power_law,
    run_sweep,
)

__version__ = "0.1.0"
