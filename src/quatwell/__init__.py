"""Bound states of the quaternionic spherical square well.

A particle with zero angular momentum in a finite spherical trap whose
exterior potential carries quaternionic components i*V1 + j*V2 + k*V3 still
binds at discrete energies; the quantization condition stays real even
below the pure-quaternionic threshold.  This package provides the
quaternion algebra, the eigenvalue canonicalization, the matched radial
solutions, the root solver for the quantization condition, and a CLI that
emits spectra, comparison tables and plot data.
"""

from .quaternion import I, J, K, ONE, ZERO, Quaternion, symplectic_join, symplectic_split
from .spectral import CanonicalForm, ImaginaryEigenvalue, apply_automorphism, canonicalize
from .radial import (
    CharacteristicData,
    DegenerateEnergyError,
    NotARootError,
    PotentialSpec,
    RadialState,
    Regime,
    UnsupportedRegimeError,
    characteristic_data,
    classify_regime,
    eval_radial,
    eval_region1,
    eval_region2,
    exterior,
    ode_residual,
    radial_norm,
    solve_coefficients,
)
from .quantization import (
    BoundState,
    BoundStateSet,
    EmptyWindowError,
    QuantizationPoleError,
    QuantizationProblem,
    RealityReport,
    ScanGridTooLargeError,
    complex_limit_roots,
    expected_count,
    f_quantization,
    find_bound_states,
    mismatch,
    reality_report,
    trial_complex_states,
    validated_states,
    verify_determinant,
)
from .verify import CheckResult, run_property_checks

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "symplectic_split", "symplectic_join",
    "ZERO", "ONE", "I", "J", "K",
    "ImaginaryEigenvalue", "CanonicalForm", "apply_automorphism", "canonicalize",
    "PotentialSpec", "CharacteristicData", "RadialState", "Regime",
    "classify_regime", "exterior", "characteristic_data",
    "eval_region1", "eval_region2", "eval_radial",
    "solve_coefficients", "radial_norm", "ode_residual",
    "DegenerateEnergyError", "UnsupportedRegimeError", "NotARootError",
    "QuantizationProblem", "BoundState", "BoundStateSet", "RealityReport",
    "f_quantization", "mismatch", "find_bound_states", "verify_determinant",
    "trial_complex_states", "complex_limit_roots", "expected_count", "validated_states",
    "reality_report", "QuantizationPoleError", "EmptyWindowError", "ScanGridTooLargeError",
    "CheckResult", "run_property_checks",
]
