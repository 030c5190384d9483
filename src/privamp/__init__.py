"""Finite-blocklength privacy amplification against quantum side information.

Renyi information measures, max-relative-entropy smoothing with certified
bounds, security and equivocation exponents, and two-universal hashing
simulation, all at desk scale on dense numpy linear algebra.
"""

from .operators import (
    BudgetExceededError,
    EigensolverError,
    HermitianOperator,
    SpectralDecomposition,
    commutator_defect,
    distinct_eigenvalue_counts_iid,
    eig,
    mat_power,
    pinching,
    positive_part_trace,
    simultaneous_eigenbasis,
)
from .states import CQState, StateDescriptor
from .measures import (
    ConditionalRenyiCurve,
    DivergenceResult,
    RenyiDivergenceCurve,
    apply_measurement,
    fidelity,
    max_relative_entropy,
    purified_distance,
    relative_entropy,
    renyi_conditional_entropy,
    sandwiched_renyi_divergence,
    trace_distance,
)
from .exponents import (
    CurvePoint,
    ExponentCurve,
    ExponentValue,
    critical_rate,
    equivocation_rate,
    exponent_curve,
    pa_lower_exponent,
    pa_upper_exponent,
    rate_derivative,
    renyi_security_exponent,
    smoothing_exponent,
)
from .smoothing import (
    SmoothingCertificate,
    SpectrumDistribution,
    converse_bound,
    iid_smoothing_certificate,
    pinched_smoothing_witness,
    smoothing_certificate,
)
from .hashing import (
    AffinePrimeFamily,
    AllFunctionsFamily,
    FamilyExpectation,
    InsecurityReport,
    PermutationProductFamily,
    example1_suite,
    example2_suite,
    family_expectation,
    hashed_q_expectation_check,
    leftover_hash_exponent_check,
    min_insecurity_exhaustive,
    positive_part_superadditivity_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
