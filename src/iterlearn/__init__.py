"""Iteration-domain learning control.

A numpy/scipy library for data-driven learning over repeated task
executions: lifted plant construction, extended-state-observer based
updating laws, and robust stability certification through spectral-radius
conditions and block matrix inequalities.
"""

from .matanalysis import (
    block_spectral_radius,
    eigenvalues,
    induced_norm,
    is_negative_definite,
    spectral_radius,
)
from .observer import (
    ExtendedSystem,
    ObserverGain,
    build_extended,
    check_observer_condition,
    simulate_observation_error,
)
from .plant import (
    DiffStats,
    LiftedIlcSystem,
    StructuredUncertainty,
    TransferPlant,
    UncertaintyModel,
    diff_stats,
    lift_ilc,
    sample_structured_delta,
    simulate_time_domain,
    uncertainty_sequence,
)
from .learner import (
    GainSet,
    IterationTrace,
    LearningLaw,
    SimulationConfig,
    StabilityProfile,
    estimate_stability_profile,
    run,
    synth_H_pseudo,
    synth_Hbar,
)
from .stability import (
    ConditionReport,
    LmiCertificate,
    check_condition,
    lmi_search,
    lmi_verify,
    loop_matrix,
    theorem_implication_check,
    verify_separation,
)

__version__ = "0.1.0"

__all__ = [
    "block_spectral_radius",
    "eigenvalues",
    "induced_norm",
    "is_negative_definite",
    "spectral_radius",
    "ExtendedSystem",
    "ObserverGain",
    "build_extended",
    "check_observer_condition",
    "simulate_observation_error",
    "DiffStats",
    "LiftedIlcSystem",
    "StructuredUncertainty",
    "TransferPlant",
    "UncertaintyModel",
    "diff_stats",
    "lift_ilc",
    "sample_structured_delta",
    "simulate_time_domain",
    "uncertainty_sequence",
    "GainSet",
    "IterationTrace",
    "LearningLaw",
    "SimulationConfig",
    "StabilityProfile",
    "estimate_stability_profile",
    "run",
    "synth_H_pseudo",
    "synth_Hbar",
    "ConditionReport",
    "LmiCertificate",
    "check_condition",
    "lmi_search",
    "lmi_verify",
    "loop_matrix",
    "theorem_implication_check",
    "verify_separation",
    "__version__",
]
