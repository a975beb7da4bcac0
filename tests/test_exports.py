"""Every exported name resolves, so a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import iterlearn

MODULES = ["iterlearn"] + [
    f"iterlearn.{info.name}" for info in pkgutil.iter_modules(iterlearn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


#: the package's public names, pinned: a name leaves or joins on purpose
TOP_LEVEL = {
    "block_spectral_radius",
    "eigenvalues",
    "induced_norm",
    "spectral_radius",
    "ObserverGain",
    "DiffStats",
    "LiftedIlcSystem",
    "StructuredUncertainty",
    "TransferPlant",
    "UncertaintyModel",
    "diff_stats",
    "lift_ilc",
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
    "__version__",
}


def test_top_level_names_are_pinned():
    assert set(iterlearn.__all__) == TOP_LEVEL


def test_top_level_names_come_from_their_modules():
    # every name the package exports is exported by the module that defines
    # it; the extended-state blocks, the laws' steps and the time-domain and
    # observation-error rollouts are the tests' oracles (extended_state.py),
    # and the separation check, the certificate reader and the implication
    # check with its error sampler are the tests' (stability_oracles.py), not
    # the library's; an inequality is accepted only by stability._accepts,
    # and the observer condition is the catalog's eq17, so no module
    # defines a negative-definiteness wrapper or an observer-condition helper
    exported = set()
    for name in MODULES[1:]:
        exported |= set(getattr(importlib.import_module(name), "__all__", []))
    assert set(iterlearn.__all__) - {"__version__"} <= exported
    assert not {"ExtendedSystem", "build_extended"} & exported
    oracles = {
        "verify_separation",
        "load_certificate",
        "certificate_from_dict",
        "_numbers",
        "law_map",
        "simulate_time_domain",
        "simulate_observation_error",
        "sample_structured_delta",
        "theorem_implication_check",
        "is_negative_definite",
        "check_symmetric",
        "check_observer_condition",
        "_verifies",
    }
    assert not any(hasattr(importlib.import_module(name), n) for name in MODULES for n in oracles)
