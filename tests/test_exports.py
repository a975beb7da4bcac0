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


#: the iterlearn names the benchmark harness (perfbench/) calls, by module
BENCHMARK_NAMES = {
    "cli": ["main", "load_experiment"],
    "presets": [
        "reference_seeds",
        "write_reference_experiment",
        "reference_gains",
        "banded_surrogate",
        "perturbed_reference_system",
        "reference_config",
    ],
    "stability": ["check_condition", "lmi_search", "certificate_to_dict", "StructuredUncertainty"],
    "learner": ["run"],
}


def test_the_benchmark_harness_names_resolve():
    # the harness lives apart from the tests: a name it calls that is gone
    # would break only the benchmark run
    missing = [
        f"{module}.{name}"
        for module, names in BENCHMARK_NAMES.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"iterlearn.{module}"), name, None))
    ]
    assert not missing


def test_certificate_dict_holds_the_dense_blocks_the_harness_reads():
    import numpy as np

    from iterlearn import presets, stability

    T = 10
    S = presets.banded_surrogate(T)
    structure = stability.StructuredUncertainty(phi1=0.05 * np.eye(T), phi2=np.eye(T))
    cert = stability.lmi_search("eq101", S, structure, presets.reference_gains(S))
    doc = stability.certificate_to_dict(cert)
    Q11, Q21, Q22 = (np.asarray(doc[key], dtype=float) for key in ("Q11", "Q21", "Q22"))
    assert (Q11.shape, Q21.shape, Q22.shape) == ((T, T), (2 * T, T), (2 * T, 2 * T))
    assert np.array_equal(np.block([[Q11, Q21.T], [Q21, Q22]]), cert.assembled())
    assert doc["tau"] == cert.tau
