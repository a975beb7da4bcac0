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


def test_top_level_names_come_from_their_modules():
    # every name the package exports is exported by the module that defines
    # it; the extended-state blocks are the tests' oracle (extended_state.py)
    # and the observer demo's, and the separation check and the certificate
    # reader are the tests' (stability_oracles.py), not the library's
    exported = set()
    for name in MODULES[1:]:
        exported |= set(getattr(importlib.import_module(name), "__all__", []))
    assert set(iterlearn.__all__) - {"__version__"} <= exported
    assert not {"ExtendedSystem", "build_extended"} & exported
    oracles = {"verify_separation", "load_certificate", "certificate_from_dict", "_numbers"}
    assert not any(hasattr(importlib.import_module(name), n) for name in MODULES for n in oracles)
