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
