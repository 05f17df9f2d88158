"""Every public name a module lists in ``__all__`` exists, and the frozen API stays."""

import importlib
import pkgutil

import pytest

import orbchi

MODULES = ["orbchi"] + [f"orbchi.{m.name}" for m in pkgutil.iter_modules(orbchi.__path__)]

# the names tests/test_acceptance.py imports from the package root
FROZEN = [
    "BivariatePoly", "TSeries", "substitute_moments", "all_graphs_series",
    "connected_series", "euler_characteristic", "oracle_all_graphs_coefficient",
    "oracle_connected_coefficient", "check_commutative_asymptotics", "Species",
    "builtin_species",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} lists no public names"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # AttributeError names a missing one
    assert set(module.__all__) <= set(namespace)


def test_frozen_api():
    assert set(FROZEN) <= set(orbchi.__all__)
    for cls in (orbchi.BivariatePoly, orbchi.TSeries):
        assert callable(cls.exp)
    assert callable(orbchi.TSeries.log)
    assert "main" in importlib.import_module("orbchi.cli").__all__
