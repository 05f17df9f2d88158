"""Every public name a module lists in ``__all__`` exists, and the frozen API stays."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_dataclasses():
    # -S keeps site .pth hooks from deciding what the child has loaded
    src = str(Path(orbchi.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import orbchi.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
