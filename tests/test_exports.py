"""Every public name a module lists in ``__all__`` exists and is used, the
frozen API stays, the checks reach no pipeline module, and the package
imports nothing outside the standard library."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orbchi

MODULES = ["orbchi"] + [f"orbchi.{m.name}" for m in pkgutil.iter_modules(orbchi.__path__)]
REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "orbchi"

# each module's in-package imports: the engine (euler) reads only the
# series and the species; the oracle and the Stirling check (analytic) read
# only the species, so that they share no series, moments or euler code
# with the pipeline they check; and the moments, the reference route, are
# read only by the package root
IMPORTS = {
    "__init__": {"series", "moments", "species", "euler", "oracle", "analytic"},
    "series": set(),
    "moments": {"series"},
    "species": set(),
    "euler": {"series", "species"},
    "oracle": {"species"},
    "analytic": {"species"},
    "cli": {"analytic", "euler", "oracle", "species"},
}

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


def test_public_names_are_used():
    # a name in a submodule's __all__ must be read by another module of the
    # package, by a demo, by the README or by the console script that
    # pyproject.toml declares; otherwise nothing needs it public
    sources = {path: path.read_text(encoding="utf-8")
               for path in [*SRC.glob("*.py"),
                            *(REPO / "demos").glob("*.py"),
                            REPO / "README.md", REPO / "pyproject.toml"]}
    unused = []
    for name in MODULES[1:]:
        own = SRC / f"{name.rpartition('.')[2]}.py"
        for public in importlib.import_module(name).__all__:
            word = re.compile(rf"\b{re.escape(public)}\b")
            if not any(word.search(text) for path, text in sources.items() if path != own):
                unused.append(f"{name}.{public}")
    assert unused == []


def test_import_table_lists_every_module():
    assert set(IMPORTS) == {path.stem for path in SRC.glob("*.py")}


@pytest.mark.parametrize("module", IMPORTS)
def test_in_package_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = {node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in imports if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == IMPORTS[module]
    # the runtime is stdlib-only, and reaches its own modules by relative imports
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in absolute), absolute
    # every import runs when the module loads: none is type-only or deferred
    assert all(node in tree.body for node in imports)


def closure(module):
    """Every module ``module`` reaches through the IMPORTS table."""
    reached, todo = set(), [module]
    while todo:
        for name in IMPORTS[todo.pop()] - reached:
            reached.add(name)
            todo.append(name)
    return reached


def test_checks_reach_only_the_species():
    # direct imports are not enough: nothing the pipeline is built from may
    # reach the checks through the species either
    assert closure("oracle") == closure("analytic") == {"species"}
    assert closure("euler") == {"series", "species"}


def test_frozen_api():
    assert set(FROZEN) <= set(orbchi.__all__)
    for cls in (orbchi.BivariatePoly, orbchi.TSeries):
        assert callable(cls.exp)
    assert callable(orbchi.TSeries.log)
    assert "main" in importlib.import_module("orbchi.cli").__all__


@pytest.fixture(scope="module")
def cli_stdlib_imports():
    # one fresh -S process for both checks below: nothing in the package needs
    # dataclasses, starts a thread or handles a signal, so a CLI process skips
    # their import time; -S keeps site .pth hooks from deciding what the child
    # has loaded
    src = str(Path(orbchi.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import orbchi.cli; "
            "print(' '.join(sorted({'dataclasses', 'signal', 'threading'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_leaves_out_dataclasses(cli_stdlib_imports):
    assert "dataclasses" not in cli_stdlib_imports


def test_cli_import_leaves_out_what_the_split_avoids(cli_stdlib_imports):
    # the deep column sum runs in one process, so signal and threading stay out
    assert cli_stdlib_imports.isdisjoint({"signal", "threading"})
