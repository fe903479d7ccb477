"""Properties of the package source itself and of what it loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normeuclid

SOURCE = Path(normeuclid.__file__).parent


def test_no_assert_statements_in_package():
    # correctness guards must raise, because python -O strips assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) >= 7
    assert found == []


def test_public_surface_is_consistent():
    # every name a module exports resolves, no name is exported twice, and
    # the package resolves every module and every exported name to the
    # same object (it keeps no list of names of its own)
    modules = [path.stem for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"]
    assert len(modules) >= 6
    owners = {}
    for short in modules:
        module = importlib.import_module(f"normeuclid.{short}")
        # the import binds the attribute, so ask the package's hook itself
        assert normeuclid.__getattr__(short) is module
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{short}.__all__ names {missing}"
        for name in module.__all__:
            assert owners.setdefault(name, short) == short, f"{name} in two __all__ lists"
            assert getattr(normeuclid, name) is getattr(module, name), name
    assert not hasattr(normeuclid, "no_such_name")


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import normeuclid", []),
        ("import normeuclid.lenstra", ["lenstra", "rogers", "specfun"]),
        ("from normeuclid import rogers", ["rogers", "specfun"]),
    ],
)
def test_package_loads_only_what_is_asked_for(code, loaded):
    # the package init imports no module, and a module brings only its own
    # imports: neither of these loads cyclozeta or zimmert
    code += (
        "\nimport sys\n"
        "print(sorted(m.removeprefix('normeuclid.') for m in sys.modules"
        " if m.startswith('normeuclid.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str(loaded)


def test_cli_import_builds_no_prime_sieve():
    # the Euler route's sieve is built on its first call, not at import
    code = (
        "import normeuclid.cli\n"
        "from normeuclid.cyclozeta import _primes_up_to\n"
        "print(_primes_up_to.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_runtime_path_loads_no_scipy():
    # scipy is a test dependency only: the CLI and every library route run
    # on numpy alone
    code = (
        "import sys, normeuclid.cli\n"
        "from normeuclid.cyclozeta import zeta_cyclotomic\n"
        "from normeuclid.rogers import RogersContext, f_lower, u_threshold\n"
        "from normeuclid.zimmert import f_terms\n"
        "ctx = RogersContext(62238.0, 0.1)\n"
        "f_lower(ctx), u_threshold(ctx), zeta_cyclotomic(12, 1.5, 'euler'), f_terms(0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
