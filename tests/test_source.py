"""Properties of the package source itself and of what it loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    # every name a module exports resolves, and every name the package
    # re-exports from a module is one that module exports
    init = ast.parse((SOURCE / "__init__.py").read_text())
    reexports = [
        (node.module, alias.name)
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"normeuclid.{path.stem}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{path.stem}.__all__ names {missing}"
    unlisted = [
        f"{mod}.{name}"
        for mod, name in reexports
        if name not in importlib.import_module(f"normeuclid.{mod}").__all__
    ]
    assert unlisted == []


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
