"""Properties of the package source itself and of what it loads."""

import ast
import builtins
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


# the one exported name that neither the package nor perfbench reads: the
# check route of the group DFT, which the tests drive character by character
_UNREAD_BY_DESIGN = ["dirichlet_l"]


def _reads(tree):
    """Every identifier a syntax tree reads, as a Name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _loads(path):
    """Every identifier a file reads."""
    return _reads(ast.parse(path.read_text(), filename=str(path)))


def test_every_public_name_has_a_reader():
    # perfbench's own tests are not readers; the glob leaves perfbench/tests out
    perfbench = sorted((SOURCE.parents[1] / "perfbench").glob("*.py"))
    assert len(perfbench) >= 5
    read = set().union(*map(_loads, [*SOURCE.glob("*.py"), *perfbench]))
    unread = [
        name
        for path in sorted(SOURCE.glob("*.py"))
        if path.stem != "__init__"
        for name in importlib.import_module(f"normeuclid.{path.stem}").__all__
        if name not in read
    ]
    assert unread == _UNREAD_BY_DESIGN, f"exported names with no reader: {unread}"


def test_no_unused_imports_in_package():
    # the project carries no linter: every module-level import, __future__
    # aside, must be read somewhere in its module, and every import inside a
    # function somewhere in that function
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(tree, tree.body)] + [
            (node, list(ast.walk(node)))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope, statements in scopes:
            read = _reads(scope)
            for node in statements:
                if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"
                ):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in read:
                            unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def _resolve(node, module):
    """The object a name or dotted attribute expression names in a module."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, module), node.attr)
    return vars(module).get(node.id) or getattr(builtins, node.id)


def test_every_package_error_is_raised_and_caught_by_the_cli():
    # each exception class the package defines is raised somewhere in it,
    # and cli.main catches every such raise and exits 1 with its message;
    # a builtin such as ValueError or RuntimeError signals a defect in the
    # package, and the CLI leaves it uncaught on purpose
    modules = {
        path.stem: (
            importlib.import_module(f"normeuclid.{path.stem}".removesuffix(".__init__")),
            ast.parse(path.read_text(), filename=str(path)),
        )
        for path in sorted(SOURCE.glob("*.py"))
    }
    defined = {
        cls
        for module, tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and issubclass(cls := getattr(module, node.name), BaseException)
    }
    raised = {}
    for stem, (module, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.setdefault(_resolve(exc, module), []).append(f"{stem}.py:{node.lineno}")
    cli_module, cli_tree = modules["cli"]
    main = next(
        node for node in cli_tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    (handler,) = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    caught = tuple(_resolve(node, cli_module) for node in handler.type.elts)
    assert len(defined) >= 3
    assert sorted(cls.__name__ for cls in defined - raised.keys()) == []
    uncaught = [where for cls in defined for where in raised[cls] if not issubclass(cls, caught)]
    assert uncaught == []


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import normeuclid", []),
        ("import normeuclid.lenstra", ["lenstra", "rogers", "specfun"]),
        ("from normeuclid import rogers", ["rogers", "specfun"]),
        ("import normeuclid.cli", ["cli", "lenstra", "rogers", "specfun"]),
    ],
)
def test_package_loads_only_what_is_asked_for(code, loaded):
    # the package init imports no module, and a module brings only its own
    # imports: none of these loads cyclozeta, zimmert or numpy
    code += (
        "\nimport sys\n"
        "print(sorted(m.removeprefix('normeuclid.') for m in sys.modules"
        " if m.startswith('normeuclid.') or m == 'numpy'))\n"
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


def test_bounds_commands_load_no_numpy():
    # the explicit-bounds commands run on the standard library alone: numpy
    # comes with cyclozeta and zimmert, and none of these commands needs them
    commands = [
        "constants",
        "rogers --n 62238",
        "lenstra-check --n 100 --r 20 --log-disc 250.5 --log-m 69.3",
        "lenstra-crossing",
    ]
    code = (
        "import contextlib, io, sys\n"
        "from normeuclid import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    print(code, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code, *commands],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == ["0 False"] * len(commands)


def test_names_perfbench_reads_resolve(monkeypatch, tmp_path):
    # perfbench binds its ops by these names, probes the one-point specfun
    # functions, and wraps cyclozeta.scan_row as a module global to time each
    # row of the CLI scan; a counting wrapper stands in for its wrappers here
    monkeypatch.syspath_prepend(str(SOURCE.parents[1]))
    from perfbench import workloads

    from normeuclid import cyclozeta, specfun

    calls = workloads.bind_calls()
    for workload in workloads.WORKLOADS:
        ops = {name for name, _ in workloads.make_inputs(workload, 1)["ops"]}
        assert ops <= calls.keys(), workload
    for fn, args in (
        (specfun.hurwitz_zeta, (1.5, 0.25)),
        (specfun.hurwitz_zeta_ds, (1.5, 0.25)),
        (specfun.digamma, (0.3,)),
    ):
        assert isinstance(fn(*args), specfun.Evaluation)
    real, rows = cyclozeta.scan_row, []

    def scan_row(*args, **kwargs):
        rows.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cyclozeta, "scan_row", scan_row)
    argv = ["cyclo-scan", "--m-max", "5", "--epsilon", "0.75", "--out", str(tmp_path / "s.csv")]
    assert calls["cli.main"](argv) == 0
    assert rows == [1, 2, 3, 4, 5]


def test_cli_scan_sends_every_modulus_through_the_module_global_scan_row(
    monkeypatch, capsys
):
    # the scan walks the fields (m, then 2m for odd m), but each m still
    # reaches the patchable scan_row exactly once, in any order
    from normeuclid import cli, cyclozeta

    real, rows = cyclozeta.scan_row, []

    def scan_row(*args, **kwargs):
        rows.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cyclozeta, "scan_row", scan_row)
    assert cli.main(["cyclo-scan", "--m-max", "12", "--epsilon", "0.75"]) == 0
    assert sorted(rows) == list(range(1, 13))
    assert capsys.readouterr().out.count("\n") == 13
