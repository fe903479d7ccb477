"""Properties of the package source itself and of what it loads."""

import ast
import builtins
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import normeuclid
from normeuclid.rogers import RogersContext
from normeuclid.specfun import DomainError, Evaluation

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


def test_builtin_sum_only_counts():
    # sum() compensates float additions from Python 3.12 on, so the package
    # adds floats with reduce(operator.add, ...) and calls sum only to count
    # booleans, which every interpreter adds exactly
    counts, floats = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"):
                continue
            (arg,) = node.args
            boolean = isinstance(arg, ast.GeneratorExp) and (
                isinstance(arg.elt, ast.Compare)
                or isinstance(arg.elt, ast.UnaryOp) and isinstance(arg.elt.op, ast.Not)
            )
            (counts if boolean else floats).append(f"{path.name}:{node.lineno}")
    assert floats == []
    assert [where.split(":")[0] for where in counts] == ["cli.py", "cyclozeta.py"]


def test_public_surface_is_consistent():
    # every name a module exports resolves and no name is exported twice;
    # the package itself holds only its modules, as the import system binds
    # them, and no exported name of theirs
    modules = [path.stem for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"]
    assert len(modules) >= 6
    owners = {}
    for short in modules:
        module = importlib.import_module(f"normeuclid.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{short}.__all__ names {missing}"
        for name in module.__all__:
            assert owners.setdefault(name, short) == short, f"{name} in two __all__ lists"
            assert not hasattr(normeuclid, name), name
    assert not hasattr(normeuclid, "no_such_name")


def test_private_names_load_no_module():
    # protocol probes such as _repr_html_ ask the package for private names,
    # which must not load the seven modules and numpy to say no
    out = _python(
        "-c",
        "import sys, normeuclid\n"
        "print(hasattr(normeuclid, '_x'), hasattr(normeuclid, '_repr_html_'),"
        " [m for m in sys.modules if m.startswith('normeuclid.') or m == 'numpy'])\n",
    )
    assert out.stdout.strip() == "False False []"


def test_import_time_report_lists_every_module_the_cli_loads():
    # the package loads a module by the import statement's route, so
    # python -X importtime attributes its time to it and not to the caller
    out = _python("-X", "importtime", "-c", "import normeuclid.cli")
    listed = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    modules = ("cli", "lenstra", "rogers", "specfun")
    assert {f"normeuclid.{name}" for name in modules} <= listed


def test_no_module_imports_dataclasses():
    # records are named tuples throughout, so no module pays for dataclasses
    # (with inspect, ast and dis) or keeps a second way to build a record
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and "dataclasses" in [a.name for a in node.names])
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


# module globals that hold no store: code, types, immutable values, and
# numpy tables, whose size is fixed when the module runs
_NOT_A_STORE = (
    types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType,
    int, float, complex, str, bytes, tuple, frozenset, type(None), np.ndarray,
)


def test_every_cache_in_the_package_is_bounded():
    # every store in the package that outlives a call, with the entries it
    # can hold: each lru_cache at its maxsize, and each module global that a
    # function rebinds through a global statement, which holds one value.
    # Any other global that could hold a growing store (a dict, list or set
    # memo, or an object) is listed as None, and so is an unbounded
    # lru_cache; either fails the comparison
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"normeuclid.{path.stem}".removesuffix(".__init__"))
        for name, obj in vars(module).items():
            where = f"{path.stem}.{name}"
            if hasattr(obj, "cache_parameters"):
                if obj.__module__ == module.__name__:
                    found[where] = obj.cache_parameters()["maxsize"]
            elif not (
                name.startswith("__")
                or isinstance(obj, _NOT_A_STORE)
                or type(obj).__module__ in ("typing", "__future__")
            ):
                found[where] = None
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global):
                for name in node.names:
                    found.setdefault(f"{path.stem}.{name}", 1)
    assert found == {
        "cyclozeta._factorize": 16,
        "cyclozeta.unit_group": 1,
        "cyclozeta._last_zeta": 1,
        "cyclozeta._primes_up_to": 1,
        "rogers._pieces": 1,
        "zimmert.f_terms": 64,
    }


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


# the private names one package module may read from another: the unit
# roundoff, the Bernoulli tables and the Bernoulli part of the digamma
# series, all kept in specfun
_SHARED_PRIVATE = {"_U", "_BERNOULLI_2J", "_BERNOULLI_OVER_FACTORIAL", "_psi_tail"}


def test_modules_read_private_names_only_from_specfun():
    # every number the CLI prints is what a library caller gets from the
    # same public route, never a private helper's; the other modules share
    # specfun's constants and tables, and no other module's helpers
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    assert {"cli", "rogers", "lenstra", "cyclozeta", "zimmert", "specfun", "acceptance"} <= modules
    private = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = [
            (node.lineno, node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules - {path.stem}
        ] + [
            (node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        ]
        private += [
            f"{path.name}:{line} {owner}.{name}"
            for line, owner, name in reads
            if name.startswith("_")
            and (path.stem == "cli" or owner != "specfun" or name not in _SHARED_PRIVATE)
        ]
    assert private == []


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


def _python(*args):
    """The finished run of a child interpreter that finds the package on
    its path, with its output captured; a failing child fails the test."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


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
    out = _python("-c", code)
    assert out.stdout.strip() == str(loaded)


def test_cli_import_builds_no_prime_sieve():
    # the Euler route's sieve is built on its first call, not at import
    code = (
        "import normeuclid.cli\n"
        "from normeuclid.cyclozeta import _primes_up_to\n"
        "print(_primes_up_to.cache_info().currsize)\n"
    )
    out = _python("-c", code)
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
    out = _python("-c", code)
    assert out.stdout.strip() == "[]"


# the explicit-bounds commands: each runs on specfun, rogers and lenstra
_BOUNDS_COMMANDS = [
    "constants",
    "rogers --n 62238",
    "lenstra-check --n 100 --r 20 --log-disc 250.5 --log-m 69.3",
    "lenstra-crossing",
]


def _run_cli_commands(body, commands):
    """Stdout of a child that runs ``body`` after ``from normeuclid import
    cli``, once per command, with ``argv`` bound and the command's own
    output discarded."""
    code = (
        "import contextlib, io, sys\n"
        "from normeuclid import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
    )
    return _python("-c", code, *commands).stdout.splitlines()


def test_bounds_commands_load_no_numpy():
    # the explicit-bounds commands run on the standard library alone: numpy
    # comes with cyclozeta and zimmert, and none of these commands needs them
    lines = _run_cli_commands("print(code, 'numpy' in sys.modules)", _BOUNDS_COMMANDS)
    assert lines == ["0 False"] * len(_BOUNDS_COMMANDS)


def test_cli_import_and_bounds_commands_load_no_dataclasses_or_json():
    # dataclasses (with inspect, ast, dis and tokenize) and json cost about
    # 6 ms of a cold start, and only the scan writers read them; typing,
    # enum and re are not listed, because site loads them first
    body = "print(argv, [m for m in ('dataclasses', 'json', 'inspect') if m in sys.modules])"
    lines = _run_cli_commands(body, _BOUNDS_COMMANDS)
    assert lines == [f"{argv} []" for argv in _BOUNDS_COMMANDS]
    code = (
        "import sys, normeuclid.cli\n"
        "print([m for m in ('dataclasses', 'json', 'inspect') if m in sys.modules])\n"
    )
    out = _python("-c", code)
    assert out.stdout.strip() == "[]"


def test_reproduce_loads_the_acceptance_suite():
    # the suite loads with the one command that runs it, not with the CLI
    lines = _run_cli_commands(
        "print(code in (0, 1), 'normeuclid.acceptance' in sys.modules)", ["constants", "reproduce"]
    )
    assert lines == ["True False", "True True"]


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


@pytest.mark.parametrize(
    "record, fields, args, other, text, error, bad",
    [
        (
            Evaluation, ("value", "err_estimate", "terms_used"), (1.5, 2e-16, 7), (1.5, 2e-16, 8),
            "Evaluation(value=1.5, err_estimate=2e-16, terms_used=7)",
            ValueError,
            [
                ((math.inf, 0.0, 1), "non-finite value inf"),
                ((complex(math.nan, 1.0), 0.0, 1), "non-finite value (nan+1j)"),
                ((1.0, math.nan, 1), "bad error estimate nan"),
                ((1.0, -1e-9, 1), "bad error estimate -1e-09"),
            ],
        ),
        (
            RogersContext, ("n", "theta"), (62238.0, 0.1), (62238.0, 0.2),
            "RogersContext(n=62238.0, theta=0.1)",
            DomainError,
            [
                ((0.5, 0.1), "need n >= 1, got 0.5"),
                ((math.inf, 0.1), "need n >= 1, got inf"),
                ((100.0, 0.0), "need theta in (0, 1/3), got 0.0"),
                ((100.0, 0.34), "need theta in (0, 1/3), got 0.34"),
            ],
        ),
    ],
)
def test_validated_records_keep_their_contract(
    monkeypatch, record, fields, args, other, text, error, bad
):
    # the records of the bounds chain: fields in order, repr, messages,
    # immutability, value equality, and the field list perfbench records
    monkeypatch.syspath_prepend(str(SOURCE.parents[1]))
    from perfbench import child

    r = record(*args)
    assert record._fields == fields
    assert [getattr(r, name) for name in fields] == list(args)
    assert repr(r) == text
    # _replace builds through _make, and both must run the same checks
    for bad_args, message in bad:
        for build in (
            lambda: record(*bad_args),
            lambda: record._make(bad_args),
            lambda: r._replace(**dict(zip(fields, bad_args))),
        ):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 2.0)
    assert r == record(*args) and hash(r) == hash(record(*args))
    assert r != record(*other)
    assert child._encode(r) == list(args)
