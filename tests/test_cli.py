"""Command-line surface: subcommand output, exit codes, and deterministic
scan emission."""

import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from normeuclid import cli, lenstra, rogers


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_output(capsys):
    code, out, _ = _run(["constants"], capsys)
    assert code == 0
    assert "1.43879" in out
    assert "0.577215664901533" in out
    assert "3.53102424696929" in out


def test_rogers_report(capsys):
    code, out, _ = _run(["rogers", "--n", "62238", "--theta", "0.1"], capsys)
    assert code == 0
    f_line = next(line for line in out.splitlines() if line.startswith("f(kappa"))
    f_val = float(f_line.split("=")[1].split("(")[0])
    assert f_val >= 0.484


def test_rogers_small_n(capsys):
    code, out, _ = _run(["rogers", "--n", "100"], capsys)
    assert code == 0
    assert "not defined below kappa = 24" in out


def test_rogers_vacuous_lower_bound(capsys):
    # f < 0 at n = 2000, theta = 0.1: the only way the lower bound is vacuous
    code, out, _ = _run(["rogers", "--n", "2000"], capsys)
    assert code == 0
    assert "log sigma_n lower bound = vacuous (f <= 0)" in out.splitlines()


def test_rogers_report_matches_the_public_routes(capsys):
    # one chain evaluation feeds every printed line of f and its pieces
    code, out, _ = _run(["rogers", "--n", "62238"], capsys)
    assert code == 0
    ctx = rogers.RogersContext(62238.0, 0.1)
    ci, f = rogers.central_integral(ctx), rogers.f_lower(ctx)
    for line in (
        f"C42     = {cli._fmt(rogers.error_constants(ctx).c42)}",
        f"U       = {cli._fmt(rogers.u_threshold(ctx))}",
        f"central integral = {cli._fmt(ci.value)} (err {ci.err_estimate:.3e})",
        f"f(kappa, theta)  = {cli._fmt(f.value)} (err {f.err_estimate:.3e})",
        f"log sigma_n lower bound = {cli._fmt(rogers.sigma_lower_log(62238, f).value)}",
    ):
        assert line in out.splitlines()


def test_lenstra_crossing_prints_the_gap_at_the_crossing(capsys):
    code, out, _ = _run(["lenstra-crossing"], capsys)
    assert code == 0
    gap, below = lenstra.main_gap(62236, 0, 0.1), lenstra.main_gap(62235, 0, 0.1)
    assert out == (
        f"crossing = 62236\ngap at crossing (r=0) = {cli._fmt(gap.value)}\n"
        f"gap at crossing - 1 (r=0) = {cli._fmt(below.value)} (err {below.err_estimate:.3e})\n"
    )


def test_lenstra_crossing_at_n_min_searched_no_lower_degree(capsys):
    code, out, _ = _run(["lenstra-crossing", "--n-min", "65000"], capsys)
    assert code == 0
    gap = lenstra.main_gap(65000, 0, 0.1).value
    assert out == (
        f"crossing = 65000\ngap at crossing (r=0) = {cli._fmt(gap)}\n"
        "gap at crossing - 1: no lower degree searched (crossing = --n-min)\n"
    )


def test_lenstra_crossing(capsys):
    code, out, _ = _run(["lenstra-crossing", "--n-min", "61500", "--n-max", "63000"], capsys)
    assert code == 0
    crossing = int(next(l for l in out.splitlines() if l.startswith("crossing")).split("=")[1])
    assert 62138 <= crossing <= 62338


def test_lenstra_check(capsys):
    code, out, _ = _run(
        ["lenstra-check", "--n", "2", "--r", "0",
         "--log-disc", str(math.log(4.0)), "--log-m", str(math.log(2.0))],
        capsys,
    )
    assert code == 0
    assert "delta1 criterion holds: True" in out


def test_cyclo_zeta(capsys):
    code, out, _ = _run(["cyclo-zeta", "--m", "4", "--s", "2"], capsys)
    assert code == 0
    assert "1.50670300992298" in out


def test_cyclo_zeta_euler(capsys):
    code, out, _ = _run(
        ["cyclo-zeta", "--m", "4", "--s", "2", "--method", "euler", "--prime-limit", "100000"],
        capsys,
    )
    assert code == 0
    assert "value = 1.5067" in out


def test_cyclo_zeta_euler_without_correct_digits_prints_inf(capsys):
    code, out, _ = _run(["cyclo-zeta", "--m", "1009", "--s", "1.01", "--method", "euler"], capsys)
    assert code == 0
    assert "err   = inf\n" in out


def test_scan_csv_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = _run(
            ["cyclo-scan", "--m-max", "12", "--epsilon", "0.75", "--out", str(p)], capsys
        )
        assert code == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    lines = text.strip().split("\n")
    assert lines[0] == "m,phi,epsilon,s,zeta_value,err_estimate"
    assert len(lines) == 13  # header + 12 rows
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[4]) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
    assert text.endswith("\n") and "\r" not in text


def test_scan_json(tmp_path, capsys):
    p = tmp_path / "scan.json"
    code, _, _ = _run(
        ["cyclo-scan", "--m-max", "5", "--epsilon", "0.5", "--out", str(p),
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(p.read_text())
    assert [r["m"] for r in rows] == [1, 2, 3, 4, 5]
    assert set(rows[0]) == {"m", "phi", "epsilon", "s", "zeta_value", "err_estimate"}


def test_scan_writers_match_the_dataclass_readers():
    # the writers walk the row tuples; the reference reads each named field
    # under the literal header
    from normeuclid import cyclozeta

    rows = cyclozeta.scan(30, 0.6)
    header = "m,phi,epsilon,s,zeta_value,err_estimate"
    values = [(r.m, r.phi, r.epsilon, r.s, r.zeta_value, r.err_estimate) for r in rows]
    csv = [header] + [",".join(map(repr, v)) for v in values]
    assert cli._rows_csv(rows) == "\n".join(csv) + "\n"
    want = json.dumps([dict(zip(header.split(","), v)) for v in values], indent=2) + "\n"
    assert cli._rows_json(rows) == want


def test_scan_svg(tmp_path, capsys):
    p = tmp_path / "scan.svg"
    code, out, _ = _run(
        ["cyclo-scan", "--m-max", "8", "--epsilon", "0.75",
         "--out", str(tmp_path / "x.csv"), "--svg", str(p)],
        capsys,
    )
    assert code == 0
    text = p.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 8
    assert 'width="800" height="600"' in text


def test_unwritable_out_exits_one(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.csv"
    code, out, err = _run(
        ["cyclo-scan", "--m-max", "3", "--epsilon", "0.7", "--out", str(bad)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(bad) in err


def test_unwritable_svg_exits_one(tmp_path, capsys):
    # the CSV is written and reported before the scatter fails
    good, bad = tmp_path / "x.csv", tmp_path / "missing" / "x.svg"
    code, out, err = _run(
        ["cyclo-scan", "--m-max", "3", "--epsilon", "0.7", "--out", str(good), "--svg", str(bad)],
        capsys,
    )
    assert code == 1
    assert out == f"wrote 3 rows to {good}\n"
    assert err.startswith("error:") and str(bad) in err


def test_scan_stdout(capsys):
    code, out, _ = _run(["cyclo-scan", "--m-max", "3", "--epsilon", "0.75"], capsys)
    assert code == 0
    assert out.startswith("m,phi,epsilon,s,zeta_value,err_estimate\n")


def test_zimmert_output(capsys):
    code, out, _ = _run(["zimmert", "--a", "1", "--b", "0", "--beta", "0.0001"], capsys)
    assert code == 0
    assert any(line.startswith("F_{1,0}") for line in out.splitlines())


def test_zimmert_negative_pair_exits_one_silently(capsys):
    # a rejected F_{a,b} pair fails before any value is printed
    code, out, err = _run(["zimmert", "--a", "-1", "--b", "0", "--beta", "0.1"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_zimmert_verify(capsys):
    code, out, _ = _run(["zimmert-verify", "--m", "8", "--beta", "0.1"], capsys)
    assert code == 0
    assert out.count("holds") == 2


def test_domain_error_exits_one(capsys):
    code, _, err = _run(["cyclo-zeta", "--m", "4", "--s", "0.5"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("method", ["hurwitz", "euler"])
@pytest.mark.parametrize("s", ["nan", "inf"])
def test_nonfinite_s_exits_one_silently(s, method, capsys):
    code, out, err = _run(["cyclo-zeta", "--m", "7", "--s", s, "--method", method], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite s" in err


@pytest.mark.parametrize("s", ["400", "1e308"])
def test_cyclo_zeta_beyond_binary64_exits_one_silently(s, capsys):
    # (1/7)^{-s} overflows binary64 in the Hurwitz kernel
    code, out, err = _run(["cyclo-zeta", "--m", "7", "--s", s], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"s={float(s)}" in err


def test_cyclo_zeta_at_huge_s_is_one(capsys):
    # zeta_Q(1e15) = 1 + 2^{-1e15} + ... is 1 in binary64
    code, out, err = _run(["cyclo-zeta", "--m", "1", "--s", "1e15"], capsys)
    assert code == 0
    assert "value = 1\n" in out
    assert err == ""


_HUGE = "1" + "0" * 400  # an integer argument that binary64 cannot hold


@pytest.mark.parametrize(
    "argv",
    [
        ["rogers", "--n", _HUGE],
        ["lenstra-crossing", "--n-min", "60000", "--n-max", _HUGE],
        ["lenstra-check", "--n", _HUGE, "--r", "0", "--log-disc", "1", "--log-m", "1"],
    ],
    ids=["rogers", "lenstra-crossing", "lenstra-check"],
)
def test_integer_too_large_for_binary64_exits_one_silently(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("n", ["1", "2"])
def test_rogers_without_error_constants_exits_one_silently(n, capsys):
    code, out, err = _run(["rogers", "--n", n], capsys)
    assert code == 1
    assert out == ""
    assert "error: error constants need kappa > 1" in err


def test_lenstra_check_odd_complex_count_exits_one(capsys):
    code, out, err = _run(
        ["lenstra-check", "--n", "3", "--r", "2", "--log-disc", "1", "--log-m", "1"], capsys
    )
    assert code == 1
    assert out == ""
    assert "n - r even" in err


def test_crossing_not_found_exits_one(capsys):
    code, _, err = _run(["lenstra-crossing", "--n-min", "55000", "--n-max", "58000"], capsys)
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cyclo-zeta", "--s", "2"])  # missing --m
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # options live on the one command that reads them
        ["constants", "--prime-limit", "5000"],
        ["--format", "json", "cyclo-scan", "--m-max", "5", "--epsilon", "0.5"],
        ["--tol", "1e-8", "cyclo-zeta", "--m", "4", "--s", "2"],  # flag removed
    ],
    ids=["prime-limit", "format", "tol"],
)
def test_bad_global_flag_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rogers", "--n", "62238", "--theta", "0.5"], "need theta in (0, 1/3)"),
        (["lenstra-crossing", "--theta", "0"], "need theta in (0, 1/3)"),
        (["lenstra-crossing", "--theta", "nan"], "need theta in (0, 1/3)"),
        (["cyclo-zeta", "--m", "4", "--s", "2", "--method", "hurwitz", "--prime-limit", "10"],
         ">= 1000"),
        (["cyclo-zeta", "--m", "4", "--s", "2", "--method", "euler", "--prime-limit", "10"],
         ">= 1000"),
    ],
    ids=["rogers", "lenstra-crossing", "nan", "prime-limit-hurwitz", "prime-limit-euler"],
)
def test_out_of_range_argument_exits_one(argv, message, capsys):
    # the library checks every value; the CLI only reports its message
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_every_option_is_read_by_its_command():
    # no dead flags: the top level has no option but -h, and each
    # subcommand's handler reads every option of that subcommand
    parser = cli._build_parser()
    assert [a.dest for a in parser._actions if a.option_strings] == ["help"]
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in commands.choices.items():
        fn = command.get_default("fn")
        read = {
            node.attr
            for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        options = {a.dest for a in command._actions if a.option_strings} - {"help"}
        assert options <= read, f"{name} never reads {sorted(options - read)}"


def test_console_entry_point():
    # the child imports the same normeuclid as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "normeuclid.cli", "constants"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "1.43879" in proc.stdout
