"""Every printed digit of the documented commands, against a committed record.

``tests/data/outputs.txt`` holds, for each command in ``COMMANDS``, its
exit code, stdout, stderr and the files it writes.  The test replays the
list in process through ``cli.main``, each command in an empty working
directory, and compares the rendering byte for byte.  ``reproduce``'s
timings, the per-criterion ``(0.0s)`` and criterion 7's ``in 0.0s``, are
masked.  A change that means to move an output regenerates the record with

    PYTHONPATH=src python3 tests/test_outputs.py

which prints ``compare``'s summary of how the values that carry an
estimate moved against the old record; the change's description quotes it
and says which lines moved and why.
"""

import contextlib
import difflib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from normeuclid import cli

RECORD = Path(__file__).parent / "data" / "outputs.txt"

COMMANDS = (
    # the README's commands, in its order
    "constants",
    "rogers --n 62238 --theta 0.1",
    "lenstra-crossing",
    "lenstra-check --n 2 --r 0 --log-disc 1.3862943611 --log-m 0.6931471806",
    "cyclo-zeta --m 12 --s 1.5 --method hurwitz",
    "cyclo-zeta --m 12 --s 1.5 --method euler --prime-limit 100000",
    "cyclo-scan --m-max 350 --epsilon 0.75 --out scan.csv --svg scan.svg",
    "cyclo-scan --m-max 350 --epsilon 0.5 --format json",
    "zimmert --a 1 --b 0 --beta 0.0001",
    "zimmert-verify --m 8 --beta 0.1",
    "reproduce",
    # the Rogers report without constants, at kappa = 24, vacuous, at the
    # crossing and on two panels
    "rogers --n 1",
    "rogers --n 2",
    "rogers --n 1152",
    "rogers --n 2000",
    "rogers --n 62238",
    "rogers --n 200000000 --theta 0.3",
    "lenstra-crossing --theta 0.05",
    "lenstra-crossing --n-min 2000 --n-max 70000",
    "cyclo-zeta --m 1009 --s 1.05",
    "zimmert-verify --m 30 --beta 0.05",
)

_TIMINGS = (
    (re.compile(r"\(\d+\.\ds\)"), "(0.0s)"),
    (re.compile(r" in \d+\.\ds "), " in 0.0s "),
)


def _section(title: str, text: str) -> str:
    if text and not text.endswith("\n"):
        text += "\n\\ no newline at end\n"
    return f"--- {title}\n{text}"


def _replay(command: str, workdir: Path) -> str:
    """One command's exit code, stdout, stderr and written files, rendered."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.split())
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    if command == "reproduce":
        for pattern, mask in _TIMINGS:
            stdout = pattern.sub(mask, stdout)
    parts = [f"$ normeuclid {command}\n", f"exit {code}\n",
             _section("stdout", stdout), _section("stderr", err.getvalue())]
    parts += [_section(f"file {path.name}", path.read_text())
              for path in sorted(workdir.iterdir())]
    return "".join(parts)


def render(root: Path) -> str:
    """The record of every command, each run in its own directory under root."""
    blocks = []
    for i, command in enumerate(COMMANDS):
        workdir = root / str(i)
        workdir.mkdir()
        blocks.append(_replay(command, workdir))
    return "\n".join(blocks)


_NUMBER = r"[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)"
_VALUE_ERR = re.compile(rf"(.*?)({_NUMBER}) \(err ({_NUMBER})\)")
_JSON_ROW = re.compile(
    rf'"m": (\d+),[^{{}}]*?"zeta_value": ({_NUMBER}),\s*"err_estimate": ({_NUMBER})'
)


def _blocks(record: str) -> dict[str, list[str]]:
    """Each command's rendered lines, keyed by its ``$ normeuclid`` line."""
    blocks, lines = {}, []
    for line in record.splitlines():
        if line.startswith("$ normeuclid "):
            lines = blocks[line[len("$ normeuclid "):]] = []
        else:
            lines.append(line)
    return blocks


def _estimated_values(lines: list[str]) -> dict[str, tuple[float, float]]:
    """(value, estimate) of every value one command prints with an estimate:
    each "value (err E)" line, ``cyclo-zeta``'s ``value =`` and ``err =``
    pair, and each scan row, CSV or JSON, by its m."""
    found, columns = {}, None
    for line, after in zip(lines, lines[1:] + [""]):
        fields = line.split(",")
        if match := _VALUE_ERR.fullmatch(line):
            found[match[1].rstrip(" =")] = (float(match[2]), float(match[3]))
        elif line.startswith("value = ") and after.startswith("err   = "):
            found["value"] = (float(line[8:]), float(after[8:]))
        elif "zeta_value" in fields:
            columns = fields
        elif columns and len(fields) == len(columns):
            row = dict(zip(columns, fields))
            found[f"row m={row['m']}"] = (float(row["zeta_value"]), float(row["err_estimate"]))
        else:
            columns = None
    for m, value, err in _JSON_ROW.findall("\n".join(lines)):
        found[f"row m={m}"] = (float(value), float(err))
    return found


def compare(old: str, new: str) -> str:
    """How a new rendering moved against the record: each value printed with
    an estimate is paired by command and label (or scan row), and the
    summary gives how many values and estimates moved, the largest
    |new - old|/(E_old + E_new), the largest growth and shrinkage of an
    estimate, the values present on one side only, and the lines added and
    removed."""
    before, after = _blocks(old), _blocks(new)
    pairs, moved, changed, unpaired = 0, 0, 0, []
    shift, grew, shrank = (0.0, "-"), (1.0, "-"), (1.0, "-")
    for command in [*before, *(c for c in after if c not in before)]:
        a = _estimated_values(before.get(command, []))
        b = _estimated_values(after.get(command, []))
        unpaired += [f"- {command}: {key}" for key in a if key not in b]
        unpaired += [f"+ {command}: {key}" for key in b if key not in a]
        for key in (key for key in a if key in b):
            (v0, e0), (v1, e1), where = a[key], b[key], f"{command}: {key}"
            pairs += 1
            if v0 != v1:
                moved += 1
                ratio = abs(v1 - v0) / (e0 + e1) if e0 + e1 else math.inf
                shift = max(shift, (ratio, where), key=lambda pair: pair[0])
            changed += e0 != e1
            growth = e1 / e0 if e0 else (1.0 if e1 == 0 else math.inf)
            grew = max(grew, (growth, where), key=lambda pair: pair[0])
            shrank = min(shrank, (growth, where), key=lambda pair: pair[0])
    edits = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines()).get_opcodes()
    added = sum(j2 - j1 for tag, _, _, j1, j2 in edits if tag != "equal")
    removed = sum(i2 - i1 for tag, i1, i2, _, _ in edits if tag != "equal")
    return "\n".join([
        f"{pairs} values with an estimate paired: {moved} moved, {changed} estimates changed",
        f"largest |new - old|/(E_old + E_new): {shift[0]:.3g} ({shift[1]})",
        f"largest estimate growth: x{grew[0]:.6g} ({grew[1]})",
        f"largest estimate shrinkage: x{shrank[0]:.6g} ({shrank[1]})",
        f"{len(unpaired)} values on one side only" + "".join(f"\n  {u}" for u in unpaired),
        f"lines: +{added} -{removed}",
    ])


def test_documented_commands_print_the_recorded_output(tmp_path):
    assert render(tmp_path) == RECORD.read_text()


def test_compare_pairs_every_estimated_value_and_reports_a_moved_one():
    record = RECORD.read_text()
    same = compare(record, record).splitlines()
    assert same[1:] == [
        "largest |new - old|/(E_old + E_new): 0 (-)",
        "largest estimate growth: x1 (-)",
        "largest estimate shrinkage: x1 (-)",
        "0 values on one side only",
        "lines: +0 -0",
    ]
    # two figures in each of five rogers reports, the gap below each of two
    # crossings, three cyclo-zeta values and the rows of both scans
    pairs = 5 * 2 + 2 + 3 + 2 * 350
    assert same[0] == f"{pairs} values with an estimate paired: 0 moved, 0 estimates changed"
    # one printed digit and one estimate of the rogers report, and the
    # estimate of one CSV scan row, which shrinks
    moved = record.replace(
        "f(kappa, theta)  = 0.505797259267068 (err 1.588e-14)",
        "f(kappa, theta)  = 0.505797259267069 (err 1.601e-14)",
        1,
    ).replace("12,4,0.75,1.3535533905932737,1.689059228148577,2.0434187951201924e-14",
              "12,4,0.75,1.3535533905932737,1.689059228148577,1.85e-14")
    where = "rogers --n 62238 --theta 0.1: f(kappa, theta)"
    assert compare(record, moved).splitlines() == [
        f"{pairs} values with an estimate paired: 1 moved, 2 estimates changed",
        f"largest |new - old|/(E_old + E_new): 0.0313 ({where})",
        f"largest estimate growth: x1.00819 ({where})",
        "largest estimate shrinkage: x0.905345 "
        "(cyclo-scan --m-max 350 --epsilon 0.75 --out scan.csv --svg scan.svg: row m=12)",
        "0 values on one side only",
        "lines: +2 -2",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        text = render(Path(root))
    if RECORD.exists():
        print(compare(RECORD.read_text(), text), file=sys.stderr)
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(text)
    print(f"wrote {len(COMMANDS)} commands to {RECORD}", file=sys.stderr)
