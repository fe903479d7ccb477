"""Every printed digit of the documented commands, against a committed record.

``tests/data/outputs.txt`` holds, for each command in ``COMMANDS``, its
exit code, stdout, stderr and the files it writes.  The test replays the
list in process through ``cli.main``, each command in an empty working
directory, and compares the rendering byte for byte.  ``reproduce``'s
timings, the per-criterion ``(0.0s)`` and criterion 7's ``in 0.0s``, are
masked.  A change that means to move an output regenerates the record with

    PYTHONPATH=src python3 tests/test_outputs.py

and says in its description which lines moved and why.
"""

import contextlib
import io
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


def test_documented_commands_print_the_recorded_output(tmp_path):
    assert render(tmp_path) == RECORD.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        text = render(Path(root))
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(text)
    print(f"wrote {len(COMMANDS)} commands to {RECORD}", file=sys.stderr)
