"""The acceptance gate: one test per criterion, each at its stated
tolerance, printing a pass/fail line (run with ``pytest -s`` to see them,
or use ``normeuclid reproduce`` for the same report).

Known red: criterion 7's cross-method agreement demands
|hurwitz - euler| <= 1e-8 at s in {1.1, 1.5, 2} with the Euler product
truncated at primes <= 1e6.  The omitted-tail of that product is
~1.2 at s=1.1, ~2e-4 at s=1.5 and ~1e-7 at s=2 (the Euler route's own
error estimate reports this), so the stated tolerance is out of reach for
any prime-truncated product; meeting it at s=1.1 would need a prime cutoff
around 1e80.  The criterion is asserted as stated and fails honestly
rather than being loosened.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import normeuclid
from normeuclid import acceptance

CRITERION_IDS = [cid for cid, _, _ in acceptance._CRITERIA]
CRITERION_NAMES = {cid: name for cid, name, _ in acceptance._CRITERIA}


@pytest.fixture(scope="module")
def results():
    return {r.cid: r for r in acceptance.run_acceptance()}


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(results, cid):
    r = results[cid]
    status = "PASS" if r.ok else "FAIL"
    print(f"[{status}] criterion {cid}: {CRITERION_NAMES[cid]} ({r.elapsed:.1f}s) {r.detail}")
    assert r.ok, f"criterion {cid}: {r.detail}"


@pytest.mark.parametrize(
    "p,alternating,exact",
    [
        (3, False, lambda: 7 * mpmath.zeta(3) / 8),  # lambda(3)
        (3, True, lambda: mpmath.pi ** 3 / 32),  # beta(3)
        (2, True, lambda: mpmath.catalan),  # Catalan's G
    ],
)
def test_odd_power_series_against_mpmath(p, alternating, exact):
    # the oracle of criteria 6 and 7, at its 1e5 terms, against 40 digits
    with mpmath.workdps(40):
        gap = abs(mpmath.mpf(acceptance._odd_power_series(p, alternating)) - exact())
    assert gap <= 1e-15


# A cold child runs the gate and prints its exit code and its peak RSS in
# KiB.  The peak is Linux's VmHWM, the high-water mark of the child's own
# address space: its ru_maxrss would also carry the RSS of this test
# process, which the kernel folds in when the child execs.
_PEAK = (
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
)


def _run_child(body: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(normeuclid.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK + body], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_reproduce_exit_matches_report():
    # `reproduce` exits 0 exactly when every printed criterion line says
    # PASS, and the full gate stays within 32 MiB of a cold CLI import
    lines = _run_child(
        "from normeuclid import cli\n"
        "code = cli.main(['reproduce'])\n"
        "print(code, peak())\n"
    )
    code, peak_kib = map(int, lines[-1].split())
    fails = [line for line in lines if line.startswith("[FAIL]")]
    assert code == (0 if not fails else 1)
    (cold_kib,) = map(int, _run_child("import normeuclid.cli\nprint(peak())\n"))
    assert peak_kib <= cold_kib + 32 * 1024, (peak_kib, cold_kib)
