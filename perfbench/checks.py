"""Reference checks on the outputs of a workload, run in the parent after
all timing is done.

The cyclotomic oracles use none of the package's character code.  They rest
on the group-determinant identity for the abelian group (Z/m)*:

    prod_chi L_m(s, chi) = m^{-s phi(m)} det[zeta(s, (a b^-1 mod m)/m)]_{a,b},

where L_m is the L-function of chi taken mod m itself.  Completing the
product at the ramified primes p | m with (1 - p^{-f s})^{-g}, f the order
of p modulo the prime-to-p part m' of m and g = phi(m')/f, gives the
Dedekind zeta of the m-th cyclotomic field.

A failed check, a raised exception and an output that differs from the
first run of the same inputs all count as a failed operation.  Tolerances
are fixed here and never adjusted to make a run pass.
"""

from __future__ import annotations

import math
from collections import Counter

import mpmath
import numpy as np

from .workloads import M_MAX, conductor_sum, factorize, mult_order, scan_modulus, totient

__all__ = [
    "zeta_oracle",
    "log_zeta_oracle_fp",
    "logderiv_oracle",
    "central_integral_oracle",
    "check_reps",
]

# Relative agreement demanded of the character route against an oracle,
# unless its own error estimate is larger.
GATE = 1e-11
CROSSING_AT_THETA_01 = 62236
F_LOWER_RANGE = (0.484, 0.60)  # f(sqrt(62238/2), 0.1)
_SCAN_HEADER = "m,phi,epsilon,s,zeta_value,err_estimate"


# ------------------------------------------------------------- oracles

def _units(m: int) -> list[int]:
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def _ramified(m: int) -> list[tuple[int, int, int]]:
    """(p, f, g) for every prime p dividing m."""
    out = []
    for p, k in factorize(m).items():
        rest = m // p ** k
        f = mult_order(p, rest)
        out.append((p, f, totient(rest) // f))
    return out


def zeta_oracle(m: int, s: float, dps: int = 30) -> mpmath.mpf:
    """Dedekind zeta of the m-th cyclotomic field by the group determinant,
    in mpmath at ``dps`` digits (meant for phi(m) up to a few dozen)."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(s)
        units = _units(m)
        zeta = {c: mpmath.zeta(s, mpmath.mpf(c) / m) for c in units}
        matrix = mpmath.matrix(
            [[zeta[(a * pow(b, -1, m)) % m or m] for b in units] for a in units]
        )
        value = mpmath.det(matrix) * mpmath.power(m, -s * len(units))
        for p, f, g in _ramified(m):
            value /= (1 - mpmath.power(p, -f * s)) ** g
        return +value


def log_zeta_oracle_fp(m: int, s: float) -> float:
    """ln of the same zeta in binary64: mpmath's float Hurwitz zeta fills
    the matrix, pre-scaled by m^{-s} so the log-determinant stays small."""
    units = np.array(_units(m), dtype=np.int64)
    inverses = np.array([pow(int(b), -1, m) for b in units], dtype=np.int64)
    table = np.zeros(m + 1)
    table[units] = [m ** -s * float(mpmath.fp.zeta(s, c / m)) for c in units.tolist()]
    index = np.outer(units, inverses) % m
    index[index == 0] = m
    sign, logdet = np.linalg.slogdet(table[index])
    if sign <= 0.0:
        raise ArithmeticError(f"group determinant not positive for m={m}, s={s}")
    return float(logdet) - sum(g * math.log1p(-float(p) ** (-f * s)) for p, f, g in _ramified(m))


def logderiv_oracle(m: int, s: float) -> tuple[float, float]:
    """(value, error bound) of zeta'/zeta by central differences of
    :func:`log_zeta_oracle_fp`, Richardson-extrapolated from steps h and 2h.

    The bound is |D(h) - D(2h)|, three times the truncation estimate of
    D(h) alone, plus the rounding of four logs each taken as good to GATE.
    """
    h = (s - 1.0) / 4096.0

    def diff(step: float) -> float:
        return (log_zeta_oracle_fp(m, s + step) - log_zeta_oracle_fp(m, s - step)) / (2 * step)

    d1, d2 = diff(h), diff(2 * h)
    return (4.0 * d1 - d2) / 3.0, abs(d1 - d2) + 1.5 * GATE / h


def central_integral_oracle(n: float, theta: float, dps: int = 30) -> float:
    """The central integral of the Rogers lower bound by mpmath quadrature:
    the integral of e^{-u^2} (1 - u^2/n)^n over |u| <= (n/2)^{theta/2}."""
    with mpmath.workdps(dps):
        n = mpmath.mpf(n)
        hi = (n / 2) ** (mpmath.mpf(theta) / 2)
        value = mpmath.quad(lambda u: mpmath.exp(-u * u) * (1 - u * u / n) ** n, [-hi, 0, hi])
        return float(value)


# ------------------------------------------------------ per-workload

def _scan_rows(csv_text: str | None) -> dict[int, list[str]] | None:
    if csv_text is None:
        return None
    lines = csv_text.splitlines()
    if not lines or lines[0] != _SCAN_HEADER:
        return None
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[int(fields[0])] = fields
    return rows


def _scan_failures(inputs: dict, rep: dict) -> dict:
    """Failed scan rows, keyed by m.  Anything that spoils the whole CLI
    run fails every row, on the cli layer."""
    rows = _scan_rows(rep.get("csv"))
    if rep["errors"] or rep["outputs"] != [0] or rows is None:
        return {m: "cli" for m in range(1, M_MAX + 1)}
    eps = inputs["epsilon"]
    failed = {}
    for m in range(1, M_MAX + 1):
        if m not in rows:
            failed[m] = "cli"
            continue
        _, phi, e, s, z, err = rows[m]
        phi, s, z, err = int(phi), float(s), float(z), float(err)
        ok = (
            phi == totient(m)
            and float(e) == eps
            and math.isclose(s, 1.0 + float(phi) ** -eps, rel_tol=1e-15)
            and z > 1.0
        )
        if ok and m > 2 and m % 4 == 2 and m // 2 in rows:
            ok = rows[m][4:] == rows[m // 2][4:]  # same field, bit-identical row
        if ok and m in inputs["oracle_rows"]:
            oracle = float(zeta_oracle(scan_modulus(m), s))
            ok = abs(z - oracle) <= max(err, GATE * abs(oracle))
        if not ok:
            failed[m] = "cyclozeta"
    return failed


def _zeta_ok(name: str, m: int, s: float, out: list, hurwitz: list | None) -> bool:
    value, err = out[0], out[1]
    if name == "cyclozeta.zeta_cyclotomic_logderiv":
        ref, ref_err = logderiv_oracle(m, s)
        return abs(value - ref) <= err + ref_err
    if name == "cyclozeta.zeta_cyclotomic":
        ref = math.exp(log_zeta_oracle_fp(m, s))
        return abs(value - ref) <= max(err, GATE * ref)
    # the Euler route, against the character route when that one returned
    return hurwitz is None or abs(value - hurwitz[0]) <= err + hurwitz[1]


def _op_failures(inputs: dict, rep: dict) -> dict:
    """Failed ops of cyclo-large and bounds-sweep, keyed by op index."""
    ops, outputs = inputs["ops"], rep["outputs"]
    failed = {i: _layer(ops[i][0]) for i, _ in rep["errors"]}
    hurwitz = {
        args[0]: out
        for (name, args), out in zip(ops, outputs)
        if name == "cyclozeta.zeta_cyclotomic" and out is not None
    }
    gaps = {i: (prev, at) for i, prev, at in rep["crossing_gaps"]}
    for i, ((name, args), out) in enumerate(zip(ops, outputs)):
        if i in failed:
            continue
        if name == "lenstra.find_crossing":
            prev, at = gaps.get(i, (None, None))
            ok = (
                prev is not None and at is not None and prev[0] <= 0.0 < at[0]
                and (args[0] != 0.1 or out == CROSSING_AT_THETA_01)
            )
        elif name == "rogers.f_lower" and args == [62238.0, 0.1]:
            ok = F_LOWER_RANGE[0] <= out[0] <= F_LOWER_RANGE[1]
        elif name == "rogers.central_integral" and i in inputs["oracle_integrals"]:
            ok = abs(out[0] - central_integral_oracle(*args)) <= out[1]
        elif name in ("zimmert.satz4_check", "zimmert.min_norm_check"):
            ok = out[2] is True and out[0] <= out[1]
        elif name == "cyclozeta.unit_group":
            ok = math.prod(out) == totient(args[0])
        elif name == "cyclozeta.characters":
            ok = out == [totient(args[0]), conductor_sum(args[0])]
        elif name.startswith("cyclozeta.zeta"):
            ok = _zeta_ok(name, args[0], args[1], out, hurwitz.get(args[0]))
        else:
            ok = True
        if not ok:
            failed[i] = _layer(name)
    return failed


def _layer(op_name: str) -> str:
    return op_name.split(".")[0]


def _differences(workload: str, inputs: dict, first: dict, rep: dict) -> dict:
    """Operations of a later run that raised or whose output differs from
    the first run's."""
    if workload == "cyclo-scan":
        a, b = _scan_rows(first.get("csv")) or {}, _scan_rows(rep.get("csv"))
        if rep["errors"] or rep["outputs"] != [0] or b is None:
            return {m: "cli" for m in range(1, M_MAX + 1)}
        return {m: "cyclozeta" for m in range(1, M_MAX + 1) if a.get(m) != b.get(m)}
    ops = inputs["ops"]
    failed = {
        i: _layer(name)
        for i, ((name, _), x, y) in enumerate(zip(ops, first["outputs"], rep["outputs"]))
        if x != y
    }
    failed.update({i: _layer(ops[i][0]) for i, _ in rep["errors"]})
    return failed


def check_reps(workload: str, inputs: dict, reps: list[dict]) -> tuple[int, int, Counter]:
    """(attempted, failed, failures by layer) over every run of one input set.

    The first run is checked against the references; every later run must
    reproduce its outputs exactly.
    """
    if workload == "cyclo-scan":
        base, per_rep = _scan_failures(inputs, reps[0]), M_MAX
    else:
        base, per_rep = _op_failures(inputs, reps[0]), len(inputs["ops"])
    by_layer: Counter = Counter()
    for k, rep in enumerate(reps):
        failed = dict(base)
        if k:
            failed.update(_differences(workload, inputs, reps[0], rep))
        by_layer.update(failed.values())
    return per_rep * len(reps), sum(by_layer.values()), by_layer
