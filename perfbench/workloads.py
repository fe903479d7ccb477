"""Seeded workload inputs and the calls they make into the package.

Everything here except :func:`bind_calls` is plain Python and never imports
``normeuclid``: the parent process generates inputs from ``--seed``, and
only the child processes it spawns import the package under measurement.

An input set is a JSON-able dict.  Its ``ops`` list is the work list: each
op is ``[name, args]``, where ``name`` is ``<layer>.<function>`` and names
both the call and the span recorded around it in a traced run.  The string
``"{out}"`` inside ``args`` stands for the child's scratch output file.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "WORKLOADS",
    "M_MAX",
    "make_inputs",
    "bind_calls",
    "factorize",
    "totient",
    "divisors",
    "is_prime",
    "mult_order",
    "conductor_sum",
    "scan_modulus",
]

# One line each; BENCHMARK.json repeats these as the workloads' ``why``.
WORKLOADS = {
    "cyclo-scan": "the dominant user run, `cyclo-scan --m-max 350` through the CLI: "
    "many small and mid-size moduli, tables shared between rows, caches growing",
    "cyclo-large": "a few large moduli in [400, 1100], half of them prime, with the "
    "log-derivative, Hurwitz and Euler routes; cost grows like phi(m) * conductor",
    "bounds-sweep": "library sweep of the explicit-bounds chain (rogers, lenstra, "
    "zimmert): quadrature, root finding and digamma, with cyclozeta nearly idle",
}

M_MAX = 350

# cyclo-large: two distinct primes from the range and two composites, one
# from the lower and one from the upper half of it.  A draw is kept only
# when its summed conductor count (the cost model, see conductor_sum) lands
# within a band around a fixed target, so every seed asks for about the same
# work.  The targets keep one cold process near four seconds, so a run holds
# several processes and its median is steady.
_LARGE_RANGE = (400, 1100)
_LARGE_SPLIT = 750
_PRIME_COST, _PRIME_BAND = 550_000, 0.01
_COMPOSITE_COST, _COMPOSITE_BAND = 150_000, 0.05

# bounds-sweep grid sizes: about two seconds of work per cold process.
_N_CROSSINGS = 100
_N_ROGERS = 2000
_N_GAPS = 1000
_N_FTERMS = 60
_SATZ4_M_MAX = 30
_N_SATZ4_BETAS = 2

_N_ORACLE_ROWS = 8
_ORACLE_PHI_MAX = 24
_N_ORACLE_INTEGRALS = 8
_N_PROBES = 200


# ------------------------------------------------------- number theory

def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def totient(m: int) -> int:
    return math.prod(p ** (k - 1) * (p - 1) for p, k in factorize(m).items())


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def is_prime(m: int) -> bool:
    return m >= 2 and factorize(m) == {m: 1}


def mult_order(a: int, mod: int) -> int:
    """Multiplicative order of a modulo mod (1 when mod == 1)."""
    if mod == 1:
        return 1
    k, x = 1, a % mod
    while x != 1:
        x = x * a % mod
        k += 1
    return k


def _primitive_count(p: int, k: int) -> int:
    """Number of primitive Dirichlet characters modulo p^k."""
    if k == 0:
        return 1
    if k == 1:
        return p - 2
    return p ** (k - 2) * (p - 1) ** 2


def conductor_sum(m: int) -> int:
    """Sum of the conductors of all Dirichlet characters mod m.

    The character route builds one table of conductor length per character,
    so this is its cost model.  It is multiplicative:
    sum_{d | m} d * (number of primitive characters mod d).
    """
    return math.prod(
        sum(p ** j * _primitive_count(p, j) for j in range(k + 1))
        for p, k in factorize(m).items()
    )


def scan_modulus(m: int) -> int:
    """The modulus a scan row for m evaluates: m/2 when m = 2 mod 4, since
    both name the same field."""
    return m // 2 if m % 4 == 2 else m


# -------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; the same seed always gives
    the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cyclo-scan":
        return _cyclo_scan(rng)
    if workload == "cyclo-large":
        return _cyclo_large(rng)
    if workload == "bounds-sweep":
        return _bounds_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _hurwitz_probe(rng: random.Random, points: list[tuple[int, float]]) -> list[list[float]]:
    """(s, a) arguments the workload's character sums use: a = k/d for a
    divisor d of a modulus the workload evaluates at s."""
    out = []
    for _ in range(_N_PROBES):
        m, s = rng.choice(points)
        d = rng.choice(divisors(m))
        out.append([s, rng.randint(1, d) / d])
    return out


def _cyclo_scan(rng: random.Random) -> dict:
    epsilon = rng.uniform(0.6, 0.9)
    argv = ["cyclo-scan", "--m-max", str(M_MAX), "--epsilon", repr(epsilon), "--out", "{out}"]
    small = [m for m in range(1, M_MAX + 1) if totient(m) <= _ORACLE_PHI_MAX]
    points = [
        (scan_modulus(m), 1.0 + float(totient(m)) ** -epsilon) for m in range(1, M_MAX + 1)
    ]
    return {
        "epsilon": epsilon,
        "ops": [["cli.main", [argv]]],
        "oracle_rows": sorted(rng.sample(small, _N_ORACLE_ROWS)),
        "hurwitz_probe": _hurwitz_probe(rng, points),
        "digamma_probe": [],
    }


def _cyclo_large(rng: random.Random) -> dict:
    lo, hi = _LARGE_RANGE
    halves = ((lo, _LARGE_SPLIT), (_LARGE_SPLIT, hi + 1))
    primes = [m for m in range(lo, hi + 1) if is_prime(m)]
    composites = [[m for m in range(a, b) if not is_prime(m)] for a, b in halves]

    def draw(pools: list[list[int]], target: int, band: float) -> list[int]:
        while True:
            pick = [rng.choice(pool) for pool in pools]
            if len(set(pick)) == len(pick) and (
                abs(sum(map(conductor_sum, pick)) - target) <= band * target
            ):
                return pick

    moduli = draw([primes, primes], _PRIME_COST, _PRIME_BAND) + draw(
        composites, _COMPOSITE_COST, _COMPOSITE_BAND
    )
    moduli.sort(key=conductor_sum)  # cheapest first, the same shape for every seed
    points = [(m, 1.05 + 0.95 * (1.0 - rng.random())) for m in moduli]  # s in (1.05, 2]
    ops = []
    for m, s in points:
        ops += [
            ["cyclozeta.unit_group", [m]],
            ["cyclozeta.characters", [m]],
            ["cyclozeta.zeta_cyclotomic_logderiv", [m, s]],
            ["cyclozeta.zeta_cyclotomic", [m, s]],
            ["cyclozeta.zeta_cyclotomic_euler", [m, s]],
        ]
    return {
        "moduli": [[m, s] for m, s in points],
        "ops": ops,
        "hurwitz_probe": _hurwitz_probe(rng, points),
        "digamma_probe": [],
    }


def _bounds_sweep(rng: random.Random) -> dict:
    ops = []
    for theta in [0.1] + [rng.uniform(0.05, 0.15) for _ in range(_N_CROSSINGS - 1)]:
        ops.append(["lenstra.find_crossing", [theta, 55000, 70000]])
    grid = [(62238.0, 0.1)] + [
        (2.0 * rng.uniform(24.0, 1000.0) ** 2, rng.uniform(0.05, 0.3))
        for _ in range(_N_ROGERS - 1)
    ]
    for n, theta in grid:
        ops += [
            ["rogers.f_lower", [n, theta]],
            ["rogers.central_integral", [n, theta]],
            ["rogers.u_threshold", [n, theta]],
        ]
    for _ in range(_N_GAPS):
        n = rng.randint(1152, 10 ** 6)
        ops += [["lenstra.delta2_star_log", [n]], ["lenstra.main_gap", [n, 0, 0.1]]]
    # distinct betas, so every call misses f_terms' 64-entry cache
    betas = rng.sample(range(1, 2500), _N_FTERMS + _N_SATZ4_BETAS)
    betas = [b * 1e-4 for b in betas]
    ops += [["zimmert.f_terms", [beta]] for beta in betas[:_N_FTERMS]]
    check_betas = betas[_N_FTERMS:]
    for m in range(1, _SATZ4_M_MAX + 1):
        ops += [["cyclozeta.unit_group", [m]], ["cyclozeta.characters", [m]]]
        for beta in check_betas:
            ops += [["zimmert.satz4_check", [m, beta]], ["zimmert.min_norm_check", [m, beta]]]
    points = [(m, 1.0 + beta) for m in range(1, _SATZ4_M_MAX + 1) for beta in check_betas]
    digamma_args = [
        x
        for beta in betas
        for x in ((1.0 + beta) / 2.0, -beta / 2.0, 1.0 + beta / 2.0, (1.0 - beta) / 2.0)
    ]
    integrals = [i for i, (name, _) in enumerate(ops) if name == "rogers.central_integral"]
    return {
        "ops": ops,
        "oracle_integrals": sorted(rng.sample(integrals, _N_ORACLE_INTEGRALS)),
        "hurwitz_probe": _hurwitz_probe(rng, points),
        "digamma_probe": digamma_args,
    }


# --------------------------------------------------------- child side

def bind_calls() -> dict:
    """Op name -> callable, for the package on ``sys.path``.  Imported
    lazily so the parent never loads the package."""
    from normeuclid import cli, cyclozeta, lenstra, rogers, zimmert

    ctx = rogers.RogersContext
    return {
        "cli.main": cli.main,
        "cyclozeta.unit_group": cyclozeta.unit_group,
        "cyclozeta.characters": cyclozeta.characters,
        "cyclozeta.zeta_cyclotomic_logderiv": cyclozeta.zeta_cyclotomic_logderiv,
        "cyclozeta.zeta_cyclotomic": lambda m, s: cyclozeta.zeta_cyclotomic(m, s, "hurwitz"),
        "cyclozeta.zeta_cyclotomic_euler": lambda m, s: cyclozeta.zeta_cyclotomic(m, s, "euler"),
        "rogers.f_lower": lambda n, theta: rogers.f_lower(ctx(n, theta)),
        "rogers.central_integral": lambda n, theta: rogers.central_integral(ctx(n, theta)),
        "rogers.u_threshold": lambda n, theta: rogers.u_threshold(ctx(n, theta)),
        "lenstra.find_crossing": lenstra.find_crossing,
        "lenstra.delta2_star_log": lenstra.delta2_star_log,
        "lenstra.main_gap": lenstra.main_gap,
        "zimmert.f_terms": zimmert.f_terms,
        "zimmert.satz4_check": zimmert.satz4_check,
        "zimmert.min_norm_check": zimmert.min_norm_check,
    }
