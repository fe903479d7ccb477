"""Dedekind zeta functions of cyclotomic fields, two ways.

The field of m-th roots of unity has degree phi(m), and its zeta function
is the product of the Dirichlet L-functions L_m(s, chi) over all phi(m)
characters chi mod m, each taken mod m itself, completed at the ramified
primes p | m by the exact Euler factors (1 - p^{-f s})^{-g}.  Through the
Hurwitz-zeta identity

    L_m(s, chi) = m^{-s} sum_{a mod m} chi(a) zeta(s, a/m)

all phi(m) L-values are one discrete Fourier transform over (Z/mZ)*: on
the discrete-log grid of the unit group the character sum is
``np.fft.fftn`` of h[v] = m^{-s} zeta(s, a/m) (Washington, Introduction to
Cyclotomic Fields, Ch. 4).  ``unit_group`` lists the units in the grid's C
order as int64 arrays, so h is one array-kernel call over a = units/m,
reshaped.  The log-derivative transforms m^{-s} times d/ds zeta(s, a/m)
the same way.

An independent route multiplies Euler factors (1 - p^{-f s})^{-g} over
rational primes up to a configurable limit, where f is the multiplicative
order of p modulo the prime-to-p part of m and g = phi(.)/f.  Only the
primes whose factor differs from 1 in binary64 are multiplied in: once
(f s) ln p passes 745.2, p^{-f s} underflows to exactly 0.0, which for
m in the hundreds is most primes up to 10^6.  The primes and their logs
are sieved once per process (odd numbers only).  The omitted tail is a
proven bound, reported in the error estimate (it dominates for s near 1,
where the truncated product is far from converged): partial summation
with pi(x) < 1.25506 x/ln x (Rosser-Schoenfeld 1962) bounds
sum_{p > P} p^{-s} by 1.25506 s E1(x) at x = (s - 1) ln P, with E1 taken
at its closed-form upper bound e^{-x} ln(1 + 1/x) (Abramowitz-Stegun
5.1.20), and the prime powers add at most P^{1-2s}/(2 (2s - 1)(1 - P^{-s})).

Single characters keep their own route: ``dirichlet_l`` evaluates the
primitive character that induces chi at its conductor, with values taken
from integer rotation indices k mod L (L = exponent of the unit group);
this also serves as a check on the transform.  Conductors are closed-form
products of local conductors (Washington, Ch. 3; see ``characters``).

Multiplicative orders, and with them every residue degree f, come from the
same discrete logs: a unit with exponent vector v over generators of
orders o_i has order lcm_i o_i/gcd(v_i, o_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .specfun import (
    _U,
    DomainError,
    Evaluation,
    hurwitz_zeta_array,
    hurwitz_zeta_ds_array,
)

__all__ = [
    "UnitGroupStructure",
    "DirichletCharacter",
    "ScanRow",
    "euler_phi",
    "unit_group",
    "characters",
    "dirichlet_l",
    "zeta_cyclotomic",
    "zeta_cyclotomic_logderiv",
    "cyclo_disc_log",
    "cyclo_signature",
    "min_proper_ideal_norm",
    "scan",
    "scan_row",
]

_TWO_PI = 2.0 * math.pi


# ------------------------------------------------------- basic arithmetic

def _factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(m: int) -> int:
    """Euler totient of m >= 1."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    phi = 1
    for p, k in _factorize(m).items():
        phi *= p ** (k - 1) * (p - 1)
    return phi


def _smallest_primitive_root(p: int) -> int:
    """Smallest primitive root of an odd prime p."""
    qs = list(_factorize(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


# ------------------------------------------------------------- unit group

@dataclass(frozen=True, eq=False)  # numpy arrays have no dataclass equality
class UnitGroupStructure:
    """CRT generator data for (Z/mZ)*, with the discrete-log grid as
    read-only int64 arrays.

    ``generators`` holds (residue mod m, order) with one entry per cyclic
    factor, and ``orders`` the orders alone.  Row i of ``logs`` (shape
    (phi, #generators)) is the exponent vector of the unit ``units[i]``,
    and the rows run through the grid of exponent vectors in C order, so
    an array of phi values over ``units`` reshapes directly onto the grid.
    ``exponent`` is the group exponent L = lcm of the orders (1 for the
    trivial group) and ``weights[i]`` = L // orders[i]: the character with
    exponent vector e takes exp(2 pi i k/L) at the unit with exponent
    vector v, where k = v . (e weights) mod L.
    """

    modulus: int
    generators: tuple[tuple[int, int], ...]
    units: np.ndarray
    logs: np.ndarray
    orders: np.ndarray
    exponent: int
    weights: np.ndarray

    def dlog(self, r: int) -> np.ndarray:
        """Exponent vector of r mod m, which must be a unit."""
        return self.logs[np.flatnonzero(self.units == r % self.modulus)[0]]


# every caller works through one modulus at a time (one scan row, one sweep
# point), so the last group holds all the reuse there is, and memory stays
# flat over long sweeps
@lru_cache(maxsize=1)
def unit_group(m: int) -> UnitGroupStructure:
    """Decompose (Z/mZ)* into cyclic factors with explicit generators.

    Odd prime powers p^k get the smallest primitive root of p, lifted to
    p^k when needed; 2 contributes nothing, 4 gives <3>, and 2^k (k >= 3)
    gives <-1> x <5> with orders (2, 2^{k-2}).  Generators are lifted to
    residues mod m by CRT, and the units are the products of their powers
    over the whole exponent grid.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    generators: list[tuple[int, int]] = []
    units = np.array([1 % m], dtype=np.int64)
    for p, k in sorted(_factorize(m).items()):
        q = p ** k
        if p > 2:
            g = _smallest_primitive_root(p)
            if k >= 2 and pow(g, p - 1, p * p) == 1:
                g += p
            local = [(g, q // p * (p - 1))]
        else:
            local = {1: [], 2: [(3, 2)]}.get(k, [(q - 1, 2), (5, q // 4)])
        rest = m // q
        for g, order in local:
            lifted = (1 + rest * ((g - 1) * pow(rest, -1, q) % q)) % m  # g mod q, 1 mod rest
            generators.append((lifted, order))
            powers = [1]  # lifted^e mod m for e < order
            for _ in range(order - 1):
                powers.append(powers[-1] * lifted % m)
            units = (units[:, None] * np.array(powers) % m).ravel()
    orders = [o for _, o in generators]
    logs = np.indices(orders, dtype=np.int64).reshape(len(orders), units.size).T.copy()
    if units.size != euler_phi(m) or np.bincount(units).max() > 1:
        raise RuntimeError(f"unit group enumeration failed for m={m}")
    exponent = math.lcm(*orders)
    order_array = np.array(orders, dtype=np.int64)
    weights = np.array([exponent // o for o in orders], dtype=np.int64)
    for a in (units, logs, order_array, weights):
        a.flags.writeable = False
    return UnitGroupStructure(m, tuple(generators), units, logs, order_array, exponent, weights)


def _unit_orders(logs: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Multiplicative orders lcm_i o_i/gcd(v_i, o_i) of the units with
    exponent vectors v (one vector, or one per row of ``logs``)."""
    return np.lcm.reduce(orders // np.gcd(logs, orders), axis=-1, initial=1)


def _order_table(m: int) -> np.ndarray:
    """table[r] = multiplicative order of r mod m for r coprime to m, else 0."""
    group = unit_group(m)
    table = np.zeros(m, dtype=np.int64)
    table[group.units] = _unit_orders(group.logs, group.orders)
    return table


def _ramified_degrees(m: int) -> list[tuple[int, int, int]]:
    """(p, f, g) for each prime p | m = p^k q: f is the order of p mod q,
    read as the order mod m of the unit u = p mod q, u = 1 mod p^k; and
    g = phi(q)/f."""
    group = unit_group(m)
    out = []
    for p, k in _factorize(m).items():
        pk = p ** k
        q = m // pk
        u = (1 + pk * ((p - 1) * pow(pk, -1, q) % q)) % m
        f = int(_unit_orders(group.dlog(u), group.orders))
        out.append((p, f, euler_phi(q) // f))
    return out


# ------------------------------------------------------------- characters

class DirichletCharacter(NamedTuple):
    """A character of (Z/mZ)* as an exponent vector over the generators.

    The value at a residue a with dlog vector v is the rotation
    sum_i exponents[i] * v[i] / order_i (mod 1); ``conductor`` is the
    smallest d | m through which the character factors.  A named tuple,
    because ``characters`` builds phi(m) of them per modulus.
    """

    modulus: int
    exponents: tuple[int, ...]
    conductor: int


def characters(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) Dirichlet characters mod m, trivial character first,
    with exponent vectors in the C order of the discrete-log grid.

    The conductor is the product of local conductors over the prime
    powers p^k || m (Washington, Introduction to Cyclotomic Fields, Ch. 3):
    on a cyclic factor (p odd, or 4) a component of order n has conductor
    p^{1 + v_p(n)}, or 1 when trivial; on <-1> x <5> mod 2^k (k >= 3) it
    is 4 n_5 with n_5 the order on <5>, or 1 when trivial.
    """
    group = unit_group(m)
    exps, orders = group.logs, group.orders
    conductor = np.ones(len(exps), dtype=np.int64)
    col = 0
    for p, k in sorted(_factorize(m).items()):
        if p == 2 and k >= 3:
            o = orders[col + 1]
            local = 4 * (o // np.gcd(exps[:, col + 1], o))
            trivial = ~exps[:, col : col + 2].any(axis=1)
            col += 2
        elif p > 2 or k == 2:
            o = orders[col]  # p^{v_p(n)} = gcd(n, p^{k-1}), as n | p^{k-1}(p-1)
            local = p * np.gcd(o // np.gcd(exps[:, col], o), p ** (k - 1))
            trivial = exps[:, col] == 0
            col += 1
        else:
            continue
        conductor *= np.where(trivial, 1, local)
    return tuple(
        DirichletCharacter(m, tuple(e), c)
        for e, c in zip(exps.tolist(), conductor.tolist())
    )


def _rotation_indices(chi: DirichletCharacter, logs: np.ndarray) -> np.ndarray:
    """The integers k with chi = exp(2 pi i k/L) at the units whose
    exponent vectors are ``logs`` (one vector, or one per row)."""
    group = unit_group(chi.modulus)
    return logs @ (np.array(chi.exponents, dtype=np.int64) * group.weights) % group.exponent


def _char_table(chi: DirichletCharacter, d: int) -> np.ndarray:
    """table[a mod d] = chi(a) over the units a mod m, 0 elsewhere.

    With d the modulus this is chi itself; with d the conductor it is the
    primitive character inducing chi, which takes the value chi(a) on the
    class of every unit a mod m.
    """
    group = unit_group(chi.modulus)
    angle = _TWO_PI * (_rotation_indices(chi, group.logs) / group.exponent)
    table = np.zeros(d, dtype=complex)
    table[group.units % d] = np.cos(angle) + 1j * np.sin(angle)
    return table


# ------------------------------------------------------------ L-functions

def dirichlet_l(s: float, chi: DirichletCharacter, primitive: bool = True) -> Evaluation:
    """L(s, chi) for s > 1 via the Hurwitz-zeta identity
    L(s, chi) = d^{-s} sum_{a mod d} chi(a) zeta(s, a/d): one array-kernel
    call over a = 1/d, ..., d/d and a dot product with the character table.

    With primitive=True (the default) the L-value of the inducing
    primitive character is returned (d the conductor); this is the factor
    that enters the cyclotomic zeta product.  The value is complex.
    """
    if s <= 1.0:
        raise DomainError(f"dirichlet_l requires s > 1, got {s}")
    d = chi.conductor if primitive else chi.modulus
    table = _char_table(chi, d)
    # entry a of the table meets zeta(s, (a or d)/d)
    vals, errs, terms = hurwitz_zeta_array(s, np.roll(np.arange(1, d + 1), 1) / d)
    scale = d ** (-s)
    return Evaluation(
        complex(scale * (table @ vals)), scale * float(errs[table != 0].sum()), d * terms
    )


# --------------------------------------------------------- zeta assembly

def _assert_real(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-10 * max(1.0, abs(z.real)):
        raise ArithmeticError(f"{what}: residual imaginary part {z.imag} too large")
    return z.real


def _group_dft(
    m: int, s: float, kernel: Callable[..., tuple[np.ndarray, np.ndarray, int]]
) -> tuple[np.ndarray, float]:
    """The phi(m) character sums sum_a conj(chi(a)) h(a) of
    h(a) = m^{-s} kernel(s, a/m), as ``np.fft.fftn`` over the discrete-log
    grid of (Z/mZ)* (m = 1 and 2 give one cell, a = 1), with the error
    bound shared by every entry: the kernel errors plus the FFT rounding
    2.2e-16 (1 + log2 phi) ||h||_1.  One kernel call covers every unit, and
    the units already run through the grid in C order."""
    group = unit_group(m)
    scale = float(m) ** -s
    values, errs, _ = kernel(s, np.where(group.units == 0, m, group.units) / m)
    h = (scale * values).reshape(tuple(group.orders) or (1,))
    err = scale * float(errs.sum())
    err += 2.2e-16 * (1.0 + math.log2(h.size)) * float(np.abs(h).sum())
    return np.fft.fftn(h).ravel(), err


def _ramified(m: int, s: float) -> tuple[float, float]:
    """ln of the exact Euler factors prod_{p | m} (1 - p^{-f s})^{-g} at the
    ramified primes, and its derivative in s."""
    log_f = 0.0
    dlog_f = 0.0
    for p, f, g in _ramified_degrees(m):
        x = float(p) ** (-f * s)
        log_f += -g * math.log1p(-x)
        dlog_f += -g * f * math.log(p) * x / (1.0 - x)
    return log_f, dlog_f


def _zeta_hurwitz(m: int, s: float) -> Evaluation:
    l_vals, err = _group_dft(m, s, hurwitz_zeta_array)
    log_l = _assert_real(complex(np.sum(np.log(l_vals))), f"sum of ln L_m(s, chi) for m={m}")
    value = math.exp(log_l + _ramified(m, s)[0])
    rel_err = float(np.sum(err / np.abs(l_vals)))
    return Evaluation(value, value * (rel_err + 2e-16 * l_vals.size), l_vals.size)


# the Euler route asks for one limit many times in a row; one entry holds
# that reuse, and the arrays are read-only because every caller shares them
@lru_cache(maxsize=1)
def _primes_up_to(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes up to limit >= 2 (int64) and their natural logs, both
    read-only.  The sieve holds the odd numbers only: index i is 2i + 1."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)
    log_p = np.log(primes.astype(np.float64))
    for a in (primes, log_p):
        a.flags.writeable = False
    return primes, log_p


def _prime_tail_integral(s: float, limit: int) -> float:
    """Upper bound on the prime-counting integral int_limit^oo x^{-s}/ln x dx
    = E1(x), x = (s - 1) ln limit: e^{-x} ln(1 + 1/x) > E1(x)
    (Abramowitz-Stegun 5.1.20), which is 1.02-1.20 E1(x) at limit 1e6 for
    s in [1.01, 3]."""
    x = (s - 1.0) * math.log(limit)
    return math.exp(-x) * math.log1p(1.0 / x)


# Rosser-Schoenfeld (Illinois J. Math. 6, 1962), eq. 3.6:
# pi(x) < 1.25506 x/ln x for x > 1
_PI_UPPER = 1.25506


def _prime_sum_tail(s: float, limit: int) -> float:
    """Upper bound on sum_{p > limit} p^{-s}.  By partial summation the sum
    is -pi(limit) limit^{-s} + s int_limit^oo pi(x) x^{-s-1} dx; dropping
    the first term and putting pi(x) < 1.25506 x/ln x in the integral
    leaves 1.25506 s E1((s - 1) ln limit)."""
    return _PI_UPPER * s * _prime_tail_integral(s, limit)


# the smallest prime cutoff the Euler route accepts, from the library and the CLI
_PRIME_LIMIT_MIN = 1000

# np.exp(-y) is exactly 0.0 once y > 745.1332, where e^{-y} rounds below
# 2^-1074; such a prime's Euler factor is exactly 1
_EXP_UNDERFLOW = 745.2


def _zeta_euler(m: int, s: float, prime_limit: int) -> Evaluation:
    """Truncated Euler product over the primes p <= P = prime_limit.

    An unramified p adds -g ln(1 - x), x = p^{-f s} = exp(-y) with
    y = (f s) ln p, f read from the order table and g = phi/f; the
    ramified p | m enter through their exact factors (``_ramified``).  Only
    the primes with y < 745.2 go through exp and log1p: beyond that x is
    exactly 0.0 and the term exactly 0.  The ramified residues carry
    f = inf in a float copy of the table, so the same test drops them.
    ``terms_used`` counts every unramified p <= P plus the ramified p.

    The omitted log is sum_{p > P} g sum_k p^{-f k s}/k.  Since f g = phi,
    those are the terms j = f k of phi sum_j p^{-j s}/j, so the omitted
    log is at most phi sum_{p > P} -ln(1 - p^{-s}), and
    -ln(1 - p^{-s}) <= p^{-s} + p^{-2s}/(2 (1 - P^{-s})).  The first powers
    sum to at most ``_prime_sum_tail``, and sum_{p > P} p^{-2s} <=
    int_P^oo x^{-2s} dx = P^{1-2s}/(2s - 1).  With E phi times the sum of
    the two, value <= zeta_K <= value e^E, and the truncation error is at
    most value (e^E - 1).  E is capped at 700 to keep the estimate finite;
    past the cap it flags a product with no correct digits, not a bound.

    Rounding, to first order in u = 2^-53, with every log, exp, log1p and
    pow within 1 ulp (2u; numpy's accuracy tests hold its float64 ones to
    that).  In t = g ln(1 - x), y = (f s) ln p is off by 4u y and x by
    (4y + 2)u, which ln(1 - x) at most doubles (x < 1/2); log1p, phi/f and
    the product add 4u |t|.  With g x <= |t|, g <= phi, n the primes up to
    P and g x y <= Y g x + g e^{-Y-1} at Y = ln(phi n), sum|dt| <=
    8u ((1 + Y) sum|t| + 1/e).  numpy's pairwise sum adds at most log2 n +
    21 roundings (15 in an accumulator, 3 to join 8 of them, 7 trailing, 1
    per halving, 1 more), and R + sum|t| one: c = 30 + 8 ln(phi n).  In R,
    f s and pow put (y + 2)u into x, giving u (s |R'| + 4 |R|); log1p,
    times g, the k - 1 adds over the k primes of m and R + sum|t| add
    (3 + k)u |R|: c' = 7 + k.  exp adds 2u, and 8/e + 2 < 5.
    """
    if prime_limit < _PRIME_LIMIT_MIN:
        raise DomainError(f"prime_limit must be >= {_PRIME_LIMIT_MIN}, got {prime_limit}")
    phi = euler_phi(m)
    primes, log_p = _primes_up_to(prime_limit)
    order = _order_table(m).astype(np.float64)
    order[order == 0.0] = np.inf
    residues = primes % m
    y = order[residues]
    y *= s
    y *= log_p  # (f s) ln p, f = inf at the ramified residues
    keep = np.flatnonzero(y < _EXP_UNDERFLOW)
    x = np.exp(-y[keep])
    terms = np.log1p(-x, out=x)  # in place, sparing one more prime-sized array
    terms *= phi / order[residues[keep]]
    log_r, dlog_r = _ramified(m, s)
    abs_sum = -float(np.sum(terms))  # every term is <= 0
    value = math.exp(log_r + abs_sum)

    cutoff = float(prime_limit)
    tail1 = _prime_sum_tail(s, prime_limit)
    tail2 = cutoff ** (1.0 - 2.0 * s) / ((2.0 * s - 1.0) * 2.0 * (1.0 - cutoff ** -s))
    err = value * math.expm1(min(phi * (tail1 + tail2), 700.0))
    n, ramified = len(primes), _factorize(m)
    rounding = (30.0 + math.log2(n) + 8.0 * math.log(phi * n)) * abs_sum + 5.0 - s * dlog_r
    err += _U * value * (rounding + (7 + len(ramified)) * log_r)
    # the primes <= P that do not divide m, plus every p | m
    return Evaluation(value, err, n + sum(p > prime_limit for p in ramified))


def _check_point(s: float) -> None:
    if not math.isfinite(s):
        raise DomainError(f"need a finite s, got {s}")
    if s <= 1.0:
        raise DomainError(f"need s > 1, got {s}")


def zeta_cyclotomic(
    m: int,
    s: float,
    method: str = "hurwitz",
    prime_limit: int = 10 ** 6,
) -> Evaluation:
    """Dedekind zeta of the m-th cyclotomic field at real s > 1.

    method="hurwitz": exp of the summed ln L_m(s, chi), all phi(m) values
    from one group DFT, plus the ramified Euler factors (accurate to
    roughly 1e-12 relative); ``terms_used`` is the number of Hurwitz-zeta
    evaluations, phi(m).  method="euler": truncated Euler product over
    rational primes up to prime_limit >= 1000, whose estimate adds the
    rounding to the omitted-tail bound (large for s near 1); ``terms_used``
    counts the primes multiplied in.  Both deliver a real value > 1.
    """
    _check_point(s)
    if method == "hurwitz":
        return _zeta_hurwitz(m, s)
    if method == "euler":
        return _zeta_euler(m, s, prime_limit)
    raise DomainError(f"unknown method {method!r}")


def zeta_cyclotomic_logderiv(m: int, s: float) -> Evaluation:
    """zeta'/zeta of the m-th cyclotomic field at real s > 1.

    With F and F' the group DFTs of m^{-s} zeta(s, a/m) and of m^{-s} times
    its s-derivative, L_m'/L_m = F'/F - ln m for every character, so the
    value is sum F'/F - phi(m) ln m plus the ramified Euler factors'
    log-derivative.  ``terms_used`` is the number of Hurwitz-zeta
    evaluations, 2 phi(m)."""
    _check_point(s)
    l_vals, err = _group_dft(m, s, hurwitz_zeta_array)
    d_vals, derr = _group_dft(m, s, hurwitz_zeta_ds_array)
    ratio = d_vals / l_vals
    total = _assert_real(complex(np.sum(ratio)), f"zeta log-derivative for m={m}")
    value = total - l_vals.size * math.log(m) + _ramified(m, s)[1]
    err_sum = float(np.sum((derr + np.abs(ratio) * err) / np.abs(l_vals)))
    return Evaluation(value, err_sum + 1e-14, 2 * l_vals.size)


# ----------------------------------------------- field-level invariants

def cyclo_disc_log(m: int) -> float:
    """ln |discriminant| of the m-th cyclotomic field:
    phi(m) ln m - sum_{p | m} (phi(m)/(p-1)) ln p.

    The formula already collapses m = 2 mod 4 onto the same field as m/2.
    """
    phi = euler_phi(m)
    if m == 1:
        return 0.0
    return phi * math.log(m) - sum(
        (phi / (p - 1)) * math.log(p) for p in _factorize(m)
    )


def cyclo_signature(m: int) -> tuple[int, int]:
    """(real embeddings, complex pairs) of the m-th cyclotomic field: Q
    itself for m = 1 and 2, the only m with phi(m) = 1."""
    phi = euler_phi(m)
    return (1, 0) if phi == 1 else (0, phi // 2)


def min_proper_ideal_norm(m: int) -> int:
    """Smallest norm of a proper nonzero ideal in the m-th cyclotomic ring.

    Every proper ideal has a prime factor, so this is the least norm p^f
    of a prime ideal, f the residue degree of p.  The ramified p | m give
    their p^f through ``_ramified_degrees`` (m = 1, the integers, has none,
    and starts from the prime 2).  An unramified p has f = ord_m(p), so
    p^f = 1 (mod m) lies in the progression m+1, 2m+1, ....  Conversely,
    let q = p^e be the first prime power in it.  Then ord_m(p) divides e,
    and p^ord_m(p) is a prime power in the same progression no larger
    than q, so e = ord_m(p) and q is the norm of a prime over p.  The least
    unramified norm is thus the first prime power in the progression, and
    only the terms below the least ramified norm need a look.
    """
    best = min((p ** f for p, f, _ in _ramified_degrees(m)), default=2)
    return next((q for q in range(m + 1, best, m) if len(_factorize(q)) == 1), best)


# ------------------------------------------------------------------ scans

@dataclass(frozen=True)
class ScanRow:
    """One point of the cyclotomic scan: zeta at s = 1 + phi(m)^{-epsilon}."""

    m: int
    phi_m: int
    epsilon: float
    s: float
    zeta_value: float
    err_estimate: float

    def __post_init__(self) -> None:
        if not (self.s > 1.0 and self.zeta_value > 1.0):
            raise ValueError(
                f"scan row m={self.m} violates s > 1, zeta > 1: "
                f"s={self.s}, zeta={self.zeta_value}"
            )


def scan_row(m: int, epsilon: float) -> ScanRow:
    """A single scan point, on the group-DFT route.  m = 2 mod 4 is
    evaluated through m/2 (same field, same degree), making duplicate rows
    bit-identical."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"need epsilon in (0, 1), got {epsilon}")
    phi = euler_phi(m)
    s = 1.0 + float(phi) ** -epsilon
    mc = m // 2 if (m % 4 == 2) else m
    z = zeta_cyclotomic(mc, s)
    return ScanRow(m, phi, epsilon, s, z.value, z.err_estimate)


def scan(m_max: int, epsilon: float) -> list[ScanRow]:
    """Scan rows for m = 1..m_max at s = 1 + phi(m)^{-epsilon}, one row per
    m; moduli congruent to 2 mod 4 name the same field as their half and
    repeat its row."""
    if m_max < 1:
        raise DomainError(f"need m_max >= 1, got {m_max}")
    return [scan_row(m, epsilon) for m in range(1, m_max + 1)]
