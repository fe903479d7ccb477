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
order as an int64 array, so h is one array-kernel call over a = units/m,
reshaped.  The log-derivative transforms m^{-s} times d/ds zeta(s, a/m)
the same way.

Hurwitz zeta and its s-derivative have one kernel, ``_hurwitz``, which
``hurwitz_zeta_array`` and ``hurwitz_zeta_ds_array`` call (``specfun``'s
one-point routes with one element): it checks s and a once, builds one
(N x len(a)) Euler-Maclaurin block, adds the d/ds half only when asked,
and sums the direct terms smallest first, with that sum's rounding, about
N u sum|terms|, in the error estimate.  The cutoffs are N = 20 direct
terms and J = 10 Bernoulli pairs for every s.  That N is enough:
k -> (k+a)^{-s} is completely monotone, so for any N the remainder lies
between zero and the first omitted Bernoulli term, which the estimate
charges (for d/ds, its s-derivative).  At N = 20 both are below 1e-25 for
every s > 1 and below 1e-30 for s >= 10, far below every tolerance used
downstream (the tightest acceptance margin in the package is about 5e-5).
A value or an estimate that binary64 cannot hold raises DomainError.

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

A per-unit quantity that is a function of the exponent vector v, such
as a unit's order lcm_i o_i/gcd(v_i, o_i) (the residue degrees of the
unramified primes, for the Euler route), is an outer product of one short
column per generator axis, raveled in the units' C order.  The ramified
primes p | m get their degrees, f = ord_q(p) with q the prime-to-p part
of m, from integer arithmetic alone (``_ramified_degrees``).

Each field point is evaluated once.  The Hurwitz route keeps its last
(m, s) and zeta_K in a one-entry memo, ``_last_zeta``, which the
log-derivative writes as well, since its transform F is the Hurwitz
route's.  Q(zeta_2m) = Q(zeta_m) for odd m, so ``scan`` takes the row of 2m
right after that of m, and that row finds m's zeta there; ``min_norm_check``
finds the zeta that ``satz4_check``'s log-derivative left at the same
(m, 1 + beta).  The log-derivative takes zeta(s, a/m) and its s-derivative
from one kernel call.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .specfun import _BERNOULLI_OVER_FACTORIAL, _U, DomainError, Evaluation, PoleError

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
    "hurwitz_zeta_array",
    "hurwitz_zeta_ds_array",
]

_TWO_PI = 2.0 * math.pi


# ------------------------------------------------------- basic arithmetic

# a scan row asks for m, phi(m) and each p - 1 (odd p | m) from several places
@lru_cache(maxsize=16)
def _factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 by trial division: (p, k) pairs, p
    ascending, in a tuple, as every caller of a cached entry shares it.
    Every function of a modulus reaches this before it uses m, so m < 1
    raises DomainError here, once for the module."""
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return tuple(out.items())


def _phi(factors: tuple[tuple[int, int], ...]) -> int:
    """Euler totient from a factorization."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in factors)


def euler_phi(m: int) -> int:
    """Euler totient of m >= 1."""
    return _phi(_factorize(m))


def _smallest_primitive_root(p: int) -> int:
    """Smallest primitive root of an odd prime p."""
    qs = [q for q, _ in _factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


# ------------------------------------------------------------- unit group

class UnitGroupStructure(NamedTuple):
    """CRT generator data for (Z/mZ)*, with the units as a read-only int64
    array.  ``==`` on two groups compares their ``units`` arrays (numpy
    raises for more than one unit), which nothing does.

    ``generators`` holds (residue mod m, order) with one entry per cyclic
    factor, and ``orders`` the orders alone.  ``units`` runs through the
    grid of exponent vectors in C order (``np.ndindex(*orders)``), so an
    array of phi values over ``units`` reshapes directly onto the grid.  A
    per-unit table f(v) = f_1(v_1) op ... op f_k(v_k) is therefore
    ``np.ravel(reduce(op, np.ix_(*columns), start))`` over one column
    f_i(0..o_i - 1) per generator; with no generators (m = 1, 2) it is the
    one entry ``start``.
    """

    generators: tuple[tuple[int, int], ...]
    units: np.ndarray
    orders: tuple[int, ...]


# every caller works through one modulus at a time (one scan row, one sweep
# point), so the last group holds all the reuse there is, and memory stays
# flat over long sweeps
@lru_cache(maxsize=1)
def unit_group(m: int) -> UnitGroupStructure:
    """Decompose (Z/mZ)* into cyclic factors with explicit generators.

    Odd prime powers p^k get the smallest primitive root of p, lifted to
    p^k when needed; 2 contributes nothing, 4 gives <3>, and 2^k (k >= 3)
    gives <-1> x <5> with orders (2, 2^{k-2}).  Generators are lifted to
    residues mod m by CRT, and so are the units: with c_q = 1 mod q,
    0 mod m/q for each prime power q || m, the unit whose q-part is x_q (a
    product of powers of the local generators mod q) is sum_q c_q x_q
    mod m.  The grid is thus one broadcast sum per prime power, of terms
    c_q x_q mod m listed in Python, and one reduction mod m at the end.
    """
    factors = _factorize(m)
    generators: list[tuple[int, int]] = []
    units = np.zeros(1, dtype=np.int64)
    for p, k in factors:
        q = p ** k
        if p > 2:
            g = _smallest_primitive_root(p)
            if k >= 2 and pow(g, p - 1, p * p) == 1:
                g += p
            local = [(g, q // p * (p - 1))]
        else:
            local = {1: [], 2: [(3, 2)]}.get(k, [(q - 1, 2), (5, q // 4)])
        rest = m // q
        c = rest * pow(rest, -1, q)  # c_q, below m
        terms = [c]  # c_q x_q mod m over this factor's grid
        for g, order in local:
            lifted = (1 + c * (g - 1)) % m  # g mod q, 1 mod rest
            generators.append((lifted, order))
            grid = []  # t lifted^e mod m for each t in terms, e < order
            for x in terms:
                for _ in range(order):
                    grid.append(x)
                    x = x * lifted % m
            terms = grid
        units = np.add.outer(units, terms).ravel()
    units %= m
    if units.size != _phi(factors) or np.bincount(units).max() > 1:
        raise RuntimeError(f"unit group enumeration failed for m={m}")
    units.flags.writeable = False
    return UnitGroupStructure(tuple(generators), units, tuple(o for _, o in generators))


def _order_table(m: int) -> np.ndarray:
    """table[r] = multiplicative order of r mod m for r coprime to m, else 0.

    The unit with exponent vector v has order lcm_i o_i/gcd(v_i, o_i): the
    lcm over the generator axes of the columns o_i/gcd(0..o_i - 1, o_i)."""
    group = unit_group(m)
    columns = [o // np.gcd(np.arange(o), o) for o in group.orders]
    table = np.zeros(m, dtype=np.int64)
    table[group.units] = np.ravel(reduce(np.lcm, np.ix_(*columns), 1))
    return table


def _ramified_degrees(m: int) -> list[tuple[int, int, int]]:
    """(p, f, g) for each prime p | m = p^k q: f = ord_q(p) and
    g = phi(q)/f.  The order comes from integers alone (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.4.3): p^f = 1 (mod q) at
    f = phi(q), and each prime r of phi(q) is stripped from f while
    p^(f/r) = 1 (mod q) still holds.  phi(q) divides phi(m), so the primes
    of phi(m) cover those of every phi(q)."""
    factors = _factorize(m)
    phi = _phi(factors)
    primes = [r for r, _ in _factorize(phi)]
    out = []
    for p, k in factors:
        q = m // p ** k
        f = phi_q = phi // (p ** (k - 1) * (p - 1))
        for r in primes:
            while f % r == 0 and pow(p, f // r, q) == 1:  # q > 2 once f > 1
                f //= r
        out.append((p, f, phi_q // f))
    return out


# ------------------------------------------------------------- characters

class DirichletCharacter(NamedTuple):
    """A character of (Z/mZ)* as an exponent vector over the generators.

    The value at a unit with exponent vector v is the rotation
    sum_i exponents[i] * v[i] / order_i (mod 1); ``conductor`` is the
    smallest d | m through which the character factors.  A named tuple,
    because ``characters`` builds phi(m) of them per modulus.
    """

    modulus: int
    exponents: tuple[int, ...]
    conductor: int


def characters(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) Dirichlet characters mod m, trivial character first,
    with exponent vectors in the C order of the exponent grid.

    The conductor is the product of local conductors over the prime
    powers p^k || m (Washington, Introduction to Cyclotomic Fields, Ch. 3):
    on a cyclic factor (p odd, or 4) a component of order n has conductor
    p^{1 + v_p(n)}, or 1 when trivial; on <-1> x <5> mod 2^k (k >= 3) it
    is 4 n_5 with n_5 the order on <5>, or 1 when trivial.  Each prime
    power's generators are adjacent axes of the grid, so the conductors
    are the product over one block of local conductors per prime power,
    the 2 x o_5 block of <-1> x <5> raveled into one axis.
    """
    group = unit_group(m)
    orders = iter(group.orders)
    blocks = []
    for p, k in _factorize(m):
        if p == 2 and k >= 3:
            next(orders)  # the <-1> axis, which leaves the conductor 4 n_5
            o = next(orders)
            local = np.tile(4 * (o // np.gcd(np.arange(o), o)), 2)
        elif p > 2 or k == 2:
            o = next(orders)  # p^{v_p(n)} = gcd(n, p^{k-1}), as n | p^{k-1}(p-1)
            local = p * np.gcd(o // np.gcd(np.arange(o), o), p ** (k - 1))
        else:
            continue
        local[0] = 1  # the trivial component
        blocks.append(local)
    conductors = np.ravel(reduce(np.multiply, np.ix_(*blocks), 1))
    return tuple(
        DirichletCharacter(m, e, c)
        for e, c in zip(itertools.product(*map(range, group.orders)), conductors.tolist())
    )


def _rotation_indices(chi: DirichletCharacter) -> tuple[int, np.ndarray]:
    """L = the group exponent (lcm of the orders, 1 for the trivial group)
    and, at every unit in the order of ``units``, the integer k with
    chi = exp(2 pi i k/L): the character with exponent vector e has
    k = sum_i e_i (L/o_i) v_i mod L at the unit with exponent vector v."""
    modulus, exponents, _ = chi
    orders = unit_group(modulus).orders
    big_l = math.lcm(*orders)
    columns = [e * (big_l // o) * np.arange(o) for e, o in zip(exponents, orders)]
    return big_l, np.ravel(reduce(np.add, np.ix_(*columns), 0)) % big_l


def _char_table(chi: DirichletCharacter, d: int) -> np.ndarray:
    """table[a mod d] = chi(a) over the units a mod m, 0 elsewhere.

    With d the modulus this is chi itself; with d the conductor it is the
    primitive character inducing chi, which takes the value chi(a) on the
    class of every unit a mod m.
    """
    group = unit_group(chi.modulus)
    big_l, k = _rotation_indices(chi)
    angle = _TWO_PI * (k / big_l)
    table = np.zeros(d, dtype=complex)
    table[group.units % d] = np.cos(angle) + 1j * np.sin(angle)
    return table


# ----------------------------------------------------- Hurwitz zeta kernel

# The one Euler-Maclaurin block, N direct terms and J Bernoulli pairs, and
# the parts of it that do not depend on s: the descending k column (a sum
# along axis 0 adds the smallest terms first), the exponents of x^{-2i} for
# i = 0..J, the offsets t = 0..2J of s + t, and B_2i/(2i)!, i = 1..J+1.
_EM_N = 20
_EM_J = 10
_EM_K = np.arange(_EM_N - 1, -1, -1, dtype=np.float64)[:, None]
_EM_POWERS = -np.arange(_EM_J + 1.0)[:, None]
_EM_OFFSETS = np.arange(2.0 * _EM_J + 1.0)
_EM_COEFS = np.array(_BERNOULLI_OVER_FACTORIAL)


def _em_result(s: float, direct, rest, abs_sum, omitted):
    """value = direct sum + Euler-Maclaurin rest, with its error estimate:
    the first omitted correction, the direct sum's rounding (N+2) u sum|terms|
    (N - 1 additions plus the rounding of each term), about 5u for the few
    operations of the rest, and u for the final additions.  A value or an
    estimate that binary64 cannot hold raises DomainError."""
    value = direct + rest
    err = omitted + _U * ((_EM_N + 2) * abs_sum + 5.0 * np.abs(rest) + np.abs(value))
    # err carries |value|, so a non-finite value leaves err non-finite too
    if not np.isfinite(err).all():
        raise DomainError(f"hurwitz_zeta at s={s} leaves the binary64 range")
    return value, err, _EM_N + _EM_J


# an overflow surfaces as the DomainError of _em_result, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def _hurwitz(s: float, a, derivative: bool):
    """(zeta, d/ds zeta or None) at every entry of a, each a (values,
    estimates, terms) triple as ``hurwitz_zeta_array`` describes, from one
    (N x len(a)) Euler-Maclaurin block: base = k + a with k = N-1-i
    descending down axis 0, x = N + a, and the Bernoulli corrections of zeta
    bern[i-1] = B_2i/(2i)! s(s+1)...(s+2i-2) x^{-s-2i+1} for i = 1..J+1, the
    last the first omitted.  zeta's direct terms p = base^{-s} are positive,
    so sum|terms| is their sum.  With ``derivative`` the same p gives d/ds,
    the scheme differentiated term by term: harm[i-1] sums 1/(s+t) over the
    factors of bern[i-1], whose d/ds is bern[i-1] (harm[i-1] - ln x), and the
    direct terms -ln(k+a) (k+a)^{-s} change sign at k + a = 1, so its
    rounding term uses sum|terms|."""
    if not math.isfinite(s):
        raise DomainError(f"hurwitz_zeta needs a finite s, got {s}")
    if s <= 1.0:
        raise PoleError(f"hurwitz_zeta requires s > 1, got {s}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or not ((a > 0.0) & (a <= 1.0)).all():
        raise DomainError(f"hurwitz_zeta requires 0 < a <= 1, got a={a}")
    x = _EM_N + a
    t = s + _EM_OFFSETS
    coef = _EM_COEFS * t.cumprod()[::2]
    xp = x ** (-s - 1.0) * (x * x) ** _EM_POWERS
    # for s above about 4e14 the product s(s+1)... overflows where the power
    # has already underflowed; such a correction is 0, not inf * 0
    bern = np.where(xp > 0.0, coef[:, None] * xp, 0.0)
    base = _EM_K + a
    del xp  # freed before p: held, it made the kernel 1.1-1.2x slower at len(a) = 3000
    p = base ** -s
    xt = x ** (1.0 - s)
    direct = p.sum(axis=0)
    rest = xt / (s - 1.0) + 0.5 * xt / x + bern[:-1].sum(axis=0)
    zeta = _em_result(s, direct, rest, direct, np.abs(bern[-1]))
    if not derivative:
        return zeta, None
    del direct, rest  # held through the d/ds half, they slowed it 1.1x at len(a) = 3000
    harm = (1.0 / t).cumsum()[::2]
    terms = -np.log(base) * p
    lx = np.log(x)
    tail = -xt * (lx / (s - 1.0) + 1.0 / ((s - 1.0) * (s - 1.0)))
    mid = -0.5 * lx * xt / x
    corr = (bern[:-1] * (harm[:-1, None] - lx)).sum(axis=0)
    omitted = np.abs(bern[-1]) * (abs(harm[-1]) + lx)
    abs_sum = np.abs(terms).sum(axis=0)
    return zeta, _em_result(s, terms.sum(axis=0), tail + mid + corr, abs_sum, omitted)


def hurwitz_zeta_array(s: float, a) -> tuple[np.ndarray, np.ndarray, int]:
    """Hurwitz zeta(s, a) = sum_{k>=0} (k+a)^{-s} for s > 1 at every entry
    of the 1-d array a, 0 < a <= 1.

    Euler-Maclaurin over an (N x len(a)) block: the direct terms k < N,
    summed smallest first, the integral tail (N+a)^{1-s}/(s-1), the
    midpoint term (N+a)^{-s}/2, and Bernoulli corrections B_2j up to J
    pairs.  Returns (values, error estimates, terms per value N + J).  The
    error estimate is the first omitted Bernoulli term plus the rounding
    of the direct sum, (N+2) u sum|terms| with u = 2^-53, and of the rest.
    """
    return _hurwitz(s, a, False)[0]


def hurwitz_zeta_ds_array(s: float, a) -> tuple[np.ndarray, np.ndarray, int]:
    """d/ds of hurwitz_zeta_array(s, a), the same Euler-Maclaurin scheme
    differentiated term by term, with the same return layout."""
    return _hurwitz(s, a, True)[1]


# ------------------------------------------------------------ L-functions

def dirichlet_l(s: float, chi: DirichletCharacter, primitive: bool = True) -> Evaluation:
    """L(s, chi) for s > 1 via the Hurwitz-zeta identity
    L(s, chi) = d^{-s} sum_{a mod d} chi(a) zeta(s, a/d): one array-kernel
    call over a = 1/d, ..., d/d and a dot product with the character table.

    With primitive=True (the default) the L-value of the inducing
    primitive character is returned (d the conductor); this is the factor
    that enters the cyclotomic zeta product.  The value is complex.  The
    kernel raises PoleError for s <= 1 and DomainError for a non-finite s.
    """
    d = chi.conductor if primitive else chi.modulus
    table = _char_table(chi, d)
    # entry a of the table meets zeta(s, (a or d)/d)
    vals, errs, terms = hurwitz_zeta_array(s, np.roll(np.arange(1, d + 1), 1) / d)
    scale = d ** (-s)
    return Evaluation(
        complex(scale * (table @ vals)), scale * float(errs[table != 0].sum()), d * terms
    )


# --------------------------------------------------------- zeta assembly

def _unit_points(m: int) -> np.ndarray:
    """a = units/m over (Z/mZ)*, in the C order of the discrete-log grid
    (m = 1 lists its unit as 0 and takes a = 1)."""
    units = unit_group(m).units  # m < 1 raises DomainError here
    return units / m if m > 1 else np.ones(1)


def _transform(
    m: int, s: float, values: np.ndarray, errs: np.ndarray
) -> tuple[np.ndarray, float]:
    """The phi(m) character sums sum_a conj(chi(a)) h(a) of
    h(a) = m^{-s} values(a), as ``np.fft.fftn`` over the discrete-log grid
    of (Z/mZ)* (m = 1 and 2 give one cell), with the error bound shared by
    every entry: the kernel errors plus the FFT rounding
    2.2e-16 (1 + log2 phi) ||h||_1.  The units already run through the
    grid in C order."""
    scale = float(m) ** -s
    h = (scale * values).reshape(unit_group(m).orders or (1,))
    err = scale * float(errs.sum())
    err += 2.2e-16 * (1.0 + math.log2(h.size)) * float(np.abs(h).sum())
    return np.fft.fftn(h).ravel(), err


def _ramified(m: int, s: float) -> tuple[float, float]:
    """ln of the exact Euler factors prod_{p | m} (1 - p^{-f s})^{-g} at the
    ramified primes, and its derivative in s."""
    log_f = 0.0
    d_log_f = 0.0
    for p, f, g in _ramified_degrees(m):
        x = float(p) ** (-f * s)
        log_f += -g * math.log1p(-x)
        d_log_f += -g * f * math.log(p) * x / (1.0 - x)
    return log_f, d_log_f


# The last field point's zeta_K as ((m, s), Evaluation), rebound by each
# evaluation: one entry and no arrays, like unit_group's cache.  The
# log-derivative leaves its field's zeta here for min_norm_check, which asks
# for it next, and the scan row of 2m (m odd) finds m's.
_last_zeta: tuple[tuple[int, float], Evaluation] | None = None


def _remember_zeta(
    m: int, s: float, l_vals: np.ndarray, err: float, log_ramified: float
) -> Evaluation:
    """zeta_K = exp(sum ln|L| + ln of the ramified factors) from the group
    DFT of zeta(s, a/m), stored as the last field point's zeta.  Every
    zeta_K of the Hurwitz route is assembled here."""
    global _last_zeta
    l_abs = np.abs(l_vals)
    value = math.exp(float(np.log(l_abs).sum()) + log_ramified)
    rel_err = float((err / l_abs).sum())
    z = Evaluation(value, value * (rel_err + 2e-16 * l_vals.size), l_vals.size)
    _last_zeta = ((m, s), z)
    return z


# the Euler route asks for one limit many times in a row; one entry holds
# that reuse, and the arrays are read-only because every caller shares them
@lru_cache(maxsize=1)
def _primes_up_to(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes up to limit >= 2 (int64) and their natural logs, both
    read-only.  The sieve holds the odd numbers only: index i is 2i + 1.
    Index 0, the number 1, stays set as the slot for 2, so the primes are
    built in place in the array flatnonzero returns."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    log_p = np.log(primes)
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


# the smallest prime cutoff zeta_cyclotomic accepts, whichever the method
_PRIME_LIMIT_MIN = 1000

# np.exp(-y) is exactly 0.0 once y > 745.1332, where e^{-y} rounds below
# 2^-1074; such a prime's Euler factor is exactly 1
_EXP_UNDERFLOW = 745.2
_BLOCK = 8192  # primes per block of the Euler pass: 64 KiB of float64


def _zeta_euler(m: int, s: float, prime_limit: int) -> Evaluation:
    """Truncated Euler product over the primes p <= P = prime_limit.

    An unramified p adds -g ln(1 - x), x = p^{-f s} = exp(-y) with
    y = (f s) ln p, f read from the order table and g = phi/f; the
    ramified p | m enter through their exact factors (``_ramified``).  Only
    the primes with y < 745.2 go through exp and log1p: beyond that x is
    exactly 0.0 and the term exactly 0.  The ramified residues carry
    f = inf in a float copy of the table, so the same test drops them.
    One pass over blocks of ``_BLOCK`` primes takes p mod m as
    p - (p // m) m and gathers f s and g from per-residue tables, so only
    the kept terms grow with P.  The kept terms of all blocks are summed by
    one np.sum over their concatenation, in prime order: the same pairwise
    sum over the same terms as one pass, so the rounding count stands.
    ``terms_used`` counts every unramified p <= P plus the ramified p.

    The omitted log is sum_{p > P} g sum_k p^{-f k s}/k.  Since f g = phi,
    those are the terms j = f k of phi sum_j p^{-j s}/j, so the omitted
    log is at most phi sum_{p > P} -ln(1 - p^{-s}), and
    -ln(1 - p^{-s}) <= p^{-s} + p^{-2s}/(2 (1 - P^{-s})).  The first powers
    sum to at most ``_prime_sum_tail``, and sum_{p > P} p^{-2s} <=
    int_P^oo x^{-2s} dx = P^{1-2s}/(2s - 1).  With E phi times the sum of
    the two, value <= zeta_K <= value e^E, and the truncation error is at
    most value (e^E - 1).  From E = 709 on, where e^E leaves binary64, the
    estimate is +inf: the product has no correct digits there.

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
    phi = euler_phi(m)
    primes, log_p = _primes_up_to(prime_limit)
    order = _order_table(m).astype(np.float64)
    order[order == 0.0] = np.inf
    fs, g = order * s, phi / order  # per residue: f s and phi/f
    kept = []
    for start in range(0, len(primes), _BLOCK):
        b = primes[start : start + _BLOCK]
        r = b // m  # b mod m as b - (b // m) m: int64 % by a scalar is slower
        r *= m
        np.subtract(b, r, out=r)
        y = fs[r] * log_p[start : start + _BLOCK]  # f = inf at the ramified residues
        keep = np.flatnonzero(y < _EXP_UNDERFLOW)
        x = np.exp(-y[keep])
        terms = np.log1p(-x, out=x)
        terms *= g[r[keep]]
        kept.append(terms)
    log_r, d_log_r = _ramified(m, s)
    abs_sum = -float(np.sum(np.concatenate(kept)))  # every term is <= 0
    value = math.exp(log_r + abs_sum)

    cutoff = float(prime_limit)
    tail1 = _prime_sum_tail(s, prime_limit)
    tail2 = cutoff ** (1.0 - 2.0 * s) / ((2.0 * s - 1.0) * 2.0 * (1.0 - cutoff ** -s))
    log_tail = phi * (tail1 + tail2)
    err = value * math.expm1(log_tail) if log_tail < 709.0 else math.inf
    n, ramified = len(primes), _factorize(m)
    rounding = (30.0 + math.log2(n) + 8.0 * math.log(phi * n)) * abs_sum + 5.0 - s * d_log_r
    err += _U * value * (rounding + (7 + len(ramified)) * log_r)
    # the primes <= P that do not divide m, plus every p | m
    return Evaluation(value, err, n + sum(p > prime_limit for p, _ in ramified))


def zeta_cyclotomic(
    m: int,
    s: float,
    method: str = "hurwitz",
    prime_limit: int = 10 ** 6,
) -> Evaluation:
    """Dedekind zeta of the m-th cyclotomic field at real s > 1.

    method="hurwitz": exp of the summed ln|L_m(s, chi)|, all phi(m) values
    from one group DFT, plus the ramified Euler factors (accurate to
    roughly 1e-12 relative).  The transformed h is real, so the L-values
    come in conjugate pairs and sum ln|L| = sum ln L exactly.
    ``terms_used`` is the number of Hurwitz-zeta evaluations, phi(m).
    method="euler": truncated Euler product over rational primes up to
    prime_limit, whose estimate adds the rounding to the omitted-tail
    bound (large for s near 1); ``terms_used`` counts the primes
    multiplied in.  Both methods need prime_limit >= 1000 and deliver a
    real value > 1.
    """
    if not math.isfinite(s):
        raise DomainError(f"need a finite s, got {s}")
    if s <= 1.0:
        raise DomainError(f"need s > 1, got {s}")
    if prime_limit < _PRIME_LIMIT_MIN:
        raise DomainError(f"prime_limit must be >= {_PRIME_LIMIT_MIN}, got {prime_limit}")
    if method == "hurwitz":
        if _last_zeta is not None and _last_zeta[0] == (m, s):
            return _last_zeta[1]
        values, errs, _ = hurwitz_zeta_array(s, _unit_points(m))
        return _remember_zeta(m, s, *_transform(m, s, values, errs), _ramified(m, s)[0])
    if method == "euler":
        return _zeta_euler(m, s, prime_limit)
    raise DomainError(f"unknown method {method!r}")


def zeta_cyclotomic_logderiv(m: int, s: float) -> Evaluation:
    """zeta'/zeta of the m-th cyclotomic field at real s > 1.

    With F and F' the group DFTs of m^{-s} zeta(s, a/m) and of m^{-s} times
    its s-derivative, L_m'/L_m = F'/F - ln m for every character, so the
    value is sum F'/F - phi(m) ln m plus the ramified Euler factors'
    log-derivative.  The ratios come in conjugate pairs, as the L-values
    do, so sum F'/F = sum Re(F'/F).  ``terms_used`` is the number of
    Hurwitz-zeta evaluations, 2 phi(m).  The kernel raises PoleError for
    s <= 1 and DomainError for a non-finite s.

    zeta(s, a/m) and its derivative come from one kernel block.
    F gives zeta_K at (m, s) as well, which is kept as the last field
    point's zeta, so ``zeta_cyclotomic(m, s)`` right after this call (as in
    ``min_norm_check`` after ``satz4_check``) transforms nothing."""
    zeta, ds = _hurwitz(s, _unit_points(m), True)
    l_vals, err = _transform(m, s, *zeta[:2])
    d_vals, derr = _transform(m, s, *ds[:2])
    log_r, d_log_r = _ramified(m, s)
    _remember_zeta(m, s, l_vals, err, log_r)
    ratio = d_vals / l_vals
    value = float(ratio.real.sum()) - l_vals.size * math.log(m) + d_log_r
    err_sum = float(((derr + np.abs(ratio) * err) / np.abs(l_vals)).sum())
    return Evaluation(value, err_sum + 1e-14, 2 * l_vals.size)


# ----------------------------------------------- field-level invariants

def cyclo_disc_log(m: int) -> float:
    """ln |discriminant| of the m-th cyclotomic field:
    phi(m) ln m - sum_{p | m} (phi(m)/(p-1)) ln p.

    The formula already collapses m = 2 mod 4 onto the same field as m/2.
    """
    phi = euler_phi(m)
    # added left to right: sum() compensates from Python 3.12 on, and the
    # printed digits should not depend on the interpreter
    ramified = reduce(operator.add, ((phi / (p - 1)) * math.log(p) for p, _ in _factorize(m)), 0.0)
    return phi * math.log(m) - ramified


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

class ScanRow(NamedTuple):
    """One point of the cyclotomic scan: zeta at s = 1 + phi(m)^{-epsilon}."""

    m: int
    phi: int
    epsilon: float
    s: float
    zeta_value: float
    err_estimate: float


def scan_row(m: int, epsilon: float) -> ScanRow:
    """A single scan point, on the group-DFT route.  m = 2 mod 4 is
    evaluated through m/2 (same field, same degree, same s), making duplicate
    rows bit-identical; right after the row of m/2 that zeta is in the
    one-entry memo.  A row without s > 1 and zeta > 1 raises ValueError."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"need epsilon in (0, 1), got {epsilon}")
    phi = euler_phi(m)
    s = 1.0 + float(phi) ** -epsilon
    mc = m // 2 if (m % 4 == 2) else m
    z = zeta_cyclotomic(mc, s)
    if not (s > 1.0 and z.value > 1.0):
        raise ValueError(f"scan row m={m} violates s > 1, zeta > 1: s={s}, zeta={z.value}")
    return ScanRow(m, phi, epsilon, s, z.value, z.err_estimate)


def scan(m_max: int, epsilon: float) -> list[ScanRow]:
    """Scan rows for m = 1..m_max at s = 1 + phi(m)^{-epsilon}, one row per
    m, in m order.  The walk is by field: each m not 2 mod 4, then 2m right
    after an odd m, which repeats m's row from the memo's zeta.  Every m
    goes once through the module-global ``scan_row``."""
    if m_max < 1:
        raise DomainError(f"need m_max >= 1, got {m_max}")
    rows = {}
    for m in range(1, m_max + 1):
        if m % 4 != 2:
            rows[m] = scan_row(m, epsilon)
            if m % 2 and 2 * m <= m_max:
                rows[2 * m] = scan_row(2 * m, epsilon)
    return [rows[m] for m in range(1, m_max + 1)]
