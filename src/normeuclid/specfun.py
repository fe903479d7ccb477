"""Foundation numerics: special functions and Euler-Maclaurin summation.

Scalar results come back as :class:`Evaluation` records carrying the value,
an a-posteriori absolute error estimate, and the truncation parameters that
produced it.  Everything is binary64.  Hurwitz zeta and its s-derivative
have one array kernel over a, which the scalar functions call with one
element: an (N x len(a)) block whose direct terms are summed smallest
first, with that sum's rounding, about N u sum|terms|, in the error
estimate.  The Euler-Maclaurin cutoffs are N = 20 direct terms and
J = 10 Bernoulli pairs for every s.  That N is enough: k -> (k+a)^{-s} is
completely monotone, so for any N the remainder lies between zero and the
first omitted Bernoulli term, which the estimate charges (for d/ds, its
s-derivative).  At N = 20 both are below 1e-25 for every s > 1 and below
1e-30 for s >= 10, far below every tolerance used downstream (the
tightest acceptance margin in the package is about 5e-5).  A value or an
estimate that binary64 cannot hold raises DomainError.  The Bernoulli part
of the asymptotic digamma series has one evaluator, for floats and arrays,
shared by ``digamma`` and the Zimmert series' psi(x + 1/2) - psi(x).
The package needs nothing beyond numpy: its quadrature and root are closed
forms in ``rogers``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "BracketError",
    "ConvergenceError",
    "Evaluation",
    "EULER_GAMMA",
    "ZETA3",
    "LAMBDA3",
    "BETA3",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "hurwitz_zeta_array",
    "hurwitz_zeta_ds_array",
]


# ----------------------------------------------------------------- errors

class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or beyond) a pole."""


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class ConvergenceError(RuntimeError):
    """Requested accuracy unreachable within the configured budget."""


# ------------------------------------------------------------------ types

@dataclass(frozen=True)
class Evaluation:
    """A numeric result with an absolute error estimate.

    ``value`` is real except for L-values of non-real characters.
    ``err_estimate`` is an a-posteriori estimate, not a certified bound,
    except where the producing routine documents otherwise.
    """

    value: float | complex
    err_estimate: float
    terms_used: int

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.value):
            raise ValueError(f"non-finite value {self.value!r}")
        if not (math.isfinite(self.err_estimate) and self.err_estimate >= 0.0):
            raise ValueError(f"bad error estimate {self.err_estimate!r}")


EULER_GAMMA = 0.57721566490153286060651209008240243
ZETA3 = 1.20205690315959428539973816151144999
# the odd cubic series sum 1/(2k+1)^3 = (7/8) zeta(3) and
# sum (-1)^k/(2k+1)^3 = pi^3/32
LAMBDA3 = 0.875 * ZETA3
BETA3 = math.pi ** 3 / 32.0

# Bernoulli numbers B_2 .. B_22 as exact (numerator, denominator) pairs:
# the Hurwitz kernel's 10 pairs and its first omitted term.
_BERNOULLI_FRACTIONS = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
    (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
)
# each rendered to binary64 by one correctly rounded integer division
_BERNOULLI_2J = tuple(n / d for n, d in _BERNOULLI_FRACTIONS)

# the Euler-Maclaurin coefficients B_2j/(2j)!, j = 1..J+1
_BERNOULLI_OVER_FACTORIAL = np.array(
    [b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI_2J, 1)]
)

# -------------------------------------------------------------- digamma

# Coefficients -B_2k/(2k) of x^{-2k}, k = 1..6, in the asymptotic expansion
# psi(x) ~ ln x - 1/(2x) - sum B_{2k}/(2k) x^{-2k}, each from the exact
# fraction (not from the rounded B_2k, which can land one ulp off).
_PSI_TAIL = tuple(-n / (2 * k * d) for k, (n, d) in enumerate(_BERNOULLI_FRACTIONS[:6], 1))
_PSI_SHIFT = 8.0
# First omitted asymptotic term at x = 8: |B_14|/(14 * 8^14) ~ 1.9e-14.
_PSI_ASYMP_ERR = 2e-14


def _psi_tail(x):
    """The Bernoulli part -sum_{k=1}^{6} B_2k/(2k) x^{-2k} of the asymptotic
    digamma series (DLMF 5.11.2), by Horner's rule in 1/x^2, for a float
    or an array x."""
    r = 1.0 / (x * x)
    t = _PSI_TAIL[5]
    for c in (_PSI_TAIL[4], _PSI_TAIL[3], _PSI_TAIL[2], _PSI_TAIL[1], _PSI_TAIL[0]):
        t = c + r * t
    return r * t


def digamma(x: float) -> Evaluation:
    """psi(x) = Gamma'(x)/Gamma(x) for real x away from 0, -1, -2, ...

    Arguments below the shift threshold (including negative ones) are
    lifted with psi(x) = psi(x+1) - 1/x until the asymptotic expansion
    applies.  The error estimate is the first omitted asymptotic term
    plus the rounding in units of u: per lift step the reciprocal, the
    running sum and x + 1 (an error of u|x+1| there moves the result by at
    most (1 + 1/|x|) u), then the asymptotic part and the final addition.
    Below |x| ~ 3e-308 the value ~ -1/x or its estimate overflows, and
    that is a PoleError too.  A NaN or infinite x raises DomainError.
    """
    if not math.isfinite(x):
        raise DomainError(f"digamma needs a finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma pole at non-positive integer {x}")
    lift_err = 0.0
    acc = 0.0
    shifts = 0
    xs = x
    while xs < _PSI_SHIFT:
        step = 1.0 / xs
        acc -= step
        lift_err += abs(acc) + 2.0 * abs(step) + 1.0
        xs += 1.0
        shifts += 1
    asymptotic = math.log(xs) - 0.5 / xs + _psi_tail(xs)
    v = acc + asymptotic
    err = _PSI_ASYMP_ERR + _U * (lift_err + 5.0 * abs(asymptotic) + abs(v))
    if abs(x) < 1.0 and not math.isfinite(err):
        raise PoleError(f"digamma at x={x} overflows next to the pole at 0")
    return Evaluation(v, err, shifts + len(_PSI_TAIL))


# ------------------------------------------------- Hurwitz / Riemann zeta

_U = 2.0 ** -53          # unit roundoff of binary64


# The one Euler-Maclaurin block, N direct terms and J Bernoulli pairs, and
# the parts of it that do not depend on s: the descending k column (a sum
# along axis 0 adds the smallest terms first), the exponents of x^{-2i} for
# i = 0..J, and the offsets t = 0..2J of s + t.
_EM_N = 20
_EM_J = 10
_EM_K = np.arange(_EM_N - 1, -1, -1, dtype=np.float64)[:, None]
_EM_POWERS = -np.arange(_EM_J + 1.0)[:, None]
_EM_OFFSETS = np.arange(2.0 * _EM_J + 1.0)


def _em_block(name: str, s: float, a):
    """(base, x, bern, harm) for the array kernels: the (N x len(a)) block
    base[i] = k + a with k = N-1-i descending, x = N + a, and for
    i = 1..J+1 (the last is the first omitted) the Bernoulli corrections of
    zeta bern[i-1] = B_2i/(2i)! s(s+1)...(s+2i-2) x^{-s-2i+1} and the sums
    harm[i-1] of 1/(s+t) over the same factors; those of d/ds are
    bern[i-1] (harm[i-1] - ln x)."""
    if not math.isfinite(s):
        raise DomainError(f"{name} needs a finite s, got {s}")
    if s <= 1.0:
        raise PoleError(f"{name} requires s > 1, got {s}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or not np.all((a > 0.0) & (a <= 1.0)):
        raise DomainError(f"{name} requires 0 < a <= 1, got a={a}")
    x = _EM_N + a
    t = s + _EM_OFFSETS
    coef = _BERNOULLI_OVER_FACTORIAL * np.cumprod(t)[::2]
    xp = x ** (-s - 1.0) * (x * x) ** _EM_POWERS
    # for s above about 4e14 the product s(s+1)... overflows where the power
    # has already underflowed; such a correction is 0, not inf * 0
    bern = np.where(xp > 0.0, coef[:, None] * xp, 0.0)
    return _EM_K + a, x, bern, np.cumsum(1.0 / t)[::2]


def _em_result(name: str, s: float, direct, rest, abs_sum, omitted):
    """value = direct sum + Euler-Maclaurin rest, with its error estimate:
    the first omitted correction, the direct sum's rounding (N+2) u sum|terms|
    (N - 1 additions plus the rounding of each term), about 5u for the few
    operations of the rest, and u for the final additions.  A value or an
    estimate that binary64 cannot hold raises DomainError."""
    value = direct + rest
    err = omitted + _U * ((_EM_N + 2) * abs_sum + 5.0 * np.abs(rest) + np.abs(value))
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(err))):
        raise DomainError(f"{name} at s={s} leaves the binary64 range")
    return value, err, _EM_N + _EM_J


# an overflow surfaces as the DomainError of _em_result, not as a warning
@np.errstate(over="ignore", invalid="ignore")
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
    base, x, bern, _ = _em_block("hurwitz_zeta", s, a)
    direct = (base ** -s).sum(axis=0)
    xt = x ** (1.0 - s)
    rest = xt / (s - 1.0) + 0.5 * xt / x + bern[:-1].sum(axis=0)
    # the direct terms are positive, so sum|terms| is the direct sum itself
    return _em_result("hurwitz_zeta", s, direct, rest, direct, np.abs(bern[-1]))


@np.errstate(over="ignore", invalid="ignore")
def hurwitz_zeta_ds_array(s: float, a) -> tuple[np.ndarray, np.ndarray, int]:
    """d/ds of hurwitz_zeta_array(s, a), by term-wise differentiation of
    the same Euler-Maclaurin scheme.  The direct terms -ln(k+a) (k+a)^{-s}
    change sign at k + a = 1, so the rounding term uses sum|terms|."""
    base, x, bern, harm = _em_block("hurwitz_zeta_ds", s, a)
    terms = -np.log(base) * base ** -s
    lx = np.log(x)
    xt = x ** (1.0 - s)
    tail = -xt * (lx / (s - 1.0) + 1.0 / ((s - 1.0) * (s - 1.0)))
    mid = -0.5 * lx * xt / x
    corr = (bern[:-1] * (harm[:-1, None] - lx)).sum(axis=0)
    omitted = np.abs(bern[-1]) * (abs(harm[-1]) + lx)
    abs_sum = np.abs(terms).sum(axis=0)
    return _em_result(
        "hurwitz_zeta_ds", s, terms.sum(axis=0), tail + mid + corr, abs_sum, omitted
    )


def _first(result: tuple[np.ndarray, np.ndarray, int]) -> Evaluation:
    return Evaluation(float(result[0][0]), float(result[1][0]), result[2])


def hurwitz_zeta(s: float, a: float) -> Evaluation:
    """Hurwitz zeta(s, a) for s > 1, 0 < a <= 1: a one-element
    :func:`hurwitz_zeta_array` call."""
    return _first(hurwitz_zeta_array(s, [a]))


def hurwitz_zeta_ds(s: float, a: float) -> Evaluation:
    """d/ds of hurwitz_zeta(s, a): a one-element :func:`hurwitz_zeta_ds_array` call."""
    return _first(hurwitz_zeta_ds_array(s, [a]))
