"""Foundation numerics: special functions and the package's constants.

Scalar results come back as :class:`Evaluation` records carrying the value,
an a-posteriori absolute error estimate, and the truncation parameters that
produced it.  Everything is binary64, and this module needs only the
standard library.  Hurwitz zeta and its s-derivative are one-element calls
of the kernel in ``cyclozeta``, where it lives (no package route calls
them); the first call imports that module, and with it numpy.  The
Bernoulli tables are kept here.  The Bernoulli part of the asymptotic
digamma series has one evaluator, for floats and arrays, shared by
``digamma`` and the Zimmert series' psi(x + 1/2) - psi(x).
The quadrature and root of the explicit bounds are closed forms in
``rogers``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

__all__ = [
    "DomainError",
    "PoleError",
    "Evaluation",
    "EULER_GAMMA",
    "ZETA3",
    "LAMBDA3",
    "BETA3",
    "ZETA_THRESHOLD",
    "digamma",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
]


# ----------------------------------------------------------------- errors

class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or beyond) a pole."""


# ------------------------------------------------------------------ types

class _EvaluationFields(NamedTuple):
    value: float | complex
    err_estimate: float
    terms_used: int


class Evaluation(_EvaluationFields):
    """A numeric result with an absolute error estimate.

    ``value`` is real except for L-values of non-real characters.
    ``err_estimate`` is an a-posteriori estimate, not a certified bound,
    except where the producing routine documents otherwise; +inf means
    no correct digits.  A non-finite value, or a NaN or negative estimate,
    raises ValueError.  A validated named tuple: the bounds chain builds
    several per call, and a dataclass would load ``inspect`` with the CLI.
    """

    __slots__ = ()
    # _replace builds through _make, so both run the checks of __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, value: float | complex, err_estimate: float, terms_used: int):
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        if not err_estimate >= 0.0:
            raise ValueError(f"bad error estimate {err_estimate!r}")
        return tuple.__new__(cls, (value, err_estimate, terms_used))


EULER_GAMMA = 0.57721566490153286060651209008240243
ZETA3 = 1.20205690315959428539973816151144999
# the odd cubic series sum 1/(2k+1)^3 = (7/8) zeta(3) and
# sum (-1)^k/(2k+1)^3 = pi^3/32
LAMBDA3 = 0.875 * ZETA3
BETA3 = math.pi ** 3 / 32.0
# the zeta lower-bound threshold 2 ln 2/(3 ln 2 + gamma - 1 - 2C) at Rogers'
# packing exponent C = (ln 2)/2, i.e. 2 ln 2/(2 ln 2 + gamma - 1), in the
# first form's operation order (the second rounds 2 ulp lower)
ZETA_THRESHOLD = 2.0 * math.log(2.0) / (
    3.0 * math.log(2.0) + EULER_GAMMA - 1.0 - 2.0 * (0.5 * math.log(2.0))
)

# Bernoulli numbers B_2 .. B_22 as exact (numerator, denominator) pairs:
# the Hurwitz kernel's 10 pairs and its first omitted term.
_BERNOULLI_FRACTIONS = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
    (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
)
# each rendered to binary64 by one correctly rounded integer division
_BERNOULLI_2J = tuple(n / d for n, d in _BERNOULLI_FRACTIONS)
# B_2j/(2j)!, j = 1..11, for the Euler-Maclaurin sums of cyclozeta and zimmert
_BERNOULLI_OVER_FACTORIAL = tuple(
    b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI_2J, 1)
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


def hurwitz_zeta(s: float, a: float) -> Evaluation:
    """Hurwitz zeta(s, a) for s > 1, 0 < a <= 1: a one-element
    :func:`cyclozeta.hurwitz_zeta_array` call."""
    from .cyclozeta import hurwitz_zeta_array
    v, e, n = hurwitz_zeta_array(s, [a])
    return Evaluation(float(v[0]), float(e[0]), n)


def hurwitz_zeta_ds(s: float, a: float) -> Evaluation:
    """d/ds of hurwitz_zeta(s, a): a one-element
    :func:`cyclozeta.hurwitz_zeta_ds_array` call."""
    from .cyclozeta import hurwitz_zeta_ds_array
    v, e, n = hurwitz_zeta_ds_array(s, [a])
    return Evaluation(float(v[0]), float(e[0]), n)
