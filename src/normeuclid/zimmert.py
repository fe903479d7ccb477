"""Zimmert's digamma series F1, f1, F2, f2, F3 and the criterion
inequalities they feed.

The combination F_{a,b}(beta) = a F1 + a f1 + b F2 + b f2 + F3 bounds
zeta'/zeta(1+beta) + ln sqrt|Delta| - (n/2) ln pi from below for a number
field with a = r + s and b = s; chaining in the log-derivative bound on the
minimal proper ideal norm gives the second inequality checked here.  Both
are theorems: a failed check means an implementation defect somewhere in
this package, never a tunable.

As beta -> 0, F1 + f1 -> gamma + ln 4 + 1 and F2 + f2 -> gamma + ln 4 - 1;
each contains a 1/beta pole (the l = 1 term of F1 against psi(-beta/2) in
f1) that cancels in the sum.  Below beta = 1e-4 the cancellation costs too
many digits in binary64, so that is the domain cutoff; use the limit
constants directly instead of tiny beta.

The series terms fall off like 1/l^3.  Each series is summed directly over
its first 64 terms; the rest is an Euler-Maclaurin tail whose integral is
a ln Gamma ratio and whose corrections are polygammas (DLMF 2.10, 5.11),
taken from their asymptotic series (DLMF 5.15.8) at x_N >= 43.08.
Every head term needs psi(x + 1/2) - psi(x), which comes from one numpy
expression: 12 steps of the recurrence psi(x+1) = psi(x) + 1/x (DLMF 5.5.2)
and the asymptotic difference beyond (DLMF 5.11.2), so its error estimate
counts the roundings of that one quantity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _BERNOULLI_2J, _BERNOULLI_OVER_FACTORIAL, _U, DomainError, _psi_tail, digamma
from .cyclozeta import (
    cyclo_disc_log,
    cyclo_signature,
    min_proper_ideal_norm,
    zeta_cyclotomic,
    zeta_cyclotomic_logderiv,
)

__all__ = [
    "ZimmertTerms",
    "f_terms",
    "satz4_check",
    "min_norm_check",
    "BETA_MIN",
    "BETA_MAX",
]

BETA_MIN = 1e-4
BETA_MAX = 0.25

# directly summed terms of each series; the rest is an Euler-Maclaurin tail
_HEAD_TERMS = 64
# psi(x + 1/2) - psi(x) is lifted by this many unit steps before the
# asymptotic series takes over; every x_l is >= 0.41, so x_l + 12 >= 12.41
_PSI_LIFT = 12
# the lift steps j = J-1 .. 0 down axis 0, so a sum adds the smallest first
_LIFT_STEPS = np.arange(_PSI_LIFT - 1, -1, -1, dtype=np.float64)[:, None, None]
# 2l - 1 + shift for l = 1 .. N along axis 1: shift 0 (F1) and 1 (F2) down axis 0
_ODD = 2.0 * np.arange(1, _HEAD_TERMS + 2, dtype=np.float64) - 1.0 + np.array([[0.0], [1.0]])
# Bernoulli corrections in the tail; orders 2k-1 and coefficients B_2k/(2k)!
# run to k = _EM_PAIRS + 1, the first omitted one, which prices the truncation
_EM_PAIRS = 4
_EM_ORDERS = np.arange(1, 2 * _EM_PAIRS + 2, 2)
_EM_FACTORIALS = np.array([math.factorial(j) for j in _EM_ORDERS], dtype=np.float64)
_EM_COEFFS = np.array(_BERNOULLI_OVER_FACTORIAL[: _EM_PAIRS + 1])
# psi^(j)(x) ~ (j-1)!/x^j + j!/(2 x^(j+1)) + sum_k B_2k (2k+j-1)!/(2k)! x^(-2k-j)
# for odd j (DLMF 5.15.8): row j of the coefficients, k = 1 .. 11
_PSI_J_COEFFS = np.array([
    [b * math.factorial(2 * k + j - 1) / math.factorial(2 * k)
     for k, b in enumerate(_BERNOULLI_2J, 1)]
    for j in _EM_ORDERS
])
_PSI_J_POWERS = -2.0 * np.arange(1, len(_BERNOULLI_2J) + 1)


class ZimmertTerms(NamedTuple):
    """The five series/point values at a fixed beta, plus their combination."""

    beta: float
    f1_series: float
    f1_point: float
    f2_series: float
    f2_point: float
    f3: float
    err_estimate: float
    terms_used: int

    def f_ab(self, a: int, b: int) -> float:
        """F_{a,b}(beta) = a(F1 + f1) + b(F2 + f2) + F3, for a, b >= 0
        (a = r + s and b = s for a field with r real and s complex places).

        Raises DomainError when a < 0 or b < 0.
        """
        if a < 0 or b < 0:
            raise DomainError(f"need a, b >= 0, got a={a}, b={b}")
        return (
            a * (self.f1_series + self.f1_point)
            + b * (self.f2_series + self.f2_point)
            + self.f3
        )


def _psi_half_step(x: np.ndarray) -> np.ndarray:
    """psi(x + 1/2) - psi(x) from the asymptotic series, vectorized, for
    large x (the caller prices the truncation after B_12).

    Written as log1p(1/(2x)) + 1/(4x(x+1/2)) + tail differences so the
    large-argument cancellation never surfaces.
    """
    y = x + 0.5
    out = np.log1p(0.5 / x) + 0.5 / (2.0 * x * y)
    out += _psi_tail(y) - _psi_tail(x)
    return out


def _polygammas(x: float) -> np.ndarray:
    """psi^(j)(x) for the odd orders j of the tail corrections, from the
    asymptotic series through B_22.  For x >= 43 (every x_N is) the first
    omitted term is below 1e-27 of the leading one."""
    j = _EM_ORDERS
    series = _PSI_J_COEFFS @ (x ** _PSI_J_POWERS)
    return x ** -j * (_EM_FACTORIALS / j + _EM_FACTORIALS / (2.0 * x) + series)


def _log_gamma_half_step_excess(x: float) -> float:
    """ln Gamma(x + 1/2) - ln Gamma(x) - (1/2) ln x for x >= 8, in Stirling
    form.

    Subtracting two lgamma values would lose ~1e-10 at x ~ 2e5; here the
    large parts cancel analytically.
    """
    out = x * math.log1p(0.5 / x) - 0.5
    for k in range(1, 6):
        c = _BERNOULLI_2J[k - 1] / (2 * k * (2 * k - 1))
        out += c * ((x + 0.5) ** (1 - 2 * k) - x ** (1 - 2 * k))
    return out


def _series(beta: float) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    """The F1 and F2 digamma series with harmonic subtraction, as one block.

    Row 0 of the (2 x N) block is F1, terms
        t(l) = w D(x_l) - 1/(2l-2-beta) - 1/(2l-1+beta),  D(x) = psi(x + 1/2) - psi(x)
    with x_l = (2l-1+beta)/d, d = 2+4beta, w = 4/d; row 1 is F2 (every 2l
    moved to 2l+1).  Terms fall off like 1/l^3.  D comes from one route for
    every term: the recurrence psi(x+1) = psi(x) + 1/x (DLMF 5.5.2) lifts x
    by J = _PSI_LIFT,

        D(x) = sum_{j<J} 1/(2 (x+j)(x+j+1/2)) + D_asymptotic(x + J),

    the positive lift terms summed smallest first.  The first _HEAD_TERMS
    = 64 terms are summed directly (compensated); the rest is the
    Euler-Maclaurin tail at N = 65, per row: the closed-form integral (ln
    Gamma for the digamma part), t(N)/2 and _EM_PAIRS Bernoulli corrections
    from asymptotic polygammas, which need x_N >= 43.  Returns (value, err,
    _HEAD_TERMS) for F1, then for F2: ``err`` is the first omitted Bernoulli
    correction, the truncation of the asymptotic difference and the counted
    rounding (the l = 1 term of F1 is ~1/beta); the count is the number of
    directly summed terms.
    """
    d = 2.0 + 4.0 * beta
    w = 4.0 / d
    shifted = _ODD + beta
    x = shifted / d
    harm = 1.0 / (_ODD - 1.0 - beta) + 1.0 / shifted

    y = x + _LIFT_STEPS
    psi_diff = (0.5 / (y * (y + 0.5))).sum(axis=0) + _psi_half_step(x + _PSI_LIFT)
    terms = w * psi_diff - harm
    terms[:, -1] *= 0.5  # the tail's t(N)/2
    # Roundings counted per term, in units of u: x_l carries 3 and D has
    # condition <= 1.19 in x (4u D); each lift term 5u and their J - 1
    # additions; the asymptotic difference 6u; the final addition u; so
    # (J + 11) u D, and w = 4/d with the product adds 3u.  Each harmonic
    # reciprocal carries 2u and their sum u (3u |harm|), the subtraction
    # u |t|; the compensated sum u |value|, and 4u the O(1) parts that
    # cancel inside the integral.
    rounding = (_PSI_LIFT + 14.0) * w * psi_diff + 3.0 * np.abs(harm) + np.abs(terms)
    rounding = rounding.sum(axis=1)
    # the asymptotic series stops at B_12: the trigamma remainder is at most
    # |B_14| z^-15, so the difference over 1/2 is at most (7/12) (x + J)^-15
    truncation = (w * (7.0 / 12.0) * (x + _PSI_LIFT) ** -15.0).sum(axis=1)

    # In x = x_l the terms are t = g(x)/d with dx/dl = 2/d and
    # g(x) = 4 [psi(x + 1/2) - psi(x)] - 1/(x - 1/2) - 1/x, so
    # integral_N^inf t dl = -(1/2) [4 lnG(x+1/2) - 4 lnG(x) - ln x - ln(x - 1/2)]
    # and t^(j)(N) = (2/d)^j g^(j)(x_N) / d.
    j = _EM_ORDERS
    rows = []
    for row in (0, 1):
        xn = float(x[row, -1])
        integral = -0.5 * (4.0 * _log_gamma_half_step_excess(xn) - math.log1p(-0.5 / xn))
        g_der = 4.0 * (_polygammas(xn + 0.5) - _polygammas(xn)) + _EM_FACTORIALS * (
            (xn - 0.5) ** (-j - 1.0) + xn ** (-j - 1.0))
        corrections = -_EM_COEFFS * g_der * (2.0 / d) ** j / d
        value = math.fsum(terms[row].tolist() + [integral] + corrections[:-1].tolist())
        err = abs(float(corrections[-1])) + float(truncation[row]) + _U * (
            float(rounding[row]) + abs(value) + 4.0)
        rows.append((value, err, _HEAD_TERMS))
    return rows[0], rows[1]


@lru_cache(maxsize=64)
def f_terms(beta: float) -> ZimmertTerms:
    """All five F-function pieces at beta in [1e-4, 1/4).

    Both series come from one two-row block; each is a 64-term head plus an
    Euler-Maclaurin tail, accurate to ~1e-13 absolute (~1e-12 at beta =
    1e-4, where the l = 1 term of F1 is 1/beta); ``err_estimate`` is the
    larger of the two series estimates and ``terms_used`` counts both
    heads.  Over the domain (4,002 log-spaced beta, both series) that
    estimate peaks at 5.6e-12, at beta = 1e-4.
    """
    if not (BETA_MIN <= beta < BETA_MAX):
        raise DomainError(f"need beta in [{BETA_MIN}, {BETA_MAX}), got {beta}")
    d = 2.0 + 4.0 * beta
    w = 2.0 / (1.0 + 2.0 * beta)

    (f1_series, err1, n1), (f2_series, err2, n2) = _series(beta)

    f1_point = -0.5 * (digamma((1.0 + beta) / 2.0).value + digamma(-beta / 2.0).value)
    f2_point = -0.5 * (digamma(1.0 + beta / 2.0).value + digamma((1.0 - beta) / 2.0).value)
    f3 = -4.0 / beta + w * (
        digamma((1.0 + beta) / d).value
        - digamma((1.0 + 3.0 * beta) / d).value
        + digamma((2.0 + 5.0 * beta) / d).value
        - digamma((2.0 + 3.0 * beta) / d).value
    )

    return ZimmertTerms(
        beta, f1_series, f1_point, f2_series, f2_point, f3, max(err1, err2), n1 + n2
    )


def satz4_check(m: int, beta: float) -> tuple[float, float, bool]:
    """The series bound against the zeta data of the m-th cyclotomic field:

        F_{r+s, s}(beta)/2  <=  zeta'/zeta(1+beta) + ln sqrt|Delta| - (n/2) ln pi.

    Returns (lhs, rhs, lhs <= rhs).  This inequality is a theorem; a False
    result means a defect in this package.
    """
    r, s = cyclo_signature(m)
    n = r + 2 * s
    lhs = 0.5 * f_terms(beta).f_ab(r + s, s)
    rhs = (
        zeta_cyclotomic_logderiv(m, 1.0 + beta).value
        + 0.5 * cyclo_disc_log(m)
        - 0.5 * n * math.log(math.pi)
    )
    return lhs, rhs, lhs <= rhs


def min_norm_check(m: int, beta: float) -> tuple[float, float, bool]:
    """The minimal-ideal-norm consequence, without any asymptotic remainder:

        ln N(I0) (1 - 1/zeta(1+beta))  <=  -F_{r+s, s}(beta)/2
                                            + ln sqrt|Delta| - (n/2) ln pi.

    Assembled from the series bound and the log-derivative bound
    -zeta'/zeta >= ln N(I0) (1 - 1/zeta); a theorem like satz4_check.
    """
    r, s = cyclo_signature(m)
    n = r + 2 * s
    z = zeta_cyclotomic(m, 1.0 + beta)
    lhs = math.log(min_proper_ideal_norm(m)) * (1.0 - 1.0 / z.value)
    rhs = (
        -0.5 * f_terms(beta).f_ab(r + s, s)
        + 0.5 * cyclo_disc_log(m)
        - 0.5 * n * math.log(math.pi)
    )
    return lhs, rhs, lhs <= rhs

