"""Criterion thresholds for norm-Euclideanity, conditional discriminant
lower bounds, and the degree where the two become incompatible.

A number field of degree n with discriminant Delta and exceptional-unit
count M is norm-Euclidean when M > delta*_i(n) sqrt(|Delta|), where
delta*_1 uses a parallelepiped packing and delta*_2 the ball packing
through the Rogers constant sigma_n.  With M <= 2^n, the delta*_2 form
caps |Delta|^{1/n} at 4 pi e + o(1), while under GRH the Poitou bound
forces |Delta|^{1/n} >= 8 pi e^gamma + o(1).  ``main_gap`` evaluates the
explicit finite-n comparison of the two (positive gap = criterion
incompatible with GRH at that degree) and ``find_crossing`` locates the
first degree where the gap turns positive for every signature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .specfun import _U, BETA3, DomainError, EULER_GAMMA, Evaluation, LAMBDA3
from .rogers import KAPPA_MIN_LOWER, RogersContext, f_lower

__all__ = [
    "CriterionVerdict",
    "NotFoundError",
    "delta1_star_log",
    "delta2_star_log",
    "criterion_check",
    "poitou_grh_lower",
    "lenstra_disc_cap",
    "main_gap",
    "find_crossing",
]

_LN2 = math.log(2.0)
_LOG_4_PI_E = math.log(4.0 * math.pi) + 1.0
_HALF_1_MINUS_LN_PI = 0.5 * (1.0 - math.log(math.pi))


class NotFoundError(RuntimeError):
    """No crossing inside the requested range."""


# ------------------------------------------------------------------ types

class CriterionVerdict(NamedTuple):
    """Outcome of both criterion forms for one field.

    ``max_log_disc_delta2`` is the largest ln|Delta| that would still
    satisfy the delta*_2 form with the given M.
    """

    delta1_holds: bool
    delta2_holds: bool
    max_log_disc_delta2: float


# ------------------------------------------------------------- thresholds

def delta1_star_log(n: int, s: int) -> float:
    """ln delta*_1(n) = ln(n!/n^n) + s ln(4/pi) for signature (n, s)."""
    if n < 1 or s < 0 or 2 * s > n:
        raise DomainError(f"bad signature n={n}, s={s}")
    return math.lgamma(n + 1.0) - n * math.log(n) + s * math.log(4.0 / math.pi)


def delta2_star_log(n: int) -> Evaluation:
    """ln delta*_2(n) = (n/2)(1 - ln pi) - n ln n + ln (n+1)!.

    This is ln sigma-bound + (n/2) ln(4/(pi n)) + ln Gamma(1+n/2) with the
    closed-form sigma_n upper bound (e/4n)^{n/2} (n+1)!/Gamma(1+n/2), the
    sound direction for certifying norm-Euclideanity, after the Gamma
    factors cancel.  With t1 = (n/2)(1 - ln pi), t2 = n ln n and
    t3 = ln Gamma(n+2), the error estimate counts the roundings as
    u (3|t1| + 2|t2| + 4|t3| + 2|value|), u = 2^-53.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    t1 = n * _HALF_1_MINUS_LN_PI
    t2 = n * math.log(n)
    t3 = math.lgamma(n + 2.0)
    value = t1 - t2 + t3
    err = _U * (3.0 * abs(t1) + 2.0 * abs(t2) + 4.0 * abs(t3) + 2.0 * abs(value))
    return Evaluation(value, err, 1)


def criterion_check(n: int, r: int, log_disc: float, log_m: float) -> CriterionVerdict:
    """Evaluate both criterion forms, M > delta*_i(n) sqrt(|Delta|), for a
    field of degree n with r real places, ln|Delta| = log_disc and
    ln M = log_m.

    Raises DomainError unless n >= 1, 0 <= r <= n and n - r is even (the
    field then has s = (n - r)/2 complex places), log_disc is finite and
    >= 0, and 2 <= M <= 2^n; that last range gets 1e-9 of slack in ln M
    for hand-entered decimal truncations of ln 2.  Both forms use upper
    bounds on the packing thresholds, so a True verdict is sound.  The
    decision depends only on log_m - (1/2) log_disc.
    """
    if n < 1 or not (0 <= r <= n) or (n - r) % 2 != 0:
        raise DomainError(f"need n >= 1, 0 <= r <= n and n - r even, got n={n}, r={r}")
    if not (math.isfinite(log_disc) and log_disc >= 0.0):
        raise DomainError(f"need ln|Delta| >= 0, got {log_disc}")
    if not (_LN2 - 1e-9 <= log_m <= n * _LN2 + 1e-9):
        raise DomainError(f"log M = {log_m} outside [ln 2, n ln 2] for n = {n}")
    half_disc = 0.5 * log_disc
    d1 = delta1_star_log(n, (n - r) // 2)
    d2 = delta2_star_log(n).value
    return CriterionVerdict(
        delta1_holds=log_m > d1 + half_disc,
        delta2_holds=log_m > d2 + half_disc,
        max_log_disc_delta2=2.0 * (log_m - d2),
    )


# ------------------------------------------------- discriminant bounds

def poitou_grh_lower(n: int, r: int) -> float:
    """Poitou's explicit GRH lower bound for (1/n) ln|Delta|:

    gamma + ln 8 pi + (r/n)(pi/2 - (2 pi^2/ln^2 n) beta(3))
          - (2 pi^2/ln^2 n) (lambda(3) + (8 + 8/n)/(ln n (1 + pi^2/ln^2 n)^2)).
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not (0 <= r <= n):
        raise DomainError(f"need 0 <= r <= n, got r={r}")
    ln_n = math.log(n)
    ln2_n = ln_n * ln_n
    a = 2.0 * math.pi ** 2 / ln2_n
    return (
        EULER_GAMMA
        + math.log(8.0 * math.pi)
        + (r / n) * (0.5 * math.pi - a * BETA3)
        - a * (
            LAMBDA3
            + (8.0 + 8.0 / n) / (ln_n * (1.0 + math.pi ** 2 / ln2_n) ** 2)
        )
    )


def lenstra_disc_cap(n: int) -> float:
    """The cap on (1/n) ln|Delta| implied by the delta*_2 criterion with
    M = 2^n: 2 ln 2 - (2/n) ln delta*_2(n).  Tends to ln(4 pi e) from
    below as n grows."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return 2.0 * _LN2 - (2.0 / n) * delta2_star_log(n).value


# ------------------------------------------------------- the main gap

def main_gap(n: int, r: int, theta: float = 0.1) -> Evaluation | None:
    """The GRH lower bound on (1/n) ln|Delta| minus the finite-n cap the
    ball-packing criterion puts on it:

    gap = poitou_grh_lower(n, r) - ln(4 pi e)
          + 3 ln n / n - (2 - ln 2 - 2 ln f(kappa, theta))/n + 2/(n(12n+1)),

    the last three terms being the finite-n remainders of the criterion
    chain.  A positive gap means the ball-packing criterion is incompatible
    with the GRH discriminant bound at (n, r).  The error estimate carries
    f's error through 2 ln f/n and counts the roundings as 8u times the sum
    of the five terms' magnitudes (u = 2^-53).

    ``poitou_grh_lower`` checks n and r, and ``f_lower`` checks theta and
    kappa = sqrt(n/2) >= 24 (n >= 1152); each raises DomainError.  Returns
    None when f <= 0 (the sigma_n lower bound is vacuous there), which
    holds for every n <= 7661 at theta = 0.1.
    """
    poitou = poitou_grh_lower(n, r)
    f = f_lower(RogersContext(float(n), theta))
    if f.value <= 0.0:
        return None
    log_term = 3.0 * math.log(n) / n
    f_term = (2.0 - _LN2 - 2.0 * math.log(f.value)) / n
    stirling = 2.0 / (n * (12.0 * n + 1.0))
    gap = poitou - _LOG_4_PI_E + log_term - f_term + stirling
    rounding = 8.0 * _U * (abs(poitou) + _LOG_4_PI_E + log_term + abs(f_term) + stirling)
    err = 2.0 * f.err_estimate / (f.value * n) + rounding
    return Evaluation(gap, err, f.terms_used)


def find_crossing(theta: float, n_min: int, n_max: int) -> int:
    """Smallest n in [n_min, n_max] past which the gap stays positive for
    every signature.

    The all-r quantifier reduces to r = 0: the coefficient
    pi/2 - (2 pi^2/ln^2 n) beta(3) of r/n in the gap increases with n and
    is nonnegative from n = 33 on (-0.0216 at 32, +0.0064 at 33), and
    every degree searched is >= 1152.  The gap is checked positive at n_max
    first.  The crossing is then located by the Illinois method (Dowell
    and Jarratt, BIT 11, 1971) on integers: regula falsi
    inside a bracket [lo, hi] with gap(lo) <= 0 < gap(hi), halving the
    secant weight of an end that stays put for two steps in a row.  The
    search ends on a bracket of width one, which proves
    gap(c - 1) <= 0 < gap(c) for the returned c (or c = n_min with
    gap(n_min) > 0).  The gap is then checked positive at c + 1 and
    c + 10 (capped at n_max).  Each degree is evaluated at most once, so a
    crossing costs about nine gap evaluations.  The gap is assumed to
    change sign once on the range; the checkpoints test that only at
    {c, c + 1, c + 10, n_max}.

    Raises DomainError unless n_min >= 1152 (kappa >= 24, where f is
    defined) and n_max > n_min, or when theta is outside (0, 1/3) or f <= 0
    somewhere the gap is evaluated; NotFoundError when the gap never turns
    positive in range or is not positive at a checkpoint.
    """
    if n_min < 2 * KAPPA_MIN_LOWER ** 2 or n_max <= n_min:
        raise DomainError(f"bad range [{n_min}, {n_max}]")
    gaps: dict[int, float] = {}

    def gap(n: int) -> float:
        if n not in gaps:
            g = main_gap(n, 0, theta)
            if g is None:
                raise DomainError(f"f(kappa, theta) <= 0 at n={n}; range outside f-positivity")
            gaps[n] = g.value
        return gaps[n]

    g_max = gap(n_max)
    if g_max <= 0.0:
        raise NotFoundError(f"gap still nonpositive at n = {n_max}")
    g_min = gap(n_min)
    if g_min > 0.0:
        crossing = n_min
    else:
        # secant weights at the bracket ends: the gaps there, except that
        # an end which stays put for a second step in a row is halved
        lo, hi, w_lo, w_hi = n_min, n_max, g_min, g_max
        moved = 0
        while hi - lo > 1:
            x = lo + (hi - lo) * w_lo / (w_lo - w_hi)
            m = min(max(round(x), lo + 1), hi - 1)
            g = gap(m)
            if g > 0.0:
                hi, w_hi = m, g
                if moved > 0:
                    w_lo *= 0.5
                moved = 1
            else:
                lo, w_lo = m, g
                if moved < 0:
                    w_hi *= 0.5
                moved = -1
        crossing = hi
    for m in (crossing + 1, crossing + 10):
        n = min(m, n_max)
        if gap(n) <= 0.0:
            raise NotFoundError(f"gap not positive at checkpoint n = {n}")
    return crossing
