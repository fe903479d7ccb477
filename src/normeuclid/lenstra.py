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
from dataclasses import dataclass

from .specfun import CONSTANTS, DomainError, Evaluation
from .rogers import RogersContext, f_lower, sigma_upper_log

__all__ = [
    "FieldSignature",
    "CriterionInput",
    "CriterionVerdict",
    "NotFoundError",
    "delta1_star_log",
    "delta2_star_log",
    "criterion_check",
    "poitou_grh_lower",
    "uncond_lower_main",
    "remark_condition",
    "lenstra_disc_cap",
    "main_gap",
    "find_crossing",
]

_LN2 = math.log(2.0)
_GAMMA = CONSTANTS.euler_gamma
_LOG_4_PI_E = math.log(4.0 * math.pi) + 1.0

# Degrees >= 1152 (kappa >= 24) keep the sigma_n lower-bound machinery valid.
N_MIN_LOWER = 1152


class NotFoundError(RuntimeError):
    """No crossing inside the requested range."""


# ------------------------------------------------------------------ types

@dataclass(frozen=True)
class FieldSignature:
    """Degree and embedding data of a number field: n = r + 2s.

    ``log_abs_disc`` is ln|Delta| when known, else None.
    """

    n: int
    r: int
    s: int
    log_abs_disc: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 0 or self.s < 0:
            raise DomainError(f"bad signature ({self.n}, {self.r}, {self.s})")
        if self.r + 2 * self.s != self.n:
            raise DomainError(f"need r + 2s = n, got r={self.r}, s={self.s}, n={self.n}")
        if self.log_abs_disc is not None:
            if not math.isfinite(self.log_abs_disc) or self.log_abs_disc < 0.0:
                raise DomainError(f"need ln|Delta| >= 0, got {self.log_abs_disc}")


@dataclass(frozen=True)
class CriterionInput:
    """Signature plus ln M, with the structural bounds 2 <= M <= 2^n."""

    sig: FieldSignature
    log_M: float

    def __post_init__(self) -> None:
        # slack absorbs hand-entered decimal truncations of ln 2
        lo = _LN2 - 1e-9
        hi = self.sig.n * _LN2 + 1e-9
        if not (lo <= self.log_M <= hi):
            raise DomainError(
                f"log M = {self.log_M} outside [ln 2, n ln 2] for n = {self.sig.n}"
            )


@dataclass(frozen=True)
class CriterionVerdict:
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
    """ln delta*_2(n) = ln sigma-bound + (n/2) ln(4/(pi n)) + ln Gamma(1+n/2)
    with the closed-form sigma_n upper bound, the sound direction for
    certifying norm-Euclideanity; the Gamma factors cancel down to
    (n/2)(1 - ln pi) - n ln n + ln (n+1)!.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    shift = 0.5 * n * math.log(4.0 / (math.pi * n)) + math.lgamma(1.0 + 0.5 * n)
    return Evaluation(sigma_upper_log(n) + shift, 4e-16 * (1.0 + abs(shift)), 1)


def criterion_check(inp: CriterionInput) -> CriterionVerdict:
    """Evaluate both criterion forms for one field.

    Both use upper bounds on the packing thresholds, so a True verdict is
    sound.  The decision depends only on log_M - (1/2) ln|Delta|.
    """
    sig = inp.sig
    if sig.log_abs_disc is None:
        raise DomainError("criterion check needs ln|Delta|")
    half_disc = 0.5 * sig.log_abs_disc
    d1 = delta1_star_log(sig.n, sig.s)
    d2 = delta2_star_log(sig.n).value
    return CriterionVerdict(
        delta1_holds=inp.log_M > d1 + half_disc,
        delta2_holds=inp.log_M > d2 + half_disc,
        max_log_disc_delta2=2.0 * (inp.log_M - d2),
    )


# ------------------------------------------------- discriminant bounds

def _r_coefficient(n: float) -> float:
    """Coefficient of r/n in the Poitou bound, and so in the gap;
    nonnegative for n >= 33."""
    ln2_n = math.log(n) ** 2
    return 0.5 * math.pi - (2.0 * math.pi ** 2 / ln2_n) * CONSTANTS.beta3


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
        _GAMMA
        + math.log(8.0 * math.pi)
        + (r / n) * _r_coefficient(n)
        - a * (
            CONSTANTS.lambda3
            + (8.0 + 8.0 / n) / (ln_n * (1.0 + math.pi ** 2 / ln2_n) ** 2)
        )
    )


def uncond_lower_main(n: int, r: int) -> float:
    """Main term of the unconditional discriminant lower bound, as a log:

    (1/n) ln|Delta| >= ln 4 pi + gamma + r/n + o(1).
    """
    if n < 1 or not (0 <= r <= n):
        raise DomainError(f"bad (n, r) = ({n}, {r})")
    return math.log(4.0 * math.pi) + _GAMMA + r / n


def remark_condition(r_over_n: float) -> bool:
    """Whether the unconditional bound already contradicts the 4 pi e cap:
    true iff r/n > 1 - gamma."""
    return r_over_n > 1.0 - _GAMMA


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
    with the GRH discriminant bound at (n, r).  Returns None when f <= 0
    (the sigma_n lower bound is vacuous there).
    """
    if n < N_MIN_LOWER:
        raise DomainError(f"main gap needs n >= {N_MIN_LOWER}, got {n}")
    if not (0 <= r <= n):
        raise DomainError(f"need 0 <= r <= n, got r={r}")
    f = f_lower(RogersContext(float(n), theta))
    if f.value <= 0.0:
        return None
    gap = (
        poitou_grh_lower(n, r)
        - _LOG_4_PI_E
        + 3.0 * math.log(n) / n
        - (2.0 - _LN2 - 2.0 * math.log(f.value)) / n
        + 2.0 / (n * (12.0 * n + 1.0))
    )
    err = 2.0 * f.err_estimate / (f.value * n) + 1e-15
    return Evaluation(gap, err, f.terms_used)


def _gap_at(n: int, theta: float) -> float:
    gap = main_gap(n, 0, theta)
    if gap is None:
        raise DomainError(f"f(kappa, theta) <= 0 at n={n}; range outside f-positivity")
    return gap.value


def find_crossing(theta: float, n_min: int, n_max: int) -> int:
    """Smallest n in [n_min, n_max] past which the gap stays positive for
    every signature.

    The all-r quantifier reduces to r = 0 because the r coefficient is
    nonnegative for n >= 33 (asserted).  The gap has a single sign change
    in n on any range this is used on, so the crossing is located by
    bisection and then re-verified at the checkpoints
    {n, n+1, n+10, n_max}.

    Raises NotFoundError when the gap never turns positive in range.
    """
    if not (0.0 < theta < 1.0 / 3.0):
        raise DomainError(f"need theta in (0, 1/3), got {theta}")
    if n_min < N_MIN_LOWER or n_max <= n_min:
        raise DomainError(f"bad range [{n_min}, {n_max}]")
    if _r_coefficient(n_min) < 0.0:
        raise DomainError("r-coefficient sign guard failed; all-r reduction invalid")

    if _gap_at(n_max, theta) <= 0.0:
        raise NotFoundError(f"gap still nonpositive at n = {n_max}")
    lo = n_min
    if _gap_at(lo, theta) > 0.0:
        crossing = lo
    else:
        hi = n_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _gap_at(mid, theta) > 0.0:
                hi = mid
            else:
                lo = mid
        crossing = hi

    checkpoints = sorted({
        crossing,
        min(crossing + 1, n_max),
        min(crossing + 10, n_max),
        n_max,
    })
    for m in checkpoints:
        if _gap_at(m, theta) <= 0.0:
            raise NotFoundError(f"gap not positive at checkpoint n = {m}")
    return crossing
