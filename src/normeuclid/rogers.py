"""Explicit two-sided bounds for the Rogers simplex packing constant
sigma_n.

The upper bound is the closed form (e/4n)^{n/2} (n+1)!/Gamma(1+n/2).  The
lower bound evaluates a central Gaussian-type integral over |u| <= kappa^theta
(kappa = sqrt(n/2), 0 < theta < 1/3) and subtracts three explicit error
terms built from the constants C1, C2, C3, C41, C42 below, the cubic
majorant C(u) = C1 + C41|u| + C42|u|^3, and the unique root U of
C(u) = (kappa/2) u^2 in [0, kappa^theta].  Everything is computed exactly as
printed, with no hidden slack: the resulting f(kappa, theta) may be negative,
in which case the lower bound is vacuous.

U and the central integral are closed forms: trigonometric Cardano and a
deflated quadratic, and one 16-node Gauss-Legendre rule, on [0, h] or on
each half of it, h = min(kappa^theta, 5), with a Bernstein-ellipse bound on
its truncation.

The routes below read one evaluation of every piece, kept for the last
context (``lru_cache(maxsize=1)`` keyed by ``RogersContext``), so the
``rogers`` report and criterion 9, which ask for pieces at the context f
was just evaluated at, pay no second evaluation.  A piece that does not
exist at a context (the constants at kappa <= 1, U without a sign change)
is raised only by the route that asks for it.  f reads the majorant
C(kappa^theta) that the pass computed for U's sign-change test.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import NamedTuple

from .specfun import _U, DomainError, Evaluation

__all__ = [
    "RogersContext",
    "RogersErrorConstants",
    "error_constants",
    "u_threshold",
    "central_integral",
    "f_lower",
    "sigma_upper_log",
    "sigma_lower_log",
]

_SQRT_PI = math.sqrt(math.pi)
# Validity threshold for the root/lower-bound machinery: the cubic
# majorant is guaranteed to dip below (kappa/2) u^2 on the range only
# from kappa = 24 up.  f_lower is the one place that checks it.
KAPPA_MIN_LOWER = 24.0

# The Gauss-Legendre rule of the central integral as (node, weight) pairs,
# numpy's leggauss(16) mapped from [-1, 1] to [0, 1] by t = (x + 1)/2, w/2
# (a test checks every digit).  Against 30-digit roots of P_16 and their
# weights the nodes are off by at most _GL_NODE_ERR units of u, relative,
# and the weights by _GL_WEIGHT_ERR (5.03 and 63.14; a test recomputes them)
_GL_NODE_ERR, _GL_WEIGHT_ERR = 5.1, 64.0
_GL_RULE_16 = (
    (0.005299532504175031, 0.013576229705877088),
    (0.0277124884633837, 0.031126761969323728),
    (0.06718439880608412, 0.0475792558412463),
    (0.1222977958224985, 0.062314485627767036),
    (0.19106187779867811, 0.07479799440828835),
    (0.2709916111713863, 0.08457825969750132),
    (0.35919822461037054, 0.09130170752246182),
    (0.4524937450811813, 0.09472530522753432),
    (0.5475062549188188, 0.09472530522753432),
    (0.6408017753896295, 0.09130170752246182),
    (0.7290083888286136, 0.08457825969750132),
    (0.8089381222013219, 0.07479799440828835),
    (0.8777022041775016, 0.062314485627767036),
    (0.9328156011939159, 0.0475792558412463),
    (0.9722875115366163, 0.031126761969323728),
    (0.994700467495825, 0.013576229705877088),
)
# The same rule on each half of [0, 1], nodes t/2 and (1 + t)/2 with weights
# w/2; central_integral tries the (panels, rule) pairs in order
_GL_RULE = tuple(((s + t) / 2.0, w / 2.0) for s in (0.0, 1.0) for t, w in _GL_RULE_16)
_GL_RULES = ((1, _GL_RULE_16), (2, _GL_RULE))
# The integrand is at most e^{-2u^2}, so the range is cut at u = 5: the
# half-range integral beyond is below e^{-50}/20.
_CUT = 5.0
_CUT_TAIL = math.exp(-2.0 * _CUT * _CUT) / (4.0 * _CUT)


class _RogersContextFields(NamedTuple):
    n: float
    theta: float


class RogersContext(_RogersContextFields):
    """Dimension data for the sigma_n bounds: n = 2 kappa^2, theta in (0, 1/3).

    ``n`` is the packing dimension; integer in the criterion application,
    but any real n >= 2 is accepted so contexts can be built directly from
    kappa.  A validated named tuple, like ``specfun.Evaluation``.
    """

    __slots__ = ()
    # _replace builds through _make, so both run the checks of __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, n: float, theta: float):
        if not (n >= 1.0 and math.isfinite(n)):
            raise DomainError(f"need n >= 1, got {n}")
        if not (0.0 < theta < 1.0 / 3.0):
            raise DomainError(f"need theta in (0, 1/3), got {theta}")
        return tuple.__new__(cls, (n, theta))

    @property
    def kappa(self) -> float:
        return math.sqrt(self.n / 2.0)

    @classmethod
    def from_kappa(cls, kappa: float, theta: float) -> "RogersContext":
        return cls(2.0 * kappa * kappa, theta)


class RogersErrorConstants(NamedTuple):
    """The five error constants of the central-integral lower bound."""

    c1: float
    c2: float
    c3: float
    c41: float
    c42: float


@lru_cache(maxsize=1)
def _pieces(ctx: RogersContext) -> tuple:
    """(kappa^theta, the constants, C(kappa^theta), U, the central integral) at
    ctx in one pass; a piece that does not exist at ctx is its route's message."""
    (n, theta), k = ctx, ctx.kappa
    hi, two_k2 = k ** theta, 2.0 * k * k
    if k <= 1.0:
        c = c_edge = u_star = f"error constants need kappa > 1, got {k}"
    else:
        kt1 = k ** (theta - 1.0)
        kt2 = k ** (2.0 * theta - 2.0)
        kt3 = k ** (3.0 * theta - 3.0)
        root = math.sqrt(1.0 + kt2)
        c1 = (2.0 * _SQRT_PI * root / math.e + (6.0 / k) * (1.0 + root / math.e)
              + 3.0 / k ** 3) / 8.0
        c2 = (1.0 / (1.0 - kt1)) * (1.0 / (1.0 - kt1 / 4.0) + 2.5)
        c3 = math.sqrt(1.0 + kt2 / 4.0)
        c41 = c3 + kt3 * c2 * c3 + kt1 / 4.0
        c42 = c2 * (1.0 - 1.0 / two_k2)
        c = (c1, c2, c3, c41, c42)
        c_edge = c1 + c41 * hi + c42 * hi ** 3
        # g(u) = C(u) - (kappa/2) u^2 must change sign on [0, hi]; g(0) = C1
        if c1 <= 0.0 or c_edge - 0.5 * k * hi * hi >= 0.0:
            u_star = (f"no sign change for the threshold root on [0, {hi}] (kappa={k}, "
                      f"theta={theta}; validity needs kappa >= 24)")
        else:
            # monic cubic u^3 + b u^2 + cc u + d, depressed by u = t - b/3
            b = -0.5 * k / c42
            cc = c41 / c42
            d = c1 / c42
            p = cc - b * b / 3.0
            q = 2.0 * b ** 3 / 27.0 - b * cc / 3.0 + d
            rho = math.sqrt(-p / 3.0)
            cos3 = max(-1.0, min(1.0, -q / (2.0 * rho ** 3)))
            r2 = 2.0 * rho * math.cos(math.acos(cos3) / 3.0) - b / 3.0
            prod = -d / r2
            total = (cc - prod) / r2
            u_star = 0.5 * (total + math.sqrt(total * total - 4.0 * prod))
    h = min(hi, _CUT)
    cap = math.sqrt(two_k2) / h + math.sqrt(two_k2 / (h * h) - 1.0)
    for panels, rule in _GL_RULES:
        step = h / panels
        rho = min(math.sqrt(128.0) / step, cap)
        truncation = panels * ((step / 2.0) * (64.0 / 15.0)
                               * math.exp(step * step * (rho - 1.0 / rho) ** 2 / 8.0)
                               * rho ** -32.0 / (rho * rho - 1.0))
        if truncation <= _U:
            break
    nodes, neg_two_k2 = len(rule), -two_k2
    exp, log1p = math.exp, math.log1p
    half = s1 = s2 = 0.0
    for t, w in rule:
        u = h * t
        u2 = u * u
        e = n * log1p(u2 / neg_two_k2) - u2
        term = h * w * exp(e)
        half += term
        s1 += term * e
        s2 += term * t
    rounding = _U * ((nodes + 3.0 + _GL_WEIGHT_ERR) * half - 6.0 * s1
                     + 3.0 * (1.0 + _GL_NODE_ERR) * h * h * s2)
    central = Evaluation(2.0 * half, 2.0 * (truncation + _CUT_TAIL + rounding), nodes)
    return hi, c, c_edge, u_star, central


def error_constants(ctx: RogersContext) -> RogersErrorConstants:
    """C1, C2, C3, C41, C42 at (kappa, theta), exactly as printed.

    Requires kappa > 1 so that kappa^(theta-1) < 1 and all denominators
    stay positive.  Each constant is positive, decreasing in kappa and
    increasing in theta on the validity range.
    """
    c = _pieces(ctx)[1]
    if isinstance(c, str):
        raise DomainError(c)
    return RogersErrorConstants(*c)


def u_threshold(ctx: RogersContext) -> float:
    """The unique root U of C(u) = (kappa/2) u^2 in [0, kappa^theta].

    Solves the cubic that the error constants at ctx give.  Uniqueness (and
    the bracketing sign change) holds for kappa >= 24; a DomainError
    signals kappa/theta outside that validity range.  The cubic
    c42 u^3 - (kappa/2) u^2 + c41 u + c1 has roots r0 < 0 < U < r2:
    r2 > kappa^theta by the sign change, and r0 in (-U, 0) since g(0) > 0
    > g(-U).  r2 comes from trigonometric Cardano, which is stable for the
    largest root, and U from the deflated quadratic u^2 - S u + P with
    P = r0 U = -D/r2 and S = r0 + U = (C + D/r2)/r2 > 0, so no digits
    cancel (Cardano applied to U itself loses them all from kappa ~ 1e5).
    """
    u_star = _pieces(ctx)[3]
    if isinstance(u_star, str):
        raise DomainError(u_star)
    return u_star


def central_integral(ctx: RogersContext) -> Evaluation:
    """Integral of e^{-u^2} (1 - u^2/(2 kappa^2))^n over [-kappa^theta, kappa^theta].

    Twice the half-range integral by symmetry, as the 16-node Gauss-Legendre
    rule on [0, h], h = min(kappa^theta, 5), or on each half of it, with the
    integrand written exp(E), E = -u^2 + n log1p(-u^2/(2 kappa^2)), so large
    n does not lose accuracy.  The value lies in (0, sqrt(pi)).

    The base 1 - u^2/(2 kappa^2) is positive on [0, h] for every valid
    context (n >= 1, 0 < theta < 1/3): for kappa >= 1,
    h^2 <= kappa^{2/3} < 2 kappa^2; for kappa < 1, h <= 1 while the float
    product (2 kappa) kappa is at least 1.0000000000000002, its value at
    n = 1.

    The error estimate is a bound on the truncation plus a count of the
    roundings.  The integrand is at most e^{-2u^2} on the real line, so the
    cut at 5 omits less than e^{-50}/20.  It is analytic off the real
    half-lines |u| >= sqrt(n), and |e^{-u^2} (1 - u^2/n)^n| <= e^{2 Im(u)^2},
    so on the Bernstein ellipse of parameter rho around a panel of length l
    it is at most M = exp(l^2 (rho - 1/rho)^2 / 8), and the 16-point Gauss
    error on the panel is at most (l/2) (64/15) M rho^{-32}/(rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
    rho = sqrt(128)/l about minimises that, capped so the ellipse around
    [0, h] stays inside |u| < sqrt(n); the ellipse around either half with
    the same rho is half as long, so it stays inside too, as h < sqrt(n).
    One panel, l = h, is used where its bound is at most u = 2^-53 (h up to
    about 2.38, kappa not near 1), else two halves, l = h/2, with twice the
    bound of one: at most about 10u from kappa = 24 up (at h = 5), but 2.5e3 u
    at kappa = 1, where the cap binds.  N = 16 or 32 is ``terms_used``.

    The terms h w_i e^{E_i} are added in node order.  Roundings of term i,
    in units of the unit roundoff u: N - 1 for the additions (every term is
    positive, so N - 1 bounds any order), W = _GL_WEIGHT_ERR for the stored
    weight, one each for h w_i, exp, the product and h itself (N + 3 + W);
    6|E_i| for the exponent, whose own roundings come to about 3|E_i| since
    E ~ -2u^2; and 3 (1 + T) h u_i for the node u_i = h t_i, whose stored
    error T = _GL_NODE_ERR and product rounding move E through dE/du ~ -4u.
    E <= 0 at every node, so the count is u ((N + 3 + W) S0 - 6 S1 + 3 (1 + T) h^2 S2)
    with the running sums S0 = sum of the terms, S1 = sum of term_i E_i and
    S2 = sum of term_i t_i.  A derived node is no worse than its stored t:
    t/2 and w/2 are exact, and (1 + t)/2 adds to t's error (relative r) one
    rounding of 1 + t in [1, 2), for relative error at most max(r, u).
    """
    return _pieces(ctx)[4]


def f_lower(ctx: RogersContext) -> Evaluation:
    """The normalized lower bound f(kappa, theta) for the Rogers integral.

    f = central integral
        - 2 sqrt(pi) C(kappa^theta)/kappa
        - (4 U C(U)/kappa) (1 + 4 C(U)/kappa)
        - 2 exp(-kappa^theta)

    assembled from the evaluation that the other three routes read at ctx,
    and left there for them.  Valid for kappa >= 24, theta in
    (0, 1/3); may be negative (the sigma_n lower bound is then vacuous).
    Increasing in kappa on the validity range.  The error estimate adds to
    the central integral's 16u times |f| plus the three subtracted terms
    (u = 2^-53), for the roundings of the error constants and of the
    assembly; against a 30-digit oracle these stay below 4u times the same
    sum.
    """
    k = ctx.kappa
    if k < KAPPA_MIN_LOWER:
        raise DomainError(f"f_lower needs kappa >= {KAPPA_MIN_LOWER}, got {k}")
    hi, (c1, _, _, c41, c42), c_edge, u_star, central = _pieces(ctx)
    if isinstance(u_star, str):
        raise DomainError(u_star)
    # the majorant C at U (the pass keeps it at hi); both are positive
    c_star = c1 + c41 * u_star + c42 * u_star ** 3
    edge = 2.0 * _SQRT_PI * c_edge / k
    inner = (4.0 * u_star * c_star / k) * (1.0 + 4.0 * c_star / k)
    tail = 2.0 * math.exp(-hi)
    value = central.value - edge - inner - tail
    err = central.err_estimate + 16.0 * _U * (abs(value) + edge + inner + tail)
    return Evaluation(value, err, central.terms_used)


def sigma_upper_log(n: float) -> float:
    """ln of the closed-form upper bound (e/4n)^{n/2} (n+1)!/Gamma(1+n/2)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return (
        0.5 * n * (1.0 - math.log(4.0 * n))
        + math.lgamma(n + 2.0)
        - math.lgamma(1.0 + 0.5 * n)
    )


def sigma_lower_log(n: float, f: Evaluation) -> Evaluation | None:
    """ln of the explicit lower bound on sigma_n, or None when vacuous.

    f is f(kappa, theta) at dimension n, as ``f_lower`` returns it; n below
    1152 (kappa = 24), where f is not defined, raises DomainError.  The
    normalization gives
    ln sigma_n >= ln f - n ln 2 - (n/2) ln n - (1/2) ln pi + n/2
                  + ln (n+1)! - ln Gamma(1+n/2),
    defined when f > 0.  The terms grow like n ln n and nearly cancel, so
    the error estimate is f's relative error plus 8u times the sum of the
    terms' magnitudes (u = 2^-53), for their roundings and the additions.
    """
    if n < 2.0 * KAPPA_MIN_LOWER ** 2:
        raise DomainError(f"sigma_lower_log needs n >= {2.0 * KAPPA_MIN_LOWER ** 2:g}, got {n}")
    if f.value <= 0.0:
        return None
    terms = (
        math.log(f.value),
        -n * math.log(2.0),
        -0.5 * n * math.log(n),
        -0.5 * math.log(math.pi),
        0.5 * n,
        math.lgamma(n + 2.0),
        -math.lgamma(1.0 + 0.5 * n),
    )
    # added left to right: sum() compensates from Python 3.12 on, and the
    # printed digits should not depend on the interpreter
    value = reduce(operator.add, terms)
    err = f.err_estimate / f.value + 8.0 * _U * reduce(operator.add, map(abs, terms))
    return Evaluation(value, err, f.terms_used)
