"""Packing-constant bounds: formula anchors, grid monotonicity, the
independently recomputed error-term assembly, scipy's Brent root and
QUADPACK integral as check routes, and a 30-digit mpmath oracle for the
error estimates."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from normeuclid import rogers
from normeuclid.rogers import (
    _GL_NODE_ERR,
    _GL_RULE,
    _GL_RULE_16,
    _GL_WEIGHT_ERR,
    RogersContext,
    central_integral,
    error_constants,
    f_lower,
    sigma_lower_log,
    sigma_upper_log,
    u_threshold,
)
from normeuclid.specfun import _U, DomainError, Evaluation

SQRT_PI = math.sqrt(math.pi)

KAPPA_GRID = (24.0, 50.0, 100.0, 176.0, 400.0, 1000.0)
THETA_GRID = (0.05, 0.1, 0.3)


def _constants_oracle(kappa, theta):
    """The five error constants written out independently, operand order
    double-checked against the definitions."""
    kt1 = kappa ** (theta - 1)
    kt2 = kappa ** (2 * theta - 2)
    kt3 = kappa ** (3 * theta - 3)
    c1 = 0.125 * (
        2 * SQRT_PI * math.sqrt(1 + kt2) / math.e
        + (6 / kappa) * (1 + math.sqrt(1 + kt2) / math.e)
        + 3 / kappa ** 3
    )
    c2 = (1 / (1 - kt1)) * (1 / (1 - kt1 / 4) + 2.5)
    c3 = math.sqrt(1 + kt2 / 4)
    c41 = c3 + kt3 * c2 * c3 + kt1 / 4
    c42 = c2 * (1 - 1 / (2 * kappa ** 2))
    return c1, c2, c3, c41, c42


def _majorant(c, u):
    """The cubic majorant C(u) = C1 + C41 u + C42 u^3 at u >= 0, as f uses it."""
    return c.c1 + c.c41 * u + c.c42 * u ** 3


# ------------------------------------------------------------------ types

def test_context_validation():
    ctx = RogersContext(62238.0, 0.1)
    assert abs(2.0 * ctx.kappa ** 2 - 62238.0) <= 1e-12 * 62238.0
    with pytest.raises(DomainError):
        RogersContext(100.0, 0.34)
    with pytest.raises(DomainError):
        RogersContext(100.0, 0.0)
    with pytest.raises(DomainError):
        RogersContext(0.5, 0.1)


def test_from_kappa_roundtrip():
    ctx = RogersContext.from_kappa(176.4, 0.1)
    assert ctx.kappa == pytest.approx(176.4, rel=1e-15)


# -------------------------------------------------------- error constants

def test_error_constants_anchors():
    c = error_constants(RogersContext.from_kappa(24.0, 0.1))
    oc = _constants_oracle(24.0, 0.1)
    assert (c.c1, c.c2, c.c3, c.c41, c.c42) == pytest.approx(oc, rel=1e-14)
    assert c.c1 == pytest.approx(0.206, abs=5e-4)
    assert c.c2 == pytest.approx(3.73, abs=5e-3)
    assert c.c3 == pytest.approx(1.0004, abs=5e-5)
    c176 = error_constants(RogersContext.from_kappa(176.4, 0.1))
    assert c176.c42 == pytest.approx(3.54, abs=5e-3)
    assert (c176.c1, c176.c2, c176.c3, c176.c41, c176.c42) == pytest.approx(
        _constants_oracle(176.4, 0.1), rel=1e-14
    )


def test_error_constants_large_kappa_limit():
    # dropping every 1/kappa term leaves c1 -> sqrt(pi)/(4 e)
    c = error_constants(RogersContext.from_kappa(1e12, 0.1))
    assert c.c1 == pytest.approx(SQRT_PI / (4.0 * math.e), abs=1e-11)


def test_error_constants_positive_and_monotone():
    for theta in THETA_GRID:
        prev = None
        for kappa in KAPPA_GRID:
            c = error_constants(RogersContext.from_kappa(kappa, theta))
            vals = (c.c1, c.c2, c.c3, c.c41, c.c42)
            assert all(v > 0 for v in vals)
            if prev is not None:
                assert all(a < b for a, b in zip(vals, prev)), "not decreasing in kappa"
            prev = vals
    for kappa in KAPPA_GRID:
        prev = None
        for theta in THETA_GRID:
            c = error_constants(RogersContext.from_kappa(kappa, theta))
            vals = (c.c1, c.c2, c.c3, c.c41, c.c42)
            if prev is not None:
                assert all(a > b for a, b in zip(vals, prev)), "not increasing in theta"
            prev = vals


def test_error_constants_domain():
    with pytest.raises(DomainError):
        error_constants(RogersContext.from_kappa(1.0, 0.1))


# ------------------------------------------------------------ u_threshold

def test_u_threshold_against_grid_scan():
    ctx = RogersContext.from_kappa(176.4, 0.1)
    u = u_threshold(ctx)
    hi = 176.4 ** 0.1
    grid = np.linspace(0.0, hi, 10 ** 6)
    c1, _, _, c41, c42 = _constants_oracle(176.4, 0.1)
    gv = c1 + c41 * grid + c42 * grid ** 3 - 0.5 * 176.4 * grid ** 2
    flip = int(np.nonzero(np.diff(np.sign(gv)))[0][0])
    assert grid[flip] <= u <= grid[flip + 1]
    assert u == pytest.approx(0.049, abs=2e-3)


@pytest.mark.parametrize("theta", THETA_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_u_threshold_grid_bounds(kappa, theta):
    ctx = RogersContext.from_kappa(kappa, theta)
    u = u_threshold(ctx)
    assert 0.0 < u <= min(0.19, kappa ** theta)
    residual = _majorant(error_constants(ctx), u) - 0.5 * kappa * u * u
    assert abs(residual) <= 1e-10


def test_u_threshold_decay_rate():
    # U = O(kappa^{-1/2}): U sqrt(kappa) stays bounded
    for kappa in (24.0, 176.4, 1e4):
        u = u_threshold(RogersContext.from_kappa(kappa, 0.1))
        assert u * math.sqrt(kappa) <= 1.0


@pytest.mark.parametrize("kappa", (24.0, 1e3, 1e5, 1e8))
def test_u_threshold_against_brentq(kappa):
    for theta in (1e-3, 0.05, 0.1, 0.3, 0.333):
        ctx = RogersContext.from_kappa(kappa, theta)
        c1, _, _, c41, c42 = _constants_oracle(ctx.kappa, theta)
        g = lambda u: c1 + c41 * u + c42 * u ** 3 - 0.5 * ctx.kappa * u * u
        root = brentq(g, 0.0, ctx.kappa ** theta, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert abs(u_threshold(ctx) - root) <= 4e-15 * root


def test_u_threshold_bracket_error_outside_validity():
    with pytest.raises(DomainError, match="no sign change"):
        u_threshold(RogersContext.from_kappa(2.0, 0.1))


# ------------------------------------------------------- central integral

def _simpson_central(kappa, theta, n):
    hi = kappa ** theta
    xs = np.linspace(-hi, hi, 40001)
    ys = np.exp(-xs ** 2 + n * np.log1p(-xs ** 2 / (2 * kappa ** 2)))
    h = (2 * hi) / 40000
    s1 = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
    xs2 = np.linspace(-hi, hi, 80001)
    ys2 = np.exp(-xs2 ** 2 + n * np.log1p(-xs2 ** 2 / (2 * kappa ** 2)))
    h2 = (2 * hi) / 80000
    s2 = h2 / 3 * (ys2[0] + ys2[-1] + 4 * ys2[1:-1:2].sum() + 2 * ys2[2:-1:2].sum())
    return (16 * s2 - s1) / 15


def test_central_integral_headline_point():
    ctx = RogersContext(62238.0, 0.1)
    ci = central_integral(ctx)
    # limit comparison: the integrand tends to e^{-2u^2}
    assert ci.value == pytest.approx(1.2523, abs=2e-3)
    assert ci.value == pytest.approx(_simpson_central(ctx.kappa, 0.1, 62238.0), abs=1e-10)


def test_central_integral_below_sqrt_pi():
    for kappa, theta in ((24.0, 0.1), (24.0, 0.3), (176.4, 0.05), (1000.0, 0.3)):
        ctx = RogersContext.from_kappa(kappa, theta)
        v = central_integral(ctx).value
        assert 0.0 < v < SQRT_PI


def test_central_integral_small_kappa_oracle():
    ctx = RogersContext.from_kappa(24.0, 0.3)
    ci = central_integral(ctx)
    assert ci.value == pytest.approx(_simpson_central(24.0, 0.3, ctx.n), abs=1e-10)


@pytest.mark.parametrize("kappa", (1.0, 24.0, 1e4, 1e8))
def test_central_integral_against_quad(kappa):
    for theta in (0.05, 0.3):
        ctx = RogersContext.from_kappa(kappa, theta)
        two_k2 = 2.0 * ctx.kappa ** 2
        f = lambda u: math.exp(-u * u + ctx.n * math.log1p(-u * u / two_k2))
        half, abserr = quad(f, 0.0, ctx.kappa ** theta, epsabs=1e-13, epsrel=0.0, limit=200)
        ci = central_integral(ctx)
        assert abs(ci.value - 2.0 * half) <= ci.err_estimate + 2.0 * abserr


# ------------------------------------------ error estimates against mpmath

def _central_oracle(n, theta):
    """The central integral in 30-digit mpmath, from the exact inputs n and
    theta, split where the integrand bends so quadrature stays accurate."""
    with mpmath.workdps(30):
        n = mpmath.mpf(n)
        k2 = n / 2
        hi = k2 ** (mpmath.mpf(theta) / 2)
        f = lambda u: mpmath.exp(-u * u) * (1 - u * u / (2 * k2)) ** n
        return 2 * mpmath.quad(f, [0] + [x for x in (1, 2, 3, 5, 8) if x < hi] + [hi])


def _f_lower_oracle(n, theta):
    """f(kappa, theta) in 30-digit mpmath: the constants as printed, U as
    the middle root of the cubic, the central integral as above."""
    with mpmath.workdps(30):
        k = mpmath.sqrt(mpmath.mpf(n) / 2)
        t = mpmath.mpf(theta)
        kt1, kt2, kt3 = k ** (t - 1), k ** (2 * t - 2), k ** (3 * t - 3)
        root = mpmath.sqrt(1 + kt2)
        sqrt_pi = mpmath.sqrt(mpmath.pi)
        c1 = (2 * sqrt_pi * root / mpmath.e + (6 / k) * (1 + root / mpmath.e) + 3 / k ** 3) / 8
        c2 = (1 / (1 - kt1)) * (1 / (1 - kt1 / 4) + mpmath.mpf(5) / 2)
        c3 = mpmath.sqrt(1 + kt2 / 4)
        c41 = c3 + kt3 * c2 * c3 + kt1 / 4
        c42 = c2 * (1 - 1 / (2 * k * k))
        big_c = lambda u: c1 + c41 * u + c42 * u ** 3
        roots = mpmath.polyroots([c42, -k / 2, c41, c1], maxsteps=200, extraprec=60)
        u = sorted(mpmath.re(r) for r in roots)[1]
        hi = k ** t
        return (
            _central_oracle(n, theta)
            - 2 * sqrt_pi * big_c(hi) / k
            - (4 * u * big_c(u) / k) * (1 + 4 * big_c(u) / k)
            - 2 * mpmath.exp(-hi)
        )


# ceilings on _tightness, each about 1.5 times the worst ratio over its
# test's own inputs (measured 2026-10-21), so that an estimate that grows
# turns a test red: the central integral 4474, at kappa = 1 where the
# ellipse cap binds; f 1146, where f is 3.2e-4 and its estimate is mostly
# the central integral's; and ln sigma_n 987.5
_CEILING_CENTRAL = 6700.0
_CEILING_F = 1700.0
_CEILING_SIGMA = 1500.0


def _tightness(ev, error):
    """How loose an estimate is: err_estimate over the actual error, or over
    one rounding of the value where the oracle agrees closer than that."""
    return ev.err_estimate / max(float(error), _U * abs(ev.value))


_THETA = st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_min=True, exclude_max=True)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


# the one-panel truncation bound crosses u between these neighbouring
# kappas at theta = 0.1: one panel at the first of each pair, two halves at
# the second
_SWITCH_LOW = (1.2417992325965943, 1.241799232596594)
_SWITCH_HIGH = (5797.274430598614, 5797.274430598615)


def _truncation_bound(ctx, nodes):
    """The Bernstein-ellipse bound on the nodes-point Gauss error over
    [0, h], as the docstring states it (Trefethen's Thm 19.3), in the same
    floating-point operations, so that it agrees at neighbouring kappas."""
    k = ctx.kappa
    two_k2 = 2 * k * k
    h = min(k ** ctx.theta, 5.0)
    rho = min(math.sqrt(8 * nodes) / h, math.sqrt(two_k2) / h + math.sqrt(two_k2 / (h * h) - 1))
    big_m = math.exp(h * h * (rho - 1 / rho) ** 2 / 8)
    return (h / 2) * (64 / 15) * big_m * rho ** (-2 * nodes) / (rho * rho - 1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kappa=_log_uniform(1.0, 1e8), theta=_THETA)
@example(kappa=_SWITCH_LOW[0], theta=0.1)
@example(kappa=_SWITCH_LOW[1], theta=0.1)
@example(kappa=_SWITCH_HIGH[0], theta=0.1)
@example(kappa=_SWITCH_HIGH[1], theta=0.1)
@example(kappa=1000.0, theta=0.3)  # two halves at the cut: their bound is largest from kappa = 24 up
@example(kappa=1.0, theta=0.1)  # two halves where the ellipse cap binds: their largest bound
def test_central_integral_within_error_of_oracle(kappa, theta):
    ctx = RogersContext.from_kappa(kappa, theta)
    ci = central_integral(ctx)
    error = abs(mpmath.mpf(ci.value) - _central_oracle(ctx.n, theta))
    assert error <= ci.err_estimate <= 1e-12
    assert _tightness(ci, error) <= _CEILING_CENTRAL


@settings(derandomize=True, max_examples=200, deadline=None)
@given(n=_log_uniform(1.0, 1e15), theta=_THETA)
@example(n=1.0, theta=1e-300)
@example(n=1.0, theta=math.nextafter(1.0 / 3.0, 0.0))
@example(n=math.nextafter(1.0, 2.0), theta=1e-300)
@example(n=1e15, theta=1e-300)
@example(n=1e15, theta=math.nextafter(1.0 / 3.0, 0.0))
def test_central_integral_defined_on_every_context(n, theta):
    # the base 1 - u^2/(2 kappa^2) stays positive for every valid context,
    # so the quadrature needs no guard: a finite value in (0, sqrt(pi)]
    ci = central_integral(RogersContext(n, theta))
    assert 0.0 < ci.value <= SQRT_PI and math.isfinite(ci.err_estimate)


# f_lower is defined from kappa = 24 up
@settings(derandomize=True, max_examples=80, deadline=None)
@given(kappa=_log_uniform(24.0, 1e8), theta=_THETA)
@example(kappa=1000.0, theta=0.3)  # two halves at the cut
def test_f_lower_within_error_of_oracle(kappa, theta):
    ctx = RogersContext.from_kappa(kappa, theta)
    f = f_lower(ctx)
    error = abs(mpmath.mpf(f.value) - _f_lower_oracle(ctx.n, theta))
    assert error <= f.err_estimate <= 1e-12
    assert _tightness(f, error) <= _CEILING_F


# --------------------------------------------------------------- f_lower

def _f_oracle(kappa, theta):
    """Term-by-term reassembly of f from independently computed pieces."""
    ctx = RogersContext.from_kappa(kappa, theta)
    hi = kappa ** theta
    central = _simpson_central(kappa, theta, ctx.n)
    u = u_threshold(ctx)
    c = error_constants(ctx)
    c_edge = _majorant(c, hi)
    c_star = _majorant(c, u)
    return (
        central
        - 2.0 * SQRT_PI * c_edge / kappa
        - (4.0 * u * c_star / kappa) * (1.0 + 4.0 * c_star / kappa)
        - 2.0 * math.exp(-hi)
    )


def test_f_headline_value():
    f = f_lower(RogersContext(62238.0, 0.1))
    assert 0.484 <= f.value <= 0.60
    assert f.value == pytest.approx(_f_oracle(math.sqrt(62238.0 / 2.0), 0.1), abs=1e-9)


def test_f_negative_at_small_kappa():
    assert f_lower(RogersContext.from_kappa(24.0, 0.1)).value < 0.0
    assert f_lower(RogersContext.from_kappa(24.0, 0.1)).value == pytest.approx(
        _f_oracle(24.0, 0.1), abs=1e-9
    )


def test_f_positive_midrange():
    f = f_lower(RogersContext.from_kappa(100.0, 0.1)).value
    assert 0.0 < f < SQRT_PI
    assert f == pytest.approx(_f_oracle(100.0, 0.1), abs=1e-9)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_f_monotone_in_kappa(theta):
    values = [f_lower(RogersContext.from_kappa(k, theta)).value for k in KAPPA_GRID]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_f_bounded_by_sqrt_pi():
    for kappa in KAPPA_GRID:
        for theta in THETA_GRID:
            assert f_lower(RogersContext.from_kappa(kappa, theta)).value <= SQRT_PI


def test_f_domain():
    with pytest.raises(DomainError):
        f_lower(RogersContext.from_kappa(20.0, 0.1))


# ------------------------------------------------------------ the chain

def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(16)
    want = [(float(t).hex(), float(v).hex()) for t, v in zip(0.5 * (x + 1.0), 0.5 * w)]
    assert [(t.hex(), v.hex()) for t, v in _GL_RULE_16] == want
    # the two-panel rule is that rule on [0, 1/2] and then on [1/2, 1]
    halves = [(t / 2, w / 2) for t, w in _GL_RULE_16] + [((1 + t) / 2, w / 2) for t, w in _GL_RULE_16]
    assert [(t.hex(), v.hex()) for t, v in _GL_RULE] == [(t.hex(), v.hex()) for t, v in halves]


def test_derived_nodes_are_no_worse_than_their_stored_nodes():
    # against the 30-digit roots of P_16 mapped to [0, 1]: (1 + t)/2 adds one
    # rounding of 1 + t in [1, 2) to t's own error, so it keeps the larger
    with mpmath.workdps(30):
        for i, (t, _) in enumerate(_GL_RULE_16):
            tau = (mpmath.findroot(lambda x: mpmath.legendre(16, x), 2 * t - 1) + 1) / 2
            stored = abs(t - tau) / tau
            for j, shift in enumerate((0, 1)):
                exact = (shift + tau) / 2
                assert abs(_GL_RULE[16 * j + i][0] - exact) / exact <= max(stored, _U)


def test_stored_rule_errors_are_within_what_the_central_integral_charges():
    # against the 30-digit roots x of P_16 and their weights on [0, 1],
    # (1 - x^2)/(256 P_15(x)^2) (P_16' = 16 P_15/(1 - x^2) at a root): the
    # count charges _GL_NODE_ERR and _GL_WEIGHT_ERR units of u, relative
    node_err, weight_err = [], []
    with mpmath.workdps(30):
        for t, w in _GL_RULE_16:
            x = mpmath.findroot(lambda y: mpmath.legendre(16, y), 2 * t - 1)
            tau, omega = (x + 1) / 2, (1 - x * x) / (256 * mpmath.legendre(15, x) ** 2)
            node_err.append(float(abs(t - tau) / tau / _U))
            weight_err.append(float(abs(w - omega) / omega / _U))
    assert 5.0 < max(node_err) <= _GL_NODE_ERR
    assert 63.0 < max(weight_err) <= _GL_WEIGHT_ERR


def test_sixteen_nodes_exactly_where_their_bound_is_below_u():
    rng = random.Random(22)
    switches, log_max = (*_SWITCH_LOW, *_SWITCH_HIGH), math.log(1e8)
    contexts = [RogersContext.from_kappa(k, 0.1) for k in switches] + [
        RogersContext.from_kappa(math.exp(rng.uniform(0.0, log_max)), rng.uniform(1e-9, 0.33))
        for _ in range(400)
    ]
    used = [central_integral(ctx).terms_used for ctx in contexts]
    assert used[:4] == [16, 32, 16, 32]
    assert used == [16 if _truncation_bound(ctx, 16) <= _U else 32 for ctx in contexts]
    assert 100 < used.count(16) < 300  # both sides of the switch are sampled


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_f_lower_is_assembled_from_the_public_routes(kappa):
    # the rogers report prints these routes next to f, so f must be built
    # from exactly their values, operation for operation
    for theta in THETA_GRID:
        ctx = RogersContext.from_kappa(kappa, theta)
        c, u, central = error_constants(ctx), u_threshold(ctx), central_integral(ctx)
        hi = ctx.kappa ** theta
        edge = 2.0 * SQRT_PI * _majorant(c, hi) / ctx.kappa
        c_u = _majorant(c, u)
        inner = (4.0 * u * c_u / ctx.kappa) * (1.0 + 4.0 * c_u / ctx.kappa)
        tail = 2.0 * math.exp(-hi)
        value = central.value - edge - inner - tail
        err = central.err_estimate + 16.0 * _U * (abs(value) + edge + inner + tail)
        f = f_lower(ctx)
        assembled = Evaluation(value, err, central.terms_used)
        assert f == assembled
        assert sigma_lower_log(ctx.n, f) == sigma_lower_log(ctx.n, assembled)


@pytest.mark.parametrize(
    "route", [error_constants, central_integral, u_threshold, f_lower], ids=lambda r: r.__name__
)
@pytest.mark.parametrize(
    "a, b",
    [((62238.0, 0.1), (62238.0, 0.2)), ((62238.0, 0.1), (200000.0, 0.1))],
    ids=["theta", "n"],
)
def test_each_route_answers_for_its_own_context(route, a, b):
    # every route reads the one evaluation kept for the last context: A,
    # then B, then A again must each equal a fresh evaluation bit for bit,
    # which a cache that dropped theta or n from its key would not give
    a, b = RogersContext(*a), RogersContext(*b)

    def fresh(ctx):
        rogers._pieces.cache_clear()
        return repr(route(ctx))

    want = [fresh(ctx) for ctx in (a, b, a)]
    assert want[0] != want[1]
    rogers._pieces.cache_clear()
    assert [repr(route(ctx)) for ctx in (a, b, a)] == want


def test_f_lower_leaves_its_pieces_for_the_next_caller():
    # the rogers report and criterion 9 ask for the pieces at the context f
    # was just evaluated at: one evaluation, which the other routes read
    ctx = RogersContext(62238.0, 0.1)
    rogers._pieces.cache_clear()
    f_lower(ctx)
    for route in (error_constants, central_integral, u_threshold):
        route(ctx)
    assert rogers._pieces.cache_info()[:2] == (3, 1)


def test_f_lower_then_the_other_routes_run_the_quadrature_once(monkeypatch):
    # count the passes over the (panels, rule) list, which only the
    # quadrature makes
    runs = []

    class CountingRules(tuple):
        def __iter__(self):
            runs.append(1)
            return super().__iter__()

    monkeypatch.setattr(rogers, "_GL_RULES", CountingRules(rogers._GL_RULES))
    ctx = RogersContext(61417.0, 0.13)
    rogers._pieces.cache_clear()
    pieces = (f_lower(ctx), error_constants(ctx), central_integral(ctx), u_threshold(ctx))
    assert len(runs) == 1
    rogers._pieces.cache_clear()
    assert (f_lower(ctx), error_constants(ctx), central_integral(ctx), u_threshold(ctx)) == pieces
    assert len(runs) == 2


def test_each_piece_is_raised_only_by_its_own_route():
    # the constants do not exist at kappa <= 1 and U not without a sign
    # change, but the central integral exists at every context
    rng = random.Random(34)
    seen = set()
    for _ in range(3000):
        kappa = math.exp(rng.uniform(math.log(0.71), math.log(2.4e8)))
        ctx = RogersContext.from_kappa(kappa, rng.uniform(1e-6, 0.333))
        ci = central_integral(ctx)
        assert 0.0 < ci.value <= SQRT_PI and math.isfinite(ci.err_estimate)
        try:
            error_constants(ctx)
        except DomainError as exc:
            assert ctx.kappa <= 1.0 and str(exc) == f"error constants need kappa > 1, got {ctx.kappa}"
            seen.add("constants")
        else:
            assert ctx.kappa > 1.0
        try:
            u_threshold(ctx)
        except DomainError as exc:
            if ctx.kappa <= 1.0:
                assert str(exc) == f"error constants need kappa > 1, got {ctx.kappa}"
            else:
                assert str(exc).startswith("no sign change")
                seen.add("U")
    assert seen == {"constants", "U"}


# --------------------------------------------------------- sigma bounds

def test_sigma_upper_small_n():
    # n=1: bound is sqrt(e/4) * 2!/Gamma(3/2)
    want = math.log(math.sqrt(math.e / 4.0) * 2.0 / math.gamma(1.5))
    assert sigma_upper_log(1) == pytest.approx(want, abs=1e-13)
    # sigma_1 = 1: two unit half-balls cover the length-2 segment
    assert sigma_upper_log(1) >= 0.0
    for n in (0.5, 0, -1):
        with pytest.raises(DomainError, match="need n >= 1"):
            sigma_upper_log(n)


def test_sigma_upper_stirling_asymptotic():
    # Stirling gives sigma_upper_log(n) = -(n/2) ln 2 + ln n + (ln 2)/2 + O(1/n)
    def defect(n):
        return sigma_upper_log(n) + 0.5 * n * math.log(2.0) - math.log(n) - 0.5 * math.log(2.0)

    assert abs(defect(10 ** 4)) <= 1e-3
    assert abs(defect(10 ** 6)) <= 1e-5
    assert abs(defect(10 ** 6)) < abs(defect(10 ** 4))


def _sigma_lower_at(n, theta):
    return sigma_lower_log(n, f_lower(RogersContext(float(n), theta)))


def test_sigma_lower_vacuous_and_finite():
    assert _sigma_lower_at(1152, 0.1) is None
    low = _sigma_lower_at(62238, 0.1)
    assert low is not None and math.isfinite(low.value)
    with pytest.raises(DomainError):
        _sigma_lower_at(1000, 0.1)
    with pytest.raises(DomainError):
        sigma_lower_log(1000, f_lower(RogersContext(62238.0, 0.1)))


def test_sigma_sandwich():
    for n in (62238, 10 ** 5):
        low = _sigma_lower_at(n, 0.1)
        assert low is not None
        up = sigma_upper_log(n)
        assert low.value <= up
        # the gap is exactly ln(sqrt(pi)/f) >= 0
        f = f_lower(RogersContext(float(n), 0.1)).value
        assert up - low.value == pytest.approx(math.log(SQRT_PI / f), abs=1e-9)


def _sigma_lower_oracle(n, f):
    """ln of the sigma_n lower bound in 40-digit mpmath, f taken as exact."""
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        return (
            mpmath.log(f) - n * mpmath.log(2) - n / 2 * mpmath.log(n) - mpmath.log(mpmath.pi) / 2
            + n / 2 + mpmath.loggamma(n + 2) - mpmath.loggamma(1 + n / 2)
        )


def test_sigma_lower_adds_left_to_right(monkeypatch):
    # builtin sum() compensates from Python 3.12 on; added with fsum instead,
    # the error terms move the estimate's last bits at about one point in four
    rng = random.Random(16)
    ns = [round(math.exp(rng.uniform(7.1, 34.5))) for _ in range(300)]
    cases = [(n, rng.uniform(0.01, 0.33)) for n in ns]
    lows = [sigma_lower_log(n, f_lower(RogersContext(float(n), theta))) for n, theta in cases]
    want = [(low.value, low.err_estimate) for low in lows if low is not None]
    assert len(want) >= 200
    monkeypatch.setattr(rogers, "sum", math.fsum, raising=False)
    lows = [sigma_lower_log(n, f_lower(RogersContext(float(n), theta))) for n, theta in cases]
    assert [(low.value, low.err_estimate) for low in lows if low is not None] == want


def test_sigma_lower_within_error_of_oracle():
    # the terms grow like n ln n, so a flat relative estimate falls short by
    # up to eight orders of magnitude at n = 1e12
    rng = np.random.default_rng(13)
    ns = [62238, 10 ** 6, 10 ** 12] + [round(x) for x in np.exp(rng.uniform(9.0, 27.6, 200))]
    for n in ns:
        f = f_lower(RogersContext(float(n), 0.1))
        low = sigma_lower_log(n, f)
        error = abs(mpmath.mpf(low.value) - _sigma_lower_oracle(n, f.value))
        assert error <= low.err_estimate
        assert _tightness(low, error) <= _CEILING_SIGMA
