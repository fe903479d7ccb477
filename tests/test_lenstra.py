"""Criterion thresholds, discriminant bounds, and the crossing search."""

import math
import random

import mpmath
import pytest

from normeuclid import acceptance, lenstra
from normeuclid.lenstra import (
    NotFoundError,
    criterion_check,
    delta1_star_log,
    delta2_star_log,
    find_crossing,
    lenstra_disc_cap,
    main_gap,
    poitou_grh_lower,
)
from normeuclid.rogers import RogersContext, f_lower
from normeuclid.specfun import _U, EULER_GAMMA as GAMMA, DomainError, Evaluation

LN2 = math.log(2.0)


# -------------------------------------------------------------- delta_1

def test_delta1_anchors():
    assert delta1_star_log(1, 0) == pytest.approx(0.0, abs=1e-14)
    assert delta1_star_log(2, 0) == pytest.approx(math.log(0.5), abs=1e-14)
    assert delta1_star_log(2, 1) == pytest.approx(math.log(2.0 / math.pi), abs=1e-14)


def test_delta1_domain():
    with pytest.raises(DomainError):
        delta1_star_log(2, 2)
    with pytest.raises(DomainError):
        delta1_star_log(0, 0)


# -------------------------------------------------------------- delta_2

def test_delta2_upper_closed_form():
    for n in (10, 100, 10 ** 4):
        got = delta2_star_log(n).value
        closed = 0.5 * n * (1.0 - math.log(math.pi)) - n * math.log(n) + math.lgamma(n + 2.0)
        assert abs(got - closed) <= 1e-10 * max(1.0, abs(closed))


def test_delta2_upper_small_n_direct():
    # n=2, s=1: sigma_2-upper * (4/(2 pi)) * Gamma(2)
    want = (1.0 - math.log(8.0)) + math.lgamma(4.0) + math.log(2.0 / math.pi)
    assert delta2_star_log(2).value == pytest.approx(want, abs=1e-12)
    with pytest.raises(DomainError, match="need n >= 1"):
        delta2_star_log(0)


def test_delta2_below_delta1_spot():
    # scanning every admissible s at a few degrees (s=0 is the minimum of
    # delta1, but check the whole range anyway)
    for n in (56, 57, 100, 2000):
        d2 = delta2_star_log(n).value
        for s in range(0, n // 2 + 1, max(1, n // 8)):
            assert d2 <= delta1_star_log(n, s)


def test_delta2_above_delta1_just_below_56():
    assert delta2_star_log(55).value > delta1_star_log(55, 0)


# ceilings on _tightness, each about 1.5 times the worst ratio over its
# test's own inputs (measured 2026-10-21): 152.5 for delta2 and 983.3 for the
# gap, so that an estimate that grows turns a test red
_CEILING_DELTA2 = 230.0
_CEILING_GAP = 1500.0


def _tightness(ev, error):
    """How loose an estimate is: err_estimate over the actual error, or over
    one rounding of the value where the oracle agrees closer than that."""
    return ev.err_estimate / max(float(error), _U * abs(ev.value))


def test_delta2_within_error_of_oracle():
    # against (n/2)(1 - ln pi) - n ln n + ln (n+1)! in 40 digits, on every
    # degree below 200 and a log-uniform sample up to 1e12
    rng = random.Random(14)
    ns = list(range(1, 200)) + [62238, 10 ** 6, 10 ** 12]
    ns += [round(math.exp(rng.uniform(0.0, math.log(1e12)))) for _ in range(400)]
    with mpmath.workdps(40):
        for n in ns:
            d2 = delta2_star_log(n)
            x = mpmath.mpf(n)
            want = x / 2 * (1 - mpmath.log(mpmath.pi)) - x * mpmath.log(x) + mpmath.loggamma(x + 2)
            error = abs(d2.value - want)
            assert error <= d2.err_estimate, n
            assert _tightness(d2, error) <= _CEILING_DELTA2, n


# ------------------------------------------------------- criterion check

def test_criterion_rationals():
    # Q: n=1, |disc|=1, M=2
    assert criterion_check(1, 1, 0.0, LN2).delta1_holds

    # Q(i): n=2, s=1, |disc|=4, M=2 -> 2 > (2/pi) * 2
    assert criterion_check(2, 0, math.log(4.0), LN2).delta1_holds

    # overwhelming discriminant: n=2, s=0, |disc|=1e6, M=4
    assert not criterion_check(2, 2, math.log(1e6), math.log(4.0)).delta1_holds


def test_criterion_scale_invariance():
    # replacing (M, disc) by (cM, c^2 disc) leaves both verdicts unchanged
    base = criterion_check(40, 0, 25.0, 10.0)
    t = 3.7
    shifted = criterion_check(40, 0, 25.0 + 2.0 * t, 10.0 + t)
    assert base.delta1_holds == shifted.delta1_holds
    assert base.delta2_holds == shifted.delta2_holds


@pytest.mark.parametrize("log_disc", [math.nan, math.inf, -math.inf, -1.0])
def test_criterion_log_disc_domain(log_disc):
    with pytest.raises(DomainError):
        criterion_check(2, 0, log_disc, LN2)


def test_criterion_input_bounds():
    with pytest.raises(DomainError):
        criterion_check(2, 0, 0.0, 3.0 * LN2)
    with pytest.raises(DomainError):
        criterion_check(2, 0, 0.0, 0.5 * LN2)
    # the 1e-9 slack admits decimal truncations of ln 2 at both ends
    criterion_check(2, 0, 0.0, 0.693147180)
    criterion_check(2, 0, 0.0, 2.0 * 0.693147181)


def test_signature_validation():
    # n - r odd, n < 1, r < 0, r > n
    for n, r in ((3, 2), (0, 0), (2, -2), (2, 4)):
        with pytest.raises(DomainError):
            criterion_check(n, r, 0.0, LN2)


# ------------------------------------------------------- discriminant

def _poitou_oracle(n, r):
    ln_n = math.log(n)
    a = 2.0 * math.pi ** 2 / ln_n ** 2
    lam = 0.875 * 1.2020569031595942854
    bet = math.pi ** 3 / 32.0
    return (
        GAMMA
        + math.log(8.0 * math.pi)
        + (r / n) * (math.pi / 2.0 - a * bet)
        - a * (lam + (8.0 + 8.0 / n) / (ln_n * (1.0 + math.pi ** 2 / ln_n ** 2) ** 2))
    )


def test_poitou_anchor_values():
    v = poitou_grh_lower(62238, 0)
    assert v == pytest.approx(_poitou_oracle(62238, 0), abs=1e-13)
    assert v == pytest.approx(3.5306, abs=1e-3)
    v6 = poitou_grh_lower(10 ** 6, 0)
    assert v6 == pytest.approx(_poitou_oracle(10 ** 6, 0), abs=1e-13)
    assert v6 == pytest.approx(3.63845, abs=1e-3)


def test_poitou_totally_real_limit():
    limit = GAMMA + math.log(8.0 * math.pi) + math.pi / 2.0
    gaps = [abs(poitou_grh_lower(n, n) - limit) for n in (10 ** 6, 10 ** 9, 10 ** 12)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.2


def test_poitou_monotone_in_r():
    # the r coefficient is positive from n = 33 on, so find_crossing's
    # reduction to r = 0 holds at its smallest degree 1152 and far beyond
    for n in (33, 100, 1152, 62238, 10 ** 15):
        vals = [poitou_grh_lower(n, r) for r in range(0, n + 1, max(1, n // 4))]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_poitou_domain():
    with pytest.raises(DomainError):
        poitou_grh_lower(1, 0)
    with pytest.raises(DomainError):
        poitou_grh_lower(100, 101)


def test_uncond_main_term():
    # criterion 4 says where the unconditional main term ln(4 pi) + gamma + r/n
    # passes the cap ln(4 pi e): only for r/n > 1 - gamma ~ 0.4228
    ok, detail = acceptance._crit_4_asymptotic_cap()
    assert ok
    clause = detail.split(", ")[-1]
    assert clause == "unconditional bound beats the cap only for r/n > 1-gamma = 0.422784"
    threshold = float(clause.rsplit("= ", 1)[1])
    assert threshold == pytest.approx(1.0 - GAMMA, abs=5e-7)
    cap = math.log(4.0 * math.pi * math.e)
    for r_over_n in (0.42, 1.0 - GAMMA - 1e-9):
        assert math.log(4.0 * math.pi) + GAMMA + r_over_n < cap
    for r_over_n in (0.5, 1.0 - GAMMA + 1e-9):
        assert math.log(4.0 * math.pi) + GAMMA + r_over_n > cap


def test_disc_cap():
    limit = math.log(4.0 * math.pi * math.e)
    cap6 = lenstra_disc_cap(10 ** 6)
    assert abs(cap6 - limit) <= 0.01
    assert cap6 >= limit - 0.001
    # the finite-n cap approaches the limit from below, increasing in n
    caps = [lenstra_disc_cap(n) for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(a < b for a, b in zip(caps, caps[1:]))
    assert all(c < limit for c in caps)
    with pytest.raises(DomainError, match="need n >= 2"):
        lenstra_disc_cap(1)


def test_serre_gap_identity():
    serre = math.log(8.0 * math.pi) + GAMMA
    cap = math.log(4.0 * math.pi * math.e)
    assert abs((serre - cap) - (GAMMA + LN2 - 1.0)) <= 1e-12
    assert 2.0 * math.exp(GAMMA - 1.0) >= 1.31


# --------------------------------------------------------------- the gap

def test_main_gap_signs():
    # the docstring's boundary: f(kappa, 0.1) <= 0 up to n = 7661, > 0 at 7662
    assert main_gap(7661, 0, 0.1) is None
    assert main_gap(7662, 0, 0.1) is not None
    assert main_gap(61000, 0, 0.1).value < 0.0
    assert main_gap(62238, 0, 0.1).value > 0.0
    assert main_gap(10 ** 6, 0, 0.1).value > 0.0


def test_main_gap_against_inline_formula():
    # (gamma + ln 2 - 1) minus the comparison term written out in full
    for n, r in ((20000, 0), (61000, 0), (62236, 0), (62238, 31119), (10 ** 6, 10 ** 6)):
        ln_n = math.log(n)
        a = 2.0 * math.pi ** 2 / ln_n ** 2
        f = f_lower(RogersContext(float(n), 0.1)).value
        lam = 0.875 * 1.2020569031595942854
        g = (
            a * (lam + (8.0 + 8.0 / n) / (ln_n * (1.0 + math.pi ** 2 / ln_n ** 2) ** 2))
            - (r / n) * (math.pi / 2.0 - a * math.pi ** 3 / 32.0)
            - 3.0 * ln_n / n
            + (2.0 - LN2 - 2.0 * math.log(f)) / n
            - 2.0 / (n * (12.0 * n + 1.0))
        )
        gap = main_gap(n, r, 0.1)
        assert abs(gap.value - (GAMMA + LN2 - 1.0 - g)) <= gap.err_estimate


def _main_gap_oracle(n, r, f):
    """The gap in 40-digit mpmath from the exact Poitou constants, with f
    taken as exact."""
    with mpmath.workdps(40):
        x = mpmath.mpf(n)
        ln_n = mpmath.log(x)
        a = 2 * mpmath.pi ** 2 / ln_n ** 2
        lam3 = mpmath.mpf(7) / 8 * mpmath.zeta(3)
        beta3 = mpmath.pi ** 3 / 32
        poitou = (
            mpmath.euler + mpmath.log(8 * mpmath.pi) + (r / x) * (mpmath.pi / 2 - a * beta3)
            - a * (lam3 + (8 + 8 / x) / (ln_n * (1 + mpmath.pi ** 2 / ln_n ** 2) ** 2))
        )
        return (
            poitou - mpmath.log(4 * mpmath.pi) - 1 + 3 * ln_n / x
            - (2 - mpmath.log(2) - 2 * mpmath.log(f)) / x + 2 / (x * (12 * x + 1))
        )


def test_main_gap_within_error_of_oracle():
    # a seeded (n, r) grid over [7700, 1e12] with r = 0, r = n and r drawn
    # in between; r = n is where a flat rounding term fell short
    rng = random.Random(15)
    cases = [(62236, 0), (62238, 62238), (3 * 10 ** 6, 3 * 10 ** 6)]
    for _ in range(200):
        n = round(math.exp(rng.uniform(math.log(7700), math.log(1e12))))
        cases += [(n, 0), (n, n), (n, rng.randrange(n + 1))]
    for n, r in cases:
        gap = main_gap(n, r, 0.1)
        f = f_lower(RogersContext(float(n), 0.1)).value
        error = abs(gap.value - _main_gap_oracle(n, r, f))
        assert error <= gap.err_estimate, (n, r)
        assert _tightness(gap, error) <= _CEILING_GAP, (n, r)


def test_main_gap_monotone_in_n():
    ns = (61000, 62000, 62238, 63000, 10 ** 5)
    vals = [main_gap(n, 0, 0.1).value for n in ns]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert sum(1 for a, b in zip(vals, vals[1:]) if a <= 0.0 < b) == 1


def test_main_gap_r_monotonicity():
    # the r coefficient is nonnegative for n >= 33, so r=0 minimizes the gap
    n = 62238
    g0 = main_gap(n, 0, 0.1).value
    for r in (n // 4, n // 2, n):
        assert main_gap(n, r, 0.1).value >= g0


def test_main_gap_domain():
    with pytest.raises(DomainError):
        main_gap(1000, 0, 0.1)
    with pytest.raises(DomainError):
        main_gap(62238, -1, 0.1)


# --------------------------------------------------------------- crossing

def test_find_crossing_window():
    crossing = find_crossing(0.1, 55000, 70000)
    assert 62138 <= crossing <= 62338
    # smallest such n: the gap flips sign exactly there
    assert main_gap(crossing - 1, 0, 0.1).value <= 0.0 < main_gap(crossing, 0, 0.1).value


@pytest.mark.parametrize(
    "theta, crossing", [(0.1, 62236), (0.108, 62237), (1.0 / 9.0, 62238), (0.116, 62239)]
)
def test_theta_table_rows_and_their_margins(theta, crossing):
    # four rows of the README's crossing-against-theta table; rounding cannot
    # move any of them: the gaps on both sides of each crossing exceed 10^6
    # times their estimates (2.9e6 at theta = 0.1, the smallest)
    assert find_crossing(theta, 55000, 70000) == crossing
    below, at = main_gap(crossing - 1, 0, theta), main_gap(crossing, 0, theta)
    assert below.value <= 0.0 < at.value
    assert abs(below.value) > 1e6 * below.err_estimate
    assert abs(at.value) > 1e6 * at.err_estimate


def test_find_crossing_returns_nmin_when_already_positive():
    assert find_crossing(0.1, 65000, 70000) == 65000


def test_find_crossing_not_found():
    with pytest.raises(NotFoundError):
        find_crossing(0.1, 55000, 60000)


def test_find_crossing_domain():
    with pytest.raises(DomainError):
        find_crossing(0.5, 55000, 70000)
    with pytest.raises(DomainError):
        find_crossing(0.1, 100, 200)
    # gap(n_max) > 0, but f <= 0 at n_min, so the gap is not defined there
    with pytest.raises(DomainError, match="at n=2000;"):
        find_crossing(0.1, 2000, 70000)


def _bisect_crossing(theta, n_min, n_max):
    """The crossing by plain integer bisection on the r = 0 gap."""
    def gap(n):
        return main_gap(n, 0, theta).value

    if gap(n_min) > 0.0:
        return n_min
    lo, hi = n_min, n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_find_crossing_matches_bisection():
    rng = random.Random(11)
    cases = [(rng.uniform(0.05, 0.15), 55000, 70000) for _ in range(50)]
    for theta, n_min, n_max in cases + [(0.1, 65000, 70000)]:
        assert find_crossing(theta, n_min, n_max) == _bisect_crossing(theta, n_min, n_max)


def test_find_crossing_evaluates_each_degree_once(monkeypatch):
    calls = []

    def counted(n, r, theta):
        calls.append(n)
        return main_gap(n, r, theta)

    monkeypatch.setattr(lenstra, "main_gap", counted)
    rng = random.Random(12)
    for theta in [0.1] + [rng.uniform(0.05, 0.15) for _ in range(20)]:
        calls.clear()
        c = find_crossing(theta, 55000, 70000)
        assert len(calls) <= 10
        assert len(set(calls)) == len(calls)
        # the final bracket and every checkpoint were evaluated
        assert {c - 1, c, c + 1, c + 10, 70000} <= set(calls)


def test_find_crossing_checkpoint_catches_a_late_dip(monkeypatch):
    # a gap that turns positive at 62000 but is <= 0 again at 62010: the
    # search brackets 62000, and only the c + 10 checkpoint sees the dip
    def linear(n, r, theta):
        return Evaluation((n - 61999.5) * 1e-6, 0.0, 1)

    def dipped(n, r, theta):
        return Evaluation(-1.0, 0.0, 1) if n == 62010 else linear(n, r, theta)

    monkeypatch.setattr(lenstra, "main_gap", linear)
    assert find_crossing(0.1, 55000, 70000) == 62000
    monkeypatch.setattr(lenstra, "main_gap", dipped)
    with pytest.raises(NotFoundError, match="checkpoint n = 62010"):
        find_crossing(0.1, 55000, 70000)
