"""Digamma series values, their beta -> 0 limits, an mpmath oracle for
the series, and the two inequality theorems."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import polygamma

from normeuclid import zimmert
from normeuclid.specfun import (
    EULER_GAMMA as GAMMA,
    ZETA_THRESHOLD,
    DomainError,
    digamma,
)
from normeuclid.zimmert import _polygammas, _series, f_terms, min_norm_check, satz4_check

LN2 = math.log(2.0)
LIMIT_1 = GAMMA + math.log(4.0) + 1.0  # F1 + f1 at beta -> 0
LIMIT_2 = GAMMA + math.log(4.0) - 1.0  # F2 + f2 at beta -> 0


# ---------------------------------------------------------------- values

def test_limits_at_smallest_beta():
    t = f_terms(1e-4)
    assert abs(t.f1_series + t.f1_point - LIMIT_1) <= 1e-3
    assert abs(t.f2_series + t.f2_point - LIMIT_2) <= 1e-3
    assert LIMIT_1 == pytest.approx(2.96354, abs=1e-3)
    assert LIMIT_2 == pytest.approx(0.96354, abs=1e-3)


@pytest.mark.parametrize("beta", [1e-4, 1e-3, 1e-2])
def test_limit_recovery_slope(beta):
    # deviation from the limit is O(beta) with slope well under 5
    t = f_terms(beta)
    assert abs(t.f1_series + t.f1_point - LIMIT_1) <= 5.0 * beta
    assert abs(t.f2_series + t.f2_point - LIMIT_2) <= 5.0 * beta


def test_f3_pole_and_direct_expression():
    t = f_terms(0.1)
    assert t.f3 == pytest.approx(-40.0, abs=10.0)
    # direct recomputation of the printed digamma expression
    beta = 0.1
    d = 2.0 + 4.0 * beta
    w = 2.0 / (1.0 + 2.0 * beta)
    want = -4.0 / beta + w * (
        digamma((1.0 + beta) / d).value
        - digamma((1.0 + 3.0 * beta) / d).value
        + digamma((2.0 + 5.0 * beta) / d).value
        - digamma((2.0 + 3.0 * beta) / d).value
    )
    assert t.f3 == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("beta", [1e-4, 1e-2, 0.1, 0.2, 0.245])
def test_f3_pole_structure(beta):
    t = f_terms(beta)
    assert abs(t.f3 + 4.0 / beta) <= 10.0
    for v in (t.f1_series, t.f1_point, t.f2_series, t.f2_point, t.f3):
        assert math.isfinite(v)


def test_domain_cutoffs():
    with pytest.raises(DomainError):
        f_terms(5e-5)
    with pytest.raises(DomainError):
        f_terms(0.25)
    with pytest.raises(DomainError):
        f_terms(0.3)


def _series_oracle(beta, shift, head=400, pairs=8):
    """The series at 40 digits: a direct sum for l < head, then the
    Euler-Maclaurin tail at l = head with the integral from loggamma and
    `pairs` Bernoulli corrections from polygammas.  (mpmath.nsum is off by
    ~1e-7 on these series, so it is not used.)"""
    with mp.workdps(40):
        b = mp.mpf(beta)
        d = 2 + 4 * b
        w = 2 / (1 + 2 * b)
        half = mp.mpf(1) / 2
        offsets = (-2 + shift - b, -1 + shift + b)  # harmonic terms 1/(2l + c)

        def x(l):
            return (2 * l - 1 + shift + b) / d

        def term(l):
            return w * (mp.digamma(x(l) + half) - mp.digamma(x(l))) - sum(
                1 / (2 * l + c) for c in offsets
            )

        n = head
        xn = x(n)
        integral = -mp.log(d) - (
            2 * (mp.loggamma(xn + half) - mp.loggamma(xn))
            - mp.log((2 * n + offsets[0]) * (2 * n + offsets[1])) / 2
        )
        total = mp.fsum(term(l) for l in range(1, n)) + integral + term(n) / 2
        for k in range(1, pairs + 1):
            j = 2 * k - 1
            deriv = w * (2 / d) ** j * (mp.polygamma(j, xn + half) - mp.polygamma(j, xn))
            deriv += mp.factorial(j) * sum(2 ** j / (2 * n + c) ** (j + 1) for c in offsets)
            total -= mp.bernoulli(2 * k) / mp.factorial(2 * k) * deriv
        return total


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("beta", [1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.245])
def test_series_within_error_of_oracle(beta, shift):
    # row 0 of the block is the F1 series, row 1 the F2 series
    value, err, terms = _series(beta)[shift]
    assert err <= 1e-10
    assert abs(value - _series_oracle(beta, shift)) <= err
    assert terms == zimmert._HEAD_TERMS


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("beta", [1e-2, 0.1, 0.2, 0.245])
def test_series_error_estimate_is_tight(beta, shift):
    # away from the 1/beta term the estimate is counted rounding, not a
    # flat charge per digamma call
    assert _series(beta)[shift][1] <= 1e-13


@pytest.mark.parametrize("x", [43.0, 43.08, 75.0, 120.0, 200.0])
def test_polygamma_series_against_scipy(x):
    # the tail corrections need psi^(j) only at x_N >= 43.08 and x_N + 1/2
    j = zimmert._EM_ORDERS
    assert np.allclose(_polygammas(x), polygamma(j, x), rtol=1e-15, atol=0.0)
    got = 4.0 * (_polygammas(x + 0.5) - _polygammas(x))
    want = 4.0 * (polygamma(j, x + 0.5) - polygamma(j, x))
    assert np.allclose(got, want, rtol=2e-13, atol=0.0)


def test_series_error_estimate_small_on_the_whole_domain():
    # f_terms reports the larger estimate with no accuracy check of its
    # own: over [1e-4, 1/4) the estimate peaks at 5.6e-12, at beta = 1e-4
    betas = np.geomspace(zimmert.BETA_MIN, zimmert.BETA_MAX, 200, endpoint=False).tolist()
    for beta in betas + [zimmert.BETA_MIN, math.nextafter(zimmert.BETA_MAX, 0.0)]:
        for shift, (_, err, _) in enumerate(_series(beta)):
            assert err <= 1e-11, (beta, shift)


# ------------------------------------------------------------------ f_ab

def test_f_ab_linearity():
    t = f_terms(0.1)
    assert t.f_ab(0, 0) == t.f3
    direct = 2.0 * (t.f1_series + t.f1_point) + 3.0 * (t.f2_series + t.f2_point) + t.f3
    assert t.f_ab(2, 3) == pytest.approx(direct, abs=1e-12)


def test_f_ab_near_limit():
    t = f_terms(1e-4)
    assert t.f_ab(1, 0) == pytest.approx(2.96354 + t.f3, abs=2e-3)


def test_f_ab_domain():
    t = f_terms(0.1)
    for a, b in ((-1, 0), (0, -1), (-1, -3)):
        with pytest.raises(DomainError):
            t.f_ab(a, b)


# ------------------------------------------------------------- theorems

@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("m", [1, 5, 7, 8, 12, 16])
def test_series_inequality_holds(m, beta):
    lhs, rhs, holds = satz4_check(m, beta)
    assert holds, f"series bound violated at m={m}, beta={beta}: {lhs} > {rhs}"


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("m", [1, 5, 7, 8, 12, 16])
def test_min_norm_inequality_holds(m, beta):
    lhs, rhs, holds = min_norm_check(m, beta)
    assert holds, f"min-norm bound violated at m={m}, beta={beta}: {lhs} > {rhs}"


def test_check_outputs_are_consistent():
    from normeuclid.cyclozeta import zeta_cyclotomic

    lhs, rhs, holds = satz4_check(5, 0.1)
    assert holds == (lhs <= rhs)
    lhs2, rhs2, holds2 = min_norm_check(8, 0.1)
    assert holds2 == (lhs2 <= rhs2)
    assert lhs2 == pytest.approx(
        math.log(2.0) * (1.0 - 1.0 / zeta_cyclotomic(8, 1.1).value),
        abs=1e-9,
    )


def test_both_theorems_read_one_field_side():
    # min_norm_check's right side is -F/2 from satz4_check's left side plus
    # the same ln sqrt|Delta| and (n/2) ln pi, in that order, bit for bit
    from normeuclid.cyclozeta import cyclo_disc_log, cyclo_signature

    for beta in (1e-4, 0.05, 0.1, 0.2):
        for m in range(1, 61):
            r, s = cyclo_signature(m)
            want = ((-satz4_check(m, beta)[0] + 0.5 * cyclo_disc_log(m))
                    - 0.5 * (r + 2 * s) * math.log(math.pi))
            assert min_norm_check(m, beta)[1] == want, (m, beta)


def test_min_norm_check_reports_zeta_first():
    # with both m and beta out of range, the zeta call's check on s = 1 + beta
    # raises before the field side is read
    with pytest.raises(DomainError, match=r"^need s > 1, got 1\.0$"):
        min_norm_check(0, 0.0)


# ------------------------------------------------------------ thresholds

def test_threshold_rogers_exponent():
    # 2 ln 2/(3 ln 2 + gamma - 1 - 2C) at Rogers' C = (ln 2)/2, which is
    # 2 ln 2/(2 ln 2 + gamma - 1); the constant keeps the first form's rounding
    assert ZETA_THRESHOLD == 1.4387959893310616
    general = 2.0 * LN2 / (3.0 * LN2 + GAMMA - 1.0 - 2.0 * (0.5 * LN2))
    assert ZETA_THRESHOLD == pytest.approx(general, abs=1e-15)
    assert ZETA_THRESHOLD == pytest.approx(2.0 * LN2 / (2.0 * LN2 + GAMMA - 1.0), abs=1e-15)
    assert ZETA_THRESHOLD == pytest.approx(1.43879, abs=1e-5)


@pytest.mark.parametrize("m", [1, 7, 12, 30])
def test_satz4_then_min_norm_builds_one_kernel_block(monkeypatch, m):
    # satz4_check's log-derivative takes zeta(s, a/m) and its derivative
    # from one Euler-Maclaurin block and leaves zeta_K at (m, 1 + beta),
    # where min_norm_check reads it
    from normeuclid import cyclozeta

    real, blocks = cyclozeta._hurwitz, []

    def hurwitz(s, a, derivative):
        blocks.append(s)
        return real(s, a, derivative)

    monkeypatch.setattr(cyclozeta, "_hurwitz", hurwitz)
    assert satz4_check(m, 0.1)[2] and min_norm_check(m, 0.1)[2]
    assert blocks == [1.1]
