"""Foundation numerics against independent oracles: compensated sums,
long direct series with integral tails, and 30-digit mpmath Hurwitz zeta
and digamma."""

import math
import random
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normeuclid import cyclozeta, specfun
from normeuclid.cyclozeta import hurwitz_zeta_array, hurwitz_zeta_ds_array
from normeuclid.specfun import (
    BETA3,
    EULER_GAMMA as GAMMA,
    LAMBDA3,
    ZETA3,
    DomainError,
    Evaluation,
    PoleError,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_ds,
)


# ------------------------------------------------------------------ types

def test_evaluation_rejects_nonfinite():
    with pytest.raises(ValueError):
        Evaluation(math.nan, 0.0, 1)
    with pytest.raises(ValueError):
        Evaluation(1.0, -1e-9, 1)
    with pytest.raises(ValueError):
        Evaluation(math.inf, 0.0, 1)
    # an infinite estimate says "no correct digits"; a NaN one says nothing
    assert Evaluation(1.0, math.inf, 1).err_estimate == math.inf
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="bad error estimate"):
            Evaluation(1.0, bad, 1)
    # a complex value (an L-value of a non-real character) is checked too
    assert Evaluation(1.0 - 2.0j, 0.0, 1).value == 1.0 - 2.0j
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            Evaluation(bad, 0.0, 1)


def test_constants():
    # lambda3 and beta3 are rendered exactly from their definitions
    assert LAMBDA3 == 0.875 * ZETA3
    assert BETA3 == math.pi ** 3 / 32.0
    # zeta3 against the Euler-Maclaurin evaluation
    assert abs(ZETA3 - hurwitz_zeta(3.0, 1.0).value) <= 1e-14
    # odd cubic series oracle for lambda3: direct sum plus integral tail
    k = np.arange(0, 10 ** 6, dtype=np.float64)
    lam = float(np.sum((2 * k + 1) ** -3.0)) + 1.0 / (16.0 * (10 ** 6) ** 2)
    assert abs(LAMBDA3 - lam) <= 1e-12
    # alternating series oracle for beta3 with half-term correction
    terms = (-1.0) ** k * (2 * k + 1) ** -3.0
    bet = float(np.sum(terms)) - 0.5 * float(terms[-1])
    assert abs(BETA3 - bet) <= 1e-12


def _bernoulli(n: int) -> Fraction:
    """B_n exactly, by the Akiyama-Tanigawa algorithm (B_1 = +1/2)."""
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def test_bernoulli_tables_are_the_nearest_floats():
    # one exact table; B_2k and the digamma tail -B_2k/(2k) are each the
    # binary64 number nearest the exact rational, with no double rounding
    for k, (n, d) in enumerate(specfun._BERNOULLI_FRACTIONS, 1):
        b = _bernoulli(2 * k)
        assert Fraction(n, d) == b
        assert specfun._BERNOULLI_2J[k - 1] == float(b)
    assert len(specfun._PSI_TAIL) == 6
    for k, c in enumerate(specfun._PSI_TAIL, 1):
        assert c == float(-_bernoulli(2 * k) / (2 * k))


# --------------------------------------------------------------- digamma

def _digamma_series_oracle(x: float, terms: int = 10 ** 7) -> float:
    """psi(x) = -gamma + sum_{k>=0} (1/(k+1) - 1/(k+x)), direct sum plus
    the Euler-Maclaurin tail (integral + midpoint)."""
    acc = 0.0
    chunk = 10 ** 6
    for lo in range(0, terms, chunk):
        k = np.arange(lo, min(lo + chunk, terms), dtype=np.float64)
        acc += float(np.sum(1.0 / (k + 1.0) - 1.0 / (k + x)))
    tail = math.log((terms + x) / (terms + 1.0))
    mid = 0.5 * (1.0 / (terms + 1.0) - 1.0 / (terms + x))
    return -GAMMA + acc + tail + mid


def test_digamma_anchor_values():
    assert abs(digamma(1.0).value + GAMMA) <= 1e-12
    target = -GAMMA - 2.0 * math.log(2.0)
    assert abs(digamma(0.5).value - target) <= 1e-12
    assert abs(digamma(0.5).value - _digamma_series_oracle(0.5)) <= 1e-12


def test_digamma_negative_argument():
    # recurrence cross-check: psi(-0.05) = psi(0.95) - 1/(-0.05)
    want = _digamma_series_oracle(0.95) + 20.0
    assert abs(digamma(-0.05).value - want) <= 1e-11


@pytest.mark.parametrize("x", [0.1, 0.9, 5.3])
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0).value - digamma(x).value - 1.0 / x) <= 1e-12


def test_digamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            digamma(x)


def test_digamma_non_finite_argument_is_a_domain_error():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            digamma(x)


def test_digamma_next_to_the_pole_at_zero():
    # psi(x) ~ -1/x: below |x| ~ 3e-308 the value or its estimate overflows
    for x in (5e-324, 1e-310, -1e-310, 1e-308):
        with pytest.raises(PoleError, match="pole at 0"):
            digamma(x)
    e = digamma(1e-300)
    assert math.isfinite(e.value) and math.isfinite(e.err_estimate)
    assert e.value == pytest.approx(-1e300, rel=1e-15)


# x in [-20, 200] and (-1, 1) away from the poles, where psi(x) ~ -1/x
# stays finite in binary64 (|x| >= 1e-300), and the eight digamma
# arguments of f_terms(beta) for beta in [1e-4, 1/4)
_BETA = st.floats(min_value=1e-4, max_value=0.25, exclude_max=True)
_F_TERMS_ARGS = _BETA.flatmap(
    lambda b: st.sampled_from([
        (1.0 + b) / 2.0, -b / 2.0, 1.0 + b / 2.0, (1.0 - b) / 2.0,
        (1.0 + b) / (2.0 + 4.0 * b), (1.0 + 3.0 * b) / (2.0 + 4.0 * b),
        (2.0 + 5.0 * b) / (2.0 + 4.0 * b), (2.0 + 3.0 * b) / (2.0 + 4.0 * b),
    ])
)
_DIGAMMA_X = st.one_of(
    st.floats(min_value=-20.0, max_value=200.0),
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    _F_TERMS_ARGS,
).filter(lambda x: abs(x) >= 1e-300 and not (x <= 0.0 and x == math.floor(x)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(x=_DIGAMMA_X)
@example(x=-0.986628514220175)
@example(x=0.01407)
def test_digamma_within_error_of_oracle(x):
    d = digamma(x)
    with mpmath.workdps(30):
        gap = abs(mpmath.mpf(d.value) - mpmath.digamma(x))
    assert gap <= d.err_estimate


# ------------------------------------------------------------------ zeta

def test_riemann_zeta_known_values():
    assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert hurwitz_zeta(4.0, 1.0).value == pytest.approx(math.pi ** 4 / 90.0, abs=1e-14)


def test_riemann_zeta_near_one():
    z = hurwitz_zeta(1.0276, 1.0)
    assert _oracle_gap(z.value, 1.0276, 1.0, False) <= z.err_estimate
    assert z.value == pytest.approx(36.8, abs=0.1)


def test_zeta_pole():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(PoleError):
        hurwitz_zeta(0.5, 0.3)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "fn", [hurwitz_zeta, hurwitz_zeta_ds, hurwitz_zeta_array, hurwitz_zeta_ds_array]
)
def test_nonfinite_s_is_a_domain_error_not_a_pole(fn, s):
    with pytest.raises(DomainError, match="finite s") as exc:
        fn(s, 0.5 if fn in (hurwitz_zeta, hurwitz_zeta_ds) else np.array([0.5]))
    assert not isinstance(exc.value, PoleError)


def test_hurwitz_identities():
    assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert hurwitz_zeta(2.0, 0.5).value == pytest.approx(math.pi ** 2 / 2.0, abs=1e-13)


def test_hurwitz_against_direct_summation():
    s, a = 1.5946, 0.2
    terms = 10 ** 7
    acc = 0.0
    for lo in range(0, terms, 10 ** 6):
        k = np.arange(lo, min(lo + 10 ** 6, terms), dtype=np.float64)
        acc += float(np.sum((k + a) ** -s))
    x = terms + a
    oracle = acc + x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    assert abs(hurwitz_zeta(s, a).value - oracle) <= 1e-10


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, 1.5)


@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 1.0])
def test_hurwitz_cutoff_doubling(s, a):
    # the fixed cutoffs, which no caller can raise, against 30-digit mpmath
    z = hurwitz_zeta(s, a)
    assert _oracle_gap(z.value, s, a, False) <= z.err_estimate
    dz = hurwitz_zeta_ds(s, a)
    assert _oracle_gap(dz.value, s, a, True) <= dz.err_estimate


# ---------------------------------------------- kernel against mpmath

# s in (1, 4]; a in (0, 1] down to 1e-60, below which a^{-s} can leave
# binary64 (a^{-4} overflows for a < 1e-77)
_S = st.floats(min_value=1.0, max_value=4.0, exclude_min=True)
_A = st.floats(min_value=1e-60, max_value=1.0)


def _oracle_gap(value, s, a, derivative):
    """|value - zeta(s, a)| (or its s-derivative) in 30-digit mpmath."""
    with mpmath.workdps(30):
        exact = mpmath.zeta(s, a, 1) if derivative else mpmath.zeta(s, a)
        return abs(mpmath.mpf(float(value)) - exact)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(s=_S, a=_A)
def test_hurwitz_within_error_of_oracle(s, a):
    z = hurwitz_zeta(s, a)
    assert _oracle_gap(z.value, s, a, False) <= z.err_estimate


@settings(derandomize=True, max_examples=300, deadline=None)
@given(s=_S, a=_A)
def test_hurwitz_ds_within_error_of_oracle(s, a):
    z = hurwitz_zeta_ds(s, a)
    assert _oracle_gap(z.value, s, a, True) <= z.err_estimate


@pytest.mark.parametrize(
    "kernel,derivative", [(hurwitz_zeta_array, False), (hurwitz_zeta_ds_array, True)]
)
def test_array_kernel_within_error_of_oracle(kernel, derivative):
    # one call over a = k/1009, k = 1..1009: the arguments of a cyclo-large prime
    s, a = 1.05, np.arange(1, 1010) / 1009
    values, errs, terms = kernel(s, a)
    assert values.shape == errs.shape == a.shape and terms == 30
    gaps = [_oracle_gap(v, s, x, derivative) for v, x in zip(values, a)]
    assert all(g <= e for g, e in zip(gaps, errs))


def test_scalar_kernel_is_a_one_element_array_call():
    for s, a in ((1.01, 0.3), (2.5, 1.0), (3.9, 1e-3)):
        for scalar, array in (
            (hurwitz_zeta, hurwitz_zeta_array),
            (hurwitz_zeta_ds, hurwitz_zeta_ds_array),
        ):
            z = scalar(s, a)
            v, e, n = array(s, np.array([a]))
            assert (z.value, z.err_estimate, z.terms_used) == (v[0], e[0], n)


@pytest.mark.parametrize("s", [1.5, 30.0, 1e5])
def test_one_block_shape_for_every_s(s):
    # N = 20 direct terms and J = 10 Bernoulli pairs, whatever s is
    assert (cyclozeta._EM_N, cyclozeta._EM_J) == (20, 10)
    assert cyclozeta._EM_K.shape == (20, 1) and cyclozeta._EM_POWERS.shape == (11, 1)
    assert cyclozeta._EM_OFFSETS.shape == (21,)
    for kernel in (hurwitz_zeta_array, hurwitz_zeta_ds_array):
        assert kernel(s, np.array([1.0]))[2] == 30


def test_first_omitted_term_is_below_the_documented_bound():
    # the cutoff claim of the cyclozeta docstring and the README: at N = 20
    # and J = 10 the first omitted term |B_22/22!| (s)_21 (N + a)^{-s-21},
    # and its s-derivative, that term times |harm| + ln(N + a) with harm the
    # sum of 1/(s + t), t = 0..20, stay below 1e-25 for s in (1, 10^3] and
    # below 1e-30 from s = 10 on; scanned over a log grid in s
    n, j = cyclozeta._EM_N, cyclozeta._EM_J
    peak = d_peak = 0.0
    with mpmath.workdps(30):
        numer, denom = specfun._BERNOULLI_FRACTIONS[j]
        coef = abs(mpmath.mpf(numer) / denom) / mpmath.factorial(2 * j + 2)
        grid = [1 + mpmath.mpf(10) ** -k for k in range(3, 10)]
        for s in grid + [mpmath.mpf(10) ** (mpmath.mpf(k) / 300) for k in range(1, 901)]:
            harm = sum(1 / (s + t) for t in range(2 * j + 1))
            for a in (mpmath.mpf("1e-9"), mpmath.mpf("0.5"), mpmath.mpf(1)):
                x = n + a
                term = coef * mpmath.rf(s, 2 * j + 1) * x ** (-s - 2 * j - 1)
                d_term = term * (abs(harm) + mpmath.log(x))
                bound = 1e-30 if s >= 10 else 1e-25
                assert term < bound and d_term < bound, (s, a)
                peak, d_peak = max(peak, term), max(d_peak, d_term)
    # the grid reaches the peaks near s = 1.5, not only the tails
    assert 1e-27 < peak < 1e-26 and 1e-26 < d_peak < 1e-25


def _standalone_ds_array(s, a):
    """The s-derivative kernel as it stood on its own block, before it
    shared one with zeta, built here from the Bernoulli table alone: the
    reference the kernel's derivative half must equal bit for bit."""
    n, j = 20, 10
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.arange(n - 1, -1, -1, dtype=np.float64)[:, None] + a
        x = n + a
        t = s + np.arange(2.0 * j + 1.0)
        coef = np.array(specfun._BERNOULLI_OVER_FACTORIAL) * t.cumprod()[::2]
        xp = x ** (-s - 1.0) * (x * x) ** -np.arange(j + 1.0)[:, None]
        bern = np.where(xp > 0.0, coef[:, None] * xp, 0.0)
        harm = (1.0 / t).cumsum()[::2]
        terms = -np.log(base) * base ** -s
        lx = np.log(x)
        xt = x ** (1.0 - s)
        tail = -xt * (lx / (s - 1.0) + 1.0 / ((s - 1.0) * (s - 1.0)))
        mid = -0.5 * lx * xt / x
        rest = tail + mid + (bern[:-1] * (harm[:-1, None] - lx)).sum(axis=0)
        omitted = np.abs(bern[-1]) * (abs(harm[-1]) + lx)
        value = terms.sum(axis=0) + rest
        rounding = (n + 2) * np.abs(terms).sum(axis=0) + 5.0 * np.abs(rest) + np.abs(value)
        return value, omitted + specfun._U * rounding, n + j


def _seeded_kernel_grid():
    """(s, a) points: s near 1, moderate and large, a down to 1e-6 and the
    unit points of a scan-sized modulus."""
    rng = random.Random(3203)

    def points(low):
        return np.array([rng.uniform(low, 1.0) for _ in range(40)])

    grid = [(1.0 + 10.0 ** rng.uniform(-4.0, 0.0), points(1e-6)) for _ in range(12)]
    grid += [(rng.uniform(2.0, 60.0), points(0.05)) for _ in range(6)]
    return grid + [(1.05, np.arange(1, 1010) / 1009), (1.5, np.arange(1, 301) / 301)]


def test_pair_kernel_halves_are_the_single_kernels_bit_for_bit():
    # one block serves both halves: zeta as hurwitz_zeta_array gives it, and
    # the derivative as its own block gave it, every byte of every array
    for s, a in _seeded_kernel_grid():
        zeta, ds = cyclozeta._hurwitz(s, a, True)
        for got, want in ((zeta, hurwitz_zeta_array(s, a)), (ds, _standalone_ds_array(s, a))):
            assert got[0].tobytes() == want[0].tobytes(), s
            assert got[1].tobytes() == want[1].tobytes(), s
            assert got[2] == want[2] == 30
        assert hurwitz_zeta_ds_array(s, a)[0].tobytes() == ds[0].tobytes()


# s in (10, 240] with s ln(1/a) < 700, so that a^{-s} and its
# s-derivative stay inside binary64
_S_A_HIGH = st.floats(min_value=10.0, max_value=240.0, exclude_min=True).flatmap(
    lambda s: st.tuples(st.just(s), st.floats(min_value=math.exp(-700.0 / s), max_value=1.0))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sa=_S_A_HIGH)
@example(sa=(10.0000001, 1.0))
@example(sa=(240.0, 1.0))
def test_kernels_within_error_of_oracle_at_large_s(sa):
    s, a = sa
    z = hurwitz_zeta(s, a)
    assert _oracle_gap(z.value, s, a, False) <= z.err_estimate
    dz = hurwitz_zeta_ds(s, a)
    assert _oracle_gap(dz.value, s, a, True) <= dz.err_estimate


@pytest.mark.parametrize("s,a", [(240.0, 0.05), (400.0, 1.0 / 7.0), (1e15, 0.5)])
@pytest.mark.parametrize("fn", [hurwitz_zeta, hurwitz_zeta_ds])
def test_beyond_binary64_is_a_domain_error_naming_s(fn, s, a):
    # no overflow warning first: the kernel's own check reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"s={s}")):
            fn(s, a)


@pytest.mark.parametrize("s", [1e15, 1e308])
@pytest.mark.parametrize(
    "fn,want", [(hurwitz_zeta, 1.0), (hurwitz_zeta_ds, 0.0)], ids=["hurwitz_zeta", "hurwitz_zeta_ds"]
)
def test_huge_s_at_a_one_is_the_first_term(fn, want, s):
    # zeta(s, 1) = 1 + 2^{-s} + ... and its s-derivative -ln 2 2^{-s} - ...
    # round to their first terms, although s(s+1)...(s+2J) overflows in the
    # Bernoulli corrections
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = fn(s, 1.0)
    assert abs(z.value - want) <= z.err_estimate < 1e-14


def test_array_kernel_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta_array(1.0, np.array([0.5]))
    for bad in ([0.5, 0.0], [1.5], [math.nan], [[0.5]]):
        with pytest.raises(DomainError):
            hurwitz_zeta_ds_array(2.0, np.array(bad))


# ----------------------------------------------------------- zeta prime

def test_hurwitz_ds_at_two():
    # zeta'(2) via the log-weighted series with integral tail
    terms = 10 ** 7
    acc = 0.0
    for lo in range(1, terms, 10 ** 6):
        k = np.arange(lo, min(lo + 10 ** 6, terms), dtype=np.float64)
        acc += float(np.sum(np.log(k) / k ** 2))
    tail = (math.log(terms) + 1.0) / terms + 0.5 * math.log(terms) / terms ** 2
    oracle = -(acc + tail)
    got = hurwitz_zeta_ds(2.0, 1.0).value
    assert abs(got - oracle) <= 1e-10
    assert got == pytest.approx(-0.93754825431584375, abs=1e-13)


def test_hurwitz_ds_halves_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)  =>  d/ds at s=2
    zeta2 = hurwitz_zeta(2.0, 1.0).value
    want = math.log(2.0) * 4.0 * zeta2 + 3.0 * hurwitz_zeta_ds(2.0, 1.0).value
    assert hurwitz_zeta_ds(2.0, 0.5).value == pytest.approx(want, abs=1e-12)


def test_hurwitz_ds_self_consistency():
    h = 1e-6
    fd = (hurwitz_zeta(3.0 + h, 1.0).value - hurwitz_zeta(3.0 - h, 1.0).value) / (2.0 * h)
    assert abs(hurwitz_zeta_ds(3.0, 1.0).value - fd) <= 1e-7


def test_hurwitz_ds_finite_differences_random():
    # the difference quotient itself carries rounding noise ~ |zeta| eps/h,
    # so the agreement tolerance scales with the value magnitude
    rng = random.Random(20240817)
    h = 1e-6
    for _ in range(12):
        s = 1.1 + 3.9 * rng.random()
        a = 0.05 + 0.95 * rng.random()
        fd = (hurwitz_zeta(s + h, a).value - hurwitz_zeta(s - h, a).value) / (2.0 * h)
        tol = 1e-7 * max(1.0, hurwitz_zeta(s, a).value)
        assert abs(hurwitz_zeta_ds(s, a).value - fd) <= tol
