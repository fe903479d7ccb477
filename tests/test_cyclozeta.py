"""Character machinery and the two zeta evaluation routes.

Independent oracles: brute-force gcd counting for the totient, enumeration
for unit groups, alternating/direct Dirichlet series for L-values, the
finite Euler-factor identity tying imprimitive to primitive L-functions,
the conductor route against the group transform, and an mpmath group
determinant for the zeta values and their log-derivative.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import exp1

from normeuclid.cyclozeta import (
    _EXP_UNDERFLOW,
    ScanRow,
    UnitGroupStructure,
    _char_table,
    _factorize,
    _order_table,
    _prime_sum_tail,
    _prime_tail_integral,
    _ramified,
    _ramified_degrees,
    _rotation_indices,
    _transform,
    _unit_points,
    characters,
    cyclo_disc_log,
    cyclo_signature,
    dirichlet_l,
    euler_phi,
    hurwitz_zeta_array,
    min_proper_ideal_norm,
    scan,
    scan_row,
    unit_group,
    zeta_cyclotomic,
    zeta_cyclotomic_logderiv,
)
from normeuclid.specfun import _U, DomainError, Evaluation, hurwitz_zeta

CATALAN = 0.91596559417721901505460351493238411


# ----------------------------------------------------------------- phi

def test_euler_phi_anchors():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(350) == sum(1 for k in range(1, 351) if math.gcd(k, 350) == 1)


def test_euler_phi_brute_force_small():
    for m in range(1, 80):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# ------------------------------------------------------------ unit group

def test_unit_group_anchors():
    g8 = unit_group(8)
    assert sorted(o for _, o in g8.generators) == [2, 2]
    g5 = unit_group(5)
    assert [(r, o) for r, o in g5.generators] == [(2, 4)]
    g1 = unit_group(1)
    assert g1.generators == () and g1.units.tolist() == [0] and g1.orders == ()


@pytest.mark.parametrize(
    "m",
    # 2^11 and 2^9 7: a long <5> run of 2^k after <-1>, then a second factor
    list(range(1, 61)) + sorted(random.Random(21).sample(range(61, 10 ** 4), 12)) + [2 ** 11, 3584],
)
def test_unit_group_invariants(m):
    g = unit_group(m)
    prod = 1
    for _, o in g.generators:
        prod *= o
    assert prod == euler_phi(m)
    coprime = {r % m for r in range(m) if math.gcd(r, m) == 1} or {0}
    assert set(g.units.tolist()) == coprime and len(g.units) == len(coprime)
    # the units run through the exponent grid in C order: re-exponentiating
    # each vector reproduces the residue
    for r, vec in zip(g.units.tolist(), np.ndindex(*g.orders)):
        x = 1 % m
        for (gen, _), e in zip(g.generators, vec):
            x = x * pow(gen, e, m) % m
        assert x == r


@pytest.mark.parametrize("m", [1, 2, 8, 12, 35, 1009, 3000])
def test_unit_group_arrays_are_int64_grid(m):
    g = unit_group(m)
    assert g.units.dtype == np.int64 and g.units.shape == (euler_phi(m),)
    assert not g.units.flags.writeable
    assert g.orders == tuple(o for _, o in g.generators)


def test_unit_group_keeps_only_what_the_transform_reads():
    # per-unit tables are outer products over the generator axes, so the
    # group keeps no discrete-log grid and no derived members
    assert UnitGroupStructure._fields == ("generators", "units", "orders")
    g = unit_group(360)
    assert not hasattr(g, "__dict__") and len(g) == len(UnitGroupStructure._fields)


# ------------------------------------------------------------ characters

def test_characters_m1():
    chars = characters(1)
    assert len(chars) == 1
    assert chars[0].conductor == 1
    table = _char_table(chars[0], 1)
    for a in (1, 2, 17):
        assert table[a % 1] == 1


def test_characters_m4():
    chars = characters(4)
    assert len(chars) == 2
    nontrivial = next(c for c in chars if c.exponents != (0,) * len(c.exponents))
    table = _char_table(nontrivial, 4)
    assert table[3] == pytest.approx(-1.0, abs=1e-15)
    assert table[2] == 0j
    assert nontrivial.conductor == 4


def test_characters_mod8_conductors():
    conductors = sorted(c.conductor for c in characters(8))
    assert conductors == [1, 4, 8, 8]


def _conductors_by_kernel_scan(m):
    """Conductors of the characters mod m in exponent-grid order, by the
    definition: the least divisor d of m such that chi is trivial on the
    units = 1 mod d (the rotation index at each such unit's position is 0)."""
    units = unit_group(m).units
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    kernels = {d: units % d == 1 % d for d in divisors}
    conductors = []
    for chi in characters(m):
        rotation = _rotation_indices(chi)[1]
        conductors.append(next(d for d in divisors if not rotation[kernels[d]].any()))
    return conductors


def test_closed_form_conductors_match_kernel_scan():
    for m in range(1, 401):
        chars = characters(m)
        assert [c.exponents for c in chars] == list(np.ndindex(*unit_group(m).orders))
        assert [c.conductor for c in chars] == _conductors_by_kernel_scan(m), m


def _primitive_count(d):
    """Number of primitive characters mod d: prod over p^k || d of
    phi(p^k) - phi(p^{k-1})."""
    out, p = 1, 2
    while d > 1:
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        if k:
            out *= p ** (k - 1) * (p - 1) - (p ** (k - 2) * (p - 1) if k >= 2 else 1)
        p += 1
    return out


def test_conductor_sum_matches_multiplicative_formula():
    # each character mod m is induced by exactly one primitive character
    # mod a divisor d of m, whose conductor is d
    for m in range(1, 2001):
        want = sum(d * _primitive_count(d) for d in range(1, m + 1) if m % d == 0)
        assert sum(c.conductor for c in characters(m)) == want, m


def test_character_count_and_orthogonality_over_a():
    for chi in characters(8):
        table = _char_table(chi, 8)
        total = sum(table[a % 8] for a in range(1, 9))
        if chi.exponents == (0, 0):
            assert total == pytest.approx(euler_phi(8))
        else:
            assert abs(total) <= 1e-12


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_character_orthogonality_over_chi(m):
    chars = characters(m)
    assert len(chars) == euler_phi(m)
    tables = [_char_table(c, m) for c in chars]
    for a in range(1, m + 1):
        total = sum(table[a % m] for table in tables)
        want = euler_phi(m) if a % m == 1 % m and math.gcd(a, m) == 1 else 0.0
        assert abs(total - want) <= 1e-10


def test_character_multiplicativity_samples():
    for m in (5, 8, 12, 35):
        for chi in characters(m):
            table = _char_table(chi, m)
            for a in range(1, m):
                for b in range(1, m):
                    if math.gcd(a, m) == 1 and math.gcd(b, m) == 1:
                        lhs = table[a * b % m]
                        rhs = table[a] * table[b]
                        assert abs(lhs - rhs) <= 1e-12


def test_char_rotation_exact():
    chars = characters(5)
    orders = {c.exponents for c in chars}
    assert len(orders) == 4
    quartic = next(c for c in chars if c.exponents == (1,))
    big_l, rotation = _rotation_indices(quartic)
    turn = Fraction(int(rotation[unit_group(5).units.tolist().index(2)]), big_l)
    assert turn == Fraction(1, 4)  # 2 generates (Z/5)*
    assert _char_table(quartic, 5)[5 % 5] == 0


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_conjugate_character(m):
    chars = characters(m)
    group = unit_group(m)
    by_exponents = {c.exponents: c for c in chars}

    def conjugate(chi):
        # the character with exponents -e mod o
        return by_exponents[tuple(-e % o for e, o in zip(chi.exponents, group.orders))]

    for chi in chars:
        conj = conjugate(chi)
        assert conj.conductor == chi.conductor
        big_l, rot = _rotation_indices(chi)
        assert np.array_equal(_rotation_indices(conj)[1], -rot % big_l)
        table, conj_table = _char_table(chi, m), _char_table(conj, m)
        assert np.array_equal(conj_table == 0, table == 0)
        # each table's angles 2 pi k/L round to within about 2e-15
        assert np.abs(np.conj(table) - conj_table).max() <= 1e-14
        assert conjugate(conj) == chi


@pytest.mark.parametrize("m", list(range(2, 61)))
def test_conductor_euler_factor_identity(m):
    # L_m(s, chi) = L(s, chi*) * prod_{p | m, p coprime to cond} (1 - chi*(p) p^{-s})
    s = 2.0
    primes_of_m = sorted({p for p in range(2, m + 1) if m % p == 0 and all(
        p % q for q in range(2, int(math.isqrt(p)) + 1))})
    for chi in characters(m):
        imprim = dirichlet_l(s, chi, primitive=False).value
        prim = dirichlet_l(s, chi, primitive=True).value
        factor = 1.0 + 0j
        for p in primes_of_m:
            if chi.conductor % p != 0:
                _, chi_p = _primitive_value(chi, p)
                factor *= 1.0 - chi_p * p ** -s
        assert abs(imprim - prim * factor) <= 1e-10


def _primitive_value(chi, a):
    """Value of the inducing primitive character at a (helper mirroring the
    lifting definition)."""
    d = chi.conductor
    if math.gcd(a, d) != 1:
        return a, 0j
    b = a
    while math.gcd(b, chi.modulus) != 1:
        b += d
    return b, _char_table(chi, chi.modulus)[b % chi.modulus]


# ------------------------------------------------------------- L-values

def test_l_trivial_is_zeta():
    chars = characters(1)
    assert dirichlet_l(2.0, chars[0]).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)


def test_l_catalan():
    chi = next(c for c in characters(4) if c.exponents != (0,))
    lv = dirichlet_l(2.0, chi)
    got = lv.value
    assert abs(got.imag) <= 1e-15
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(got.real) - mpmath.catalan) <= lv.err_estimate
    assert got.real == pytest.approx(CATALAN, abs=1e-12)


def test_l_near_one_finite_and_matches_series():
    # the quartic character mod 5 at s = 1.01 against the 30-digit series
    # 5^{-s} sum_a chi(a) zeta(s, a/5) with the exact chi(1..4) = 1, i, -i, -1
    s = 1.01
    chi = next(c for c in characters(5) if c.exponents == (1,))
    big_l, rotation = _rotation_indices(chi)
    units = unit_group(5).units.tolist()
    quarter_turns = [4 * Fraction(int(rotation[units.index(a)]), big_l) for a in range(1, 5)]
    assert quarter_turns == [0, 1, 3, 2]
    lv = dirichlet_l(s, chi)
    assert isinstance(lv, Evaluation)
    got = lv.value
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    with mpmath.workdps(30):
        s_mp = mpmath.mpf(s)
        oracle = mpmath.power(5, -s_mp) * mpmath.fsum(
            c * mpmath.zeta(s_mp, mpmath.mpf(a) / 5)
            for a, c in zip(range(1, 5), (1, 1j, -1j, -1))
        )
        assert abs(mpmath.mpc(got) - oracle) <= lv.err_estimate


def test_l_domain():
    chi = characters(4)[1]
    for s in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            dirichlet_l(s, chi)


# ------------------------------------------------------------ zeta values

def test_zeta_cyclotomic_rationals():
    assert zeta_cyclotomic(1, 2.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert zeta_cyclotomic(2, 2.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)


def test_zeta_cyclotomic_gaussian():
    got = zeta_cyclotomic(4, 2.0).value
    assert got == pytest.approx((math.pi ** 2 / 6.0) * CATALAN, abs=1e-9)


def test_zeta_methods_agree_within_reported_error():
    for m in (1, 12, 60):
        for s in (1.1, 1.5, 2.0):
            h = zeta_cyclotomic(m, s, "hurwitz")
            e = zeta_cyclotomic(m, s, "euler", prime_limit=2 * 10 ** 5)
            assert abs(h.value - e.value) <= h.err_estimate + e.err_estimate


def test_zeta_euler_improves_with_prime_limit():
    h = zeta_cyclotomic(12, 1.5, "hurwitz").value
    d1 = abs(zeta_cyclotomic(12, 1.5, "euler", prime_limit=10 ** 5).value - h)
    d2 = abs(zeta_cyclotomic(12, 1.5, "euler", prime_limit=10 ** 6).value - h)
    assert d2 < d1


def test_zeta_euler_estimate_is_inf_once_the_tail_bound_leaves_binary64():
    # at m = 1009, s = 1.01 the log of the omitted factors is bounded only
    # by E >> 709, where e^E - 1 overflows: no correct digits, said as inf
    z = zeta_cyclotomic(1009, 1.01, "euler")
    assert z.err_estimate == math.inf and z.value > 1.0


def test_zeta_euler_rejects_a_prime_limit_the_cli_rejects():
    # the one check of --prime-limit, for either method: below 1000, or
    # above 10^8, where the sieve alone would take over 50 MB
    for method in ("hurwitz", "euler"):
        for limit, message in ((999, ">= 1000"), (10 ** 8 + 1, "<= 100000000"),
                               (10 ** 10, "<= 100000000")):
            with pytest.raises(DomainError, match=message):
                zeta_cyclotomic(12, 1.5, method, prime_limit=limit)
        assert zeta_cyclotomic(12, 1.5, method, prime_limit=1000).value > 1.0


@pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 3.0])
def test_prime_tail_brackets_e1(s):
    # Abramowitz-Stegun 5.1.20: (1/2) e^-x ln(1 + 2/x) < E1(x) < e^-x ln(1 + 1/x)
    for limit in (10 ** 3, 10 ** 4, 10 ** 6):
        x = (s - 1.0) * math.log(limit)
        lower = 0.5 * math.exp(-x) * math.log1p(2.0 / x)
        tail = _prime_tail_integral(s, limit)
        assert lower < exp1(x) <= tail
    assert tail <= 1.21 * exp1(x)


def _plain_primes(limit):
    """Every prime <= limit, from a sieve over all integers."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def test_prime_sum_tail_bounds_the_primes_up_to_1e7():
    primes = _plain_primes(10 ** 7).astype(np.float64)
    for limit in (10 ** 3, 10 ** 4):
        above = primes[primes > limit]
        for s in (1.5, 2.0, 3.0):
            assert _prime_sum_tail(s, limit) >= float(np.sum(above ** -s)), (limit, s)


# prime limits where pi = _BLOCK, _BLOCK + 1 and 2 _BLOCK
_BLOCK_EDGES = (84_017, 84_047, 180_503)


def test_odd_sieve_matches_a_plain_sieve():
    from normeuclid import cyclozeta

    sieve = cyclozeta._primes_up_to.__wrapped__  # leaves the shared entry alone
    limits = [*range(2, 201), *range(1000, 1101), *_BLOCK_EDGES, 999_983, 10 ** 6, 10 ** 6 + 1]
    for limit in limits:
        primes, log_p = sieve(limit)
        want = _plain_primes(limit)
        assert primes.dtype == np.int64 and np.array_equal(primes, want), limit
        assert np.array_equal(log_p, np.log(want.astype(np.float64))), limit
        assert not primes.flags.writeable and not log_p.flags.writeable
    assert len(sieve(10 ** 6)[0]) == 78_498
    # one full block, one prime into the second, two full blocks
    block = cyclozeta._BLOCK
    assert [len(sieve(limit)[0]) for limit in _BLOCK_EDGES] == [block, block + 1, 2 * block]


def _euler_unfiltered(m, s, primes):
    """The Euler product as one pass over every prime <= P, none skipped:
    value, terms counted, and y = (f s) ln p and x = e^{-y} per unramified p."""
    phi = euler_phi(m)
    fv = _order_table(m)[primes % m]
    mask = fv > 0
    f_arr = fv[mask].astype(np.float64)
    g_arr = (phi // fv[mask]).astype(np.float64)
    y = f_arr * s * np.log(primes[mask].astype(np.float64))
    x = np.exp(-y)
    value = math.exp(_ramified(m, s)[0] + float(np.sum(-g_arr * np.log1p(-x))))
    return value, int(mask.sum()) + len(_factorize(m)), y, x


def _large_moduli_points():
    rng = random.Random(20240)
    return [(rng.randint(400, 1100), rng.uniform(1.05, 2.0)) for _ in range(12)]


@pytest.mark.parametrize(
    "points,limits",
    [
        ([(m, s) for m in range(1, 61) for s in (1.1, 1.5, 2.0)], [10 ** 6]),
        (_large_moduli_points(), [10 ** 6]),
        ([(1009, 1.5), (2018, 1.5), (840, 1.2)], [1000]),
        ([(m, s) for m in (1, 12, 607) for s in (1.1, 1.98)], _BLOCK_EDGES),
    ],
    ids=["criterion-7-grid", "large-moduli", "ramified-above-limit", "block-edges"],
)
def test_underflow_filter_changes_only_the_summation_order(points, limits):
    dropped_any = False
    for limit in limits:
        primes = _plain_primes(limit)
        for m, s in points:
            want, terms, y, x = _euler_unfiltered(m, s, primes)
            got = zeta_cyclotomic(m, s, "euler", prime_limit=limit)
            assert abs(got.value - want) <= 1e-15 * want, (m, s, limit)
            assert got.terms_used == terms, (m, s, limit)
            # every prime the filter skips had an Euler factor of exactly 1
            skipped = y >= _EXP_UNDERFLOW
            assert np.all(x[skipped] == 0.0), (m, s, limit)
            dropped_any |= bool(skipped.any())
    assert dropped_any  # each set exercises the filter


def _euler_one_pass(m, s, limit):
    """_zeta_euler as one pass over every prime at once: residues by %, one
    gather per table, the kept terms summed by one np.sum."""
    phi = euler_phi(m)
    primes = _plain_primes(limit)
    log_p = np.log(primes.astype(np.float64))
    order = _order_table(m).astype(np.float64)
    order[order == 0.0] = np.inf
    residues = primes % m
    y = order[residues] * s * log_p
    keep = y < _EXP_UNDERFLOW
    terms = np.log1p(-np.exp(-y[keep])) * (phi / order[residues[keep]])
    log_r, d_log_r = _ramified(m, s)
    abs_sum = -float(np.sum(terms))
    value = math.exp(log_r + abs_sum)
    cutoff = float(limit)
    tail2 = cutoff ** (1.0 - 2.0 * s) / ((2.0 * s - 1.0) * 2.0 * (1.0 - cutoff ** -s))
    log_tail = phi * (_prime_sum_tail(s, limit) + tail2)
    err = value * math.expm1(log_tail) if log_tail < 709.0 else math.inf
    n, ramified = len(primes), _factorize(m)
    rounding = (30.0 + math.log2(n) + 8.0 * math.log(phi * n)) * abs_sum + 5.0 - s * d_log_r
    err += _U * value * (rounding + (7 + len(ramified)) * log_r)
    return value, err, n + sum(p > limit for p, _ in ramified)


@pytest.mark.parametrize(
    "m,s,limit",
    [
        (1, 1.1, 10 ** 6),
        (2, 1.1, 10 ** 6),
        (12, 1.1, 10 ** 6),
        (12, 1.5, 10 ** 6),
        (60, 3.0, 10 ** 6),
        (431, 1.3362134720414145, 10 ** 6),
        (607, 1.98, 10 ** 6),
        (750, 1.8324837485051382, 10 ** 6),
        (840, 1.01, 10 ** 6),
        (2018, 1.5, 1000),
        (12, 1.1, 84_017),
        (607, 1.98, 84_047),
        (1009, 1.2, 180_503),
    ],
)
def test_block_pass_is_bit_identical_to_one_pass(m, s, limit):
    from normeuclid import cyclozeta

    got = cyclozeta._zeta_euler(m, s, limit)
    assert (got.value, got.err_estimate, got.terms_used) == _euler_one_pass(m, s, limit)


@pytest.mark.parametrize("m,s,bound_kib", [(607, 1.98, 512), (12, 1.1, 1536)])
def test_euler_pass_memory_is_bounded(m, s, bound_kib):
    # (607, 1.98) keeps 767 terms and (12, 1.1) nearly all 78,498: no
    # temporary but the kept terms may grow with the prime count
    from normeuclid import cyclozeta

    cyclozeta._zeta_euler(m, s, 10 ** 6)  # the sieve and the unit group cached
    tracemalloc.start()
    try:
        cyclozeta._zeta_euler(m, s, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_kib * 1024, peak


def test_zeta_above_one():
    for m in range(1, 21):
        for s in (1.1, 2.0):
            assert zeta_cyclotomic(m, s).value > 1.0


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta_cyclotomic(4, 0.9)
    with pytest.raises(DomainError):
        zeta_cyclotomic(4, 2.0, method="mystery")
    with pytest.raises(DomainError):
        zeta_cyclotomic(0, 2.0)
    # the log-derivative leaves the check of s to the Hurwitz kernel
    with pytest.raises(DomainError):
        zeta_cyclotomic_logderiv(4, 1.0)


@pytest.mark.parametrize("s", [math.nan, math.inf])
@pytest.mark.parametrize(
    "fn",
    [
        zeta_cyclotomic,
        lambda m, s: zeta_cyclotomic(m, s, "euler"),
        zeta_cyclotomic_logderiv,
    ],
    ids=["hurwitz", "euler", "logderiv"],
)
def test_zeta_nonfinite_s(fn, s):
    # NaN passes the s <= 1 test, and inf made the Euler route return 1
    with pytest.raises(DomainError, match="finite s"):
        fn(7, s)


def test_characters_are_distinct_hashable_values():
    assert len(set(characters(15))) == 8


def test_terms_used_counts_hurwitz_evaluations():
    assert zeta_cyclotomic(1009, 1.2).terms_used == 1008
    assert zeta_cyclotomic_logderiv(12, 1.5).terms_used == 8


def _zeta_oracle(m, s, dps=30):
    """m^{-s phi} det[zeta(s, (a b^-1 mod m)/m)]_{a,b} over the units a, b
    mod m, completed by (1 - p^{-f s})^{-g} at each prime p | m."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(s)
        units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
        z = {a: mpmath.zeta(s, mpmath.mpf(a) / m) for a in units}
        rows = [[z[a * pow(b, -1, m) % m or m] for b in units] for a in units]
        value = mpmath.det(mpmath.matrix(rows)) * mpmath.power(m, -s * len(units))
        for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))):
            rest = m
            while rest % p == 0:
                rest //= p
            f = next(f for f in range(1, m + 1) if pow(p, f, rest) == 1 % rest)
            value /= (1 - mpmath.power(p, -f * s)) ** (euler_phi(rest) // f)
        return +value


_ORACLE_GRID = [(m, s) for m in (1, 4, 5, 12, 15, 16, 21, 35) for s in (1.02, 1.5, 3.5)]

# ceilings on _tightness, each about 1.5 times the worst ratio over
# _ORACLE_GRID (measured 2026-10-22 at N = 8), so that an estimate that
# grows turns a test red: zeta_K 475.6 and its log-derivative 745.4
_CEILING_ZETA_K = 710.0
_CEILING_LOGDERIV = 1100.0


def _tightness(ev, error):
    """How loose an estimate is: err_estimate over the actual error, or over
    one rounding of the value where the oracle agrees closer than that."""
    return ev.err_estimate / max(float(error), _U * abs(ev.value))


@pytest.mark.parametrize("m,s", _ORACLE_GRID)
def test_zeta_within_error_of_oracle(m, s):
    z = zeta_cyclotomic(m, s)
    error = abs(z.value - float(_zeta_oracle(m, s)))
    assert error <= z.err_estimate
    assert _tightness(z, error) <= _CEILING_ZETA_K


def _euler_rounding_points():
    # at large s the truncation bound is tiny and rounding is all the error
    # there is; at the first four a tail-only estimate falls far below it
    rng = random.Random(4417)
    moduli = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21)
    return [(12, 20.0), (1, 30.0), (4, 5.0), (7, 10.0)] + [
        (rng.choice(moduli), rng.uniform(3.0, 40.0)) for _ in range(16)
    ]


@pytest.mark.parametrize("m,s", _euler_rounding_points())
def test_euler_estimate_covers_rounding(m, s):
    z = zeta_cyclotomic(m, s, "euler")
    assert abs(mpmath.mpf(z.value) - _zeta_oracle(m, s, 40)) <= z.err_estimate


@pytest.mark.parametrize("m,s", _ORACLE_GRID)
def test_logderiv_within_error_of_oracle(m, s):
    with mpmath.workdps(80):
        h, s_mp = mpmath.mpf("1e-25"), mpmath.mpf(s)
        hi = mpmath.log(_zeta_oracle(m, s_mp + h, 80))
        lo = mpmath.log(_zeta_oracle(m, s_mp - h, 80))
        oracle = float((hi - lo) / (2 * h))
    d = zeta_cyclotomic_logderiv(m, s)
    error = abs(d.value - oracle)
    assert error <= d.err_estimate
    assert _tightness(d, error) <= _CEILING_LOGDERIV


@pytest.mark.parametrize("m", list(range(1, 61)))
def test_group_dft_matches_l_values_in_character_order(m):
    # entry i of the transform is sum_a conj(chi_i(a)) h(a) = conj L_m(s, chi_i)
    # for chi_i = characters(m)[i]: both walk the discrete-log grid in C order
    chars = characters(m)
    for s in (1.1, 2.0):
        values, errs, _ = hurwitz_zeta_array(s, _unit_points(m))
        entries, err = _transform(m, s, values, errs)
        assert len(entries) == len(chars)
        for entry, chi in zip(entries, chars):
            lv = dirichlet_l(s, chi, primitive=False)
            assert abs(entry - lv.value.conjugate()) <= err + lv.err_estimate


# up to 60, then scan-sized moduli: the primes 101 and 349 and 2^8
@pytest.mark.parametrize("m", list(range(1, 61)) + [101, 256, 349])
def test_conductor_route_matches_group_transform(m):
    for s in (1.1, 2.0):
        product, rel_err = 1.0 + 0j, 0.0
        for chi in characters(m):
            lv = dirichlet_l(s, chi)
            product *= lv.value
            rel_err += lv.err_estimate / abs(lv.value)
        z = zeta_cyclotomic(m, s)
        assert abs(product - z.value) <= abs(product) * rel_err + z.err_estimate


# ------------------------------------------------------------- logderiv

def test_logderiv_rational():
    got = zeta_cyclotomic_logderiv(1, 2.0).value
    from normeuclid.specfun import hurwitz_zeta_ds

    want = hurwitz_zeta_ds(2.0, 1.0).value / hurwitz_zeta(2.0, 1.0).value
    assert got == pytest.approx(want, abs=1e-13)
    assert got == pytest.approx(-0.56996, abs=1e-5)


def test_logderiv_matches_finite_difference():
    h = 1e-6
    for m, s in ((3, 2.0), (8, 1.3), (12, 1.5)):
        fd = (
            math.log(zeta_cyclotomic(m, s + h).value)
            - math.log(zeta_cyclotomic(m, s - h).value)
        ) / (2.0 * h)
        assert abs(zeta_cyclotomic_logderiv(m, s).value - fd) <= 1e-6


def test_logderiv_negative():
    for m in range(1, 21):
        for s in (1.1, 2.0):
            assert zeta_cyclotomic_logderiv(m, s).value < 0.0


# ------------------------------------------------- discriminant/signature

def test_disc_log_anchors():
    assert cyclo_disc_log(4) == pytest.approx(math.log(4.0), abs=1e-13)
    assert cyclo_disc_log(5) == pytest.approx(math.log(125.0), abs=1e-13)
    assert cyclo_disc_log(1) == 0.0
    assert cyclo_disc_log(2) == pytest.approx(0.0, abs=1e-13)
    # m = 2 mod 4 names the same field as m/2
    assert cyclo_disc_log(6) == pytest.approx(cyclo_disc_log(3), abs=1e-13)
    assert cyclo_disc_log(3) == pytest.approx(math.log(3.0), abs=1e-13)


def test_disc_log_adds_left_to_right(monkeypatch):
    # builtin sum() compensates from Python 3.12 on; added with fsum instead,
    # the ramified terms move the last bit at m = 266, 410, 414, 438 and 470
    from normeuclid import cyclozeta

    want = [cyclo_disc_log(m) for m in range(1, 501)]
    monkeypatch.setattr(cyclozeta, "sum", math.fsum, raising=False)
    assert [cyclo_disc_log(m) for m in range(1, 501)] == want


def test_signature():
    assert cyclo_signature(1) == (1, 0)
    assert cyclo_signature(2) == (1, 0)
    assert cyclo_signature(3) == (0, 1)
    assert cyclo_signature(8) == (0, 2)
    for m in range(1, 61):
        r, s = cyclo_signature(m)
        assert r + 2 * s == euler_phi(m)


# --------------------------------------------------------- minimal norms

def test_min_norm_anchors():
    assert min_proper_ideal_norm(8) == 2
    assert min_proper_ideal_norm(5) == 5
    assert min_proper_ideal_norm(7) == 7
    assert min_proper_ideal_norm(1) == 2


@pytest.mark.parametrize("m", [0, -5])
def test_min_norm_domain(m):
    with pytest.raises(DomainError, match=f"got {m}"):
        min_proper_ideal_norm(m)


@pytest.mark.parametrize("m", [0, -5])
def test_unit_group_and_ramified_degrees_domain(m):
    # both start from the factorization, which raises for m < 1
    for f in (unit_group, _ramified_degrees):
        with pytest.raises(DomainError, match=f"got {m}"):
            f(m)


def test_min_norm_brute_force_small():
    # oracle: factor small primes directly via residue degrees
    def oracle(m):
        best = None
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
            mm = m
            while mm % p == 0:
                mm //= p
            if mm == 1:
                f = 1
            else:
                f, x = 1, p % mm
                while x != 1:
                    x = x * p % mm
                    f += 1
            cand = p ** f
            if best is None or cand < best:
                best = cand
        return best

    for m in range(1, 40):
        got = min_proper_ideal_norm(m)
        assert got <= oracle(m)
        assert got <= 2 ** euler_phi(m)


def _naive_order(a, m):
    """Order of a mod m > 1 by stepping a, a^2, ... one product at a time."""
    order, x = 1, a % m
    while x != 1:
        x = x * a % m
        order += 1
    return order


def _naive_orders(m):
    """Order of every a mod m coprime to m, 0 elsewhere, by stepping
    a, a^2, ... one product at a time, for all a at once."""
    a = np.arange(m, dtype=np.int64)
    unit = np.gcd(a, m) == 1
    orders = np.zeros(m, dtype=np.int64)
    x, step = a % m, 1
    while (pending := unit & (orders == 0)).any():
        orders[pending & (x == 1 % m)] = step
        x = x * a % m
        step += 1
    return orders


def test_mult_order_matches_naive_stepping():
    # every m below 400 and a seeded sample up to 1e4; 2^11, 2^9 7, 8p and 4p
    # reach the two-axis <-1> x <5> block; m = 1 and 2 have no generators
    ms = [*range(1, 400), *random.Random(2300).sample(range(400, 10 ** 4), 12)]
    ms += [2 ** 11, 2 ** 9 * 7, 8 * 1249, 4 * 2477]
    for m in ms:
        table = _order_table(m)
        assert table.shape == (m,) and np.array_equal(table, _naive_orders(m)), m
    assert _order_table(1).tolist() == [1] and _order_table(2).tolist() == [0, 1]


def test_ramified_degrees_match_naive_stepping():
    assert _ramified_degrees(1) == []
    for m in range(2, 401):
        want = []
        for p in range(2, m + 1):
            if m % p or any(p % q == 0 for q in range(2, p)):
                continue
            rest = m
            while rest % p == 0:
                rest //= p
            f = _naive_order(p, rest) if rest > 1 else 1
            phi_rest = sum(1 for a in range(1, rest + 1) if math.gcd(a, rest) == 1)
            want.append((p, f, phi_rest // f))
        assert sorted(_ramified_degrees(m)) == want, m


def test_ramified_degrees_match_naive_stepping_up_to_1e5():
    # m = p^k q beyond the exhaustive range: 2^k q with k >= 3, odd p^k
    # with k >= 3, q in {1, 2}, and a seeded sample of m up to 1e5
    ms = [2 ** 16, 2 ** 5 * 3 ** 2 * 7, 2 ** 9 * 195, 3 ** 10, 2 * 3 ** 10, 5 ** 7, 2 * 7 ** 5]
    ms += [3 ** 4 * 11 * 13, 2 ** 3 * 12497, 99991, 2 * 49999, 4 * 24989]
    ms += random.Random(1009).sample(range(401, 10 ** 5), 40)
    for m in ms:
        want = []
        for p, k in _factorize(m):
            q = m // p ** k
            f = _naive_order(p, q) if q > 1 else 1
            want.append((p, f, euler_phi(q) // f))
        assert _ramified_degrees(m) == want, m


def test_scan_row_factorizes_each_number_once(monkeypatch):
    # m, phi(m) and p - 1 for each odd p | m, each computed once per row
    from normeuclid import cyclozeta

    m = 3 * 5 * 7 * 11
    monkeypatch.setattr(cyclozeta, "_last_zeta", None)
    for cached in (cyclozeta._factorize, unit_group):
        cached.cache_clear()
    scan_row(m, 0.75)
    assert cyclozeta._factorize.cache_info().misses == len({m, euler_phi(m), 2, 4, 6, 10})
    assert _factorize(m) == ((3, 1), (5, 1), (7, 1), (11, 1))


def test_min_norm_leaves_the_euler_sieve_cached():
    from normeuclid import cyclozeta

    zeta_cyclotomic(12, 1.5, "euler")
    min_proper_ideal_norm(7)
    hits = cyclozeta._primes_up_to.cache_info().hits
    zeta_cyclotomic(12, 1.5, "euler")
    assert cyclozeta._primes_up_to.cache_info().hits == hits + 1


def test_min_norm_matches_naive_prime_walk():
    # oracle: every prime p <= best by trial division, each with its
    # residue degree by naive stepping
    def oracle(m):
        best, p = None, 2
        while best is None or p <= best:
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                mm = m
                while mm % p == 0:
                    mm //= p
                cand = p ** (_naive_order(p, mm) if mm > 1 else 1)
                best = cand if best is None else min(best, cand)
            p += 1
        return best

    for m in range(1, 501):
        assert min_proper_ideal_norm(m) == oracle(m), m


def test_min_norm_is_a_ramified_or_progression_prime_power():
    # beyond the prime walk's reach: a prime power that is either a
    # ramified p^f or = 1 mod m, and never above a ramified p^f
    def prime_power(n):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        while n % p == 0:
            n //= p
        return n == 1

    assert min_proper_ideal_norm(4097) == 48 * 4097 + 1  # the longest walk for m <= 5000
    for m in range(1, 5001):
        got = min_proper_ideal_norm(m)
        ramified = [p ** f for p, f, _ in _ramified_degrees(m)]
        assert prime_power(got), m
        assert got in ramified or got % m == 1 % m, m
        assert all(got <= q for q in ramified), m


# ----------------------------------------------------------------- scans

def test_scan_row_m1():
    for eps in (0.25, 0.5, 0.75):
        row = scan_row(1, eps)
        assert row.s == 2.0
        assert row.zeta_value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
        assert row.zeta_value >= 1.44


def test_scan_m3_value():
    row = scan_row(3, 0.75)
    assert row.s == pytest.approx(1.0 + 2.0 ** -0.75, abs=1e-15)
    chi = next(c for c in characters(3) if c.exponents != (0,))
    want = hurwitz_zeta(row.s, 1.0).value * dirichlet_l(row.s, chi).value.real
    assert row.zeta_value == pytest.approx(want, rel=1e-10)


def test_scan_duplicate_rows_identical():
    rows = {r.m: r for r in scan(12, 0.75)}
    assert rows[6].zeta_value == rows[3].zeta_value
    assert rows[10].zeta_value == rows[5].zeta_value
    assert rows[6].s == rows[3].s


@pytest.mark.parametrize("epsilon", [0.5, 0.75])
def test_scan_walks_fields_and_returns_each_rows_own_values(epsilon):
    # the field walk reorders the calls and reuses the half's zeta; each row
    # must still be scan_row's own, bit for bit and in m order
    got = scan(60, epsilon)
    want = [scan_row(m, epsilon) for m in range(1, 61)]
    assert [r.m for r in got] == list(range(1, 61))
    assert [repr(tuple(r)) for r in got] == [repr(tuple(r)) for r in want]


def test_scan_evaluates_each_field_once(monkeypatch):
    # 88 of the moduli up to 350 are 2 mod 4, and each finds its half's zeta
    # in the one-entry memo; every evaluation rebinds the memo to a new entry,
    # and a row that reuses it leaves the entry as it was
    from normeuclid import cyclozeta

    real, entries = cyclozeta.scan_row, [None]

    def scan_row(*args):
        row = real(*args)
        entries.append(cyclozeta._last_zeta)
        return row

    monkeypatch.setattr(cyclozeta, "_last_zeta", None)
    monkeypatch.setattr(cyclozeta, "scan_row", scan_row)
    cyclozeta.unit_group.cache_clear()
    cyclozeta._factorize.cache_clear()
    scan(350, 0.75)
    fresh = [after is not before for before, after in zip(entries, entries[1:])]
    assert (fresh.count(True), fresh.count(False)) == (262, 88)


@pytest.mark.parametrize(
    "first, second",
    [((7, 1.3), (9, 1.3)), ((5, 1.3), (8, 1.3)), ((5, 1.3), (10, 1.3)), ((12, 1.3), (12, 1.5))],
    ids=["same-degree", "other-degree", "same-field", "other-s"],
)
def test_field_memo_answers_for_its_own_point(monkeypatch, first, second):
    # the log-derivative leaves zeta_K of its point in the memo: zeta_cyclotomic
    # there takes it, and at a point that differs in m or in s computes its
    # own, bit for bit as a fresh evaluation; so does A after B
    from normeuclid import cyclozeta

    def fresh(point):
        cyclozeta._last_zeta = None
        return repr(zeta_cyclotomic(*point))

    monkeypatch.setattr(cyclozeta, "_last_zeta", None)
    want = {point: fresh(point) for point in (first, second)}
    assert want[first] != want[second]
    cyclozeta._last_zeta = None
    zeta_cyclotomic_logderiv(*first)
    kept = cyclozeta._last_zeta
    assert kept[0] == first and zeta_cyclotomic(*first) is kept[1]
    got = [repr(zeta_cyclotomic(*point)) for point in (first, second, first)]
    assert got == [want[first], want[second], want[first]]
    zeta_cyclotomic_logderiv(*first)
    assert repr(zeta_cyclotomic(*second)) == want[second]


def test_field_memo_holds_the_last_field_only(monkeypatch):
    # three fields by both routes, and one entry left: the last point's
    from normeuclid import cyclozeta

    monkeypatch.setattr(cyclozeta, "_last_zeta", None)
    zeta_cyclotomic(7, 1.2)
    zeta_cyclotomic_logderiv(16, 1.4)
    last = zeta_cyclotomic(15, 1.6)
    key, entry = cyclozeta._last_zeta
    assert key == (15, 1.6) and entry is last


def test_scan_row_invariant(monkeypatch):
    # ScanRow is a plain named tuple, and scan_row, which builds every row,
    # checks it: a zeta below 1 and a degree so large that s rounds to 1
    # each raise
    from normeuclid import cyclozeta

    monkeypatch.setattr(cyclozeta, "zeta_cyclotomic", lambda m, s: Evaluation(0.9, 0.0, 1))
    with pytest.raises(ValueError) as info:
        scan_row(3, 0.75)
    s = 1.0 + 2.0 ** -0.75
    assert str(info.value) == f"scan row m=3 violates s > 1, zeta > 1: s={s}, zeta=0.9"
    monkeypatch.setattr(cyclozeta, "zeta_cyclotomic", lambda m, s: Evaluation(2.0, 0.0, 1))
    monkeypatch.setattr(cyclozeta, "euler_phi", lambda m: 10 ** 40)
    with pytest.raises(ValueError) as info:
        scan_row(3, 0.75)
    assert str(info.value) == "scan row m=3 violates s > 1, zeta > 1: s=1.0, zeta=2.0"
    assert ScanRow._fields == ("m", "phi", "epsilon", "s", "zeta_value", "err_estimate")


@pytest.mark.parametrize("m", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        euler_phi,
        unit_group,
        characters,
        min_proper_ideal_norm,
        cyclo_disc_log,
        lambda m: scan_row(m, 0.75),
        lambda m: zeta_cyclotomic(m, 1.5),
        lambda m: zeta_cyclotomic(m, 1.5, method="euler", prime_limit=1000),
    ],
    ids=["euler_phi", "unit_group", "characters", "min_proper_ideal_norm",
         "cyclo_disc_log", "scan_row", "hurwitz", "euler"],
)
def test_every_function_of_a_modulus_rejects_m_below_1(call, m):
    # one check, in the factorization that each of them reaches first
    with pytest.raises(DomainError) as info:
        call(m)
    assert str(info.value) == f"need m >= 1, got {m}"


def test_scan_domain():
    with pytest.raises(DomainError):
        scan(10, 1.5)
    with pytest.raises(DomainError):
        scan(0, 0.5)
