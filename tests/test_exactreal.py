import math
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wrightdecomp import (
    Enclosure,
    ExactReal,
    Ordering,
    check_radical_index,
    compare,
    parse_rational,
)
from wrightdecomp.errors import OutOfSpanError, ParseError
from wrightdecomp.exactreal import _lattice, _lattice_sign, _narrower_bounds, _SqrtBrackets

from oracles import is_squarefree, numeric_sign, radical_bounds

R = ExactReal.from_rational
SQRT = ExactReal.sqrt


# -- strategies ------------------------------------------------------------

squarefree_keys = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15])
coefficients = st.fractions(min_value=-8, max_value=8, max_denominator=16)
term_dicts = st.dictionaries(squarefree_keys, coefficients, max_size=4)
exact_reals = term_dicts.map(ExactReal)
nonzero_rationals = coefficients.filter(bool)
epsilons = st.sampled_from([Fraction(1, 10**k) for k in (1, 3, 6, 9)])


@st.composite
def two_radical_sums(draw):
    """b*sqrt(m) + c*sqrt(k), alone or after a rational a, in every sign mix;
    a is drawn freely or as a near tie, -round(b*sqrt(m) + c*sqrt(k)) + d
    with |d| <= 1, so the squares of the two sides nearly cancel."""
    m, k = draw(st.lists(squarefree_keys.filter(lambda m: m > 1), min_size=2, max_size=2, unique=True))
    sb, sc, sa = (draw(st.sampled_from([1, -1])) for _ in range(3))
    b = sb * draw(st.fractions(min_value=Fraction(1, 16), max_value=10**6, max_denominator=16))
    c = sc * draw(st.fractions(min_value=Fraction(1, 16), max_value=10**6, max_denominator=16))
    s = ExactReal({m: b, k: c})
    rational = draw(st.sampled_from(["none", "free", "tie"]))
    if rational == "none":
        return s
    if rational == "free":
        return s + sa * draw(st.fractions(min_value=Fraction(1, 16), max_value=10**6, max_denominator=16))
    lo, _ = radical_bounds(s, digits=30)
    return s - round(lo) + draw(st.sampled_from([-1, 0, 1]))


# -- addition / multiplication examples -------------------------------------


def test_add_cancels_radical():
    assert (R(1) + SQRT(2)) + (R(2) - SQRT(2)) == R(3)


def test_add_zero_identity():
    x = R(Fraction(3, 2)) + SQRT(5)
    assert x + ExactReal() == x


def test_add_like_terms():
    half_sqrt3 = ExactReal({3: Fraction(1, 2)})
    assert half_sqrt3 + half_sqrt3 == SQRT(3)


def test_mul_sqrt2_squared():
    assert SQRT(2) * SQRT(2) == R(2)


def test_mul_gcd_reduction():
    # sqrt(2)*sqrt(6) = 2*sqrt(3); numeric cross-check via the isqrt oracle
    prod = SQRT(2) * SQRT(6)
    assert prod == ExactReal({3: 2})
    lo, hi = radical_bounds(prod - SQRT(3) * 2, digits=30)
    assert lo <= 0 <= hi


def test_mul_conjugate():
    # (1 + sqrt2)(1 - sqrt2) expands to 1 - 2
    assert (R(1) + SQRT(2)) * (R(1) - SQRT(2)) == R(-1)


def test_division_by_rational_only():
    x = SQRT(2) / 2
    assert x == ExactReal({2: Fraction(1, 2)})
    with pytest.raises(TypeError):
        SQRT(2) / SQRT(3)  # field division is not part of the surface
    with pytest.raises(ZeroDivisionError):
        SQRT(2) / 0


def test_product_index_past_cap_raises():
    # 4294967291 * 4294967279 is squarefree but above MAX_RADICAL_INDEX,
    # so its literal could not be parsed again.
    with pytest.raises(OutOfSpanError):
        SQRT(4294967291) * SQRT(4294967279)


def test_large_radical_index_rejected_quickly():
    # 1000000007 * 998244353: trial division up to its square root took
    # minutes before the index cap came down to 2**32 - 1
    start = time.perf_counter()
    with pytest.raises(ParseError):
        check_radical_index(998244359987710471)
    with pytest.raises(ParseError):
        ExactReal.parse("sqrt(998244359987710471)")
    assert check_radical_index(4294967291) == 4294967291  # largest prime below the cap
    assert time.perf_counter() - start < 1


def test_huge_exponent_rejected_quickly():
    start = time.perf_counter()
    # 1e-4300 has a 4301-digit denominator, which str() cannot print.
    for text in ("1e-3000000", "1e4301", "1e-4300", "1e4300"):
        with pytest.raises(ParseError, match=text):
            parse_rational(text)
    for text in ("1 + 1e3000000*sqrt(2)", "1e-3000000"):
        with pytest.raises(ParseError):
            ExactReal.parse(text)
    assert parse_rational("1e-4299") == Fraction(1, 10**4299)
    assert time.perf_counter() - start < 1


# -- independent reference: plain {index: Fraction} dicts ---------------------


def _ref_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + sign * q
    return {m: q for m, q in out.items() if q}


def _ref_product(a: dict, b: dict) -> dict:
    # sqrt(m) * sqrt(k) = s * sqrt(core) with s**2 * core = m * k, the square
    # part found by trial division rather than by gcd.
    out: dict = {}
    for m, p in a.items():
        for k, q in b.items():
            core, s, d = m * k, 1, 2
            while d * d <= core:
                while core % (d * d) == 0:
                    core //= d * d
                    s *= d
                d += 1
            out[core] = out.get(core, 0) + p * q * s
    return {m: q for m, q in out.items() if q}


@given(term_dicts, term_dicts, nonzero_rationals)
@settings(max_examples=60)
def test_arithmetic_matches_fraction_dict_reference(da, db, q):
    a, b = ExactReal(da), ExactReal(db)
    da, db = _ref_sum({}, da), _ref_sum({}, db)
    cases = [
        (a + b, _ref_sum(da, db)),
        (a - b, _ref_sum(da, db, -1)),
        (-a, {m: -c for m, c in da.items()}),
        (a * b, _ref_product(da, db)),
        (a / q, {m: c / q for m, c in da.items()}),
    ]
    assert hash(R(q)) == hash(q)
    for value, ref in cases:
        coeffs = value.coefficients
        assert coeffs == ref
        assert all(c != 0 for c in coeffs.values())
        assert list(coeffs) == sorted(coeffs)
        if value.is_rational:
            assert hash(value) == hash(value.rational_part)
        else:
            assert hash(value) == hash(tuple(coeffs.items()))
        assert compare(value, 0) == numeric_sign(value)
    assert compare(a, b) == numeric_sign(ExactReal(_ref_sum(da, db, -1)))


def test_hash_matches_fraction_when_modulus_divides_denominator():
    # Fraction hashes a denominator that the hash modulus P divides as
    # infinity; ExactReal hashes its Fraction coefficients, so it agrees.
    p = sys.hash_info.modulus
    assert hash(Fraction(1, p)) == sys.hash_info.inf
    values = [
        R(Fraction(1, p)),
        R(Fraction(-3, 2 * p)),
        ExactReal({1: Fraction(1, p), 2: Fraction(5, 3)}),
        ExactReal({2: Fraction(-1, p * p), 3: 7}),
        ExactReal({2: Fraction(1, p), 3: Fraction(1, 2)}),
        R(Fraction(2, p)) + SQRT(5) * Fraction(2, 3) - SQRT(5) * Fraction(2, 3),
        SQRT(2) * Fraction(1, p) * SQRT(3) + SQRT(7),
    ]
    for value in values:
        if value.is_rational:
            assert hash(value) == hash(value.rational_part)
        else:
            assert hash(value) == hash(tuple(value.coefficients.items()))


# -- enclosures --------------------------------------------------------------


def test_bounds_rational_is_exact():
    assert R(2).bounds(Fraction(1, 10)) == (Fraction(2), Fraction(2))


def test_bounds_sqrt2_contains_by_squaring():
    lo, hi = SQRT(2).bounds(Fraction(1, 1000))
    assert hi - lo <= Fraction(1, 1000)
    assert lo >= 0 and lo * lo <= 2 <= hi * hi


def test_bounds_sum_width_and_containment():
    x = SQRT(2) + SQRT(3)
    lo, hi = x.bounds(Fraction(1, 10**6))
    assert hi - lo <= Fraction(1, 10**6)
    olo, ohi = radical_bounds(x)
    assert lo <= olo and ohi <= hi


def test_bounds_accepts_float_eps():
    x = SQRT(2) - SQRT(3) * Fraction(1, 3)
    assert x.bounds(0.25) == x.bounds(Fraction(1, 4))


def test_bounds_rejects_nonpositive_eps():
    # No bracket of sqrt(2) has width <= 0, so refining toward one never ends.
    start = time.perf_counter()
    for x in (SQRT(2), R(3), ExactReal()):
        for eps in (0, -1, Fraction(-1, 3), 0.0):
            with pytest.raises(ValueError, match="eps must be positive"):
                x.bounds(eps)
    assert time.perf_counter() - start < 1


# -- compare ------------------------------------------------------------------


def test_compare_equal_after_reduction():
    assert compare(SQRT(2) * SQRT(2), R(2)) is Ordering.EQUAL


def test_compare_against_rational():
    assert compare(R(1) + SQRT(2), Fraction(12, 5)) is Ordering.GREATER


def test_compare_two_radical_sums():
    # (sqrt2 + sqrt3)^2 = 5 + 2*sqrt6 and (2*sqrt6)^2 = 24 < 25 = 5^2,
    # so sqrt2 + sqrt3 < sqrt10; both routes are checked.
    a = SQRT(2) + SQRT(3)
    sq = a * a
    assert sq == R(5) + ExactReal({6: 2})
    assert 2 * 2 * 6 < 5 * 5
    assert compare(a, SQRT(10)) is Ordering.LESS


def _sqrt2_convergent(digits):
    """First p/q from (1 + sqrt2)^k = p + q*sqrt2 whose q has ``digits`` digits."""
    p, q = 1, 1
    while len(str(q)) < digits:
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


def _near_ties():
    # sqrt2 against convergents about 1e-300 and 1e-2000 away, and
    # q*sqrt3 - (p/2)*sqrt2 from the 300th solution of p^2 - 6q^2 = 1,
    # whose squares differ by 1/2, so the value is about 1e-300.
    for digits in (150, 1000):
        c = _sqrt2_convergent(digits)
        yield SQRT(2), R(c), digits
    p, q = 5, 2
    for _ in range(299):
        p, q = 5 * p + 12 * q, 2 * p + 5 * q
    assert p * p - 6 * q * q == 1
    yield SQRT(3) * q, SQRT(2) * Fraction(p, 2), len(str(p))


def test_compare_decides_near_ties_below_1e_300():
    # Distinct canonical forms are distinct values, so compare refines as
    # deep as a tie needs; the isqrt oracle at twice the digits agrees.
    for a, b, digits in _near_ties():
        sign = numeric_sign(a - b, digits=2 * digits + 20)
        assert sign != 0
        assert compare(a, b) == sign
        assert compare(b, a) == -sign


def test_compare_decides_one_radical_near_tie_quickly():
    # sqrt2 against a convergent of 4000 digits in all, about 1e-4000 away:
    # the sign of r + n*sqrt(m) comes from r**2 against n**2 * m in ints,
    # where refining enclosures took seconds.
    c = _sqrt2_convergent(2000)
    assert len(str(c.numerator)) + len(str(c.denominator)) >= 4000
    pairs = [(SQRT(2), R(c)), (R(-c), -SQRT(2)), (SQRT(2) * 3, R(3 * c))]
    signs = [numeric_sign(a - b, digits=4100) for a, b in pairs]
    start = time.perf_counter()
    got = [(compare(a, b), compare(b, a)) for a, b in pairs]
    assert time.perf_counter() - start < 0.1
    assert 0 not in signs
    assert got == [(sign, -sign) for sign in signs]


def test_compare_decides_three_radical_near_tie_quickly():
    # sqrt2 + sqrt3 + sqrt5 against its decimals to 4000 places, within
    # 3e-4000 below, and 3e-4000 above that: the refinement loop squares
    # its precision each round, where multiplying it by 16 took tens of
    # seconds.
    x = SQRT(2) + SQRT(3) + SQRT(5)
    scale = 10**4000
    s = sum(math.isqrt(m * scale**2) for m in (2, 3, 5))
    ys = [R(Fraction(s, scale)), R(Fraction(s + 3, scale))]
    signs = [numeric_sign(x - y, digits=4100) for y in ys]
    start = time.perf_counter()
    got = [(compare(x, y), compare(y, x)) for y in ys]
    assert time.perf_counter() - start < 1
    assert signs == [1, -1]
    assert got == [(sign, -sign) for sign in signs]


def _pell(m, x1, y1, digits):
    """First (p, q) from (x1 + y1*sqrt(m))**k = p + q*sqrt(m) whose q has
    ``digits`` digits; p**2 - m*q**2 = 1, so p - q*sqrt(m) = 1/(p + q*sqrt(m))."""
    p, q = x1, y1
    while len(str(q)) < digits:
        p, q = x1 * p + m * y1 * q, y1 * p + x1 * q
    assert p * p - m * q * q == 1
    return p, q


def test_compare_decides_two_radical_near_tie_quickly():
    # (p - q*sqrt2) +- (s - t*sqrt3) with 1000-digit q and t: each part is
    # about 1e-1000, so both values are a + b*sqrt2 + c*sqrt3 within about
    # 1e-1000 of zero; squaring decides them in ints, where refining
    # enclosures took seconds.
    p, q = _pell(2, 3, 2, 1000)
    s, t = _pell(3, 2, 1, 1000)
    a, b = R(p) - SQRT(2) * q, R(s) - SQRT(3) * t
    pairs = [(a, -b), (a, b), (-a, b), (-a, -b)]
    signs = [numeric_sign(x - y, digits=4100) for x, y in pairs]
    start = time.perf_counter()
    got = [(compare(x, y), compare(y, x), compare(x - y, 0)) for x, y in pairs]
    assert time.perf_counter() - start < 0.1
    assert 0 not in signs
    assert got == [(sign, -sign, sign) for sign in signs]


# -- the sign of a - b - c on a lattice ----------------------------------------


def _difference_sign(a, b, c):
    """The sign of a - b - c as ``wright_check`` decides a triple: a, b
    and c as int coordinates on one lattice, and ``_lattice_sign`` over
    their coordinate difference."""
    radicals, den, (ca, cb, cc) = _lattice((a, b, c))
    return _lattice_sign(radicals, map(operator.sub, map(operator.sub, ca, cb), cc), den)


@given(exact_reals, exact_reals, exact_reals, st.booleans())
@settings(max_examples=80)
def test_difference_sign_matches_compare_and_oracle(a, b, c, tie):
    if tie:
        c = a - b
    got = _difference_sign(a, b, c)
    assert got is compare(a - b, c)
    sign = numeric_sign(a - b - c)
    assert (sign == 0) == (a - b == c)
    assert got == sign


def test_difference_sign_refines_mixed_signs_on_disjoint_radicals():
    # sqrt2 - (-sqrt3) - c against decimals c of sqrt2 + sqrt3 + sqrt5 less
    # sqrt5: with three radicals neither the one-sign check nor squaring
    # applies, so the enclosure loop decides.
    scale = 10**40
    s = sum(math.isqrt(m * scale**2) for m in (2, 3, 5))  # within 3/scale below
    for c in (Fraction(s - 3, scale), Fraction(s + 3, scale)):
        cases = [(SQRT(2), -SQRT(3), R(c) - SQRT(5)), (R(c), SQRT(2) + SQRT(5), SQRT(3))]
        for a, b, cc in cases:
            expected = numeric_sign(a - b - cc)
            assert expected != 0
            assert _difference_sign(a, b, cc) == expected == compare(a - b, cc)
    # Each near tie x - y plus sqrt5 - sqrt7 - d, with d a decimal of
    # sqrt5 - sqrt7 exact far below the tie, has the tie's sign: three or
    # four radicals, refined as deep as the tie needs.
    for x, y, digits in _near_ties():
        sign = numeric_sign(x - y, digits=2 * digits + 20)
        k = 10 ** (2 * digits + 40)
        rest = Fraction(math.isqrt(5 * k * k) - math.isqrt(7 * k * k), k)
        assert _difference_sign(x + SQRT(5) - SQRT(7), y, R(rest)) == sign


def test_difference_sign_decides_near_ties_after_cancellation():
    # sqrt5 cancels between a and b, so a - b - c is a near tie x - y.
    for x, y, digits in _near_ties():
        sign = numeric_sign(x - y, digits=2 * digits + 20)
        assert sign != 0
        assert _difference_sign(x + SQRT(5), SQRT(5), y) == sign
        assert _difference_sign(-y, -x, R(0)) == sign
        assert _difference_sign(x, y, x - y) is Ordering.EQUAL


# -- canonical form and validation -------------------------------------------


def test_radical_index_validation():
    with pytest.raises(ParseError):
        check_radical_index(12)  # 4 divides it
    with pytest.raises(ParseError):
        check_radical_index(0)
    with pytest.raises(ParseError):
        check_radical_index(2**63)
    assert check_radical_index(2 * 3 * 5 * 7) == 210


def test_constructor_merges_and_drops_zeros():
    x = ExactReal([(2, Fraction(1, 2)), (2, Fraction(-1, 2)), (3, 1)])
    assert x.coefficients == {3: Fraction(1)}


# -- literals -----------------------------------------------------------------


def test_parse_canonical_syntax():
    x = ExactReal.parse("3/2 + -1*sqrt(2) + 5/7*sqrt(6)")
    assert x.coefficients == {1: Fraction(3, 2), 2: Fraction(-1), 6: Fraction(5, 7)}
    assert x.literal() == "3/2 + -1*sqrt(2) + 5/7*sqrt(6)"


def test_parse_convenience_forms():
    assert ExactReal.parse("2-sqrt(2)") == R(2) - SQRT(2)
    assert ExactReal.parse("-sqrt(3)") == -SQRT(3)
    assert ExactReal.parse("0.25") == R(Fraction(1, 4))
    assert ExactReal.parse(" 1 - - 2 ") == R(3)


def test_parse_rejects_garbage():
    for bad in (
        "",
        "sqrt()",
        "sqrt(12)",
        "1 +",
        "two",
        "1e",
        "sqrt(\u00b2)",  # superscript two: str.isdigit accepts it, int() does not
        "3*sqrt(\u00b9\u2070)",
        "sqrt(" + "9" * 5000 + ")",  # past int()'s digit limit
        "2**sqrt(2)",  # one star joins a coefficient to its radical
        "*sqrt(2)",
    ):
        with pytest.raises(ParseError):
            ExactReal.parse(bad)


def test_parse_rational_scientific():
    assert parse_rational("1e-8") == Fraction(1, 10**8)
    assert parse_rational("3/2") == Fraction(3, 2)


def test_parse_exponent_inside_span_literal():
    # A sign right after e/E is part of the exponent, not a new term.
    assert ExactReal.parse("1/2 + 2.5e-3*sqrt(2)") == ExactReal(
        {1: Fraction(1, 2), 2: Fraction(1, 400)}
    )
    assert ExactReal.parse("1e-8") == R(Fraction(1, 10**8))
    assert ExactReal.parse("1E-2-1e+3*sqrt(3)") == R(Fraction(1, 100)) - SQRT(3) * 1000


@given(st.one_of(exact_reals, st.builds(operator.mul, exact_reals, exact_reals)))
def test_literal_round_trip(x):
    assert ExactReal.parse(x.literal()) == x


# -- ring axioms (hypothesis) -------------------------------------------------


@given(exact_reals, exact_reals, exact_reals)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(exact_reals, exact_reals)
def test_canonical_form_stable(a, b):
    for value in (a + b, a - b, a * b, -a):
        for m, q in value.coefficients.items():
            assert q != 0
            assert is_squarefree(m)


@given(exact_reals, epsilons)
@settings(max_examples=60)
def test_enclosure_containment_against_oracle(x, eps):
    lo, hi = x.bounds(eps)
    assert hi - lo <= eps
    olo, ohi = radical_bounds(x)
    assert lo <= ohi and olo <= hi  # oracle interval meets enclosure
    assert lo <= olo and ohi <= hi  # and is in fact contained (oracle is tighter)


@given(exact_reals, exact_reals, two_radical_sums())
@settings(max_examples=120)
def test_compare_consistent_with_numeric_oracle(a, b, x):
    # x is decided by squaring in ints: against 0, and as its rational
    # part against minus its radical part, in both orders.
    sign = numeric_sign(x)
    assert sign != 0, "oracle failed to separate distinct values"
    r = R(x.rational_part)
    assert compare(x, 0) == compare(r, r - x) == -compare(r - x, r) == sign
    result = compare(a, b)
    if a == b:
        assert result is Ordering.EQUAL
        return
    sign = numeric_sign(a - b)
    assert sign != 0, "oracle failed to separate distinct values"
    assert result is (Ordering.GREATER if sign > 0 else Ordering.LESS)


@given(exact_reals, exact_reals)
def test_mul_keys_stay_squarefree(a, b):
    assert all(is_squarefree(m) for m in (a * b).coefficients)


@given(exact_reals, exact_reals, exact_reals)
def test_compare_total_order_transitive(a, b, c):
    if compare(a, b) is not Ordering.GREATER and compare(b, c) is not Ordering.GREATER:
        assert compare(a, c) is not Ordering.GREATER


# -- enclosure type ------------------------------------------------------------


def test_enclosure_invariants():
    with pytest.raises(ValueError):
        Enclosure(R(2), R(1))
    e = Enclosure(R(1), R(2))
    assert e.width == R(1)
    assert e.contains(Fraction(3, 2))
    assert not e.contains(R(3))


def test_enclosure_intersect_and_arithmetic():
    a = Enclosure(R(0), R(2))
    b = Enclosure(R(1), R(3))
    assert a.intersect(b) == Enclosure(R(1), R(2))
    assert (a + b) == Enclosure(R(1), R(5))
    assert (a - b) == Enclosure(R(-3), R(1))
    assert a.scale(Fraction(-1, 2)) == Enclosure(R(-1), R(0))
    assert b.scale(Fraction(1, 2)) == Enclosure(R(Fraction(1, 2)), R(Fraction(3, 2)))


def test_enclosure_nesting_for_smaller_eps():
    x = SQRT(2) + SQRT(7) * Fraction(2, 3)
    outer_lo, outer_hi = x.bounds(Fraction(1, 100))
    inner_lo, inner_hi = x.bounds(Fraction(1, 10**8))
    assert outer_lo <= inner_lo and inner_hi <= outer_hi


# -- Heron brackets against a Fraction-width reference ---------------------------


class _FractionBrackets:
    """Heron chains that keep each width as a Fraction and scan with ``<=``."""

    def __init__(self):
        self._chains = {}

    def bracket(self, m, eps):
        chain = self._chains.get(m)
        if chain is None:
            s = math.isqrt(m)
            chain = [(Fraction(s), Fraction(s + 1), Fraction(1))]
            self._chains[m] = chain
        for lo, hi, width in chain:
            if width <= eps:
                return lo, hi
        lo, hi, width = chain[-1]
        while width > eps:
            hi = (hi + Fraction(m) / hi) / 2
            lo = Fraction(m) / hi
            width = hi - lo
            chain.append((lo, hi, width))
        return lo, hi


def _reference_bounds(x, eps):
    """Bounds of x summed in Fractions, each radical given eps / (#radicals * |q|)."""
    brackets = _FractionBrackets()
    coeffs = x.coefficients
    lo = hi = coeffs.pop(1, Fraction(0))
    for m, q in coeffs.items():
        blo, bhi = brackets.bracket(m, eps / len(coeffs) / abs(q))
        if q < 0:
            blo, bhi = bhi, blo
        lo += q * blo
        hi += q * bhi
    return lo, hi


@given(
    st.one_of(exact_reals, st.builds(operator.mul, exact_reals, exact_reals)),
    st.integers(0, 12),
)
@settings(max_examples=80)
def test_bounds_match_fraction_bracket_reference(x, k):
    eps = Fraction(1, 16**k)
    assert x.bounds(eps) == _reference_bounds(x, eps)


@given(
    coefficients,
    st.dictionaries(
        st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15]),
        coefficients.filter(bool),
        min_size=1,
        max_size=4,
    ),
    st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
)
@settings(max_examples=150)
def test_narrower_bounds_matches_the_halving_loop(rational, radicals, delta):
    # the loop it replaces: halve delta until the bounds of x change
    x = ExactReal({1: rational, **radicals})
    for _ in range(6):
        last = x.bounds(delta)
        want = delta / 2
        while x.bounds(want) == last:
            want /= 2
        assert _narrower_bounds(x, delta) == (want, x.bounds(want))
        delta = want


def test_sqrt_brackets_independent_of_request_order():
    requests = [
        (m, n, 16**k * d) for m in (2, 3, 6, 7, 10) for k in range(13) for n, d in ((1, 1), (3, 7))
    ]
    forward, backward, reference = _SqrtBrackets(), _SqrtBrackets(), _FractionBrackets()
    got = [forward.bracket(*r) for r in requests]
    assert got == [backward.bracket(*r) for r in reversed(requests)][::-1]
    assert [g[:2] for g in got] == [reference.bracket(m, Fraction(n, d)) for m, n, d in requests]
    assert all(Fraction(wn, wd) == hi - lo for lo, hi, wn, wd in got)
    assert forward._chains == backward._chains
