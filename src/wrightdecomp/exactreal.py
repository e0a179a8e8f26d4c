"""Exact arithmetic in the rational span of square roots of squarefree integers.

Values are finite sums ``sum_m q_m * sqrt(m)`` with rational ``q_m`` and
squarefree integer indices ``m >= 1`` (``m = 1`` is the rational unit),
stored as integer numerators ``n_m`` over one positive denominator: sorted
by index, zero numerators dropped, the gcd of all of them 1.  The
representation is canonical, so structural equality coincides with value
equality because square roots of distinct squarefree integers are
linearly independent over Q (trusted fact of this module).  ``Fraction``
appears only where coefficients, bounds and literals enter or leave, and
in the hash, which is that of the ``Fraction`` coefficients.

Signs with up to two radicals besides the unit are decided from the
numerators by squaring; signs with more are settled by adaptive
rational enclosures built from Heron bracket chains for each radical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import InconsistentEnclosureError, OutOfSpanError, ParseError
from .errors import _expect_type

Rational = Union[int, Fraction]

#: Largest accepted radical index; trial division up to its square root
#: stays within 2**15 odd divisors.
MAX_RADICAL_INDEX = 2**32 - 1

#: Largest accepted decimal exponent magnitude, and digit count of a
#: numerator or denominator, in a rational literal (Python's own default
#: limit on int digit strings, so ``str`` can print every parsed value).
_MAX_EXPONENT = 4300
_DIGIT_LIMIT = 10**_MAX_EXPONENT


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def check_radical_index(m: int) -> int:
    """Validate a radical index: squarefree positive integer below 2**32."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise ParseError(f"radical index must be an integer, got {m!r}")
    if m < 1:
        raise ParseError(f"radical index must be positive, got {m}")
    if m > MAX_RADICAL_INDEX:
        raise ParseError(f"radical index {m} exceeds {MAX_RADICAL_INDEX}")
    n = m
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                raise ParseError(f"radical index {m} is not squarefree ({d}**2 divides it)")
        d += 1 if d == 2 else 2
    return m


class _SqrtBrackets:
    """Shared Heron bracket chains, one per radical.

    The chain for ``m`` starts from the integer bracket
    ``[isqrt(m), isqrt(m) + 1]`` and each step maps ``hi`` to
    ``(hi + m/hi)/2`` and ``lo`` to ``m/hi``, so both endpoints stay
    rational and straddle sqrt(m); each element is kept with its width as
    a reduced (numerator, denominator) pair of ints.
    ``bracket(m, en, ed)`` returns the first chain element
    ``(lo, hi, wn, wd)`` of width wn/wd <= eps, where eps = en/ed with
    positive ints en and ed, found by comparing ``wn * ed <= en * wd`` in
    ints; the result depends only on ``(m, eps)`` regardless of request
    order, which keeps every consumer deterministic.
    """

    def __init__(self) -> None:
        self._chains: dict[int, list[tuple[Fraction, Fraction, int, int]]] = {}

    def bracket(self, m: int, en: int, ed: int) -> tuple[Fraction, Fraction, int, int]:
        chain = self._chains.get(m)
        if chain is None:
            s = math.isqrt(m)
            chain = [(Fraction(s), Fraction(s + 1), 1, 1)]
            self._chains[m] = chain
        for lo, hi, wn, wd in chain:
            if wn * ed <= en * wd:
                return lo, hi, wn, wd
        lo, hi, wn, wd = chain[-1]
        while wn * ed > en * wd:
            hi = (hi + Fraction(m) / hi) / 2
            lo = Fraction(m) / hi
            width = hi - lo
            wn, wd = width.numerator, width.denominator
            chain.append((lo, hi, wn, wd))
        return lo, hi, wn, wd


_BRACKETS = _SqrtBrackets()

_ZERO = Fraction(0)

_Nums = tuple[tuple[int, int], ...]


def _new(nums: _Nums, den: int) -> "ExactReal":
    # Internal fast path: ``nums`` is sorted by validated squarefree index
    # with no zero numerator, ``den > 0``, and gcd(den, numerators) == 1.
    obj = object.__new__(ExactReal)
    obj._nums = nums
    obj._den = den
    obj._hash = None
    return obj


def _reduced(nums: _Nums, den: int) -> "ExactReal":
    """``_new`` after dividing out the gcd of ``den`` and the numerators."""
    if den != 1:
        g = math.gcd(den, *[n for _, n in nums])
        if g != 1:
            nums = tuple([(m, n // g) for m, n in nums])
            den //= g
    return _new(nums, den)


def _merge(a: "ExactReal", b: "ExactReal", sign: int) -> tuple[_Nums, int]:
    """Sorted nonzero numerators of ``a + sign * b`` over lcm(denominators), and that lcm."""
    ad, bd = a._den, b._den
    g = math.gcd(ad, bd)
    sa, sb = bd // g, sign * (ad // g)
    an, bn = a._nums, b._nums
    if len(an) == 1 and len(bn) == 1 and an[0][0] == bn[0][0]:
        # Two values on one radical, as any two rationals are, skip the dict:
        # two in five merges of a CLI decompose, verify and report take this,
        # mostly ``Interval.contains`` at rational points and grid sorting.
        n = an[0][1] * sa + bn[0][1] * sb
        return ((an[0][0], n),) if n else (), ad * sa
    acc = {m: n * sa for m, n in an}
    for m, n in bn:
        acc[m] = acc.get(m, 0) + n * sb
    return tuple(sorted([t for t in acc.items() if t[1]])), ad * sa


def _add_products(acc: dict[int, int], an: _Nums, bn: _Nums, scale: int) -> None:
    """Add the numerators of scale * (sum an) * (sum bn) into ``acc``."""
    for m, p in an:
        p *= scale
        for k, q in bn:
            # sqrt(m) * sqrt(k) = d * sqrt((m/d) * (k/d)) with d = gcd(m, k);
            # the reduced index is again squarefree, and may pass MAX_RADICAL_INDEX.
            d = math.gcd(m, k)
            key = (m // d) * (k // d)
            acc[key] = acc.get(key, 0) + p * q * d


def _lattice(values: tuple["ExactReal", ...]) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """One sorted radical list and one positive common denominator for
    ``values``, and each value's int coordinates on them:
    v = sum c_i*sqrt(radicals_i) / den."""
    radicals = tuple(sorted({m for v in values for m, _ in v._nums}))
    den = math.lcm(*[v._den for v in values])
    return radicals, den, [_coordinates(v, radicals, den) for v in values]


def _coordinates(x: "ExactReal", radicals: tuple[int, ...], den: int) -> tuple[int, ...] | None:
    """x's int coordinates on ``radicals`` over ``den``, or None when x is
    not on that lattice."""
    if den % x._den:
        return None
    scale = den // x._den
    c = dict.fromkeys(radicals, 0)
    for m, n in x._nums:
        if m not in c:
            return None
        c[m] = n * scale
    return tuple(c.values())


def _from_lattice(radicals: tuple[int, ...], coords: tuple[int, ...], den: int) -> "ExactReal":
    """The canonical value with ``coords`` on ``radicals`` over ``den``."""
    return _reduced(tuple([t for t in zip(radicals, coords) if t[1]]), den)


class ExactReal:
    """Canonical element of the squarefree radical span.

    Instances are immutable, hashable, and closed under ``+``, ``-`` and
    ``*``; division is only defined by nonzero rational scalars.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for m, q in items:
            check_radical_index(m)
            acc[m] = acc.get(m, 0) + Fraction(q)
        # The lcm of reduced denominators is coprime to the scaled numerators.
        den = math.lcm(*(q.denominator for q in acc.values()))
        nums = ((m, q.numerator * (den // q.denominator)) for m, q in acc.items() if q)
        self._nums: _Nums = tuple(sorted(nums))
        self._den: int = den
        self._hash: int | None = None

    @classmethod
    def from_rational(cls, q: Rational) -> "ExactReal":
        if type(q) is not int and not isinstance(q, Fraction):
            q = Fraction(q)
        return _new(((1, q.numerator),), q.denominator) if q else _new((), 1)

    @classmethod
    def sqrt(cls, m: int) -> "ExactReal":
        check_radical_index(m)
        return _new(((m, 1),), 1)

    # -- structure ---------------------------------------------------

    @property
    def coefficients(self) -> dict[int, Fraction]:
        """Copy of the term mapping (radical index -> coefficient)."""
        return {m: Fraction(n, self._den) for m, n in self._nums}

    def radicals(self) -> tuple[int, ...]:
        """Radical indices with nonzero coefficient, excluding the unit."""
        return tuple(m for m, _ in self._nums if m != 1)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_rational(self) -> bool:
        return not self._nums or self._nums[-1][0] == 1

    @property
    def rational_part(self) -> Fraction:
        nums = self._nums
        return Fraction(nums[0][1], self._den) if nums and nums[0][0] == 1 else _ZERO

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ExactReal | None":
        if isinstance(other, ExactReal):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return ExactReal.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(*_merge(self, o, 1))

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple([(m, -n) for m, n in self._nums]), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(*_merge(self, o, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(*_merge(o, self, -1))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, int] = {}
        _add_products(acc, self._nums, o._nums, 1)
        nums = tuple(sorted([t for t in acc.items() if t[1]]))
        if nums and nums[-1][0] > MAX_RADICAL_INDEX:
            raise OutOfSpanError(
                f"product of {self} and {o} has radical index {nums[-1][0]} "
                f"above {MAX_RADICAL_INDEX}"
            )
        return _reduced(nums, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if other == 0:
                raise ZeroDivisionError("division of ExactReal by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _reduced(tuple([(m, n * q) for m, n in self._nums]), self._den * p)
        return NotImplemented  # field division is deliberately unsupported

    def __abs__(self):
        return -self if _sign(self._nums, self._den) is Ordering.LESS else self

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._nums == o._nums and self._den == o._den

    def __hash__(self):
        # Python's hash of the Fraction coefficients, so a rational value
        # hashes as its Fraction, to which it compares equal.
        if self._hash is None:
            coeffs = self.coefficients
            self._hash = hash(coeffs.get(1, 0) if self.is_rational else tuple(coeffs.items()))
        return self._hash

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return compare(self, o) is Ordering.LESS

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return compare(self, o) is not Ordering.GREATER

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return compare(self, o) is Ordering.GREATER

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return compare(self, o) is not Ordering.LESS

    def __bool__(self):
        return bool(self._nums)

    # -- enclosures --------------------------------------------------

    def bounds(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        """Rational lo <= value <= hi with hi - lo <= eps; eps must be positive."""
        if not isinstance(eps, (int, Fraction)):
            eps = Fraction(eps)
        if eps.numerator <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        nums, den = self._nums, self._den
        k = len(self.radicals())
        if not k:
            q = self.rational_part
            return q, q
        lo_n, lo_d, hi_n, hi_d = _int_bounds(nums, eps.numerator * den, eps.denominator * k)
        return Fraction(lo_n, lo_d * den), Fraction(hi_n, hi_d * den)

    # -- text --------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, terms in increasing radical index."""
        parts = [str(q) if m == 1 else f"{q}*sqrt({m})" for m, q in self.coefficients.items()]
        return " + ".join(parts) or "0"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"ExactReal({self.literal()!r})"

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        """Parse a literal such as ``3/2 + -1*sqrt(2)``, ``2-sqrt(2)`` or ``1e-3*sqrt(2)``."""
        compact = "".join(_expect_type(text, str, "ExactReal literal").split())
        if not compact:
            raise ParseError("empty ExactReal literal")
        terms: list[tuple[int, Fraction]] = []
        i, n = 0, len(compact)
        while i < n:
            sign = 1
            while i < n and compact[i] in "+-":
                if compact[i] == "-":
                    sign = -sign
                i += 1
            j = i
            while j < n and (compact[j] not in "+-" or compact[j - 1] in "eE"):  # keep 1e-8 whole
                j += 1
            body = compact[i:j]
            if not body:
                raise ParseError(f"dangling sign in literal {text!r}")
            m, coef = _parse_term(body, text)
            terms.append((m, coef * sign))
            i = j
        return cls(terms)


def _parse_term(body: str, original: str) -> tuple[int, Fraction]:
    if "sqrt(" in body:
        head, _, tail = body.partition("sqrt(")
        if not tail.endswith(")"):
            raise ParseError(f"unclosed sqrt(...) in {original!r}")
        digits = tail[:-1]
        # str.isdigit also accepts digits such as superscripts that int() rejects.
        if not (digits.isascii() and digits.isdigit()) or len(digits) > _MAX_EXPONENT:
            raise ParseError(f"bad radical index in {original!r}")
        m = check_radical_index(int(digits))
        coef = Fraction(1) if head == "" else parse_rational(head.removesuffix("*"))
        return m, coef
    return 1, parse_rational(body)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal (``3/2``, ``-7``, ``0.25``, ``1e-8``); an
    exponent beyond 4300 in magnitude, or a numerator or denominator of
    more than 4300 digits, is a ParseError."""
    body = _expect_type(text, str, "rational literal").strip()
    _, e, exponent = body.lower().partition("e")
    try:
        if not (e and abs(int(exponent)) > _MAX_EXPONENT):
            q = Fraction(body)
            if abs(q.numerator) < _DIGIT_LIMIT and q.denominator < _DIGIT_LIMIT:
                return q
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc
    raise ParseError(f"{text!r} exceeds the {_MAX_EXPONENT}-digit limit")


def compare(a: "ExactReal | Rational", b: "ExactReal | Rational") -> Ordering:
    """Decidable three-way comparison: the sign of a - b, decided by
    ``_sign``.  Equal canonical forms merge to no numerators, which
    ``_sign`` reads as EQUAL.
    """
    ea = a if isinstance(a, ExactReal) else ExactReal.from_rational(a)
    eb = b if isinstance(b, ExactReal) else ExactReal.from_rational(b)
    return _sign(*_merge(ea, eb, -1))


def _lattice_sign(radicals: tuple[int, ...], coords: Iterable[int], den: int) -> Ordering:
    """Sign of the value with int ``coords`` on ``radicals`` over ``den``,
    decided by ``_sign`` over the nonzero coordinates; ``coords`` may be
    any iterable, such as a coordinate difference, and is never reduced."""
    return _sign(tuple([t for t in zip(radicals, coords) if t[1]]), den)


def _lattice_quadratic(
    quad: Fraction,
    pieces: tuple[tuple[ExactReal, ExactReal], ...],
    images: Mapping[int, ExactReal],
    radicals: tuple[int, ...],
) -> tuple[tuple[int, ...], int, Callable[..., tuple[int, ...]]]:
    """Int form of v_p(x) = quad*x**2 + b_p*x + A(x) + c_p for each piece
    (b_p, c_p), at points x = sum c_i*sqrt(radicals_i) / den, with A the
    Q-linear map taking sqrt(m) to ``images[m]``, whose keys (1 and the
    basis) make the lattice.  A coordinate on a radical off the lattice
    must be 0.

    Returns the sorted value radicals ``vrad`` (1 first) those points
    reach, T, the lcm of the denominators the form reads, and
    ``value(c, den, p)``: v_p(x) as int coordinates on vrad over
    T*den**2, never reduced.  Each
    piece is compiled over T as the numerators of its c_p and of its rows
    L_m = b_p*sqrt(m) + A(sqrt(m)); den is applied at call time, to each
    row once and to c_p as den**2.  A product index past MAX_RADICAL_INDEX
    raises OutOfSpanError only if it survives in a value."""
    selected = [(i, m, images[m]) for i, m in enumerate(radicals) if m in images]
    dens = [v._den for piece in pieces for v in piece] + [a._den for *_, a in selected]
    t = math.lcm(quad.denominator, *dens)
    qn = quad.numerator * (t // quad.denominator)
    terms = []  # quad*x**2 as (i, j, index, multiplier) for positions i <= j
    for a, (i, m, _) in enumerate(selected if qn else ()):
        for j, k, _ in selected[a:]:
            d = math.gcd(m, k)
            terms.append((i, j, (m // d) * (k // d), qn * d * (1 if i == j else 2)))
    forms = []
    for slope, offset in pieces:
        rows = []
        for i, m, a in selected:
            acc: dict[int, int] = {}
            _add_products(acc, slope._nums, ((m, 1),), t // slope._den)
            _add_products(acc, a._nums, ((1, 1),), t // a._den)
            rows.append((i, [(k, n) for k, n in acc.items() if n]))
        forms.append(([(k, n * (t // offset._den)) for k, n in offset._nums], rows))
    keys = {1} | {key for *_, key, _ in terms}
    for offset, rows in forms:
        keys.update(k for k, _ in offset)
        keys.update(k for _, row in rows for k, _ in row)
    vrad = tuple(sorted(keys))
    slot = {m: s for s, m in enumerate(vrad)}
    terms = [(i, j, slot[key], mult) for i, j, key, mult in terms]
    compiled = []
    for offset, rows in forms:
        start = [0] * len(vrad)
        for k, n in offset:
            start[slot[k]] = n
        compiled.append((start, [(i, [(slot[k], n) for k, n in row]) for i, row in rows if row]))
    big = [s for s in range(len(vrad) - 1, -1, -1) if vrad[s] > MAX_RADICAL_INDEX]

    def value(c: tuple[int, ...], den: int, p: int) -> tuple[int, ...]:
        start, rows = compiled[p]
        d2 = den * den
        acc = [n * d2 for n in start]
        for i, j, s, mult in terms:
            acc[s] += mult * c[i] * c[j]
        for i, row in rows:
            ci = c[i]
            if ci:
                ci *= den
                for s, n in row:
                    acc[s] += ci * n
        for s in big:
            if acc[s]:
                raise OutOfSpanError(
                    f"value at {_from_lattice(radicals, c, den)} has radical index "
                    f"{vrad[s]} above {MAX_RADICAL_INDEX}"
                )
        return tuple(acc)

    return vrad, t, value


def _side(radicals: tuple[int, ...], y: ExactReal) -> Callable[[tuple[int, ...], int], int]:
    """``side(c, den)``: the sign, -1, 0 or 1, of x - y for
    x = sum c_i*sqrt(radicals_i) / den, decided on x - y's int coordinates
    over den*y's denominator, never reduced, so points with different
    denominators compare; when x and y share their one radical, the sign
    of one int."""
    ynums = dict(y._nums)
    union = tuple(sorted(set(radicals) | set(ynums)))
    yden = y._den
    if len(union) == 1 and union[0] in radicals:
        i, n = radicals.index(union[0]), ynums.get(union[0], 0)
        return lambda c, den: (c[i] * yden > n * den) - (c[i] * yden < n * den)
    terms = [(radicals.index(m) if m in radicals else -1, ynums.get(m, 0)) for m in union]
    return lambda c, den: _lattice_sign(
        union, [(c[i] * yden if i >= 0 else 0) - n * den for i, n in terms], 1
    )


def _int_bounds(nums: _Nums, en: int, ed: int) -> tuple[int, int, int, int]:
    """Ints (lo_n, lo_d, hi_n, hi_d), lo_d and hi_d positive, with
    lo_n/lo_d <= sum n_m*sqrt(m) <= hi_n/hi_d; each radical's bracket has
    width at most en / (ed * |n_m|)."""
    lo_n = hi_n = nums[0][1] if nums[0][0] == 1 else 0
    lo_d = hi_d = 1
    for m, n in nums:
        if m == 1:
            continue
        blo, bhi, _, _ = _BRACKETS.bracket(m, en, ed * abs(n))
        if n < 0:
            blo, bhi = bhi, blo
        lo_n = lo_n * blo.denominator + n * blo.numerator * lo_d
        lo_d *= blo.denominator
        hi_n = hi_n * bhi.denominator + n * bhi.numerator * hi_d
        hi_d *= bhi.denominator
    return lo_n, lo_d, hi_n, hi_d


def _narrower_bounds(x: "ExactReal", delta: Fraction) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The largest delta / 2**j, j >= 1, at which ``x.bounds`` differs from
    ``x.bounds(delta)``, and the bounds there; x must be irrational.

    ``x.bounds(delta)`` gives each of its k radical terms n*sqrt(m) the
    first Heron element of width wn/wd <= delta*den / (k*|n|).  That element
    is kept through j halvings of delta while 2**j <= Q, the floor of
    delta*den*wd / (wn*k*|n|), so it first changes at j = Q.bit_length().
    A narrower element strictly raises its term's lower end (through hi for
    a negative n), so the bounds change exactly when some element does.
    """
    en, ed = delta.numerator * x._den, delta.denominator * len(x.radicals())
    halvings = []
    for m, n in x._nums:
        if m != 1:
            _, _, wn, wd = _BRACKETS.bracket(m, en, ed * abs(n))
            halvings.append((en * wd // (wn * ed * abs(n))).bit_length())
    delta = delta / (1 << min(halvings))
    return delta, x.bounds(delta)


def _two_term_sign(b: int, m: int, c: int, k: int) -> int:
    """Sign, 1 or -1, of b*sqrt(m) + c*sqrt(k) for distinct squarefree m
    and k (1 is the unit) and c != 0: with opposite signs b*b*m != c*c*k,
    and the larger square carries its term's sign."""
    if not b or (b > 0) == (c > 0):
        return 1 if c > 0 else -1
    return 1 if (b * b * m > c * c * k) == (b > 0) else -1


def _sign(nums: _Nums, den: int) -> Ordering:
    """Sign of ``sum n_m*sqrt(m) / den`` for sorted nonzero numerators.

    Decided in ints for up to two radicals besides the unit:

    - numerators that all share one sign decide it, and an empty sum is 0;
    - a two-term sum b*sqrt(m) + c*sqrt(k) (m = 1 for a rational term) by
      comparing b*b*m with c*c*k;
    - a + s with s = b*sqrt(m) + c*sqrt(k) by the sign of s, when a has it;
      otherwise by the sign of a**2 - s**2 = (a**2 - b*b*m - c*c*k)
      - 2*b*c*g*sqrt(m*k/g**2), g = gcd(m, k), a two-term sum again.  The
      product index may pass MAX_RADICAL_INDEX; it never becomes a value.

    Three or more radicals refine an enclosure, summed in ints, until zero
    is strictly outside.  Each round multiplies the precision ed by 16 or
    squares it, whichever is larger, so a tie within 10**-d takes O(log d)
    rounds.  A nonzero canonical form is a nonzero value, so the
    refinement ends.
    """
    if not nums:
        return Ordering.EQUAL
    signs = {n > 0 for _, n in nums}
    if len(signs) == 1:
        return Ordering.GREATER if True in signs else Ordering.LESS
    if len(nums) == 2:
        (m, b), (k, c) = nums
        return Ordering(_two_term_sign(b, m, c, k))
    if len(nums) == 3 and nums[0][0] == 1:
        (_, a), (m, b), (k, c) = nums
        s = _two_term_sign(b, m, c, k)
        if (a > 0) == (s > 0):
            return Ordering(s)
        g = math.gcd(m, k)
        t = _two_term_sign(a * a - b * b * m - c * c * k, 1, -2 * b * c * g, (m // g) * (k // g))
        # |a| > |s| exactly when a**2 - s**2 > 0, and then a's sign wins.
        return Ordering(-s if t > 0 else s)
    ed = len(nums) - (nums[0][0] == 1)
    while True:
        lo_n, _, hi_n, _ = _int_bounds(nums, den, ed)
        if lo_n > 0:
            return Ordering.GREATER
        if hi_n < 0:
            return Ordering.LESS
        ed = max(ed << 4, ed * ed)


@dataclass(frozen=True)
class Enclosure:
    """A certified interval ``[lo, hi]`` known to contain an exact value.

    The endpoints are exact (possibly irrational), so values known
    exactly get genuine zero-width enclosures.
    """

    lo: ExactReal
    hi: ExactReal

    def __post_init__(self):
        if compare(self.lo, self.hi) is Ordering.GREATER:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: ExactReal) -> "Enclosure":
        return cls(x, x)

    @property
    def width(self) -> ExactReal:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: "ExactReal | Rational") -> bool:
        v = x if isinstance(x, ExactReal) else ExactReal.from_rational(x)
        return (
            compare(self.lo, v) is not Ordering.GREATER
            and compare(v, self.hi) is not Ordering.GREATER
        )

    def contains_enclosure(self, other: "Enclosure") -> bool:
        return (
            compare(self.lo, other.lo) is not Ordering.GREATER
            and compare(other.hi, self.hi) is not Ordering.GREATER
        )

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = self.lo if compare(self.lo, other.lo) is not Ordering.LESS else other.lo
        hi = self.hi if compare(self.hi, other.hi) is not Ordering.GREATER else other.hi
        if compare(lo, hi) is Ordering.GREATER:
            raise InconsistentEnclosureError(
                f"enclosures [{self.lo}, {self.hi}] and [{other.lo}, {other.hi}] are disjoint"
            )
        return Enclosure(lo, hi)

    def overlaps(self, other: "Enclosure") -> bool:
        return (
            compare(self.lo, other.hi) is not Ordering.GREATER
            and compare(other.lo, self.hi) is not Ordering.GREATER
        )

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def scale(self, q: Rational) -> "Enclosure":
        q = Fraction(q)
        if q >= 0:
            return Enclosure(self.lo * q, self.hi * q)
        return Enclosure(self.hi * q, self.lo * q)

    def to_jsonable(self) -> dict:
        return {"lo": self.lo.literal(), "hi": self.hi.literal()}

    def __repr__(self):
        return f"Enclosure[{self.lo}, {self.hi}]"

