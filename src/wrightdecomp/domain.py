"""Open intervals with exact endpoints and deterministic sample grids."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyDomainError, ParseError, _expect_type
from .exactreal import ExactReal, Ordering, check_radical_index, compare

_WINDOW = Fraction(16)


@dataclass(frozen=True)
class Interval:
    """Nonvoid open interval; ``None`` endpoints stand for -inf / +inf."""

    lo: ExactReal | None
    hi: ExactReal | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None:
            if compare(self.lo, self.hi) is not Ordering.LESS:
                raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @classmethod
    def open(cls, lo, hi) -> "Interval":
        conv = lambda e: None if e is None else (
            e if isinstance(e, ExactReal) else ExactReal.from_rational(e)
        )
        return cls(conv(lo), conv(hi))

    def contains(self, x: ExactReal | int | Fraction) -> bool:
        v = x if isinstance(x, ExactReal) else ExactReal.from_rational(x)
        if self.lo is not None and compare(self.lo, v) is not Ordering.LESS:
            return False
        if self.hi is not None and compare(v, self.hi) is not Ordering.LESS:
            return False
        return True

    def literal(self) -> str:
        lo = "-inf" if self.lo is None else self.lo.literal()
        hi = "inf" if self.hi is None else self.hi.literal()
        return f"({lo}, {hi})"

    def __str__(self):
        return self.literal()

    @classmethod
    def parse(cls, text: str) -> "Interval":
        s = _expect_type(text, str, "interval literal").strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"interval literal must look like (a, b), got {text!r}")
        body = s[1:-1]
        if body.count(",") != 1:
            raise ParseError(f"interval literal needs exactly one comma: {text!r}")
        lo_s, hi_s = (p.strip() for p in body.split(","))
        lo = None if lo_s == "-inf" else ExactReal.parse(lo_s)
        hi = None if hi_s in ("inf", "+inf") else ExactReal.parse(hi_s)
        try:
            return cls(lo, hi)
        except ValueError as exc:  # an empty interval
            raise ParseError(f"{exc} in {text!r}") from exc


def shifted_intersection(interval: Interval, w: ExactReal | int | Fraction) -> Interval:
    """The domain ``I ∩ (I - w)`` on which a difference of step w lives."""
    wv = w if isinstance(w, ExactReal) else ExactReal.from_rational(w)
    sign = compare(wv, 0)
    lo, hi = interval.lo, interval.hi
    if sign is Ordering.GREATER:
        new_lo, new_hi = lo, None if hi is None else hi - wv
    elif sign is Ordering.LESS:
        new_lo, new_hi = None if lo is None else lo - wv, hi
    else:
        return interval
    if new_lo is not None and new_hi is not None:
        if compare(new_lo, new_hi) is not Ordering.LESS:
            raise EmptyDomainError(
                f"step {wv} exhausts interval {interval.literal()}"
            )
    return Interval(new_lo, new_hi)


def rational_anchors(interval: Interval) -> tuple[Fraction, Fraction]:
    """Rationals a < b with (a, b) a subinterval of ``interval``.

    When an endpoint is rational it is used directly (points generated
    strictly between the anchors remain inside the open interval); an
    irrational endpoint is replaced by a rational bound lying strictly
    inside; infinite endpoints get a fixed finite window.
    """
    lo, hi = interval.lo, interval.hi
    if lo is None and hi is None:
        return -_WINDOW / 2, _WINDOW / 2
    if lo is None:
        b = hi.bounds(Fraction(1))[0]  # rational <= hi
        return b - _WINDOW, b
    if hi is None:
        a = lo.bounds(Fraction(1))[1]  # rational >= lo
        return a, a + _WINDOW
    eps = Fraction(1)
    while True:
        a = lo.bounds(eps)[1]
        b = hi.bounds(eps)[0]
        if a < b:
            return a, b
        eps /= 4


def _mediant(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


def _rational_points(a: Fraction, b: Fraction, n: int) -> list[Fraction]:
    # Dyadic subdivision carries the bulk (denominators stay powers of
    # two times the anchor denominators); near each anchor a short
    # mediant chain crowds points toward the endpoint.
    if n <= 0:
        return []
    n_med = n // 8
    n_base = n - 2 * n_med
    scale = 1
    while scale < n_base + 1:
        scale *= 2
    span = b - a
    pts = [a + span * Fraction(k * scale // (n_base + 1), scale) for k in range(1, n_base + 1)]
    chosen = set(pts)
    for anchor, first in ((a, pts[0]), (b, pts[-1])):
        cur = first
        for _ in range(n_med):
            cur = _mediant(anchor, cur)
            while cur in chosen:
                cur = _mediant(anchor, cur)
            chosen.add(cur)
            pts.append(cur)
    pts.sort()
    return pts


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic finite stand-in for a dense subset of the interval.
    A rational value given among the irrationals is moved to the
    rationals.  A repeated point is dropped, the first of each kept, and
    the rationals are sorted ascending; the irrationals keep the order
    given."""

    interval: Interval
    rationals: tuple[Fraction, ...]
    irrationals: tuple[ExactReal, ...]
    seed: int

    def __post_init__(self):
        moved = [x.rational_part for x in self.irrationals if x.is_rational]
        rationals = dict.fromkeys((*self.rationals, *moved))
        irrationals = dict.fromkeys(x for x in self.irrationals if not x.is_rational)
        object.__setattr__(self, "rationals", tuple(sorted(rationals)))
        object.__setattr__(self, "irrationals", tuple(irrationals))

    @functools.cached_property
    def _sorted_points(self) -> tuple[ExactReal, ...]:
        pts = [ExactReal.from_rational(q) for q in self.rationals]
        pts.extend(self.irrationals)
        pts.sort(key=functools.cmp_to_key(compare))
        return tuple(pts)

    def points(self) -> tuple[ExactReal, ...]:
        """All grid points, ascending."""
        return self._sorted_points

    def rational_only(self) -> "SampleGrid":
        return SampleGrid(self.interval, self.rationals, (), self.seed)

    def restricted_to(self, sub: Interval) -> "SampleGrid":
        return SampleGrid(
            sub,
            tuple(q for q in self.rationals if sub.contains(q)),
            tuple(x for x in self.irrationals if sub.contains(x)),
            self.seed,
        )


def make_grid(
    interval: Interval,
    n_rational: int,
    n_irrational: int,
    basis: Sequence[int],
    seed: int,
) -> SampleGrid:
    """Build a deterministic grid of rational points and irrational probes.

    Rational points follow a fixed subdivision scheme; irrational probes
    are rational combinations over ``basis`` rejection-sampled into the
    interval with a seeded generator, so identical arguments always
    reproduce the identical grid.
    """
    if n_rational < 0 or n_irrational < 0:
        raise ValueError("point counts must be nonnegative")
    basis_keys = tuple(sorted({check_radical_index(m) for m in basis if m != 1}))
    a, b = rational_anchors(interval)
    rationals = tuple(_rational_points(a, b, n_rational))
    for q in rationals:
        assert interval.contains(q)

    irrationals: list[ExactReal] = []
    if n_irrational > 0:
        if not basis_keys:
            raise ValueError("irrational probes need a nonempty basis")
        rng = random.Random(seed)
        attempts = 0
        limit = 2000 + 500 * n_irrational
        denom = 1024
        while len(irrationals) < n_irrational:
            attempts += 1
            if attempts > limit:
                raise EmptyDomainError(
                    f"could not place {n_irrational} irrational probes in {interval.literal()}"
                )
            offset = Fraction(rng.randrange(1, denom), denom)
            r = a + offset * (b - a)
            coeffs: dict[int, Fraction] = {1: r}
            for m in basis_keys:
                c = Fraction(rng.randrange(-32, 33), 8)
                if c:
                    coeffs[m] = c
            if len(coeffs) == 1:
                continue
            x = ExactReal(coeffs)
            if interval.contains(x) and x not in irrationals:
                irrationals.append(x)
    return SampleGrid(interval, rationals, tuple(irrationals), seed)
