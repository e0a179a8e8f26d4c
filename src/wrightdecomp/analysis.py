"""Difference operators, exact convexity checkers and violation certificates.

Every checker reports either a clean pass over its finite sample or the
first violation in a deterministic sweep order, as a self-verifying
certificate carrying the exact witness points and both sides of the
violated inequality.  A pass is always evidence over the sampled grid,
never a proof.

Certificate convention: the checked inequality is written ``lhs >= rhs``;
a violation means ``lhs < rhs`` exactly.  ``_SIDES`` writes both sides of
each kind once, in ``ExactReal`` arithmetic through ``evaluate``; a
certificate's re-check and ``double_delta`` read it.  Every sweep over a
run's grid and brackets reads f's compiled form instead (``_compiled``,
the form the instance compiles once per set of radicals): ``wright_check``,
``jensen_check``, ``lipschitz_bound`` and the transfer check's monotone
scan hold points as int coordinates on one lattice and values as int
tuples on one value lattice (``_lattice_values``), decide each inequality
as the sign of a tuple difference, test each point's domain at most once,
and build the two sides, as ``ExactReal`` values, only for a certificate.
``wright_check`` compares f(x+u+v) - f(x+v) with f(x+u) - f(x), formed
once per row, and decides its row ends and its step profile on the same
coordinates.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

from .domain import SampleGrid
from .errors import (
    BracketViolationError,
    NonPositiveStepError,
    OutOfDomainError,
    WrightDecompError,
    _expect_type,
)
from .exactreal import ExactReal, Ordering, _coordinates, _from_lattice, _lattice, _lattice_sign
from .exactreal import _side, compare
from .funcspec import FunctionDef

_HALF = Fraction(1, 2)
_JENSEN_CONTEXT = (("t", ExactReal.from_rational(_HALF)),)

# kind -> (ev, *witness) -> (lhs, rhs): the checked inequality is lhs >= rhs.
# ``recompute_sides`` and ``double_delta`` read it; the lattice sweeps decide
# the Wright and Jensen inequalities on ints.  No checker emits ``monotone``,
# which only ``recompute_sides`` reads.
_SIDES: dict[str, Callable[..., tuple[ExactReal, ExactReal]]] = {
    "wright": lambda ev, x, u, v: (ev(x + u + v) + ev(x), ev(x + u) + ev(x + v)),
    "jensen": lambda ev, x, y: (ev(x) * _HALF + ev(y) * _HALF, ev(x * _HALF + y * _HALF)),
    # slope(x, u) <= slope(u, y), cross-multiplied by (u - x) and (y - u)
    "monotone": lambda ev, x, u, y: ((ev(y) - ev(u)) * (u - x), (ev(u) - ev(x)) * (y - u)),
}


def _jsonable(value):
    """A report field as JSON: a number as its exact literal, a certificate
    or report through its ``to_jsonable``, a tuple as a list, and a dict
    with its keys as strings, in key order."""
    if isinstance(value, (Fraction, ExactReal)):
        return str(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value.to_jsonable() if hasattr(value, "to_jsonable") else value


class _Report:
    """A dataclass report whose document is its fields, as ``_jsonable``
    writes them, except those named in ``_unreported``."""

    _unreported: tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            f.name: _jsonable(getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._unreported
        }


@dataclass(frozen=True)
class ViolationCertificate(_Report):
    """Exact witness of a violated inequality; re-checkable in isolation."""

    kind: str  # 'wright' | 'jensen' | 'monotone'
    witness: tuple[ExactReal, ...]
    lhs: ExactReal
    rhs: ExactReal
    context: tuple[tuple[str, ExactReal], ...] = ()

    def violation_amount(self) -> ExactReal:
        """lhs - rhs; strictly negative for a genuine violation."""
        return self.lhs - self.rhs

    def recompute_sides(self, f: FunctionDef) -> tuple[ExactReal, ExactReal]:
        """Both sides at the witness; a ValueError for a witness that no
        checker emits, whose sides would not certify anything."""
        if self.kind == "wright":
            x, u, v = self.witness
            if not (0 < u and 0 < v):
                raise ValueError(f"Wright steps must be positive, got {u}, {v}")
        elif self.kind == "jensen":
            x, y = self.witness  # a pair, or a ValueError
            if self.context not in ((), _JENSEN_CONTEXT):
                raise ValueError("Jensen certificates are checked at t = 1/2 only")
        elif self.kind == "monotone":
            x, u, y = self.witness
            if not x < u < y:
                raise ValueError(f"monotone witness ({x}, {u}, {y}) is not strictly ascending")
        else:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        return _SIDES[self.kind](f.evaluate, *self.witness)

    def verify(self, f: FunctionDef) -> bool:
        """True iff re-evaluation reproduces both sides and the violation."""
        try:
            lhs, rhs = self.recompute_sides(f)
        except (WrightDecompError, ValueError):
            # Out-of-domain witness, unknown kind or malformed witness;
            # anything else is a fault of the program and propagates.
            return False
        return lhs == self.lhs and rhs == self.rhs and compare(lhs, rhs) is Ordering.LESS

    def to_jsonable(self) -> dict:
        doc = super().to_jsonable()
        doc.update(violation=str(self.violation_amount()), context=_jsonable(dict(self.context)))
        return doc

    @classmethod
    def from_jsonable(cls, d: dict) -> "ViolationCertificate":
        _expect_type(d, dict, "certificate")
        context = _expect_type(d.get("context", {}), dict, "certificate context")
        return cls(
            _expect_type(d["kind"], str, "certificate kind"),
            tuple(ExactReal.parse(w) for w in _expect_type(d["witness"], list, "witness")),
            ExactReal.parse(d["lhs"]),
            ExactReal.parse(d["rhs"]),
            tuple((k, ExactReal.parse(v)) for k, v in sorted(context.items())),
        )


@dataclass(frozen=True)
class CheckReport(_Report):
    """Outcome of a grid sweep: pass over the sample, or first violation."""

    passed: bool
    certificate: ViolationCertificate | None
    checked: int

    @property
    def description(self) -> str:
        return "no violation found on grid" if self.passed else "violation found on grid"

    def to_jsonable(self) -> dict:
        return {**super().to_jsonable(), "description": self.description}


def double_delta(
    f: FunctionDef,
    u: ExactReal | int | Fraction,
    v: ExactReal | int | Fraction,
    x: ExactReal,
) -> ExactReal:
    """f(x+u+v) - f(x+u) - f(x+v) + f(x) for positive steps u, v."""
    uv = u if isinstance(u, ExactReal) else ExactReal.from_rational(u)
    vv = v if isinstance(v, ExactReal) else ExactReal.from_rational(v)
    if compare(uv, 0) is not Ordering.GREATER or compare(vv, 0) is not Ordering.GREATER:
        raise NonPositiveStepError(f"steps must be positive, got {uv}, {vv}")
    top = x + uv + vv
    if not f.interval.contains(x) or not f.interval.contains(top):
        raise OutOfDomainError(
            f"triple ({x}, {uv}, {vv}) leaves {f.interval.literal()}"
        )
    lhs, rhs = _SIDES["wright"](f.evaluate, x, uv, vv)
    return lhs - rhs


def build_steps(
    grid: SampleGrid,
    explicit: Sequence[ExactReal] = (),
    *,
    max_grid_steps: int | None = None,
) -> tuple[ExactReal, ...]:
    """Step profile: explicit steps first (in the given order, without
    repeats; one that is not positive is a NonPositiveStepError), then the
    positive pairwise grid differences, ascending and deduplicated, capped
    at ``max_grid_steps`` (0 keeps the explicit steps only; a negative
    cap is a ValueError).

    Counterexample hunting usually needs explicit steps aligned with the
    kernel structure of the suspected additive part; random grid
    differences almost never hit them.  The differences are deduplicated
    and sorted as int coordinate tuples on the grid's lattice, and only
    the steps kept are built as ``ExactReal`` values.
    """
    explicit_steps, grid_steps = _step_profile(grid, explicit, max_grid_steps)
    return (*explicit_steps, *grid_steps)


def _step_profile(grid: SampleGrid, explicit: Sequence, cap: int | None) -> tuple[list, list]:
    """``build_steps``'s profile as its explicit steps and its grid steps."""
    if cap is not None and cap < 0:
        raise ValueError(f"max_grid_steps must be >= 0, got {cap}")
    steps: list[ExactReal] = []
    seen: set[ExactReal] = set()
    for s in explicit:
        sv = s if isinstance(s, ExactReal) else ExactReal.from_rational(s)
        if compare(sv, 0) is not Ordering.GREATER:
            raise NonPositiveStepError(f"steps must be positive, got {sv}")
        if sv not in seen:
            steps.append(sv)
            seen.add(sv)
    if cap == 0:
        return steps, []
    radicals, den, coords = _lattice(grid.points())
    # The points ascend, so every difference of a later point is positive or 0.
    diffs = {tuple(map(operator.sub, q, p)) for i, p in enumerate(coords) for q in coords[i + 1 :]}
    diffs.discard((0,) * len(radicals))
    diffs.difference_update(_coordinates(s, radicals, den) for s in seen)
    # On one radical c*sqrt(m)/den ascends with c.
    by_sign = functools.cmp_to_key(lambda a, b: _lattice_sign(radicals, map(operator.sub, a, b), 1))
    ordered = sorted(diffs, key=None if len(radicals) == 1 else by_sign)
    return steps, [_from_lattice(radicals, c, den) for c in ordered[:cap]]


def _lattice_values(f: FunctionDef, radicals: tuple[int, ...], den: int) -> tuple:
    """``(vrad, vden, ev)`` for points c/den on ``radicals``: ``ev(c)`` is
    f(c/den) as int coordinates on the value radicals ``vrad`` over
    ``vden``, read from ``f._compiled`` and memoised by c.  It checks no
    domain.  A point with a coordinate on a radical outside ``f.basis``
    raises the out-of-span error ``evaluate`` would (``f._check``)."""
    vrad, t, value = f._compiled(radicals)
    outside = [i for i, m in enumerate(radicals) if m != 1 and m not in f.basis]
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def ev(c: tuple[int, ...]) -> tuple[int, ...]:
        fc = memo.get(c)
        if fc is None:
            if outside and any(c[i] for i in outside):
                f._check(_from_lattice(radicals, c, den))  # raises OutOfSpanError
            fc = memo[c] = value(c, den)
        return fc

    return vrad, t * den * den, ev


def wright_check(
    f: FunctionDef,
    grid: SampleGrid,
    steps: Sequence[ExactReal] = (),
    *,
    max_grid_steps: int | None = None,
) -> CheckReport:
    """Exact sweep of the double difference over all admissible triples.

    Triples (x, u, v) take x from the grid in ascending order and u, v
    from the step profile in profile order; a triple is admissible when
    x+u+v lies in the interval, and the first admissible triple with
    f(x+u+v) + f(x) < f(x+u) + f(x+v) becomes the certificate.

    Both sides are symmetric in u and v, so only pairs with u at or
    before v in the profile are computed.  A mirrored triple (x, v, u)
    has the sides of (x, u, v), which the sweep has already passed: it is
    counted in ``checked`` at its own place in the order but not compared
    again, so ``checked`` still counts every ordered admissible triple.

    The loop decides f(x+u+v) - f(x+v) < f(x+u) - f(x), the same exact
    inequality, with f(x+u) - f(x) formed once per row, and builds the two
    Wright sides only for a certificate.  Grid points and steps share one
    common denominator and one sorted radical list, so each point is a
    tuple of int coordinates and a top x+u+v is a tuple sum.  Values live
    on the value lattice of ``f._compiled``, the form f compiles once for
    the sweep's radicals, with the sweep's denominator applied per value:
    the memo (``_lattice_values``) maps a point's coordinates to f's value
    as an int tuple over one denominator, the inequality is the sign of a
    tuple difference (one int's when only the rational coordinate is
    nonzero, else ``_lattice_sign``'s), and a certificate's sides are
    built from the tuples.  Domain and span are checked once per grid row, at x
    (``f._check``, with ``evaluate``'s errors).  x+u, x+v and x+u+v lie
    above x, and the row's end keeps them below hi, so they stay in the
    interval.  They are checked again only when they have a coordinate on
    a radical outside ``f.basis``, which raises the out-of-span error
    ``evaluate`` would.  Row ends are found on the same coordinates
    (``exactreal._side``), by bisecting the grid steps' ints on one radical.
    """
    explicit, grid_steps = _step_profile(grid, steps, max_grid_steps)
    step_list = explicit + grid_steps
    # The grid steps follow the explicit steps in ascending order, so past
    # the explicit steps a bisection finds where a row leaves the
    # interval; an explicit step is tested on its own.
    n_explicit, n = len(explicit), len(step_list)
    pts = grid.points()
    radicals, den, coords = _lattice(pts + tuple(step_list))
    step_coords = coords[len(pts) :]
    vrad, vden, ev = _lattice_values(f, radicals, den)
    # A top with coordinates c lies at or above hi when past(c, den) >= 0;
    # on one radical that hi shares, when c[0] >= cut.
    hi, cut = f.interval.hi, None
    past = None if hi is None else _side(radicals, hi)
    if past is not None and len(radicals) == 1 and set(hi.coefficients) <= set(radicals):
        q = hi.coefficients.get(radicals[0], 0)
        cut, step_ints = -(-q.numerator * den // q.denominator), [c[0] for c in step_coords]
    checked = 0
    for x, xc in zip(pts, coords):
        f._check(x)  # the row's one domain check
        fx = ev(xc)
        shifted = [tuple(map(operator.add, xc, sc)) for sc in step_coords]
        # mirrored[j] counts the admissible (x, u_i, u_j) with i < j: row j
        # opens with their mirrors (x, u_j, u_i).  What the diagonal adds is
        # never read.
        mirrored = [0] * n
        for i, u in enumerate(step_list):
            checked += mirrored[i]
            xu = shifted[i]
            # x lies in the interval and the steps are positive, so x+u+v
            # leaves it only at hi; grid steps from ``end`` on take it
            # there.  x+u and x+v lie below x+u+v.
            if past is None:
                end = n
            elif cut is not None:
                end = bisect.bisect_left(step_ints, cut - xu[0], max(i, n_explicit))
            else:
                top_past = lambda j: past(tuple(map(operator.add, xu, step_coords[j])), den)
                end = bisect.bisect_left(range(n), 0, max(i, n_explicit), key=top_past)
            fxu = None
            for j in range(i, end):
                top = tuple(map(operator.add, xu, step_coords[j]))
                if j < n_explicit and past is not None and past(top, den) >= 0:
                    continue
                if fxu is None:
                    # f(x+u) before f(x+u+v) before f(x+v): the order fixes
                    # which point an out-of-span error names.
                    fxu = ev(xu)
                    row = tuple(map(operator.sub, fxu, fx))
                mirrored[j] += 1
                checked += 1
                ftop = ev(top)
                fxv = ev(shifted[j])
                diff = [p - q - r for p, q, r in zip(ftop, fxv, row)]
                # Mostly the additive part cancels, leaving the rational coordinate.
                if _lattice_sign(vrad, diff, vden) < 0 if any(diff[1:]) else diff[0] < 0:
                    lhs = _from_lattice(vrad, tuple(map(operator.add, ftop, fx)), vden)
                    rhs = _from_lattice(vrad, tuple(map(operator.add, fxu, fxv)), vden)
                    cert = ViolationCertificate("wright", (x, u, step_list[j]), lhs, rhs)
                    return CheckReport(False, cert, checked)
    return CheckReport(True, None, checked)


def jensen_check(f: FunctionDef, grid: SampleGrid) -> CheckReport:
    """Exact midpoint-convexity sweep over all grid pairs x < y:
    f(x)/2 + f(y)/2 >= f(x/2 + y/2).

    The points share one lattice at twice their common denominator, where
    a grid point with coordinates c sits at 2c and the midpoint of x and y
    at c_x + c_y.  The inequality is the sign of f(x) + f(y) - 2f(m) as a
    difference of value tuples (``_lattice_values``), and the two sides
    are built only for a certificate.  Each grid point's domain and span
    are checked once, at its first use (``f._check``, with ``evaluate``'s
    errors); the midpoint of two checked points needs no check.
    """
    pts = grid.points()
    radicals, den, coords = _lattice(pts)
    vrad, vden, ev = _lattice_values(f, radicals, 2 * den)
    values: list[tuple[int, ...]] = []

    def at(i: int) -> tuple[int, ...]:
        # Pairs (0, 1), (0, 2), ... come first, so grid points are first
        # used in index order.
        if i == len(values):
            f._check(pts[i])
            values.append(ev(tuple([2 * n for n in coords[i]])))
        return values[i]

    checked = 0
    for i in range(len(pts) - 1):
        fx = at(i)
        for j in range(i + 1, len(pts)):
            checked += 1
            fy = at(j)
            fm = ev(tuple(map(operator.add, coords[i], coords[j])))
            diff = [p + q - 2 * r for p, q, r in zip(fx, fy, fm)]
            if _lattice_sign(vrad, diff, vden) is Ordering.LESS:
                lhs = _from_lattice(vrad, tuple(map(operator.add, fx, fy)), 2 * vden)
                cert = ViolationCertificate(
                    "jensen", (pts[i], pts[j]), lhs, _from_lattice(vrad, fm, vden), _JENSEN_CONTEXT
                )
                return CheckReport(False, cert, checked)
    return CheckReport(True, None, checked)


def lipschitz_bound(
    f: FunctionDef,
    a: Fraction,
    b: Fraction,
    bracket: tuple[Fraction, Fraction, Fraction, Fraction],
    eps: Fraction,
) -> Fraction:
    """Rational Lipschitz modulus for f on the rationals of [a, b].

    With bracket rationals a' < a'' <= a < b <= b' < b'' inside the
    interval, the modulus is max(|alpha|, |beta|) where alpha is the
    divided difference over (a', a'') and beta over (b', b'').  For a
    midpoint-convex restriction this bounds |f(x) - f(y)| / |x - y| over
    all rationals x, y in [a, b].  f at the four points comes from
    ``f._compiled`` over one common denominator, and the test of a' and b''
    is the domain check.  The two slopes are compared exactly, by
    cross-multiplying value tuples; the larger one's |numerator| is
    bounded above to within eps and then divided by its width.
    """
    a1, a2, b1, b2 = bracket = tuple(Fraction(q) for q in bracket)
    if not (a1 < a2 <= a < b <= b1 < b2):
        raise BracketViolationError(
            f"bracket ({a1}, {a2}, {b1}, {b2}) fails a' < a'' <= a < b <= b' < b''"
        )
    # The points ascend, so the interval holds all four once it holds a' and b''.
    for q in (a1, b2):
        if not f.interval.contains(q):
            raise BracketViolationError(f"bracket point {q} outside {f.interval.literal()}")
    return _lipschitz_bar(f, bracket, eps)


def _lipschitz_bar(f: FunctionDef, bracket: tuple[Fraction, ...], eps: Fraction) -> Fraction:
    """``lipschitz_bound``'s modulus, for a bracket of four ascending
    Fractions that the caller has already placed inside f's interval."""
    # The four points over one denominator, f at them as value tuples.
    vrad, t, value = f._compiled((1,))
    den = math.lcm(*[q.denominator for q in bracket])
    n = [q.numerator * (den // q.denominator) for q in bracket]
    fa1, fa2, fb1, fb2 = (value((k,), den) for k in n)

    def rise(p: tuple[int, ...], q: tuple[int, ...]) -> list[int]:
        d = [y - x for x, y in zip(p, q)]
        return [-k for k in d] if _lattice_sign(vrad, d, 1) is Ordering.LESS else d

    # Slopes alpha = rise_a/run_a and beta = rise_b/run_b, runs positive.
    rise_a, run_a, rise_b, run_b = rise(fa1, fa2), n[1] - n[0], rise(fb1, fb2), n[3] - n[2]
    cross = [p * run_b - q * run_a for p, q in zip(rise_a, rise_b)]
    if _lattice_sign(vrad, cross, 1) is Ordering.LESS:
        rise_a, run_a = rise_b, run_b
    return _from_lattice(vrad, rise_a, t * den * den).bounds(eps)[1] * den / run_a
