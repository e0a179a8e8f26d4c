"""Independent oracles used by the test suite.

The radical bounds here use integer square roots at a fixed decimal
scale (math.isqrt on m * 10**(2*digits)), a different algorithm from the
library's Heron bracket chains, so containment checks are genuinely
two-route.  ``wright_convex`` labels an instance from its fields alone,
without any checker.  The reference Wright sweep visits every ordered triple and
tests both interval bounds, where the library skips mirrored triples
and stops rows early.  Pell convergents give near-ties whose sign is
known from p^2 - m*q^2 = 1 alone.  The reference Jensen sweep, step-v
monotone scan, Lipschitz modulus and extension chain read f through
``evaluate`` and decide in ``ExactReal`` arithmetic, where the library
reads f's compiled form and decides on int tuples.  The reference step
profile subtracts, deduplicates and sorts the grid differences as
``ExactReal`` values, where the library does so on lattice coordinates.
The reference recovery point searches for q by doubling and halving
under ``compare``, where the library reads q off bit lengths.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from wrightdecomp import (
    AbsAdditive,
    CheckReport,
    Decomposable,
    Enclosure,
    ExactReal,
    Ordering,
    Spiked,
    ViolationCertificate,
    compare,
)
from wrightdecomp.domain import rational_anchors
from wrightdecomp.errors import BracketViolationError, NonPositiveStepError

_HALF = Fraction(1, 2)


def radical_bounds(x: ExactReal, digits: int = 200) -> tuple[Fraction, Fraction]:
    """Rational lo <= value(x) <= hi with hi - lo <= (#terms) * 10**-digits."""
    scale = 10**digits
    lo = hi = x.rational_part * scale
    for m, q in x.coefficients.items():
        if m == 1:
            continue
        s = math.isqrt(m * scale * scale)  # s <= sqrt(m)*scale < s + 1
        if q > 0:
            lo += q * s
            hi += q * (s + 1)
        else:
            lo += q * (s + 1)
            hi += q * s
    return lo / scale, hi / scale


def numeric_sign(x: ExactReal, digits: int = 200) -> int:
    """Sign of value(x) decided by the isqrt oracle; 0 means undecided."""
    lo, hi = radical_bounds(x, digits)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0


def pell_sqrt11_convergent(digits: int = 150) -> tuple[int, int]:
    """First (p, q) from (10 + 3*sqrt11)^k = p + q*sqrt11 whose q has
    ``digits`` digits.  p^2 - 11*q^2 = 1, so 0 < p/q - sqrt11 < 1/(6*q^2)."""
    p, q = 10, 3
    while len(str(q)) < digits:
        p, q = 10 * p + 33 * q, 3 * p + 10 * q
    assert p * p - 11 * q * q == 1
    return p, q


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def wright_convex(inst) -> bool:
    """Whether a catalog instance is Wright convex, read from its fields.

    - A ``Decomposable`` is a convex part plus an additive one
      (``ConvexSpec.validate`` requires quad >= 0 and positive hinge
      weights), so it always is.
    - An ``AbsAdditive`` |A| is only when A is linear, A(x) = A(1)*x, so
      that |A| is |A(1)|*|x|; A = 0 is one such map.  For any other A,
      conjugate steps u = r + s*sqrt(m) and v = r - s*sqrt(m) refute it.
      The catalog draws A zero on Q and nonzero on a basis radical, so a
      generated |A| never is.
    - A ``Spiked`` instance never is: ``validate`` requires lift > 0, and
      a triple through the spike point refutes it once the steps are small.
    """
    if isinstance(inst, Decomposable):
        return True
    if isinstance(inst, AbsAdditive):
        a1 = inst.additive.coefficient(1)
        return all(inst.additive.coefficient(m) == a1 * ExactReal.sqrt(m) for m in inst.basis)
    if isinstance(inst, Spiked):
        return False
    raise TypeError(f"no label for {type(inst).__name__}")


def build_steps_reference(grid, explicit=(), *, max_grid_steps=None) -> tuple[ExactReal, ...]:
    """The explicit steps, first and in order without repeats (one that is
    not positive raises ``NonPositiveStepError``); then every positive
    difference of two grid points that is not an explicit step, ascending
    by ``compare`` without repeats, the first ``max_grid_steps`` of them."""
    steps: list[ExactReal] = []
    for s in explicit:
        s = s if isinstance(s, ExactReal) else ExactReal.from_rational(s)
        if compare(s, 0) is not Ordering.GREATER:
            raise NonPositiveStepError(f"steps must be positive, got {s}")
        if s not in steps:
            steps.append(s)
    if max_grid_steps == 0:
        return tuple(steps)
    pts = grid.points()
    diffs = {q - p for p in pts for q in pts if compare(q, p) is Ordering.GREATER}
    ordered = sorted(diffs - set(steps), key=functools.cmp_to_key(compare))
    return (*steps, *ordered[:max_grid_steps])


def wright_sweep_reference(f, grid, steps=(), *, max_grid_steps=None) -> CheckReport:
    """The plain ordered sweep: every (x, u, v) with x+u+v in the interval,
    x ascending and u, v in profile order; the first violation certifies."""
    step_list = build_steps_reference(grid, steps, max_grid_steps=max_grid_steps)
    ev = functools.cache(f.evaluate)
    checked = 0
    for x in grid.points():
        fx = ev(x)
        for u in step_list:
            for v in step_list:
                top = x + u + v
                if f.interval.contains(top):
                    checked += 1
                    fxu = ev(x + u)
                    lhs, rhs = ev(top) + fx, fxu + ev(x + v)
                    if compare(lhs, rhs) is Ordering.LESS:
                        cert = ViolationCertificate("wright", (x, u, v), lhs, rhs)
                        return CheckReport(False, cert, checked)
    return CheckReport(True, None, checked)


def jensen_sweep_reference(f, grid) -> CheckReport:
    """Every grid pair x < y in order, f(x)/2 + f(y)/2 >= f(x/2 + y/2) in
    ``ExactReal`` arithmetic; the first violation certifies."""
    ev = functools.cache(f.evaluate)
    pts = grid.points()
    checked = 0
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            checked += 1
            lhs, rhs = ev(x) * _HALF + ev(y) * _HALF, ev(x * _HALF + y * _HALF)
            if compare(lhs, rhs) is Ordering.LESS:
                context = (("t", ExactReal.from_rational(_HALF)),)
                cert = ViolationCertificate("jensen", (x, y), lhs, rhs, context)
                return CheckReport(False, cert, checked)
    return CheckReport(True, None, checked)


def monotone_scan_reference(f, v, pts) -> CheckReport:
    """x -> f(x+v) - f(x) nondecreasing over adjacent points x1 < x2, as
    Wright's inequality at (x1, x2 - x1, v) in ``ExactReal`` arithmetic."""
    ev = functools.cache(f.evaluate)
    checked = 0
    for x1, x2 in zip(pts, pts[1:]):
        checked += 1
        u = x2 - x1
        lhs, rhs = ev(x1 + u + v) + ev(x1), ev(x1 + u) + ev(x1 + v)
        if compare(lhs, rhs) is Ordering.LESS:
            return CheckReport(False, ViolationCertificate("wright", (x1, u, v), lhs, rhs), checked)
    return CheckReport(True, None, checked)


def lipschitz_bound_reference(f, a, b, bracket, eps) -> Fraction:
    """max(|alpha|, |beta|) over the bracket's two divided differences,
    with f read through ``evaluate`` and the slopes compared as
    ``ExactReal`` quotients."""
    a1, a2, b1, b2 = (Fraction(q) for q in bracket)
    if not (a1 < a2 <= a < b <= b1 < b2):
        raise BracketViolationError(
            f"bracket ({a1}, {a2}, {b1}, {b2}) fails a' < a'' <= a < b <= b' < b''"
        )
    for q in (a1, b2):
        if not f.interval.contains(q):
            raise BracketViolationError(f"bracket point {q} outside {f.interval.literal()}")
    fa1, fa2, fb1, fb2 = (f.evaluate(ExactReal.from_rational(q)) for q in (a1, a2, b1, b2))
    alpha = (abs(fa2 - fa1), a2 - a1)
    beta = (abs(fb2 - fb1), b2 - b1)
    rise, run = beta if alpha[0] / alpha[1] < beta[0] / beta[1] else alpha
    return rise.bounds(eps)[1] / run


def reference_chain(f, policy, x, rounds):
    """The first ``rounds`` running enclosures of the extension chain of f
    at the irrational x under ``policy``, in ``Enclosure`` arithmetic.

    The window and its bracket are placed as ``ExtensionHandle`` places
    them.  Each round halves delta until ``x.bounds`` changes, takes f at
    the midpoint through ``evaluate``, widens it by the modulus times the
    half-width, and intersects it with the last round
    (``Enclosure.intersect``, which raises on disjoint rounds)."""
    d = policy.initial_eps
    while True:
        a, b = x.bounds(d)
        w = policy.margin_widths * (b - a)
        if f.interval.contains(a - w) and f.interval.contains(b + w):
            break
        d /= 2
    lbar = lipschitz_bound_reference(f, a, b, (a - w, a, b, b + w), policy.slope_eps * w)
    encs = []
    lo, hi = a, b
    while len(encs) < rounds:
        fx = f.evaluate(ExactReal.from_rational((lo + hi) / 2))
        slack = lbar * (hi - lo) / 2
        enc = Enclosure(fx - slack, fx + slack)
        encs.append(encs[-1].intersect(enc) if encs else enc)
        while x.bounds(d) == (lo, hi):
            d /= 2
        lo, hi = x.bounds(d)
    return encs


def recovery_point_reference(interval, m) -> tuple[Fraction, Fraction]:
    """The recovery point (r, q) by search: r the dyadic rational near the
    center of the anchors (a, b), and q the largest power of two with
    q*sqrt(m) <= (b - a)/4, found by doubling from 1 and then halving,
    each step decided by ``compare``."""
    a, b = rational_anchors(interval)
    center = (a + b) / 2
    r = Fraction(math.floor(center * 64), 64)
    if r <= a:
        r = center
    room, s, q = (b - a) / 4, ExactReal.sqrt(m), Fraction(1)
    while compare(s * (q * 2), room) is not Ordering.GREATER:
        q *= 2
    while compare(s * q, room) is Ordering.GREATER:
        q /= 2
    return r, q
