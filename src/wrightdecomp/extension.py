"""Certified enclosures of the continuous extension of f restricted to Q.

A midpoint-convex restriction of f to the rationals of an open interval
is locally Lipschitz there, hence admits a unique continuous (convex)
extension.  This engine makes that limit quantitative: to bound the
extension at an irrational x it

1. takes as window [a, b] the first rational enclosure of x whose
   bracket (a - w, a, b, b + w), w a fixed multiple of b - a, fits inside
   the interval.  The first enclosure asked for is already at the working
   precision (2**-30 by default), so for the eps callers ask (1e-8 on the
   CLI) the chain's first round is usually the one handed out;
2. bounds the Lipschitz modulus L on the rationals of [a, b] by the
   divided differences over (a - w, a) and (b, b + w), widened to a
   rational at most ``slope_eps`` above the steeper one (its rise is
   bounded to within slope_eps * w); slopes of a convex function are
   monotone, so any outer points would do, and w only sets how tight L
   is.  The modulus is ``lipschitz_bound``'s, read without its checks,
   which step 1 has made: f at the four points comes from the compiled
   value at rationals and the two slopes are compared on int tuples;
3. probes f at the rational midpoint x_r of the window, and of each
   narrower enclosure of x that a finer eps asks for, and intersects the
   certified intervals [f(x_r) - L*d, f(x_r) + L*d], where d bounds
   |x - x_r|.  A round takes x_r as a numerator over one denominator,
   f(x_r) from the source's compiled value at rationals
   (``_compiled((1,))``) as an int tuple, and the slack in ints; its
   certified interval is built once as an ``Enclosure``, and
   ``Enclosure.intersect`` keeps the running intersection.  ``extend_eval``
   hands out the first round's intersection whose width is at most eps.

``extend_eval`` tests x's domain when it first meets x: when it starts
x's chain, or at every call for a rational x, which has no chain.  The
chain tests its bracket once, at its two outer points: every later
enclosure of x lies inside the window [a, b] (each radical's Heron
brackets nest), and so does every midpoint.  Every value f is probed at
is rational; at rational x the enclosure is the exact point value.  The
refinement chain for a given x is a pure function of the policy and x,
so cached and fresh evaluations agree and enclosures for shrinking eps
are nested.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

from .analysis import CheckReport, ViolationCertificate, _lattice_values, _lipschitz_bar, _Report
from .domain import SampleGrid, shifted_intersection
from .errors import BracketUnavailableError, NonPositiveStepError, OutOfDomainError
from .exactreal import Enclosure, ExactReal, Ordering, compare
from .exactreal import _from_lattice, _lattice, _lattice_sign, _narrower_bounds
from .funcspec import FunctionDef

_MAX_SHRINK = 500  # halvings tried before no window and bracket fit


@dataclass(frozen=True)
class BracketPolicy:
    """Deterministic knobs for window and bracket placement: the window is
    the first enclosure of x, asked at ``initial_eps`` and halved until a
    margin of ``margin_widths`` window widths fits on each side.

    The default ``initial_eps`` is the working precision: a window of width
    at most 2**-30 gives a first round of width at most L*2**-30, which
    meets eps = 1e-8 for any modulus L up to 10, so a chain asked for 1e-8
    usually runs one round.  A coarser start adds rounds that such a
    caller never gets."""

    initial_eps: Fraction = Fraction(1, 2**30)  # first enclosure width requested for x
    margin_widths: int = 1  # bracket margin, in window widths
    slope_eps: Fraction = Fraction(1, 64)  # how far the modulus may exceed the steeper slope


class _Round(NamedTuple):
    """One refinement round: the midpoint mid/den of the round's rational
    enclosure of x, f there as int coordinates on the chain's value
    radicals over t*den**2, and the running intersection of the rounds so
    far."""

    mid: int
    den: int
    fmid: tuple[int, ...]
    enclosure: Enclosure


@dataclass
class _Chain:
    lipschitz_bar: Fraction  # rational upper bound of the window modulus
    delta: Fraction  # enclosure width of x asked at the latest round
    rounds: list[_Round] = field(default_factory=list)


class ExtensionHandle:
    """On-demand certified enclosures of the extension of ``source``\\|Q.

    The extension only ever reads the source at rational points.  The
    handle is a run's evaluation context: ``evaluate`` memoises
    ``source.evaluate``, and the refinement chains are kept per point,
    checked against ``source.interval``.  It does not stand in for the
    source: the Jensen gate, the chains' brackets and the transfer check's
    monotone scan take ``source`` itself and read its compiled form, not
    ``evaluate``; the gate and the scan keep their own memos.  The memos
    and the chains are performance artifacts, so results are identical
    with or without them.
    """

    def __init__(self, source: FunctionDef, policy: BracketPolicy | None = None):
        self.source = source
        self.policy = policy or BracketPolicy()
        self.evaluate = functools.cache(source.evaluate)
        self._chains: dict[ExactReal, _Chain] = {}

    # -- source access ---------------------------------------------------

    def f_rational(self, r: Fraction) -> ExactReal:
        return self.evaluate(ExactReal.from_rational(r))

    # -- public API ----------------------------------------------------

    def extend_eval(self, x: ExactReal, eps: Fraction) -> Enclosure:
        """Enclosure of the extension at x with width <= eps."""
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        chain = self._chains.get(x)
        if chain is None:
            # The one domain test of x: a chain is started only inside the interval.
            interval = self.source.interval
            if not interval.contains(x):
                raise OutOfDomainError(f"{x} outside {interval.literal()}")
            if x.is_rational:
                # The extension agrees with f on the rationals.
                return Enclosure.point(self.f_rational(x.rational_part))
            chain = self._chains[x] = self._start_chain(x)
        k = 0
        while True:
            if k == len(chain.rounds):
                self._refine(x, chain)
            enc = chain.rounds[k].enclosure
            if compare(enc.width, eps) is not Ordering.GREATER:
                return enc
            k += 1

    def residual(self, x: ExactReal, eps: Fraction) -> Enclosure:
        """Enclosure of f(x) minus the extension at x, of width <= eps."""
        fx = self.evaluate(x)
        ext = self.extend_eval(x, eps)
        return Enclosure(fx - ext.hi, fx - ext.lo)

    # -- internals -------------------------------------------------------

    def _start_chain(self, x: ExactReal) -> _Chain:
        # x is irrational, so a < b; the interval is open, so the bracket
        # lies inside it once its two outer points do.  This is the chain's
        # one domain check: every later round's enclosure of x lies inside
        # [a, b] (each radical's Heron brackets nest), so its midpoint does.
        d, interval = self.policy.initial_eps, self.source.interval
        for _ in range(_MAX_SHRINK):
            a, b = x.bounds(d)
            w = self.policy.margin_widths * (b - a)
            if interval.contains(a - w) and interval.contains(b + w):
                break
            d /= 2
        else:
            raise BracketUnavailableError(
                f"could not fit a rational window around {x} inside {interval.literal()}"
            )
        # Both runs of the bracket are w, so a rise bounded to within
        # slope_eps * w gives the modulus to within slope_eps.
        lbar = _lipschitz_bar(self.source, (a - w, a, b, b + w), self.policy.slope_eps * w)
        chain = _Chain(lbar, d)
        self._seed_round(chain, a, b)
        return chain

    def _seed_round(self, chain: _Chain, lo: Fraction, hi: Fraction) -> None:
        """Append the round on x's rational enclosure [lo, hi]: f at its
        midpoint widened by L*half, intersected with the last round's."""
        vrad, t, value = self.source._compiled((1,))
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        den = 2 * ld * hd
        mid = ln * hd + hn * ld
        fmid = value((mid,), den)
        # Over lq*t*den**2: f(mid)*lq, and the slack L*half with half = (hn*ld - ln*hd)/den.
        lbar = chain.lipschitz_bar
        rden = lbar.denominator * t * den * den
        slack = lbar.numerator * (hn * ld - ln * hd) * t * den
        first, *rest = [n * lbar.denominator for n in fmid]
        enc = Enclosure(*(_from_lattice(vrad, (first + d, *rest), rden) for d in (-slack, slack)))
        if chain.rounds:
            # Disjoint rounds raise InconsistentEnclosureError, naming both.
            enc = chain.rounds[-1].enclosure.intersect(enc)
        chain.rounds.append(_Round(mid, den, fmid, enc))

    def _refine(self, x: ExactReal, chain: _Chain) -> None:
        # One round per bracket: a Heron bracket overshoots the width asked
        # of it, so the next halving of delta often gives the last bounds
        # again, and a round on them would repeat the last enclosure.  The
        # round goes straight to the first halving whose bounds are new.
        chain.delta, bounds = _narrower_bounds(x, chain.delta)
        self._seed_round(chain, *bounds)


@dataclass(frozen=True)
class TransferReport(_Report):
    """Evidence that the step-v difference of f transfers to the extension.

    Monotonicity is exact.  At rational points the extension is f itself,
    so the two differences agree by construction and are not reported; at
    irrational probes only a certified bound is honest, so that is what is
    reported (worst case over the probes).
    """

    v: Fraction
    eps: Fraction
    monotone_passed: bool
    monotone_certificate: ViolationCertificate | None
    probes_checked: int
    worst_certified_bound: Fraction
    within_twice_eps: bool


def _worst_magnitude(encs: Iterable[Enclosure], eps: Fraction) -> tuple[ExactReal, Fraction]:
    """Largest |value| any of the enclosures admits: exactly, and as a
    rational upper bound (each magnitude bounded to within eps/16)."""
    worst_exact = ExactReal()
    worst_ub = Fraction(0)
    for enc in encs:
        lo_a, hi_a = abs(enc.lo), abs(enc.hi)
        bound = lo_a if compare(lo_a, hi_a) is Ordering.GREATER else hi_a
        if compare(bound, worst_exact) is Ordering.GREATER:
            worst_exact = bound
        worst_ub = max(worst_ub, bound.bounds(eps / 16)[1])
    return worst_exact, worst_ub


def _monotone_scan(f: FunctionDef, v: ExactReal, pts: tuple[ExactReal, ...]) -> CheckReport:
    """Whether x -> f(x+v) - f(x) is nondecreasing over the ascending
    ``pts``, each of which lies in the interval with its p + v.

    For adjacent x1 < x2 this is Wright's inequality at (x1, x2 - x1, v),
    decided as the sign of a difference of value tuples
    (``_lattice_values``); f at each p and p + v is taken once, and the
    Wright sides are built only for a certificate."""
    radicals, den, coords = _lattice((v, *pts))
    vc, *coords = coords
    vrad, vden, ev = _lattice_values(f, radicals, den)
    shifted = [tuple(map(operator.add, c, vc)) for c in coords]
    for k in range(1, len(pts)):
        # Both sides in the order ``_SIDES`` reads them, which fixes the
        # point an out-of-span error names: f(x2+v), f(x1), f(x2), f(x1+v).
        lhs = tuple(map(operator.add, ev(shifted[k]), ev(coords[k - 1])))
        rhs = tuple(map(operator.add, ev(coords[k]), ev(shifted[k - 1])))
        if _lattice_sign(vrad, map(operator.sub, lhs, rhs), vden) is Ordering.LESS:
            x1, x2 = pts[k - 1], pts[k]
            sides = (_from_lattice(vrad, lhs, vden), _from_lattice(vrad, rhs, vden))
            return CheckReport(False, ViolationCertificate("wright", (x1, x2 - x1, v), *sides), k)
    return CheckReport(True, None, len(pts[1:]))


def difference_transfer_check(
    handle: ExtensionHandle,
    v: Fraction,
    grid: SampleGrid,
    eps: Fraction,
) -> TransferReport:
    """Check that x -> f(x+v) - f(x) is nondecreasing on the grid and
    agrees with the extension difference within a certified enclosure
    bound at its irrational probes (at rational points the extension is f).

    A nondecreasing function and a continuous function that agree on a
    dense set agree everywhere; the finite grid stands in for the dense
    set, so the result is evidence, not proof.
    """
    v = Fraction(v)
    if v <= 0:
        raise NonPositiveStepError(f"transfer step must be positive, got {v}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    sub = shifted_intersection(handle.source.interval, v)
    pts = grid.points()
    for p in pts:
        if not sub.contains(p):
            raise OutOfDomainError(f"grid point {p} outside {sub.literal()}")

    v_exact = ExactReal.from_rational(v)
    monotone = _monotone_scan(handle.source, v_exact, pts)

    # The difference of the two residual enclosures holds the step-v
    # difference of f minus that of the extension, so its farther endpoint
    # certifies the gap between them.
    worst_exact, worst_ub = _worst_magnitude(
        (handle.residual(x + v_exact, eps) - handle.residual(x, eps) for x in grid.irrationals),
        eps,
    )

    return TransferReport(
        v=v,
        eps=eps,
        monotone_passed=monotone.passed,
        monotone_certificate=monotone.certificate,
        probes_checked=len(grid.irrationals),
        worst_certified_bound=worst_ub,
        within_twice_eps=compare(worst_exact, 2 * eps) is not Ordering.GREATER,
    )
