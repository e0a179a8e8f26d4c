"""Recovery of the additive part and verification of the decomposition.

A run has two phases.  The recovery phase (``_recover``) builds the
certified extension g of f restricted to the rationals and recovers the
additive coefficient on each basis radical at one span point
r + q*sqrt(m), as the residual f - g there over q.  It reads f, eps and
the bracket policy, and no grid: in Ng's theorem the additive part is
f - g pointwise.  It vanishes on Q by construction: g returns f itself
at every rational, so nothing about the residual there is computed.

The evidence phase checks on a grid what the recovery assumes; its
Jensen gate, at the grid's rationals, runs before the recovery.  For a
Wright convex f the residual is additive (Ng's theorem), so the
recovered coefficients predict it at every span point: at
x = r + sum q_m*sqrt(m) it is sum q_m * a_m.  The run checks that
prediction at the grid's irrational points, and that the step-v
differences of f transfer to the extension.  Checking a stored recovery
against ground truth needs only the first phase, so no grid.

The residual is never materialized as a function; its additive part is
in general everywhere-discontinuous, so pointwise enclosures are the
only honest representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import _Report, jensen_check
from .domain import Interval, SampleGrid, make_grid, rational_anchors, shifted_intersection
from .errors import BracketUnavailableError, NotWrightConvexError, TooFewPointsError
from .exactreal import Enclosure, ExactReal, Ordering, compare
from .extension import (
    BracketPolicy,
    ExtensionHandle,
    TransferReport,
    _worst_magnitude,
    difference_transfer_check,
)
from .funcspec import Decomposable, FunctionDef

_MAX_HALVINGS = 200  # halvings of q tried before the probe is given up
# uniqueness_check's second bracket policy.  Its margin of two window
# widths gives every chain a bracket other than the default policy's,
# whatever the windows.  Its first enclosure asked at 2**-64 is usually a
# later Heron element than 2**-30 gives, so the windows differ too; one
# element can meet both requests where a radical's Heron widths shrink
# fast enough.
_SECOND_POLICY = BracketPolicy(Fraction(1, 2**64), margin_widths=2, slope_eps=Fraction(1, 128))


@dataclass(frozen=True)
class PredictionReport(_Report):
    """The recovered additive map against the residual f - g at the grid's
    irrational points x = r + sum q_m*sqrt(m), where it predicts
    sum q_m * a_m.  A probe is flagged only when the residual and the
    prediction enclosures are disjoint, which cannot happen when f is
    Wright convex; with no probe checked nothing is consistent."""

    probes_checked: int
    worst_gap: Fraction  # rational upper bound of |residual - prediction|
    consistent: bool  # some probe checked and none flagged


@dataclass(frozen=True)
class DecompositionResult:
    additive_hat: dict[int, Enclosure]
    eps: Fraction
    grid_seed: int
    recovery_points: dict[int, tuple[Fraction, Fraction]]  # m -> (r, q)
    prediction: PredictionReport
    transfer_reports: tuple[TransferReport, ...]

    @property
    def passed(self) -> bool:
        """Evidence over the grid: a consistent prediction, and every
        transfer bound within twice eps.  Neither failure certifies."""
        return self.prediction.consistent and all(t.within_twice_eps for t in self.transfer_reports)

    def to_jsonable(self) -> dict:
        return {
            "additive": {str(m): enc.to_jsonable() for m, enc in sorted(self.additive_hat.items())},
            "eps": str(self.eps),
            "seed": self.grid_seed,
            "recovery_points": {
                str(m): {"r": str(r), "q": str(q)}
                for m, (r, q) in sorted(self.recovery_points.items())
            },
            "residuals": {
                "additive_prediction": self.prediction.to_jsonable(),
                "transfer": [t.to_jsonable() for t in self.transfer_reports],
            },
        }


def _recovery_point(interval: Interval, m: int) -> tuple[Fraction, Fraction]:
    """Rationals (r, q), q > 0, with r + q*sqrt(m) inside the interval.

    The coefficient error of the recovery divides by q, so q is taken as
    large as the interval allows (largest power of two fitting a quarter
    of the usable window), with r a dyadic rational near the center.
    """
    a, b = rational_anchors(interval)
    center = (a + b) / 2
    r = Fraction(math.floor(center * 64), 64)
    if r <= a:
        r = center
    room = (b - a) / 4
    s = ExactReal.sqrt(m)
    q = Fraction(1)
    while compare(s * (q * 2), room) is not Ordering.GREATER:
        q *= 2
    # a < r <= center and s*q <= room give a < r + s*q < b, inside the interval.
    for _ in range(_MAX_HALVINGS + 1):
        if compare(s * q, room) is not Ordering.GREATER:
            return r, q
        q /= 2
    raise BracketUnavailableError(f"interval too narrow to probe sqrt({m})")


def _additive_at(additive_hat: dict[int, Enclosure], x: ExactReal) -> Enclosure:
    """Enclosure of the recovered additive map at x: sum q_m * a_m."""
    total = Enclosure.point(ExactReal())
    for m, q in x.coefficients.items():
        if m != 1:
            total = total + additive_hat[m].scale(q)
    return total


#: Smallest positive eps that ``decompose`` and the CLI accept.  Comparisons
#: refine until their sign is certain, and the refinement a run needs grows
#: without bound as eps shrinks, so this floor bounds the run time.
RESOLUTION_LIMIT = Fraction(1, 10**200)


_TOO_FEW_RATIONALS = "decomposition needs at least two rational grid points"


def _check_eps(eps: Fraction) -> None:
    """Reject a nonpositive eps, and a positive eps below RESOLUTION_LIMIT."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps < RESOLUTION_LIMIT:
        raise ValueError(
            f"eps is below the resolution limit {RESOLUTION_LIMIT}, "
            "the smallest eps accepted"
        )


def decompose(f: FunctionDef, eps: Fraction, grid: SampleGrid) -> DecompositionResult:
    """Recover the additive part of f vanishing on Q, with certified error.

    Precondition: f is Wright convex.  Any certificate the run holds
    against f raises ``NotWrightConvexError``: the Jensen gate's at the
    grid's rationals, or a transfer check's.  Each basis radical
    coefficient is recovered as (f(r + q*sqrt(m)) - g-enclosure) / q with
    enclosure width eps * q, so every reported coefficient enclosure has
    width at most eps.  The result's ``prediction`` reports whether the
    recovered map predicts the residual at the grid's irrational points; a
    flagged probe (disjoint enclosures) shows that f - g is not additive
    there, so f is not Wright convex (given the extension's grid-evidenced
    Lipschitz bound), but certifies nothing, so ``passed`` reads it.  It
    is ``consistent`` only when at least one probe was checked and none
    was flagged.  Fewer than two rational grid points leave the gate
    nothing to check: ``TooFewPointsError``.
    """
    return _decompose(ExtensionHandle(f), eps, grid)


def _recover(
    handle: ExtensionHandle, eps: Fraction
) -> tuple[dict[int, Enclosure], dict[int, tuple[Fraction, Fraction]]]:
    """The recovery phase of ``decompose``: each radical's coefficient
    enclosure, of width at most eps, with its recovery point (r, q).  It
    reads f, eps and the handle's bracket policy, and no grid, so a run
    that compares only the coefficients needs nothing else."""
    f = handle.source
    additive_hat: dict[int, Enclosure] = {}
    recovery_points: dict[int, tuple[Fraction, Fraction]] = {}
    for m in f.basis:
        r, q = _recovery_point(f.interval, m)
        probe = ExactReal.from_rational(r) + ExactReal.sqrt(m) * q
        additive_hat[m] = handle.residual(probe, eps * q).scale(1 / q)
        recovery_points[m] = (r, q)
    return additive_hat, recovery_points


def _decompose(handle: ExtensionHandle, eps: Fraction, grid: SampleGrid) -> DecompositionResult:
    """``decompose`` with every evaluation of the run through ``handle``:
    the eps and grid checks, the Jensen gate at the grid's rationals, the
    recovery phase, then the evidence phase (transfer checks and the
    prediction at the grid's irrational points)."""
    eps = Fraction(eps)
    _check_eps(eps)
    if len(grid.rationals) < 2:
        raise TooFewPointsError(_TOO_FEW_RATIONALS)
    gate = jensen_check(handle.source, grid.rational_only())
    if not gate.passed:
        raise NotWrightConvexError(gate.certificate)
    additive_hat, recovery_points = _recover(handle, eps)

    transfer_reports: list[TransferReport] = []
    steps = sorted(
        {q2 - q1 for i, q1 in enumerate(grid.rationals) for q2 in grid.rationals[i + 1 :]}
    )
    for v in steps[:2]:
        # The gate has checked every grid rational into the interval I,
        # so for v = q2 - q1 the point q1 lies in I ∩ (I - v).
        sub = grid.restricted_to(shifted_intersection(handle.source.interval, v))
        if len(sub.points()) < 2:
            continue
        transfer = difference_transfer_check(handle, v, sub, eps)
        if not transfer.monotone_passed:
            raise NotWrightConvexError(transfer.monotone_certificate)
        transfer_reports.append(transfer)

    # The transfer check has built the chains of most of these points.
    gaps = [handle.residual(x, eps) - _additive_at(additive_hat, x) for x in grid.irrationals]
    prediction = PredictionReport(
        probes_checked=len(gaps),
        worst_gap=_worst_magnitude(gaps, eps)[1],
        consistent=bool(gaps) and all(gap.contains(0) for gap in gaps),
    )

    return DecompositionResult(
        additive_hat=additive_hat,
        eps=eps,
        grid_seed=grid.seed,
        recovery_points=recovery_points,
        prediction=prediction,
        transfer_reports=tuple(transfer_reports),
    )


@dataclass(frozen=True)
class VerificationReport(_Report):
    passed: bool
    failures: tuple[str, ...]
    radicals_checked: int
    probes_checked: int


def verify_against_truth(result: DecompositionResult, instance: FunctionDef) -> VerificationReport:
    """Check a decomposition against the generator's ground truth.

    The unique decomposition with additive part vanishing on Q absorbs
    any rational-linear action c1 * x of the instance's additive map into
    the convex part, so the expected coefficient on sqrt(m) is
    c_m - c1 * sqrt(m) and the expected extension is g_true(x) + c1 * x.
    """
    if not isinstance(instance, Decomposable):
        raise ValueError("ground-truth verification needs a Decomposable instance")
    return _verify(result.additive_hat, result.eps, result.grid_seed, ExtensionHandle(instance))


def _verify(
    additive_hat: dict[int, Enclosure], eps: Fraction, seed: int, handle: ExtensionHandle
) -> VerificationReport:
    """``verify_against_truth`` of the coefficients recovered at ``eps``,
    probing the extension through ``handle`` on the grid of ``seed``; the
    caller has checked that ``handle.source`` is a ``Decomposable``."""
    instance = handle.source
    failures: list[str] = []
    c1 = instance.additive.rational_slope

    for m, enc in sorted(additive_hat.items()):
        truth = instance.additive.coefficient(m) - c1 * ExactReal.sqrt(m)
        if not enc.contains(truth):
            failures.append(
                f"additive[{m}]: enclosure [{enc.lo}, {enc.hi}] misses true value {truth}"
            )
        if compare(enc.width, eps) is Ordering.GREATER:
            failures.append(f"additive[{m}]: width {enc.width} exceeds eps {eps}")

    probe_grid = make_grid(instance.interval, 3, 4, instance.basis, seed=seed + 1)
    probes = 0
    for x in probe_grid.points():
        enc = handle.extend_eval(x, eps)
        truth_ext = instance.convex.value(x) + c1 * x
        probes += 1
        if not enc.contains(truth_ext):
            failures.append(f"extension at {x} misses true value {truth_ext}")

    return VerificationReport(
        passed=not failures,
        failures=tuple(failures),
        radicals_checked=len(additive_hat),
        probes_checked=probes,
    )


@dataclass(frozen=True)
class UniquenessReport(_Report):
    """Agreement of two independent decomposition runs; the document
    leaves out the two runs themselves."""

    _unreported = ("first", "second")

    passed: bool
    radical_overlaps: dict[int, bool]
    probes_checked: int
    probe_failures: tuple[str, ...]
    first: DecompositionResult
    second: DecompositionResult


def uniqueness_check(
    f: FunctionDef,
    eps: Fraction,
    seeds: tuple[int, int],
) -> UniquenessReport:
    """Run the recovery twice with different grids and bracket policies;
    agreement means every pair of coefficient enclosures intersects and
    the two extension enclosures overlap at every probe point.  It passes
    only when the two runs also pass on their own evidence."""
    s1, s2 = seeds
    # Each chain is a pure function of (policy, x), so the probes below
    # reuse the chains the two decompositions built.
    handle_a = ExtensionHandle(f, BracketPolicy())
    handle_b = ExtensionHandle(f, _SECOND_POLICY)
    grid_a = make_grid(f.interval, 8, 4, f.basis, s1)
    grid_b = make_grid(f.interval, 10, 4, f.basis, s2)
    first = _decompose(handle_a, eps, grid_a)
    second = _decompose(handle_b, eps, grid_b)

    radical_overlaps = {
        m: first.additive_hat[m].overlaps(second.additive_hat[m]) for m in first.additive_hat
    }

    probe_grid = make_grid(f.interval, 3, 3, f.basis, seed=1_000_003 * s1 + s2)
    probe_failures: list[str] = []
    probes = 0
    for x in probe_grid.points():
        ea = handle_a.extend_eval(x, eps)
        eb = handle_b.extend_eval(x, eps)
        probes += 1
        if not ea.overlaps(eb):
            probe_failures.append(f"extension enclosures at {x} are disjoint")

    agree = all(radical_overlaps.values()) and not probe_failures
    passed = agree and first.passed and second.passed
    return UniquenessReport(
        passed=passed,
        radical_overlaps=radical_overlaps,
        probes_checked=probes,
        probe_failures=tuple(probe_failures),
        first=first,
        second=second,
    )
