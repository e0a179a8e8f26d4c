from fractions import Fraction

import pytest

from wrightdecomp import (
    AbsAdditive,
    AdditiveMap,
    BracketPolicy,
    ConvexSpec,
    Decomposable,
    Enclosure,
    ExactReal,
    ExtensionHandle,
    Interval,
    Ordering,
    SampleGrid,
    Spiked,
    ViolationCertificate,
    compare,
    difference_transfer_check,
    generate,
    make_grid,
    uniqueness_check,
)
from wrightdecomp.errors import (
    InconsistentEnclosureError,
    NonPositiveStepError,
    OutOfDomainError,
    WrightDecompError,
)
from wrightdecomp.decomposition import _SECOND_POLICY
from wrightdecomp.exactreal import _from_lattice
from wrightdecomp.extension import _monotone_scan

from oracles import monotone_scan_reference, reference_chain

R = ExactReal.from_rational
SQRT = ExactReal.sqrt
I_10 = Interval.open(-10, 10)

EPS6 = Fraction(1, 10**6)
EPS_SET = (Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**8))
EPS12 = Fraction(1, 10**12)
# Down to 1e-8 a default chain fits at its first round; these finer eps
# make it refine, so nesting covers the rounds after the first.
NESTING_EPS = (*EPS_SET, Fraction(1, 10**20), Fraction(1, 10**40))
# A window asked at 1/4: its chains run several rounds down to 1e-8 and
# 1e-12, which the tests of the multi-round path need.
COARSE = BracketPolicy(initial_eps=Fraction(1, 4))


def square(additive=None, interval=I_10, basis=(2,)):
    return Decomposable(
        interval, tuple(basis), ConvexSpec(quad=Fraction(1)), additive or AdditiveMap()
    )


def test_extend_square_at_sqrt2_encloses_2():
    h = ExtensionHandle(square())
    enc = h.extend_eval(SQRT(2), EPS6)
    assert compare(enc.width, EPS6) is not Ordering.GREATER
    assert enc.contains(R(2))  # the continuous extension of x^2|Q is x^2


def test_extend_rational_point_is_exact():
    f = square(additive=AdditiveMap.from_mapping({2: 3}))
    h = ExtensionHandle(f)
    x = R(Fraction(3, 4))
    enc = h.extend_eval(x, Fraction(1))
    assert enc.is_point
    assert enc.lo == f.evaluate(x) == R(Fraction(9, 16))
    # The decomposition relies on this to leave the residual at rationals
    # unchecked: at each grid rational q and at q + v for the two transfer
    # steps v, the extension is f itself and the residual exactly zero.
    for seed in range(3):
        f = generate(seed, nonzero_rational_part=True)
        grid = make_grid(f.interval, 8, 4, f.basis, seed)
        h = ExtensionHandle(f)
        qs = grid.rationals
        steps = sorted({q2 - q1 for i, q1 in enumerate(qs) for q2 in qs[i + 1 :]})[:2]
        points = {R(q + v) for q in qs for v in (0, *steps)}
        checked = 0
        for x in points:
            if not f.interval.contains(x):
                continue
            checked += 1
            for eps in (Fraction(1), EPS6):
                assert h.extend_eval(x, eps) == Enclosure.point(f.evaluate(x)), (seed, x)
                assert h.residual(x, eps) == Enclosure.point(ExactReal()), (seed, x)
        assert checked > len(qs), seed


def test_extend_absorbs_rational_linear_part():
    # additive part with value 1/2 on 1: f|Q = x^2 + x/2, so the extension
    # at sqrt2 must contain 2 + sqrt2/2 rather than 2
    f = square(additive=AdditiveMap.from_mapping({1: Fraction(1, 2), 2: 3}))
    h = ExtensionHandle(f)
    enc = h.extend_eval(SQRT(2), Fraction(1, 10**8))
    truth = R(2) + SQRT(2) * Fraction(1, 2)
    assert enc.contains(truth)
    assert not enc.contains(R(2))


def test_extend_nesting_across_eps():
    f = generate(31, kind="decomposable")
    h = ExtensionHandle(f)
    grid = make_grid(f.interval, 0, 3, f.basis, seed=31)
    for x in grid.irrationals:
        encs = [h.extend_eval(x, eps) for eps in NESTING_EPS]
        for outer, inner in zip(encs, encs[1:]):
            assert outer.contains_enclosure(inner)
        assert len(h._chains[x].rounds) > 1


def test_extend_cache_matches_fresh_run():
    f = generate(32, kind="decomposable")
    x = make_grid(f.interval, 0, 1, f.basis, seed=32).irrationals[0]
    warm = ExtensionHandle(f)
    for eps in (Fraction(1, 10), *EPS_SET):
        fresh = ExtensionHandle(f)
        assert warm.extend_eval(x, eps) == fresh.extend_eval(x, eps)


def test_extend_out_of_domain():
    h = ExtensionHandle(square())
    with pytest.raises(OutOfDomainError):
        h.extend_eval(R(11), Fraction(1))


def sliver_square(half_width):
    sliver = Interval(SQRT(2) - R(half_width), SQRT(2) + R(half_width))
    return Decomposable(sliver, (2,), ConvexSpec(quad=Fraction(1)))


def test_extend_bracket_unavailable_on_sliver_interval():
    from wrightdecomp.errors import BracketUnavailableError

    h = ExtensionHandle(sliver_square(Fraction(1, 10**300)))
    with pytest.raises(BracketUnavailableError):
        h.extend_eval(SQRT(2), Fraction(1, 100))


def test_extend_fits_bracket_on_narrow_sliver():
    # Room of 1e-160 on each side of x: the window and its one-width
    # margins fit once the first enclosure of x is narrow enough.
    h = ExtensionHandle(sliver_square(Fraction(1, 10**160)))
    enc = h.extend_eval(SQRT(2), Fraction(1, 100))
    assert compare(enc.width, Fraction(1, 100)) is not Ordering.GREATER
    assert enc.contains(R(2))


def _round_probes(handle, x):
    """Each round's rational midpoint and f there, read from the int rounds."""
    vrad, t, _ = handle.source._compiled((1,))
    return [
        (Fraction(r.mid, r.den), _from_lattice(vrad, r.fmid, t * r.den * r.den))
        for r in handle._chains[x].rounds
    ]


def test_intermediate_probes_respect_modulus():
    f = generate(33, kind="decomposable", nonzero_rational_part=True)
    h = ExtensionHandle(f, COARSE)
    x = make_grid(f.interval, 0, 2, f.basis, seed=33).irrationals[0]
    h.extend_eval(x, Fraction(1, 10**8))
    probes = _round_probes(h, x)
    assert len(probes) >= 3
    lbar = h._chains[x].lipschitz_bar
    for i, (r1, v1) in enumerate(probes):
        assert v1 == f.evaluate(R(r1))
        for r2, v2 in probes[i + 1 :]:
            gap = abs(v1 - v2)
            assert compare(gap, R(lbar * abs(r1 - r2))) is not Ordering.GREATER


def test_chain_modulus_is_within_slope_eps_of_the_steeper_margin_slope():
    # The chain bounds the larger rise to within slope_eps times the run,
    # so L-bar exceeds the steeper margin slope by at most slope_eps
    # however narrow the window is.  On generate(5) a rise bounded to
    # within slope_eps alone takes 107/64 where the slope is about 0.908.
    f = generate(5)
    grid = make_grid(f.interval, 0, 4, f.basis, seed=5)
    for policy in (BracketPolicy(), _SECOND_POLICY):
        handle = ExtensionHandle(f, policy)
        for x in grid.irrationals:
            handle.extend_eval(x, Fraction(1, 10**8))
            chain = handle._chains[x]
            assert len(chain.rounds) == 1  # so chain.delta gave the window
            a, b = x.bounds(chain.delta)
            w = policy.margin_widths * (b - a)
            ev = lambda q: f.evaluate(R(q))
            slopes = [abs((ev(q + w) - ev(q)) * R(1 / w)) for q in (a - w, b)]
            steeper = max(slopes)
            lbar = R(chain.lipschitz_bar)
            assert compare(steeper, lbar) is not Ordering.GREATER, x
            assert compare(lbar - R(policy.slope_eps), steeper) is not Ordering.GREATER, x


def test_uniqueness_surrogate_policies_overlap():
    f = generate(34, kind="decomposable", nonzero_rational_part=True)
    h1 = ExtensionHandle(f, BracketPolicy())
    h2 = ExtensionHandle(f, _SECOND_POLICY)
    grid = make_grid(f.interval, 2, 4, f.basis, seed=34)
    for x in grid.points():
        for eps in EPS_SET:
            assert h1.extend_eval(x, eps).overlaps(h2.extend_eval(x, eps))


def test_uniqueness_policies_place_distinct_brackets(monkeypatch):
    # The two runs are independent evidence only when no chain of one
    # reuses a bracket, and with it a modulus, of the other; nor its
    # window (a, b), and with it the first round's midpoint.  On the
    # uniqueness set (generate(s), s = 0-5) every chain at 1e-8 also fits
    # at its first round, so no _refine round runs.
    from wrightdecomp import extension

    placed, policy = {}, []
    lipschitz_bar = extension._lipschitz_bar

    def spy(f, bracket, eps):
        # the bracket of the chain that _start_chain is placing
        placed.setdefault(policy[-1], set()).add(bracket)
        return lipschitz_bar(f, bracket, eps)

    monkeypatch.setattr(extension, "_lipschitz_bar", spy)
    calls = {"_start_chain": 0, "extend_eval": 0, "_refine": 0}
    for name in calls:
        method = getattr(ExtensionHandle, name)

        def counting(*args, name=name, method=method):
            calls[name] += 1
            if name == "_start_chain":
                policy.append(args[0].policy)
            return method(*args)

        monkeypatch.setattr(ExtensionHandle, name, counting)

    def check(f, seeds):
        placed.clear()
        assert uniqueness_check(f, Fraction(1, 10**8), seeds).passed
        first, second = placed.values()
        assert first and second and not first & second, seeds
        assert not {b[1:3] for b in first} & {b[1:3] for b in second}, seeds

    for s in range(6):
        check(generate(s), (s, s + 7))
    assert calls == {"_start_chain": 200, "extend_eval": 334, "_refine": 0}
    # an instance whose additive part is nonzero on Q
    check(generate(34, nonzero_rational_part=True), (34, 34 + 7919))


def test_handle_evaluates_each_point_once(monkeypatch):
    # A chain reads f from the compiled form, at its bracket and at its
    # rounds' midpoints, never through evaluate, and values no point twice.
    f = generate(33, kind="decomposable", nonzero_rational_part=True)
    x = make_grid(f.interval, 0, 2, f.basis, seed=33).irrationals[0]
    valued = []
    compiled = type(f)._compiled

    def counted(self, radicals):
        vrad, t, value = compiled(self, radicals)

        def recorded(c, den):
            valued.append(_from_lattice(radicals, c, den))
            return value(c, den)

        return vrad, t, recorded

    def no_evaluate(self, p):
        raise AssertionError(f"the chain evaluated {p} through evaluate")

    monkeypatch.setattr(type(f), "_compiled", counted)
    monkeypatch.setattr(type(f), "evaluate", no_evaluate)
    handle = ExtensionHandle(f)
    handle.extend_eval(x, Fraction(1, 10**8))
    assert len(valued) == len(set(valued)) == 4 + len(handle._chains[x].rounds)


def test_chain_tests_its_bracket_for_the_domain_once(monkeypatch):
    # _start_chain tests a - w and b + w, the modulus reads the bracket
    # without testing it again, and nothing tests the bracket's inner
    # points or the rounds' midpoints: two interval tests per chain, plus
    # extend_eval's one of x per call.
    calls = []
    contains = Interval.contains

    def counting(self, p):
        calls.append(p)
        return contains(self, p)

    monkeypatch.setattr(Interval, "contains", counting)
    for seed in range(4):
        f = generate(seed, kind=("decomposable", "spiked")[seed % 2], nonzero_rational_part=True)
        handle = ExtensionHandle(f, COARSE)
        for x in make_grid(f.interval, 0, 3, f.basis, seed=seed).irrationals:
            calls.clear()
            handle.extend_eval(x, EPS12)
            chain = handle._chains[x]
            assert chain.delta < handle.policy.initial_eps  # it refined
            assert len(calls) == 3, (seed, x)
            a, b = x.bounds(handle.policy.initial_eps)  # the window fitted at once
            assert calls == [x, 2 * a - b, 2 * b - a]
            calls.clear()
            handle.extend_eval(x, EPS12 / 10**6)
            assert calls == [x]


def test_refinement_rounds_are_distinct():
    # a round whose rational enclosure of x repeats the last one would
    # repeat the last running intersection too, so it is skipped
    for seed in range(3):
        f = generate(seed, kind="decomposable", nonzero_rational_part=True)
        handle = ExtensionHandle(f, COARSE)
        for x in make_grid(f.interval, 0, 2, f.basis, seed=seed).irrationals:
            handle.extend_eval(x, EPS12)
            chain = handle._chains[x]
            encs = [handle._enclosure(chain, k) for k in range(len(chain.rounds))]
            assert len(encs) > 1
            assert len({(e.lo, e.hi) for e in encs}) == len(encs), (seed, x)


def _matches_reference_chain(f, x, eps, policy=COARSE):
    """The int chain's rounds at x, down to width eps, against the
    ``Enclosure``-based reference chain round by round; a disjoint round
    must raise in both, with one message.  Returns the rounds run, and
    whether a disjoint round raised."""
    handle = ExtensionHandle(f, policy)
    try:
        handle.extend_eval(x, eps)
        error = None
    except InconsistentEnclosureError as exc:
        error = str(exc)
    chain = handle._chains[x]  # the first round has nothing to intersect
    reference = reference_chain(f, policy, x, len(chain.rounds))
    for k, enc in enumerate(reference):
        assert handle._enclosure(chain, k) == enc, (f, x, k)
    if error is not None:
        with pytest.raises(InconsistentEnclosureError) as ref:
            reference_chain(f, policy, x, len(chain.rounds) + 1)
        assert str(ref.value) == error
    return chain.rounds, error is not None


def _between(lo, hi):
    """A rational strictly between the values lo < hi."""
    gap = (hi - lo).bounds(Fraction(1, 10**60))[0]
    return ((lo + hi) / 2).bounds(gap / 4)[0]


def test_int_chain_matches_reference_chain():
    # A Decomposable with quad 0 on an interval with irrational ends,
    # whose knots (one rational, one irrational, one on a probe) sit in
    # the first windows of the probes.
    interval = Interval(-SQRT(2), 2 + SQRT(3) / 2)
    probes = (SQRT(2) / 8, SQRT(2) / 8 + Fraction(1, 1000), SQRT(3) / 9 - Fraction(1, 10))
    convex = ConvexSpec(
        Fraction(0),
        R(Fraction(1, 3)) + SQRT(2) / 5,
        SQRT(3) / 7,
        ((SQRT(3) / 9 - Fraction(1, 10), Fraction(1, 2)), (probes[1], Fraction(1, 8)),
         (R(Fraction(1, 5)), Fraction(3, 4))),
    )
    f = Decomposable(
        interval, (2, 3), convex, AdditiveMap.from_mapping({2: 1 - SQRT(3) / 2, 3: 2})
    )
    f.validate()
    for x in probes:
        rounds, raised = _matches_reference_chain(f, x, EPS12)
        assert len(rounds) > 3 and not raised
    policy = BracketPolicy(Fraction(1, 8), 2, Fraction(1, 128))
    assert not _matches_reference_chain(f, probes[0], Fraction(1, 10**10), policy)[1]
    rounds, raised = _matches_reference_chain(f, probes[2], Fraction(1, 10**40), BracketPolicy())
    assert len(rounds) > 1 and not raised

    # |A| where A on Q is r*A(1): rounds whose windows hold 0 take f at
    # midpoints of both signs, on one, two and three radicals.
    for basis, a1 in (((2,), 1 - SQRT(2)), ((2, 3), SQRT(2) - SQRT(3)),
                      ((2, 3, 5), SQRT(5) - SQRT(2) - SQRT(3) / 2)):
        g = AbsAdditive(I_10, basis, AdditiveMap.from_mapping({1: a1, 2: 1}))
        g.validate()
        mids = []
        for x in (SQRT(2) / 100, Fraction(1, 1000) - SQRT(2) / 64):
            rounds, raised = _matches_reference_chain(g, x, EPS12)
            assert not raised
            mids += [Fraction(r.mid, r.den) for r in rounds]
        assert min(mids) < 0 < max(mids), basis

    # A spike exactly at round j's midpoint, whose reduced denominator is
    # not the round's: the spike test compares points.  For a convex f the
    # rounds nest, so only a spike makes the intersection keep an earlier
    # bound: a lift that moves round j's top past round j-1's keeps that
    # top, one that moves round j's bottom past round j+1's keeps that
    # bottom, and a large lift makes a round disjoint.
    base = square(additive=AdditiveMap.from_mapping({2: 3}))
    x = R(Fraction(1, 2)) + SQRT(2) / 3
    handle = ExtensionHandle(base, COARSE)
    handle.extend_eval(x, EPS12)
    chain = handle._chains[x]
    j = next(
        j for j, r in enumerate(chain.rounds) if j and Fraction(r.mid, r.den).denominator != r.den
    )
    at = R(Fraction(chain.rounds[j].mid, chain.rounds[j].den))
    before, here, after = (handle._enclosure(chain, k) for k in (j - 1, j, j + 1))
    lifts = (
        (_between(before.hi - here.hi, before.hi - here.lo), "hi"),
        (_between(after.lo - here.lo, after.hi - here.lo), "lo"),
        (Fraction(1, 10), None),
    )
    for lift, kept in lifts:
        g = Spiked(base, at, lift)
        g.validate()
        rounds, raised = _matches_reference_chain(g, x, EPS12)
        if kept is None:
            assert raised
        else:
            assert any(getattr(r, kept) is getattr(s, kept) for r, s in zip(rounds, rounds[1:]))


# -- difference transfer -------------------------------------------------------


def test_transfer_decomposable_exact_and_certified():
    f = square(additive=AdditiveMap.from_mapping({2: 3}))
    h = ExtensionHandle(f)
    v = Fraction(1, 2)
    from wrightdecomp import shifted_intersection

    sub = shifted_intersection(f.interval, v)
    grid = make_grid(sub, 5, 3, f.basis, seed=36)
    eps = Fraction(1, 10**6)
    report = difference_transfer_check(h, v, grid, eps)
    assert report.monotone_passed
    assert report.probes_checked == 3
    assert report.within_twice_eps
    assert report.worst_certified_bound <= 2 * eps + eps  # reported rational bound


def test_transfer_pure_convex_trivial():
    f = generate(37, kind="decomposable")
    f = Decomposable(f.interval, f.basis, f.convex)
    h = ExtensionHandle(f)
    from wrightdecomp import shifted_intersection

    v = Fraction(1)
    sub = shifted_intersection(f.interval, v)
    grid = make_grid(sub, 4, 2, f.basis, seed=37)
    report = difference_transfer_check(h, v, grid, Fraction(1, 10**4))
    assert report.monotone_passed and report.within_twice_eps


def test_transfer_monotone_fails_for_abs_additive():
    # A(p + q*sqrt2) = p - q: then delta with step 1 jumps from
    # |A(1)|-|A(0)| = 1 at x=0 down to |A(1+sqrt2)|-|A(sqrt2)| = -1 at
    # x=sqrt2, an exact decreasing pair, which is the Wright violation at
    # (0, sqrt2, 1): f(1+sqrt2) + f(0) = 0 < 2 = f(1) + f(sqrt2).
    f = AbsAdditive(I_10, (2,), AdditiveMap.from_mapping({1: 1, 2: -1}))
    h = ExtensionHandle(f)
    v = Fraction(1)
    from wrightdecomp import shifted_intersection

    sub = shifted_intersection(I_10, v)
    grid = SampleGrid(sub, (), (ExactReal(), SQRT(2)), seed=0)
    report = difference_transfer_check(h, v, grid, Fraction(1, 100))
    assert not report.monotone_passed
    cert = report.monotone_certificate
    assert cert is not None
    assert cert.kind == "wright"
    assert cert.witness == (ExactReal(), SQRT(2), R(1))
    assert cert.lhs == R(0) and cert.rhs == R(2)
    assert cert.context == ()
    assert cert.verify(f)
    assert ViolationCertificate.from_jsonable(cert.to_jsonable()).verify(f)


def _scan_cases():
    """(f, v, grid) for the transfer's monotone scan: the steps decompose
    takes on generated instances over one to three radicals, spikes at a
    grid point and at a point p + v, |A| with A nonzero on Q, a concave
    f, and grid points outside the basis: first, second, both, or last
    (where a violation comes first)."""
    from wrightdecomp import shifted_intersection

    for seed in range(9):
        kind = ("decomposable", "abs_additive", "spiked")[seed % 3]
        f = generate(seed, kind=kind, basis_size=seed % 3 + 1, nonzero_rational_part=seed % 2 == 0)
        grid = make_grid(f.interval, 5, 3, f.basis, seed)
        qs = grid.rationals
        for v in sorted({q - p for i, p in enumerate(qs) for q in qs[i + 1 :]})[:2]:
            yield f, v, grid.restricted_to(shifted_intersection(f.interval, v))
    sub = shifted_intersection(I_10, 1)
    ints = tuple(Fraction(k) for k in range(-3, 4))
    probes = (SQRT(2), SQRT(2) * Fraction(-1, 2) + Fraction(1, 3))
    base = square(AdditiveMap.from_mapping({1: Fraction(1, 3), 2: 3}))
    for at in (R(1), R(Fraction(1, 2)), SQRT(2) + Fraction(1, 2), R(-3)):
        for lift in (Fraction(1, 4), Fraction(5)):
            yield Spiked(base, at, lift), Fraction(1, 2), SampleGrid(sub, ints, probes, seed=0)
    yield AbsAdditive(I_10, (2,), AdditiveMap.from_mapping({1: 1, 2: -1})), Fraction(1), (
        SampleGrid(sub, ints, probes, seed=0)
    )
    yield Decomposable(I_10, (2,), ConvexSpec(quad=Fraction(-1))), Fraction(1), SampleGrid(
        sub, ints, probes, seed=0
    )
    s3 = SQRT(3)
    for outside in ((s3 - 5,), (s3 - 3,), (s3 + 1,), (s3 - 5, s3 - Fraction(49, 10))):
        for f in (base, Spiked(base, R(-2), Fraction(50))):
            yield f, Fraction(1), SampleGrid(sub, (Fraction(-3), Fraction(0)), outside, seed=0)


def test_monotone_scan_matches_reference_scan():
    tally = {"passed": 0, "violation": 0, "error": 0}
    for f, v, grid in _scan_cases():
        pts, v_exact = grid.points(), R(v)
        try:
            expected = monotone_scan_reference(f, v_exact, pts)
        except WrightDecompError as exc:
            expected = type(exc), str(exc)
        try:
            outcome = _monotone_scan(f, v_exact, pts)
        except WrightDecompError as exc:
            outcome = type(exc), str(exc)
        assert outcome == expected, (f, v, grid)
        if isinstance(expected, tuple):
            tally["error"] += 1
            continue
        tally["passed" if expected.passed else "violation"] += 1
        if all(set(p.radicals()) <= set(f.basis) for p in grid.irrationals):
            report = difference_transfer_check(ExtensionHandle(f), v, grid, Fraction(1, 100))
            assert report.monotone_passed == expected.passed
            assert report.monotone_certificate == expected.certificate
    assert min(tally.values()) >= 4, tally


def test_legacy_two_point_monotone_certificate_is_rejected():
    # The transfer check once emitted Delta_v f(x2) < Delta_v f(x1) as a
    # two-point "monotone" certificate; it no longer unpacks.
    f = AbsAdditive(I_10, (2,), AdditiveMap.from_mapping({1: 1, 2: -1}))
    legacy = ViolationCertificate("monotone", (ExactReal(), SQRT(2)), R(-1), R(1), (("v", R(1)),))
    assert legacy.verify(f) is False


def test_extend_eval_rejects_a_nonpositive_eps():
    h = ExtensionHandle(square())
    for x in (R(1), SQRT(2)):
        with pytest.raises(ValueError, match="eps must be positive, got 0"):
            h.extend_eval(x, 0)


def test_transfer_rejects_bad_grid_and_step():
    f = square()
    h = ExtensionHandle(f)
    grid = make_grid(I_10, 4, 0, (2,), seed=0)  # not inside the shifted domain
    with pytest.raises(OutOfDomainError):
        difference_transfer_check(h, Fraction(8), grid, Fraction(1, 100))
    with pytest.raises(NonPositiveStepError):
        difference_transfer_check(h, Fraction(-1), grid, Fraction(1, 100))
    # a grid with no irrational probe still rejects a nonpositive eps
    from wrightdecomp import shifted_intersection

    v = Fraction(1, 4)
    rational_only = make_grid(shifted_intersection(I_10, v), 4, 0, (2,), seed=0)
    for eps in (0, -1):
        with pytest.raises(ValueError, match="eps must be positive"):
            difference_transfer_check(h, v, rational_only, Fraction(eps))
