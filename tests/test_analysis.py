import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    build_steps_reference,
    jensen_sweep_reference,
    lipschitz_bound_reference,
    numeric_sign,
    pell_sqrt11_convergent,
    wright_sweep_reference,
)

from wrightdecomp import (
    AbsAdditive,
    AdditiveMap,
    ConvexSpec,
    Decomposable,
    ExactReal,
    Interval,
    Ordering,
    SampleGrid,
    Spiked,
    ViolationCertificate,
    build_steps,
    compare,
    double_delta,
    generate,
    jensen_check,
    lipschitz_bound,
    make_grid,
    wright_check,
)
from wrightdecomp.errors import (
    BracketViolationError,
    NonPositiveStepError,
    OutOfDomainError,
    WrightDecompError,
)
from wrightdecomp.exactreal import _from_lattice

R = ExactReal.from_rational
SQRT = ExactReal.sqrt
I_10 = Interval.open(-10, 10)


def square(additive=None, basis=(2,), interval=I_10):
    return Decomposable(
        interval, tuple(basis), ConvexSpec(quad=Fraction(1)), additive or AdditiveMap()
    )


def abs_fixture():
    """|A| with A(sqrt2) = 1, vanishing on Q, on (-10, 10)."""
    return AbsAdditive(I_10, (2,), AdditiveMap.from_mapping({2: 1}))


def affine(slope=Fraction(3, 2)):
    return Decomposable(I_10, (2,), ConvexSpec(slope=R(slope)))


# -- difference operators ------------------------------------------------------


def test_double_delta_square_is_2uv():
    f = square()
    assert double_delta(f, R(1), R(1), R(0)) == R(2)
    u, v = SQRT(2), R(2) - SQRT(2)
    x = R(-3)
    assert double_delta(f, u, v, x) == (u * v) * 2


def test_double_delta_additive_cancellation():
    add = AdditiveMap.from_mapping({2: SQRT(2) + R(1), 1: Fraction(1, 3)})
    with_add = square(additive=add)
    without = square()
    rng = random.Random(4)
    for _ in range(25):
        x = R(Fraction(rng.randrange(-40, 20), 8)) + SQRT(2) * Fraction(rng.randrange(-4, 5), 4)
        u = R(Fraction(rng.randrange(1, 16), 8))
        v = SQRT(2) * Fraction(rng.randrange(1, 4), 4) + R(Fraction(rng.randrange(0, 8), 8))
        top = x + u + v
        if not (I_10.contains(x) and I_10.contains(top)):
            continue
        assert double_delta(with_add, u, v, x) == double_delta(without, u, v, x)


def test_double_delta_abs_additive_negative():
    f = abs_fixture()
    value = double_delta(f, SQRT(2), R(2) - SQRT(2), R(0))
    assert value == R(-2)


def test_double_delta_step_validation():
    with pytest.raises(NonPositiveStepError):
        double_delta(square(), R(0), R(1), R(0))
    with pytest.raises(OutOfDomainError):
        double_delta(square(), R(9), R(9), R(0))


# -- wright_check ----------------------------------------------------------------


def test_wright_check_decomposable_passes():
    for seed in (0, 1, 2):
        inst = generate_decomposable(seed)
        grid = make_grid(inst.interval, 8, 2, inst.basis, seed)
        report = wright_check(inst, grid, max_grid_steps=10)
        assert report.passed, report.certificate
        assert report.checked > 0
        assert report.description == "no violation found on grid"


def generate_decomposable(seed):
    from wrightdecomp import generate

    return generate(seed, kind="decomposable", nonzero_rational_part=(seed % 2 == 0))


def test_wright_check_zero_function_all_zero():
    zero = Decomposable(I_10, (2,), ConvexSpec())
    grid = make_grid(I_10, 5, 0, (2,), seed=0)
    report = wright_check(zero, grid)
    assert report.passed
    assert double_delta(zero, R(1), SQRT(2), R(0)) == ExactReal()


def test_wright_check_generated_abs_additive_with_kernel_steps():
    # for |A| with A vanishing on Q, steps u = sqrt(m), v = q - sqrt(m)
    # give exactly -2*|A(sqrt(m))| at rational x: a constructed certificate
    from wrightdecomp import generate

    for seed in (0, 1, 2):
        inst = generate(seed, kind="abs_additive", basis_size=2)
        m, coeff = inst.additive.coeffs[0]
        u = SQRT(m)
        v = R(4) - u  # positive for every basis radical (sqrt(15) < 4)
        grid = SampleGrid(inst.interval, (Fraction(-2),), (), seed=seed)
        report = wright_check(inst, grid, (u, v), max_grid_steps=0)
        assert not report.passed
        cert = report.certificate
        assert cert.violation_amount() == abs(coeff) * -2
        assert cert.verify(inst)


def test_wright_check_finds_abs_additive_violation():
    f = abs_fixture()
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    steps = (SQRT(2), R(2) - SQRT(2))
    report = wright_check(f, grid, steps, max_grid_steps=0)
    assert not report.passed
    cert = report.certificate
    assert cert.kind == "wright"
    assert cert.witness == (R(0), SQRT(2), R(2) - SQRT(2))
    assert cert.violation_amount() == R(-2)
    assert cert.verify(f)


def test_wright_check_certifies_abs_violation_at_a_step_below_1e_300():
    # The paper's stock midpoint convex but not Wright convex function |A|
    # fails Wright's inequality by -2 at (0, u, sqrt11): A(u) = -1 and
    # u + sqrt11 is rational.  Deciding the step u > 0 refines past 1e-300.
    f = AbsAdditive(I_10, (11,), AdditiveMap.from_mapping({11: 1}))
    p, q = pell_sqrt11_convergent()
    u = R(Fraction(p, q)) - SQRT(11)
    assert numeric_sign(u, digits=400) == 1
    assert numeric_sign(u - R(Fraction(1, 10**300)), digits=400) == -1
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    report = wright_check(f, grid, (u, SQRT(11)), max_grid_steps=0)
    assert not report.passed
    cert = report.certificate
    assert cert.witness == (R(0), u, SQRT(11))
    assert cert.violation_amount() == R(-2)
    assert cert.verify(f)


def test_wright_check_random_steps_miss_the_kernel():
    # the violation needs steps aligned with the additive kernel; plain
    # rational grid differences never reveal it
    f = abs_fixture()
    grid = make_grid(I_10, 8, 0, (2,), seed=1)
    report = wright_check(f, grid, max_grid_steps=12)
    assert report.passed


def _wright_outcome(check, f, grid, steps, max_grid_steps):
    try:
        return check(f, grid, steps, max_grid_steps=max_grid_steps).to_jsonable()
    except WrightDecompError as exc:
        return type(exc), str(exc)


def test_wright_check_matches_ordered_reference_sweep():
    # Steps of the form k - q*sqrt(m) pair with q*sqrt(m) into rational
    # tops, which is where |A| fails; a step on a radical outside the
    # basis makes some point out of span, and both sweeps must name it.
    tally = {"passed": 0, "violation": 0, "error": 0}
    for case in range(60):
        rng = random.Random(case)
        kind = ("decomposable", "abs_additive", "spiked")[case % 3]
        cap = (None, 0, 3)[case // 3 % 3]
        f = generate(case, kind=kind, basis_size=rng.randint(1, 3))
        grid = make_grid(f.interval, rng.randint(1, 5), rng.randint(0, 2), f.basis, case)
        outside = next(m for m in (2, 3, 5, 7, 11) if m not in f.basis)
        steps = []
        for _ in range(rng.randint(1, 4)):
            m = rng.choice(f.basis + (1, 1, outside))
            s = SQRT(m) * Fraction(rng.randint(-3, 12), rng.randint(1, 4))
            steps.append(R(rng.randint(1, 5)) - s if rng.random() < 0.4 else s)
        expected = _wright_outcome(wright_sweep_reference, f, grid, steps, cap)
        assert _wright_outcome(wright_check, f, grid, steps, cap) == expected, case
        if isinstance(expected, tuple):
            tally["error"] += 1
        else:
            tally["passed" if expected["passed"] else "violation"] += 1
    assert min(tally.values()) >= 5, tally


def _with_interval(f, interval):
    """f on another interval; a spiked instance's base moves with it."""
    if isinstance(f, Spiked):
        return replace(f, base=replace(f.base, interval=interval))
    return replace(f, interval=interval)


@st.composite
def _wright_cases(draw):
    """An instance of each family on a rational, irrational or infinite hi,
    a rational or mixed grid, and explicit steps among which some put a
    top x+u+v exactly on hi and some equal a grid difference."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["decomposable", "abs_additive", "spiked"]))
    f = generate(seed, kind=kind, basis_size=draw(st.integers(1, 2)))
    lo, hi = f.interval.lo, f.interval.hi
    m = draw(st.sampled_from(f.basis))
    hi = draw(st.sampled_from([hi, hi - 1 + SQRT(m) / 4, None]))
    f = _with_interval(f, Interval.open(lo, hi))
    grid = make_grid(f.interval, draw(st.integers(1, 5)), draw(st.integers(0, 2)), f.basis, seed)
    pts = grid.points()
    fractions = st.fractions(min_value=-2, max_value=3, max_denominator=4)
    # Rational steps keep a rational grid on one radical, where row ends
    # are decided by int comparison.
    steps = [
        R(draw(fractions)) + SQRT(m) * draw(st.one_of(st.just(0), fractions))
        for _ in range(draw(st.integers(0, 2)))
    ]
    grid_differences = []
    for _ in range(2 if len(pts) > 1 else 0):
        pair = st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        grid_differences.append(pts[j] - pts[i])
    steps += grid_differences[:1]
    if hi is not None:
        # x + s + (hi - x - s) = hi, for an explicit s or a grid step s
        for s in steps[:1] + grid_differences[1:]:
            steps.append(hi - draw(st.sampled_from(pts)) - s)
    steps = draw(st.permutations(steps))
    return f, grid, steps, draw(st.sampled_from([None, 0, 3]))


_HALF_HI = Interval.open(0, Fraction(7, 2))


@settings(max_examples=80, deadline=None)
@given(_wright_cases())
# hi = 7/2 lies off the integer grid's lattice: its tops 3 stay inside.
@example((square(interval=_HALF_HI), SampleGrid(_HALF_HI, (1, 2, 3), (), 0), [], None))
def test_wright_check_matches_reference_on_row_ends_and_signs(case):
    # Row ends are decided on lattice ints against hi, and a triple's sign
    # from one int when only the rational coordinate of the difference is
    # nonzero; the reference sweep tests every top against the interval
    # and compares the two sides as ExactReal values.
    f, grid, steps, cap = case
    assert _wright_outcome(wright_check, f, grid, steps, cap) == _wright_outcome(
        wright_sweep_reference, f, grid, steps, cap
    )


@pytest.mark.parametrize(
    "steps, checked, witness",
    [
        ((R(2) - SQRT(2), SQRT(2)), 2, (R(0), R(2) - SQRT(2), SQRT(2))),
        # (0, sqrt2, 1), the mirror of (0, 1, sqrt2), is counted, not compared.
        ((R(1), SQRT(2), R(2) - SQRT(2)), 6, (R(0), SQRT(2), R(2) - SQRT(2))),
        ((SQRT(2), R(1), R(2) - SQRT(2)), 3, (R(0), SQRT(2), R(2) - SQRT(2))),
    ],
)
def test_wright_check_counts_mirrored_triples(steps, checked, witness):
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    report = wright_check(abs_fixture(), grid, steps, max_grid_steps=0)
    assert report.checked == checked
    assert report.certificate.witness == witness


def _matches_reference(g, grid, steps, cap):
    """``wright_check``'s outcome, after checking that it equals the
    reference sweep's and that it evaluated g once per distinct point, at
    the points the reference evaluated.  The reference evaluates through
    ``evaluate``; ``wright_check`` through the value function of
    ``_compiled``, plus ``_check`` at a point it refuses, and never
    through ``evaluate``."""
    seen = {wright_sweep_reference: [], wright_check: []}
    points = seen[wright_check]

    def evaluate(x):
        seen[wright_sweep_reference].append(x)
        return type(g).evaluate(g, x)

    def compiled(radicals):
        vrad, t, value = type(g)._compiled(g, radicals)

        def recorded(c, den):
            points.append(_from_lattice(radicals, c, den))
            return value(c, den)

        return vrad, t, recorded

    def check(x):
        try:
            type(g)._check(g, x)
        except WrightDecompError:
            points.append(x)
            raise

    def no_evaluate(x):
        raise AssertionError(f"wright_check evaluated {x} through evaluate")

    patches = {
        wright_sweep_reference: {"evaluate": evaluate},
        wright_check: {"evaluate": no_evaluate, "_compiled": compiled, "_check": check},
    }
    for sweep, attrs in patches.items():
        for name, patch in attrs.items():
            object.__setattr__(g, name, patch)
        try:
            outcome = _wright_outcome(sweep, g, grid, steps, cap)
        finally:
            for name in attrs:
                object.__delattr__(g, name)
        if sweep is wright_sweep_reference:
            expected = outcome
    assert outcome == expected, (g, cap)
    assert len(points) == len(set(points)), (g, cap)
    assert set(points) == set(seen[wright_sweep_reference]), (g, cap)
    return outcome


def test_wright_check_row_end_excludes_a_top_on_hi():
    # Grid steps 1/4 and 1/2: of the tops from x = 1/4 and x = 1/2 only
    # 1/4 + 1/4 + 1/4 stays below hi = 1; every other lands on it.
    f = square(interval=Interval.open(0, 1))
    grid = SampleGrid(f.interval, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (), seed=0)
    assert wright_check(f, grid).checked == 1
    # On eighths many tops land on hi, each next to an admissible step
    # just below it; a spike at 5/8 makes a violation past such edges.
    # Probes on sqrt2 add tops such as (sqrt2 - 1) + 1/8 + (7/8 - (sqrt2 - 1))
    # that land on hi as well; with them the three smallest grid steps are
    # irrational and miss the spike.
    eighths = tuple(Fraction(k, 8) for k in range(1, 8))
    spiked = Spiked(f, R(Fraction(5, 8)), Fraction(1, 8))
    outcomes = []
    for probes in ((), (SQRT(2) - 1, 1 - SQRT(2) / 2)):
        grid = SampleGrid(f.interval, eighths, probes, seed=0)
        for g in (f, spiked):
            for cap in (None, 3):
                outcomes.append(_matches_reference(g, grid, (), cap)["passed"])
    assert outcomes == [True, True, False, False] + [True, True, False, True]


def test_wright_check_row_end_with_irrational_hi_and_explicit_steps():
    # On (0, sqrt2) the grid steps are mixed with explicit ones, of which
    # 2 and 3/2 leave the interval from every x and 1 from some.
    interval = Interval.open(0, SQRT(2))
    grid = make_grid(interval, 5, 2, (2,), seed=3)
    steps = (R(2), SQRT(2) - 1, R(1), R(Fraction(3, 2)), R(2) - SQRT(2))
    assert any(interval.contains(x + 1) for x in grid.points())
    assert not all(interval.contains(x + 1) for x in grid.points())
    base = square(interval=interval)
    # |A| fails on explicit steps alone; the spike at 3/4 fails only on
    # triples with a grid step, so it passes at cap 0.
    abs_part = AbsAdditive(interval, (2,), AdditiveMap.from_mapping({2: 1}))
    spiked = Spiked(base, R(Fraction(3, 4)), Fraction(1, 8))
    tally = []
    for g in (base, abs_part, spiked):
        for cap in (None, 0, 4):
            tally.append(_matches_reference(g, grid, steps, cap)["passed"])
    assert tally == [True] * 3 + [False] * 3 + [False, True, False]
    # On the rational points alone no grid point carries the steps' sqrt2;
    # a step on sqrt3, outside f's basis, makes a point out of span, and
    # both sweeps must name the same one.
    rational = grid.rational_only()
    outside = steps[:3] + (SQRT(3) - 1,) + steps[3:]
    errors = 0
    for g in (base, abs_part, spiked):
        for cap in (None, 0, 4):
            _matches_reference(g, rational, steps, cap)
            errors += isinstance(_matches_reference(g, grid, outside, cap), tuple)
    assert errors == 9


def test_wright_check_checks_each_grid_point():
    # wright_check checks the domain once per row, at the grid point; on
    # a grid of a wider interval both sweeps stop at the same point
    # outside f's interval, after rows inside it or at the first row.
    # The spike at 1/3 is off the grid's lattice.
    f = square(interval=Interval.open(0, 1))
    gs = (f, Spiked(f, R(Fraction(1, 3)), Fraction(1, 8)))
    for wider in (Interval.open(0, 2), Interval.open(-1, 1)):
        grid = make_grid(wider, 6, 2, (2,), seed=1)
        for g in gs:
            for cap in (None, 3):
                error, message = _matches_reference(g, grid, (), cap)
                assert error is OutOfDomainError, message


@pytest.mark.parametrize(
    "lo, hi, counts",
    [
        (None, None, [1568, 288, 18491, 396]),
        (None, 5, [396, 195, 5751, 372]),
        (-5, None, [1568, 288, 18491, 396]),
    ],
    ids=["both", "no-lo", "no-hi"],
)
def test_wright_check_on_intervals_open_at_an_end(lo, hi, counts):
    # Without hi no row has an end to bisect: every step stays inside.
    # Without lo or hi the grid sits in rational_anchors' fixed window.
    f = replace(generate(3, nonzero_rational_part=True), interval=Interval.open(lo, hi))
    steps = (SQRT(f.basis[0]),)
    checked = []
    for irrational_n in (0, 3):
        grid = make_grid(f.interval, 8, irrational_n, f.basis, seed=3)
        for cap in (None, 5):
            outcome = _matches_reference(f, grid, steps, cap)
            assert outcome["passed"], outcome
            checked.append(outcome["checked"])
    assert checked == counts


def test_certificate_json_round_trip_and_self_verify():
    f = abs_fixture()
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    report = wright_check(f, grid, (SQRT(2), R(2) - SQRT(2)), max_grid_steps=0)
    doc = report.certificate.to_jsonable()
    again = ViolationCertificate.from_jsonable(doc)
    assert again == report.certificate
    assert again.verify(f)
    # a doctored certificate must not verify
    forged = ViolationCertificate(
        again.kind, again.witness, again.lhs + R(1), again.rhs, again.context
    )
    assert not forged.verify(f)


def test_certificate_verify_propagates_program_faults():
    # verify() rejects certificates the instance cannot reproduce, but a
    # fault inside evaluation is not a rejection and must surface
    f = abs_fixture()
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    cert = wright_check(f, grid, (SQRT(2), R(2) - SQRT(2)), max_grid_steps=0).certificate

    class Faulty:
        interval = I_10

        def evaluate(self, x):
            raise RuntimeError("evaluation fault")

    with pytest.raises(RuntimeError, match="evaluation fault"):
        cert.verify(Faulty())
    # out-of-domain and malformed witnesses are still plain rejections
    assert not ViolationCertificate("wright", (R(9), R(1), R(1)), cert.lhs, cert.rhs).verify(f)
    assert not ViolationCertificate("wright", (R(0),), cert.lhs, cert.rhs).verify(f)
    assert not ViolationCertificate("cubic", cert.witness, cert.lhs, cert.rhs).verify(f)


# Certificates that reproduce lhs < rhs on the convex x^2 through a witness
# that ``recompute_sides`` refuses: a negative Wright step, a Jensen weight
# t = 2, a monotone triple that descends.
FORGED = (
    ("wright", (R(0), R(-1), R(1)), R(0), R(2), ()),
    ("jensen", (R(0), R(1)), R(-1), R(1), (("t", R(2)),)),
    ("monotone", (R(1), R(0), R(-1)), R(-1), R(1), ()),
)


@pytest.mark.parametrize("kind, witness, lhs, rhs, context", FORGED, ids=[c[0] for c in FORGED])
def test_certificate_verify_rejects_witness_no_checker_emits(kind, witness, lhs, rhs, context):
    cert = ViolationCertificate(kind, witness, lhs, rhs, context)
    assert not cert.verify(square())
    with pytest.raises(ValueError):
        cert.recompute_sides(square())


# -- jensen_check ------------------------------------------------------------------


def test_jensen_abs_additive_passes():
    f = abs_fixture()
    grid = make_grid(I_10, 6, 6, (2,), seed=2)
    report = jensen_check(f, grid)
    assert report.passed
    assert report.checked == 66


def test_jensen_spiked_violation_at_midpoint():
    base = square()
    spiked = Spiked(base, R(0), Fraction(10))
    grid = SampleGrid(I_10, (Fraction(-1), Fraction(0), Fraction(1)), (), seed=0)
    report = jensen_check(spiked, grid)
    assert not report.passed
    cert = report.certificate
    assert cert.kind == "jensen"
    assert cert.witness == (R(-1), R(1))
    assert cert.verify(spiked)


def test_jensen_affine_exact_equality():
    f = affine()
    grid = make_grid(I_10, 6, 0, (2,), seed=0)
    report = jensen_check(f, grid)
    assert report.passed
    for x, y in ((R(-2), R(5)), (R(0), SQRT(2))):
        lhs = (f.evaluate(x) + f.evaluate(y)) * Fraction(1, 2)
        assert lhs == f.evaluate((x + y) * Fraction(1, 2))


def _outcome(run, *args):
    """What ``run(*args)`` returns, or the type and message it raises."""
    try:
        return run(*args)
    except WrightDecompError as exc:
        return type(exc), str(exc)


def _lattice_gate_cases():
    """(f, grid) pairs for the Jensen sweep and the Lipschitz brackets:
    quadratic parts 0 and nonzero with knots at pair midpoints, irrational
    interval ends, intervals open at one end, spikes at a grid point and
    at a pair's midpoint, generated instances on grids over one to three
    radicals, and grids with a point outside the interval or the basis."""
    s2, s3 = SQRT(2), SQRT(3)
    ints = tuple(Fraction(k) for k in range(-3, 4))
    probes = (s2, s2 * Fraction(-1, 2) + Fraction(1, 3), s3 - 1)
    # 0, 1/2 and (1 + sqrt2)/2 are the midpoints of (-1, 1), (0, 1) and (1, sqrt2).
    hinges = ((R(0), Fraction(2)), (R(Fraction(1, 2)), Fraction(1)), ((s2 + 1) / 2, Fraction(3)))
    additive = AdditiveMap.from_mapping({1: Fraction(1, 3), 2: R(1) + s3, 3: -2})
    for quad in (Fraction(0), Fraction(3, 4)):
        convex = ConvexSpec(quad, s2 - Fraction(1, 3), R(1) - s3 / 2, hinges)
        for interval in (
            I_10,
            Interval.open(s2 * -3, s3 + 3),
            Interval.open(None, 5),
            Interval.open(s2 - 5, None),
        ):
            f = Decomposable(interval, (2, 3), convex, additive)
            yield f, SampleGrid(interval, ints, probes, seed=0)
            yield f, SampleGrid(interval, ints, (), seed=0)
            # -3 is a grid point and bracket point but no pair's midpoint.
            for at in (R(-3), R(1), R(Fraction(1, 2)), s2, (s2 + 1) / 2):
                for lift in (Fraction(1, 8), Fraction(5)):
                    yield Spiked(f, at, lift), SampleGrid(interval, ints, probes, seed=0)
    yield abs_fixture(), make_grid(I_10, 6, 6, (2,), seed=2)
    for seed in range(12):
        kind = ("decomposable", "abs_additive", "spiked")[seed % 3]
        f = generate(seed, kind=kind, basis_size=seed % 3 + 1, nonzero_rational_part=seed % 2 == 1)
        yield f, make_grid(f.interval, 4 + seed % 3, seed % 4, f.basis, seed)
    f = square()  # basis (2,)
    for extra in (s3 + 5, s3 - 5, R(12), R(-12)):
        for g in (f, Spiked(f, R(Fraction(1, 2)), Fraction(5))):
            yield g, SampleGrid(I_10, (Fraction(0), Fraction(1)), (extra,), seed=0)


def test_jensen_check_matches_reference_sweep():
    tally = {"passed": 0, "violation": 0, "error": 0}
    for f, grid in _lattice_gate_cases():
        expected = _outcome(jensen_sweep_reference, f, grid)
        assert _outcome(jensen_check, f, grid) == expected, (f, grid)
        if isinstance(expected, tuple):
            tally["error"] += 1
        else:
            tally["passed" if expected.passed else "violation"] += 1
    assert min(tally.values()) >= 4, tally


def test_lipschitz_bound_matches_reference():
    # Brackets on the grids' rationals, over one denominator or several;
    # affine and abs instances tie the two slopes, and a spike may sit on
    # a bracket point.
    cases = 0
    for f, grid in _lattice_gate_cases():
        qs = grid.rationals
        if len(qs) < 4:
            continue
        for a1, a2, b1, b2 in ((qs[0], qs[1], qs[-2], qs[-1]), (qs[0], qs[1], qs[2], qs[-1])):
            for eps in (SLOPE_EPS, Fraction(1, 10**9)):
                args = (f, a2, b1, (a1, a2, b1, b2), eps)
                expected = _outcome(lipschitz_bound_reference, *args)
                assert _outcome(lipschitz_bound, *args) == expected, (f, args)
                cases += 1
    # An irrational slope ties with rises whose upper bounds differ.
    irrational = Decomposable(I_10, (2,), ConvexSpec(slope=SQRT(2) - Fraction(1, 3)))
    ties = (affine(), affine(Fraction(-7, 3)), abs_fixture(), irrational)
    for f in (*ties, square(interval=Interval.open(-2, 2))):
        for bracket in (
            (Fraction(-3), Fraction(-5, 3), Fraction(7, 5), Fraction(9, 4)),
            (Fraction(-1), Fraction(-1), Fraction(7, 5), Fraction(9, 4)),
            (Fraction(-9), Fraction(-1), Fraction(1), Fraction(1001, 1000)),
        ):
            args = (f, Fraction(-1), Fraction(1), bracket, SLOPE_EPS)
            assert _outcome(lipschitz_bound, *args) == _outcome(lipschitz_bound_reference, *args)
    assert cases > 100


# -- monotone certificates ------------------------------------------------------------


def test_monotone_certificate_of_a_concave_function_verifies():
    # no checker emits a monotone certificate, but one re-checks: on -x^2,
    # built directly outside the ConvexSpec invariants, slope(-1, 0) = 1
    # exceeds slope(0, 1) = -1, so (f(1) - f(0))*1 = -1 < (f(0) - f(-1))*1 = 1
    concave = Decomposable(I_10, (2,), ConvexSpec(quad=Fraction(-1)))
    cert = ViolationCertificate("monotone", (R(-1), R(0), R(1)), R(-1), R(1))
    assert cert.recompute_sides(concave) == (R(-1), R(1))
    assert cert.verify(concave)


# -- lipschitz_bound ------------------------------------------------------------------


SLOPE_EPS = Fraction(1, 64)


def bracket_fixture():
    return (Fraction(-1), Fraction(-1, 2), Fraction(3, 2), Fraction(7, 4))


def test_lipschitz_bound_square_is_13_over_4():
    f = square(interval=Interval.open(-2, 2))
    L = lipschitz_bound(f, Fraction(0), Fraction(1), bracket_fixture(), SLOPE_EPS)
    assert L == Fraction(13, 4)


def test_lipschitz_bound_affine_is_abs_slope():
    f = Decomposable(I_10, (2,), ConvexSpec(slope=R(Fraction(-7, 3))))
    L = lipschitz_bound(f, Fraction(0), Fraction(1), bracket_fixture(), SLOPE_EPS)
    assert L == Fraction(7, 3)


def test_lipschitz_guarantee_on_rational_pairs():
    f = square(interval=Interval.open(-2, 2))
    L = lipschitz_bound(f, Fraction(0), Fraction(1), bracket_fixture(), SLOPE_EPS)
    # spot instance from the bound's contract
    assert abs(f.evaluate(R(Fraction(3, 4))) - f.evaluate(R(Fraction(1, 4)))) == R(Fraction(1, 2))
    grid = make_grid(Interval.open(0, 1), 10, 0, (), seed=0)
    for i, x in enumerate(grid.rationals):
        for y in grid.rationals[i + 1 :]:
            gap = abs(f.evaluate(R(x)) - f.evaluate(R(y)))
            assert gap <= L * (y - x)


def test_lipschitz_bracket_validation():
    f = square(interval=Interval.open(-2, 2))
    for bracket, message in (
        ((Fraction(0), Fraction(0), Fraction(1), Fraction(2)), "fails a'"),
        ((Fraction(-3), Fraction(-5, 2), Fraction(3, 2), Fraction(7, 4)), "point -3 outside"),
        # only b'' lies outside: the inner points need no test of their own
        ((Fraction(-1), Fraction(-1, 2), Fraction(3, 2), Fraction(2)), "point 2 outside"),
    ):
        with pytest.raises(BracketViolationError, match=message):
            lipschitz_bound(f, Fraction(0), Fraction(1), bracket, SLOPE_EPS)


# -- the (x, y, t) and double-difference forms agree ------------------------------------


def test_wright_form_equivalence():
    inst = generate_decomposable(9)
    rng = random.Random(9)
    pts = make_grid(inst.interval, 6, 3, inst.basis, seed=9).points()
    checked = 0
    for _ in range(60):
        x, y = rng.choice(pts), rng.choice(pts)
        if compare(x, y) is not Ordering.LESS:
            continue
        t = Fraction(rng.randrange(1, 8), 8)
        u = (y - x) * t
        v = (y - x) * (1 - t)
        # direct two-point form
        lhs = inst.evaluate(x * t + y * (1 - t)) + inst.evaluate(x * (1 - t) + y * t)
        rhs = inst.evaluate(x) + inst.evaluate(y)
        direct_holds = compare(lhs, rhs) is not Ordering.GREATER
        dd_holds = compare(double_delta(inst, u, v, x), 0) is not Ordering.LESS
        assert direct_holds == dd_holds == True
        checked += 1
    assert checked > 10


def test_monotone_differences_along_grid():
    inst = generate_decomposable(11)
    grid = make_grid(inst.interval, 9, 3, inst.basis, seed=11)
    for v in (Fraction(1, 2), Fraction(2, 3)):
        pts = [p for p in grid.points() if inst.interval.contains(p + R(v))]
        values = [inst.evaluate(p + R(v)) - inst.evaluate(p) for p in pts]
        for a, b in zip(values, values[1:]):
            assert compare(a, b) is not Ordering.GREATER


# -- step profile -------------------------------------------------------------------


def test_build_steps_explicit_first_then_sorted_differences():
    grid = SampleGrid(I_10, (Fraction(0), Fraction(1), Fraction(3)), (), seed=0)
    steps = build_steps(grid, (SQRT(2), R(2) - SQRT(2)))
    assert steps[0] == SQRT(2)
    assert steps[1] == R(2) - SQRT(2)
    assert steps[2:] == (R(1), R(2), R(3))
    capped = build_steps(grid, (), max_grid_steps=2)
    assert capped == (R(1), R(2))


def test_build_steps_matches_exact_real_reference():
    # The profile is built on lattice coordinates; the reference subtracts,
    # deduplicates and sorts ExactReal values.  Explicit steps include grid
    # differences, so the cap is applied after they are taken out.
    grids = [
        make_grid(I_10, n, k, basis, seed)
        for seed, (n, k, basis) in enumerate(
            [(6, 0, (2,)), (5, 3, (2,)), (4, 4, (2, 3)), (3, 5, (2, 3, 5)), (6, 2, (3, 7))]
        )
    ]
    grids += [make_grid(I_10, 2, 6, (2, 3), seed) for seed in range(5, 10)]
    grids.append(
        SampleGrid(I_10, (Fraction(1, 3), 2), (SQRT(2), SQRT(3) - 1, SQRT(2) + SQRT(3)), 0)
    )
    grids.append(SampleGrid(I_10, (), (SQRT(2), SQRT(2) * 2, SQRT(2) * Fraction(7, 2)), 0))
    grids.append(SampleGrid(I_10, (1, 1, 2), (), 0))  # a repeated point differs by 0
    grids.append(SampleGrid(I_10, (), (SQRT(2), SQRT(3), SQRT(2) + SQRT(3), SQRT(3) * 2), 0))
    radicals = [{m for p in grid.points() for m in p.radicals()} for grid in grids]
    assert [len(r) for r in radicals] == [0, 1, 2, 3, 2] + [2] * 5 + [2, 1, 0, 2]
    sizes = []
    for grid in grids:
        pts = grid.points()
        diffs = [pts[j] - pts[i] for i in range(len(pts)) for j in range(i + 1, len(pts))]
        middle = diffs[len(diffs) // 2]
        for explicit in ((), (diffs[0], SQRT(5), diffs[-1], R(-1), diffs[0]), (middle,)):
            for cap in (None, 0, 1, 3, len(diffs)):
                steps = build_steps(grid, explicit, max_grid_steps=cap)
                assert steps == build_steps_reference(grid, explicit, max_grid_steps=cap)
                sizes.append(len(steps))
    assert (min(sizes), max(sizes)) == (0, 29)


def test_negative_step_cap_raises():
    # a negative cap used to slice steps off the end of the profile
    f = generate(1)
    grid = make_grid(f.interval, 5, 0, f.basis, 1)
    with pytest.raises(ValueError, match="max_grid_steps"):
        build_steps(grid, max_grid_steps=-1)
    with pytest.raises(ValueError, match="max_grid_steps"):
        wright_check(f, grid, max_grid_steps=-1)
    assert wright_check(f, grid).checked == 29


def test_build_steps_filters_nonpositive():
    grid = SampleGrid(I_10, (Fraction(0),), (), seed=0)
    steps = build_steps(grid, (R(-1), ExactReal(), R(2)), max_grid_steps=0)
    assert steps == (R(2),)


def test_wright_check_sweeps_a_repeated_point_once():
    # the grid keeps the first of each repeated point, so no row is swept twice
    f = generate(0)
    grid = SampleGrid(f.interval, (1, 1, 2), (), 0)
    assert grid.rationals == (1, 2)
    assert wright_check(f, grid).checked == wright_check(f, grid.rational_only()).checked == 2


def test_jensen_check_pairs_a_repeated_point_once():
    # no point is paired with itself, rational or irrational
    f = generate(0)
    x = make_grid(f.interval, 0, 1, f.basis, 0).irrationals[0]
    assert jensen_check(f, SampleGrid(f.interval, (1, 1, 2), (), 0)).checked == 1
    grid = SampleGrid(f.interval, (1, 2), (x, x), 0)
    assert grid.irrationals == (x,)
    assert jensen_check(f, grid).checked == 3
