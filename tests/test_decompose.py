from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wrightdecomp import (
    AbsAdditive,
    AdditiveMap,
    ConvexSpec,
    Decomposable,
    Enclosure,
    ExactReal,
    ExtensionHandle,
    Interval,
    RESOLUTION_LIMIT,
    Ordering,
    SampleGrid,
    Spiked,
    compare,
    decompose,
    generate,
    make_grid,
    uniqueness_check,
    verify_against_truth,
)
from wrightdecomp.decomposition import _additive_at, _recover, _recovery_point
from wrightdecomp.domain import rational_anchors
from wrightdecomp.errors import NotWrightConvexError

from oracles import recovery_point_reference

R = ExactReal.from_rational
SQRT = ExactReal.sqrt
EPS8 = Fraction(1, 10**8)


def fixture_square_additive(c1=Fraction(0)):
    coeffs = {2: 3}
    if c1:
        coeffs[1] = c1
    return Decomposable(
        Interval.open(0, 10),
        (2,),
        ConvexSpec(quad=Fraction(1)),
        AdditiveMap.from_mapping(coeffs),
    )


def grid_for(f, seed=0, n_r=6, n_i=4):
    return make_grid(f.interval, n_r, n_i, f.basis, seed)


def test_decompose_recovers_sqrt2_coefficient():
    f = fixture_square_additive()
    result = decompose(f, EPS8, grid_for(f))
    enc = result.additive_hat[2]
    assert compare(enc.width, EPS8) is not Ordering.GREATER
    assert enc.contains(R(3))
    assert result.passed


@pytest.mark.parametrize("digits", [70, 150, 300])
def test_decompose_recovers_on_a_narrow_interval(digits):
    # q is read off the width, so it exists at any width; the probe's
    # sqrt(2) coefficient is q, so its first enclosure is already narrower
    # than the interval and its chain's window fits at once, even where a
    # chain at sqrt(2) itself finds none (1e-300 on each side).
    lo, w = Fraction(1, 3), Fraction(1, 10**digits)
    interval = Interval.open(lo, lo + w)
    f = Decomposable(interval, (2,), ConvexSpec(quad=Fraction(1)), AdditiveMap.from_mapping({2: 3}))
    grid = SampleGrid(interval, (lo + w / 3, lo + 2 * w / 3), (), 0)
    enc = decompose(f, EPS8, grid).additive_hat[2]
    assert compare(enc.width, EPS8) is not Ordering.GREATER
    assert enc.contains(R(3))


@st.composite
def _recovery_intervals(draw):
    """An interval from about 1e-60 to 1 wide, its lower end and its width
    each rational or irrational, and a radical m."""
    lo = R(Fraction(draw(st.integers(-1000, 1000)), draw(st.integers(1, 64))))
    if draw(st.booleans()):
        lo = lo + SQRT(draw(st.sampled_from((2, 3, 5)))) * Fraction(draw(st.integers(-8, 8)), 8)
    width = R(Fraction(draw(st.integers(1, 9)), 10 ** draw(st.integers(1, 60))))
    if draw(st.booleans()):
        width = width * SQRT(7) / 2
    return Interval(lo, lo + width), draw(st.sampled_from((2, 3, 10, 4294967291)))


@settings(max_examples=80, deadline=None)
@given(_recovery_intervals())
def test_recovery_point_matches_search(case):
    interval, m = case
    r, q = _recovery_point(interval, m)
    assert (r, q) == recovery_point_reference(interval, m)
    a, b = rational_anchors(interval)
    x = R(r) + SQRT(m) * q
    assert compare(R(a), x) is Ordering.LESS and compare(x, R(b)) is Ordering.LESS
    assert compare(SQRT(m) * (2 * q), R((b - a) / 4)) is Ordering.GREATER


def test_decompose_rejects_eps_outside_the_resolvable_range():
    f = fixture_square_additive()
    grid = grid_for(f)
    with pytest.raises(ValueError, match="eps must be positive"):
        decompose(f, 0, grid)
    with pytest.raises(ValueError, match="below the resolution limit"):
        decompose(f, RESOLUTION_LIMIT / 10, grid)


def test_decompose_checks_eps_before_the_grid_and_the_gate():
    f = fixture_square_additive()
    spiked = generate(1, kind="spiked")  # its Jensen gate refuses it on grid_for
    with pytest.raises(NotWrightConvexError, match="not Jensen convex"):
        decompose(spiked, EPS8, grid_for(spiked))
    one_rational = SampleGrid(f.interval, (Fraction(1),), (), 0)
    for g, grid in ((f, one_rational), (spiked, grid_for(spiked))):
        with pytest.raises(ValueError, match="eps must be positive"):
            decompose(g, 0, grid)
        with pytest.raises(ValueError, match="below the resolution limit"):
            decompose(g, RESOLUTION_LIMIT / 10, grid)


def test_decompose_skips_a_step_that_leaves_one_point():
    # on (0, 10) the one step v = 5 of the rationals 4 and 9 leaves only 4
    # in I ∩ (I - v) = (0, 5), so there is no transfer entry
    f = fixture_square_additive()
    result = decompose(f, EPS8, SampleGrid(f.interval, (Fraction(4), Fraction(9)), (), 0))
    assert result.transfer_reports == ()
    assert result.additive_hat[2].contains(R(3))


def test_decompose_reads_a_hand_built_grid_in_any_order():
    # the grid sorts its rationals, so the transfer step 2 - 1 is positive
    # whichever order they were given in
    f = generate(0)
    backwards = SampleGrid(f.interval, (Fraction(2), Fraction(1)), (), 0)
    forwards = SampleGrid(f.interval, (Fraction(1), Fraction(2)), (), 0)
    assert backwards == forwards
    result = decompose(f, EPS8, backwards)
    assert len(result.transfer_reports) == 1
    assert result.to_jsonable() == decompose(f, EPS8, forwards).to_jsonable()


@pytest.mark.parametrize("seed", [0, 5])
def test_decompose_at_eps_1e_90(seed):
    # Separating the enclosures of this run needs widths near 1e-307, past
    # where comparisons used to stop refining.
    f = generate(seed)
    grid = make_grid(f.interval, 8, 4, f.basis, 0)
    assert verify_against_truth(decompose(f, Fraction(1, 10**90), grid), f).passed


def test_decompose_pure_convex_encloses_zero():
    f = Decomposable(Interval.open(-5, 5), (2, 3), ConvexSpec(quad=Fraction(2)))
    result = decompose(f, EPS8, grid_for(f))
    for m in (2, 3):
        assert result.additive_hat[m].contains(R(0))


def test_decompose_normalizes_rational_linear_part():
    # additive value 1/2 on Q: the unique decomposition with the additive
    # part vanishing on Q moves x/2 into the convex part, so the
    # recovered sqrt2 coefficient is 3 - sqrt2/2 and the extension tracks
    # x^2 + x/2.
    f = fixture_square_additive(c1=Fraction(1, 2))
    result = decompose(f, EPS8, grid_for(f))
    truth = R(3) - SQRT(2) * Fraction(1, 2)
    enc = result.additive_hat[2]
    assert enc.contains(truth)
    assert not enc.contains(R(3))
    h = ExtensionHandle(f)
    x = SQRT(2)
    ext = h.extend_eval(x, EPS8)
    assert ext.contains(R(2) + SQRT(2) * Fraction(1, 2))
    report = verify_against_truth(result, f)
    assert report.passed, report.failures


def test_decompose_residual_zero_on_rationals():
    f = fixture_square_additive(c1=Fraction(1, 2))
    grid = grid_for(f, seed=3)
    decompose(f, EPS8, grid)
    handle = ExtensionHandle(f)
    for q in grid.rationals:
        enc = handle.residual(R(q), EPS8)
        assert enc == Enclosure.point(ExactReal())


def test_decompose_prediction_consistent():
    f = generate(41, kind="decomposable", nonzero_rational_part=True)
    grid = grid_for(f, seed=41)
    result = decompose(f, EPS8, grid)
    assert result.prediction.consistent
    assert result.prediction.probes_checked == len(grid.irrationals) == 4
    # the residual and the prediction each have width at most a few eps
    assert result.prediction.worst_gap <= 4 * EPS8


def test_decompose_without_probes_is_not_consistent():
    # a grid without irrational points checks no prediction, and a check
    # of nothing must not read as a pass
    f = generate(41, kind="decomposable", nonzero_rational_part=True)
    result = decompose(f, EPS8, grid_for(f, seed=41, n_i=0))
    assert result.prediction.probes_checked == 0
    assert not result.prediction.consistent
    assert result.to_jsonable()["residuals"]["additive_prediction"]["consistent"] is False


def test_prediction_contains_true_additive_value():
    # at x = r + sum q_m*sqrt(m) the additive part vanishing on Q is
    # sum q_m*(c_m - c1*sqrt(m)); both the prediction from the recovered
    # map and the residual enclosure must contain it
    for seed in range(6):
        f = generate(seed, nonzero_rational_part=True)
        grid = grid_for(f, seed=seed, n_r=8)
        result = decompose(f, EPS8, grid)
        assert result.prediction.consistent
        c1 = f.additive.rational_slope
        handle = ExtensionHandle(f)
        for x in grid.irrationals:
            truth = ExactReal()
            for m, q in x.coefficients.items():
                if m != 1:
                    truth += (f.additive.coefficient(m) - c1 * SQRT(m)) * q
            assert _additive_at(result.additive_hat, x).contains(truth), (seed, x)
            assert handle.residual(x, EPS8).contains(truth), (seed, x)


def test_decompose_transfer_reports_clean():
    f = generate(42, kind="decomposable")
    result = decompose(f, EPS8, grid_for(f, seed=42))
    assert result.transfer_reports
    for rep in result.transfer_reports:
        assert rep.monotone_passed
        assert rep.within_twice_eps


def test_round_trip_random_instances():
    for seed in range(6):
        f = generate(seed + 100, kind="decomposable", nonzero_rational_part=(seed % 3 == 0))
        result = decompose(f, EPS8, grid_for(f, seed=seed))
        report = verify_against_truth(result, f)
        assert report.passed, (seed, report.failures)


def test_verify_flags_corrupted_entry():
    f = fixture_square_additive()
    result = decompose(f, EPS8, grid_for(f))
    shifted = {
        m: Enclosure(enc.lo + R(1), enc.hi + R(1)) for m, enc in result.additive_hat.items()
    }
    import dataclasses

    corrupted = dataclasses.replace(result, additive_hat=shifted)
    report = verify_against_truth(corrupted, f)
    assert not report.passed
    assert any("additive[2]" in msg for msg in report.failures)
    assert len([m for m in report.failures if "misses" in m]) == 1


def test_decompose_gate_rejects_spiked():
    base = Decomposable(Interval.open(-10, 10), (2,), ConvexSpec(quad=Fraction(1)))
    spiked = Spiked(base, R(0), Fraction(10))
    grid = SampleGrid(
        Interval.open(-10, 10), (Fraction(-1), Fraction(0), Fraction(1)), (), seed=0
    )
    with pytest.raises(NotWrightConvexError) as info:
        decompose(spiked, EPS8, grid)
    assert info.value.certificate.verify(spiked)
    assert str(info.value) == "source is not Jensen convex on the sampled rationals"


@pytest.mark.parametrize("seed", [0, 6, 8, 9])
def test_decompose_refuses_spiked_by_a_transfer_certificate(seed):
    # The Jensen gate passes these at the CLI's default grid; a transfer
    # check's monotone scan finds a Wright certificate, and the run raises
    # it rather than returning a result that holds it.
    f = generate(seed, kind="spiked")
    with pytest.raises(NotWrightConvexError) as info:
        decompose(f, EPS8, make_grid(f.interval, 8, 4, f.basis, 0))
    assert info.value.certificate.kind == "wright"
    assert info.value.certificate.verify(f)
    assert str(info.value) == "source is not Wright convex on the sampled points"


def test_uniqueness_check_refuses_spiked():
    f = generate(0, kind="spiked")
    with pytest.raises(NotWrightConvexError) as info:
        uniqueness_check(f, EPS8, (1, 2))
    assert info.value.certificate.verify(f)


def test_uniqueness_check_does_not_pass_on_inconclusive_runs():
    # two runs of |A| agree with each other, but neither passes on its own
    # evidence (a flagged prediction), so their agreement is no evidence
    report = uniqueness_check(generate(0, kind="abs_additive"), EPS8, (0, 7919))
    assert all(report.radical_overlaps.values()) and not report.probe_failures
    assert not (report.first.passed or report.second.passed)
    assert not report.passed


def test_decompose_abs_additive_flagged_by_prediction():
    # |A| is midpoint convex, so the gate passes and recovery runs; the
    # residual is |A|, not additive, so the recovered a_2 = 1 mispredicts
    # it at -sqrt(2): |A| there is 1, the prediction -1.
    f = AbsAdditive(Interval.open(-10, 10), (2,), AdditiveMap.from_mapping({2: 1}))
    grid = SampleGrid(
        Interval.open(-10, 10),
        (Fraction(-1), Fraction(0), Fraction(1)),
        (SQRT(2), -SQRT(2)),
        seed=0,
    )
    result = decompose(f, Fraction(1, 10**4), grid)
    assert not result.prediction.consistent
    assert result.prediction.worst_gap >= Fraction(1, 2)
    assert not result.passed  # a flagged probe holds no certificate: no raise


def test_decompose_abs_additive_flagged_on_default_grids():
    # the residual of |A| is not additive, and the irrational points of
    # generated grids expose it without hand-picked probes
    for seed in (0, 1, 2):
        f = generate(seed, kind="abs_additive", basis_size=2)
        grid = grid_for(f, seed=seed)
        result = decompose(f, Fraction(1, 10**4), grid)
        assert not result.prediction.consistent, seed


def test_uniqueness_check_passes_and_nests():
    f = generate(55, kind="decomposable", nonzero_rational_part=True)
    coarse = uniqueness_check(f, Fraction(1, 10**4), (1, 2))
    fine = uniqueness_check(f, EPS8, (1, 2))
    assert coarse.passed and fine.passed
    for m, enc in fine.first.additive_hat.items():
        wide = coarse.first.additive_hat[m]
        meet_fine = enc.intersect(fine.second.additive_hat[m])
        meet_coarse = wide.intersect(coarse.second.additive_hat[m])
        assert meet_coarse.contains_enclosure(meet_fine)


def test_uniqueness_check_builds_each_chain_once(monkeypatch):
    # the probes reuse the handles of the two decompositions, so each
    # (policy, x) pair starts one refinement chain
    starts = []
    start_chain = ExtensionHandle._start_chain

    def counting(self, x):
        starts.append((self.policy, x))
        return start_chain(self, x)

    monkeypatch.setattr(ExtensionHandle, "_start_chain", counting)
    report = uniqueness_check(generate(0, nonzero_rational_part=True), EPS8, (0, 7))
    assert report.passed
    assert len(starts) == len(set(starts)) == 30


@pytest.mark.parametrize(
    "lo, hi", [(None, None), (None, R(5)), (R(-5), None), (-SQRT(2), None)],
    ids=["both", "no-lo", "no-hi", "irrational-lo"],
)
def test_round_trip_on_intervals_open_at_an_end(lo, hi):
    # rational_anchors' fixed windows place the grids, the recovery points
    # and the extension's brackets.
    f = replace(generate(3, nonzero_rational_part=True), interval=Interval(lo, hi))
    result = decompose(f, EPS8, make_grid(f.interval, 8, 4, f.basis, 3))
    assert result.prediction.consistent
    assert verify_against_truth(result, f).passed
    assert uniqueness_check(f, EPS8, (3, 4)).passed


@pytest.mark.parametrize("seed", range(10))
def test_recovery_phase_equals_decompose(seed):
    # the recovery reads no grid: decompose on two grids that differ in
    # seed and size reports the coefficients it gives
    f = generate(seed)
    recovered = _recover(ExtensionHandle(f), EPS8)
    for grid in (grid_for(f, seed=seed, n_r=8), grid_for(f, seed=seed + 11, n_r=5, n_i=2)):
        result = decompose(f, EPS8, grid)
        assert recovered == (result.additive_hat, result.recovery_points)


def test_refinement_never_widens():
    f = generate(56, kind="decomposable")
    g1 = grid_for(f, seed=7, n_r=5, n_i=2)
    g2 = grid_for(f, seed=7, n_r=10, n_i=4)
    r1 = decompose(f, Fraction(1, 10**4), g1)
    r2 = decompose(f, EPS8, g2)
    for m, enc in r1.additive_hat.items():
        assert enc.contains_enclosure(r2.additive_hat[m])


def test_result_jsonable_shape():
    f = fixture_square_additive()
    result = decompose(f, EPS8, grid_for(f))
    doc = result.to_jsonable()
    assert set(doc) == {"additive", "eps", "seed", "recovery_points", "residuals"}
    assert set(doc["residuals"]) == {"additive_prediction", "transfer"}
    assert doc["residuals"]["transfer"]
    assert set(doc["residuals"]["transfer"][0]) == {
        "v",
        "eps",
        "monotone_passed",
        "monotone_certificate",
        "probes_checked",
        "worst_certified_bound",
        "within_twice_eps",
    }
    assert "2" in doc["additive"]
    assert {"lo", "hi"} == set(doc["additive"]["2"])
