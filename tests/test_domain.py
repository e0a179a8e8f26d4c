from fractions import Fraction

import pytest

from wrightdecomp import (
    ExactReal,
    Interval,
    compare,
    Ordering,
    SampleGrid,
    decompose,
    generate,
    jensen_check,
    make_grid,
    shifted_intersection,
    wright_check,
)
from wrightdecomp.errors import EmptyDomainError, ParseError

R = ExactReal.from_rational
SQRT = ExactReal.sqrt


def test_contains_examples():
    i = Interval.open(0, 10)
    assert i.contains(SQRT(2))
    assert not i.contains(R(10))  # open endpoint
    assert not Interval.open(-2, 2).contains(R(1) + SQRT(2))  # 1+sqrt2 > 2


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval.open(1, 1)
    with pytest.raises(ValueError):
        Interval.open(2, 1)
    for text in ("(1, 0)", "(1, 1)", "(sqrt(2), 1)"):
        with pytest.raises(ParseError, match="empty interval"):
            Interval.parse(text)


def test_unbounded_intervals():
    i = Interval(None, None)
    assert i.contains(R(10**9))
    half = Interval(None, R(0))
    assert half.contains(R(-5)) and not half.contains(R(0))


def test_literal_round_trip():
    for text in ("(0, 10)", "(-inf, 1 + -1*sqrt(2))", "(0, inf)"):
        i = Interval.parse(text)
        assert Interval.parse(i.literal()) == i
    assert Interval.parse("(-1e-3, 1e-3)") == Interval.open(Fraction(-1, 1000), Fraction(1, 1000))
    with pytest.raises(ParseError):
        Interval.parse("[0, 1]")


def test_shifted_intersection_examples():
    i = Interval.open(0, 10)
    assert shifted_intersection(i, R(3)) == Interval.open(0, 7)
    shifted = shifted_intersection(i, SQRT(2))
    assert shifted == Interval(R(0), R(10) - SQRT(2))
    with pytest.raises(EmptyDomainError):
        shifted_intersection(Interval.open(0, 2), R(2))


def test_shifted_intersection_negative_step():
    i = Interval.open(0, 10)
    assert shifted_intersection(i, R(-3)) == Interval.open(3, 10)


def test_grid_uniform_subdivision():
    grid = make_grid(Interval.open(0, 1), 3, 0, (), seed=7)
    assert grid.rationals == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def test_grid_determinism():
    i = Interval.open(0, 10)
    g1 = make_grid(i, 9, 4, (2, 3), seed=42)
    g2 = make_grid(i, 9, 4, (2, 3), seed=42)
    assert g1 == g2
    g3 = make_grid(i, 9, 4, (2, 3), seed=43)
    assert g1.irrationals != g3.irrationals


def test_grid_membership_and_irrational_shape():
    i = Interval.open(0, 10)
    grid = make_grid(i, 0, 2, (2,), seed=5)
    assert len(grid.irrationals) == 2
    for x in grid.irrationals:
        assert i.contains(x)
        assert x.radicals() == (2,)  # points of the form p + q*sqrt(2)


def test_grid_points_sorted_and_inside():
    i = Interval(R(0), R(10) - SQRT(2))
    grid = make_grid(i, 10, 5, (2, 5), seed=11)
    pts = grid.points()
    assert len(pts) == 15
    for p in pts:
        assert i.contains(p)
    for a, b in zip(pts, pts[1:]):
        assert compare(a, b) is Ordering.LESS


def test_hand_built_grid_sorts_its_rationals_only():
    i = Interval.open(0, 10)
    high, low = R(3) + SQRT(2), R(1) + SQRT(2)
    grid = SampleGrid(i, (Fraction(2), Fraction(1), Fraction(2)), (high, low), 0)
    assert grid.rationals == (Fraction(1), Fraction(2))
    assert grid.irrationals == (high, low)


def test_hand_built_grid_moves_a_rational_probe_to_the_rationals():
    # Its only probe is rational, where the residual is 0 by construction,
    # so the prediction check has no irrational probe and cannot pass.
    f = generate(2, kind="abs_additive")
    grid = SampleGrid(f.interval, (0, 1, 2), (R(Fraction(1, 2)),), 0)
    assert grid.rationals == (0, Fraction(1, 2), 1, 2) and grid.irrationals == ()
    result = decompose(f, Fraction(1, 10**8), grid)
    assert result.prediction.probes_checked == 0 and not result.passed
    # A probe equal to a rational point is that point, counted once.
    grid = SampleGrid(Interval.open(-10, 10), (0, 1), (R(1),), 0)
    assert grid.points() == (R(0), R(1))
    f = generate(0)
    grid = SampleGrid(f.interval, (0, 1), (R(1),), 0)
    assert wright_check(f, grid).checked == 2
    assert jensen_check(f, grid).checked == 1


def test_grid_mediant_crowding_near_endpoints():
    grid = make_grid(Interval.open(0, 1), 16, 0, (), seed=0)
    pts = grid.rationals
    assert len(pts) == 16
    # mediant refinement makes the spacing near the endpoints strictly
    # finer than the uniform interior spacing
    mid = len(pts) // 2
    interior_gap = pts[mid + 1] - pts[mid]
    assert pts[1] - pts[0] < interior_gap
    assert pts[-1] - pts[-2] < interior_gap


def test_grid_shift_property():
    i = Interval.open(0, 10)
    w = R(3)
    j = shifted_intersection(i, w)
    grid = make_grid(j, 6, 3, (2,), seed=9)
    for x in grid.points():
        assert j.contains(x)
        assert i.contains(x + w)


def test_grid_restriction():
    i = Interval.open(0, 10)
    grid = make_grid(i, 8, 4, (2,), seed=3)
    sub = grid.restricted_to(Interval.open(0, 5))
    for p in sub.points():
        assert Interval.open(0, 5).contains(p)
    assert len(sub.points()) < len(grid.points())


def test_grid_needs_basis_for_probes():
    with pytest.raises(ValueError):
        make_grid(Interval.open(0, 1), 2, 2, (), seed=0)


@pytest.mark.parametrize("n_rational, n_irrational", [(-1, 0), (0, -1)])
def test_make_grid_rejects_a_negative_count(n_rational, n_irrational):
    with pytest.raises(ValueError, match="point counts must be nonnegative"):
        make_grid(Interval.open(0, 1), n_rational, n_irrational, (2,), seed=0)
