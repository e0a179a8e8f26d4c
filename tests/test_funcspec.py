import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wrightdecomp import (
    AbsAdditive,
    build_steps,
    AdditiveMap,
    ConvexSpec,
    Decomposable,
    ExactReal,
    Interval,
    Ordering,
    Spiked,
    compare,
    dumps_instance,
    generate,
    loads_instance,
    make_grid,
)
from wrightdecomp.errors import OutOfDomainError, OutOfSpanError, ParseError
from wrightdecomp.exactreal import MAX_RADICAL_INDEX, _coordinates, _from_lattice, _lattice

R = ExactReal.from_rational
SQRT = ExactReal.sqrt

I_10 = Interval.open(-10, 10)


def square(interval=I_10, basis=(2,), additive=None):
    return Decomposable(
        interval,
        tuple(basis),
        ConvexSpec(quad=Fraction(1)),
        additive or AdditiveMap(),
    )


# -- evaluation examples -----------------------------------------------------


def test_evaluate_pure_square_at_sqrt2():
    assert square().evaluate(SQRT(2)) == R(2)


def test_evaluate_decomposable_with_additive():
    f = square(additive=AdditiveMap.from_mapping({2: 3}))
    # (1+sqrt2)^2 = 3 + 2*sqrt2, plus A(1 + sqrt2) = 3
    assert f.evaluate(R(1) + SQRT(2)) == R(6) + SQRT(2) * 2


def test_evaluate_abs_additive():
    f = AbsAdditive(I_10, (2,), AdditiveMap.from_mapping({2: 1}))
    # A(2 - sqrt2) = -1, so the value is 1
    assert f.evaluate(R(2) - SQRT(2)) == R(1)


def test_evaluate_domain_and_span_errors():
    f = square()
    with pytest.raises(OutOfDomainError):
        f.evaluate(R(10))
    with pytest.raises(OutOfSpanError):
        f.evaluate(SQRT(3))


def test_hinge_activation_is_exact():
    g = ConvexSpec(hinges=((SQRT(2), Fraction(2)),))
    f = Decomposable(I_10, (2,), g)
    assert f.evaluate(SQRT(2)) == ExactReal()  # exactly at the knot
    assert f.evaluate(R(2)) == (R(2) - SQRT(2)) * 2
    assert f.evaluate(R(1)) == ExactReal()


def test_spiked_pointwise_equality():
    base = square()
    f = Spiked(base, R(1), Fraction(5))
    assert f.evaluate(R(1)) == R(6)
    assert f.evaluate(R(2)) == R(4)


def test_convexspec_validation():
    with pytest.raises(ValueError):
        ConvexSpec(quad=Fraction(-1)).validate()
    with pytest.raises(ValueError):
        ConvexSpec(hinges=((R(0), Fraction(0)),)).validate()
    with pytest.raises(ValueError):
        ConvexSpec(hinges=((R(1), Fraction(1)), (R(0), Fraction(1)))).validate()


def test_basis_closure_validation():
    f = Decomposable(I_10, (2,), ConvexSpec(slope=SQRT(3)), AdditiveMap())
    with pytest.raises(ValueError):
        f.validate()
    with pytest.raises(ValueError, match="repeats a radical"):
        Decomposable(I_10, (2, 2), ConvexSpec(), AdditiveMap()).validate()


# -- generator ----------------------------------------------------------------


def test_generate_deterministic():
    a = generate(17, kind="decomposable", basis_size=3)
    b = generate(17, kind="decomposable", basis_size=3)
    assert a == b
    assert a != generate(18, kind="decomposable", basis_size=3)


def test_generate_respects_variant_and_validates():
    for kind, cls in (
        ("decomposable", Decomposable),
        ("abs_additive", AbsAdditive),
        ("spiked", Spiked),
    ):
        inst = generate(3, kind=kind)
        assert isinstance(inst, cls)
        inst.validate()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"basis_size": 0}, "basis_size must be between 1 and 4"),
        ({"max_hinges": 9}, "max_hinges must be between 0 and 8"),
        ({"kind": "concave"}, "unknown instance kind 'concave'"),
    ],
    ids=["basis-size", "hinges", "kind"],
)
def test_generate_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate(0, **kwargs)


def test_generate_explicit_basis():
    inst = generate(5, basis=(2, 3))
    assert inst.basis == (2, 3)


def test_generate_nonzero_rational_part():
    found = False
    for seed in range(10):
        inst = generate(seed, nonzero_rational_part=True)
        c1 = inst.additive.rational_slope
        assert not c1.is_zero
        found = True
    assert found


# -- additive map properties ----------------------------------------------------


def _span_strategy(basis=(2, 3)):
    keys = st.sampled_from([1, *basis])
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=8)
    return st.dictionaries(keys, coeffs, max_size=3).map(ExactReal)


@given(_span_strategy(), _span_strategy())
def test_additivity_on_samples(x, y):
    add = AdditiveMap.from_mapping({2: R(3), 3: SQRT(2) - R(1)})
    assert add.value(x + y) == add.value(x) + add.value(y)


@given(_span_strategy(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_q_homogeneity(x, q):
    add = AdditiveMap.from_mapping({2: R(3), 1: Fraction(1, 2)})
    assert add.value(x * q) == add.value(x) * q


@given(_span_strategy(), _span_strategy())
@settings(max_examples=60)
def test_convexspec_midpoint_convexity(x, y):
    g = ConvexSpec(
        quad=Fraction(2),
        slope=R(1) - SQRT(2),
        offset=R(Fraction(1, 3)),
        hinges=((R(-1), Fraction(1)), (SQRT(2), Fraction(3, 2))),
    )
    mid = (x + y) * Fraction(1, 2)
    lhs = (g.value(x) + g.value(y)) * Fraction(1, 2)
    assert compare(lhs, g.value(mid)) is not Ordering.LESS


def _hinge_sum_value(g, x):
    """x*x*quad + slope*x + offset + sum over knots below x of (x - knot)*weight."""
    v = x * x * g.quad + g.slope * x + g.offset
    for knot, weight in g.hinges:
        if compare(knot, x) is Ordering.LESS:
            v = v + (x - knot) * weight
    return v


_UNSORTED = ConvexSpec(
    quad=Fraction(1, 2),
    slope=SQRT(3),
    hinges=((SQRT(2), Fraction(2)), (R(-3), Fraction(1, 8)), (R(1) - SQRT(3), Fraction(5))),
)

# Specs built directly: hinges unsorted, knots possibly repeated, never validated.
_convex_specs = st.builds(
    ConvexSpec,
    quad=st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=8)),
    slope=_span_strategy(),
    offset=_span_strategy(),
    hinges=st.lists(
        st.tuples(
            _span_strategy(), st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)
        ),
        max_size=8,
    ).map(tuple),
)


@given(_convex_specs, st.lists(_span_strategy(), max_size=4))
@settings(max_examples=60)
@example(ConvexSpec(), [R(1), SQRT(2)])
@example(ConvexSpec(slope=SQRT(2), offset=R(3)), [R(-2), SQRT(3)])
@example(_UNSORTED, [R(0), R(-4), R(2), SQRT(2) - R(1)])
def test_convexspec_value_matches_hinge_sum(g, xs):
    for x in [*xs, *(knot for knot, _ in g.hinges)]:
        assert g.value(x) == _hinge_sum_value(g, x)


def test_catalog_values_match_hinge_sum():
    for s in range(12):
        inst = generate(s, basis_size=1 + s % 3, max_hinges=8)
        g = inst.convex
        grid = make_grid(inst.interval, 8, 4, inst.basis, s)
        for x in [*grid.points(), *(knot for knot, _ in g.hinges)]:
            assert g.value(x) == _hinge_sum_value(g, x)


def test_convexspec_value_reads_no_compiled_table():
    # convex.value is the catalog definition and never reads _pieces, the
    # table the compiled form reads, so a wrong table cannot pass as right.
    spec = ConvexSpec(
        quad=Fraction(1), slope=SQRT(2), hinges=((R(-1), Fraction(2)), (SQRT(2), Fraction(3)))
    )
    additive = AdditiveMap.from_mapping({2: 1})
    knots, pieces = spec._pieces
    wrong = replace(spec)
    slope, offset = pieces[2]
    object.__setattr__(wrong, "_pieces", (knots, (*pieces[:2], (slope, offset + 1))))
    points = [R(-2), R(0), SQRT(2) - 1, R(3), SQRT(2) + 1]
    for x in points:
        assert wrong.value(x) == spec.value(x) == _hinge_sum_value(spec, x)
        right = Decomposable(I_10, (2,), spec, additive).evaluate(x)
        assert right == spec.value(x) + additive.value(x)
        # past both knots the wrong last piece shows; below them it agrees
        off = Decomposable(I_10, (2,), wrong, additive).evaluate(x)
        assert (off == right + 1) if x > SQRT(2) else (off == right)
    # Hinges out of order, never validated: value still sums them, and the
    # compiled form, which sorts its knots, agrees.
    assert compare(_UNSORTED.hinges[0][0], _UNSORTED.hinges[1][0]) is Ordering.GREATER
    for x in [R(-4), R(-3), R(0), SQRT(2), R(2), R(1) - SQRT(3)]:
        assert _UNSORTED.value(x) == _hinge_sum_value(_UNSORTED, x)
        f = Decomposable(I_10, (2, 3), _UNSORTED)
        assert f.evaluate(x) == _UNSORTED.value(x)


def test_decomposable_evaluation_decomposes():
    # The integer pass against the reference sum convex.value + additive.value,
    # at grid rationals, irrational probes and every knot, on decomposable
    # and spiked instances with and without quad.
    seen = set()
    for seed in range(48):
        size, nonzero, hinges = 1 + seed % 4, seed % 8 < 4, 8 if seed % 3 else 0
        for kind in ("decomposable", "spiked"):
            inst = generate(
                seed,
                kind=kind,
                basis_size=size,
                max_hinges=hinges,
                nonzero_rational_part=nonzero and kind == "decomposable",
            )
            f = inst.base if kind == "spiked" else inst
            grid = make_grid(inst.interval, 8, 4, inst.basis, seed)
            knots = [k for k, _ in f.convex.hinges]
            points = [*grid.points(), *knots] + ([inst.at] if kind == "spiked" else [])
            for g in (f, replace(f, convex=replace(f.convex, quad=Fraction(0)))):
                for x in points:
                    expected = g.convex.value(x) + g.additive.value(x)
                    if kind == "spiked" and x == inst.at:
                        assert replace(inst, base=g).evaluate(x) == expected + inst.lift
                    assert g.evaluate(x) == expected
            irrational = any(not x.is_rational for x in points)
            seen.add((size, bool(f.additive.rational_slope), len(knots), irrational))
    assert {s for s, *_ in seen} == {1, 2, 3, 4}
    assert {r for _, r, *_ in seen} == {False, True}
    assert {0, 8} <= {h for _, _, h, _ in seen}
    assert all(i for *_, i in seen)


def test_evaluate_leaves_the_span_only_where_the_reference_does():
    # Two primes whose product passes MAX_RADICAL_INDEX.  The table of
    # slope*sqrt(m) + A(sqrt(m)) holds sqrt(p)*sqrt(q) for the row of q,
    # but only a point that uses sqrt(q) may reach it.
    p, q = 4294967291, 4294967279
    assert p * q > MAX_RADICAL_INDEX
    f = Decomposable(
        I_10, (q, p), ConvexSpec(quad=Fraction(1), slope=R(1) + SQRT(p) / 10**6)
    )
    f.validate()
    for x in (R(Fraction(1, 3)), SQRT(p) / 10**6):
        assert f.evaluate(x) == f.convex.value(x) + f.additive.value(x)
    x = R(1) + SQRT(q) / 10**6
    with pytest.raises(OutOfSpanError):
        f.convex.value(x)
    with pytest.raises(OutOfSpanError):
        f.evaluate(x)
    # The slope's sqrt(p)*sqrt(q) cancels against x**2's here, as it does
    # in the reference product (x + slope)*x.
    g = Decomposable(I_10, (q, p), ConvexSpec(quad=Fraction(1), slope=SQRT(p) * -2 / 10**6))
    x = (SQRT(p) + SQRT(q)) / 10**6
    assert g.evaluate(x) == g.convex.value(x) + g.additive.value(x)


def _outcome(fn, x):
    try:
        return fn(x)
    except OutOfSpanError as exc:
        return str(exc)


def _lattice_agrees(f, xs, steps):
    """For every point x, x+u and x+u+v, with x from xs and u, v from
    steps, that ``_check`` accepts: f's lattice evaluator over the lattice
    of xs and steps gives ``evaluate``'s value, or its OutOfSpanError
    message.  Returns the points compared."""
    radicals, den, _ = _lattice(tuple(xs) + tuple(steps))
    vrad, t, value = f._on_lattice(radicals)
    shifted = {x + u for x in xs for u in steps}
    compared = []
    for x in {*xs, *shifted, *(y + v for y in shifted for v in steps)}:
        try:
            f._check(x)
        except (OutOfDomainError, OutOfSpanError):
            continue
        on_lattice = lambda x: _from_lattice(
            vrad, value(_coordinates(x, radicals, den), den), t * den * den
        )
        assert _outcome(on_lattice, x) == _outcome(f.evaluate, x), (f, x)
        compared.append(x)
    return compared


def test_lattice_evaluators_match_evaluate():
    # Each family's lattice evaluator against evaluate, on generated
    # instances at grid points, grid steps, conjugate steps r +- s*sqrt(m)
    # and a step on a radical outside the basis (every point using it is
    # out of span, so the lattice carries a radical without a row).
    counts = {}
    for seed in range(24):
        for kind in ("decomposable", "abs_additive", "spiked"):
            f = generate(seed, kind=kind, basis_size=1 + seed % 4, max_hinges=8 * (seed % 2))
            grid = make_grid(f.interval, 5, 2, f.basis, seed)
            m = f.basis[seed % len(f.basis)]
            outside = next(k for k in (2, 3, 5, 7, 11) if k not in f.basis)
            conjugate = (1 - SQRT(m) / 4, 1 + SQRT(m) / 4, SQRT(outside) / 8)
            xs = grid.points() + ((f.at,) if kind == "spiked" else ())
            steps = build_steps(grid, conjugate, max_grid_steps=4)
            compared = _lattice_agrees(f, xs, steps)
            counts[kind] = counts.get(kind, 0) + len(compared)
            if kind == "spiked":
                assert f.at in compared
    assert min(counts.values()) > 1000, counts

    # |A| at zeros of A and across its sign changes: A(x) = x itself, and
    # A(a + b*sqrt2 + c*sqrt3) = b - c*sqrt2, which needs three radicals.
    for images in ({1: 1, 2: SQRT(2)}, {2: 1, 3: -SQRT(2)}, {2: SQRT(3), 3: -SQRT(2)}):
        g = AbsAdditive(I_10, (2, 3), AdditiveMap.from_mapping(images))
        g.validate()
        xs = (R(0), R(Fraction(1, 3)), SQRT(2) / 4, -SQRT(2) / 4, SQRT(3) / 4 - SQRT(2) / 4)
        steps = (R(Fraction(1, 3)), SQRT(2) / 4, SQRT(3) / 4, 1 - SQRT(3) / 4)
        compared = _lattice_agrees(g, xs, steps)
        values = [g.additive.value(x) for x in compared]
        assert any(v.is_zero for v in values)
        assert {compare(v, 0) for v in values} == set(Ordering)

    # A spike on the lattice, with a lift whose denominator the lattice's
    # lacks, and spikes off it: a denominator or a radical it does not carry.
    base = Decomposable(
        I_10, (2, 3), ConvexSpec(Fraction(1, 3), SQRT(2)), AdditiveMap.from_mapping({3: 2})
    )
    xs, steps = (R(0), R(Fraction(1, 2)), SQRT(2) / 2), (R(Fraction(1, 4)), R(1))
    spikes = ((R(Fraction(3, 4)), True), (R(Fraction(1, 7)), False), (SQRT(3) / 4, False))
    for at, on_lattice in spikes:
        g = Spiked(base, at, Fraction(5, 7**3))
        g.validate()
        radicals, den, _ = _lattice(xs + steps)
        assert (_coordinates(at, radicals, den) is not None) == on_lattice
        assert (at in _lattice_agrees(g, xs, steps)) == on_lattice

    # A product index past MAX_RADICAL_INDEX raises where evaluate does,
    # with its message.
    p, q = 4294967291, 4294967279
    f = Decomposable(I_10, (q, p), ConvexSpec(quad=Fraction(1), slope=R(1) + SQRT(p) / 10**6))
    xs = (R(Fraction(1, 3)), SQRT(p) / 10**6, R(1) + SQRT(q) / 10**6)
    compared = _lattice_agrees(f, xs, (R(Fraction(1, 7)),))
    assert sum(isinstance(_outcome(f.evaluate, x), str) for x in compared) > 1


# -- instance files ---------------------------------------------------------------


def test_instance_json_round_trip_bit_exact():
    for seed in range(6):
        for kind in ("decomposable", "abs_additive", "spiked"):
            inst = generate(seed, kind=kind, nonzero_rational_part=(seed % 2 == 0))
            text = dumps_instance(inst)
            again = loads_instance(text)
            assert again == inst
            assert dumps_instance(again) == text


def test_instance_json_spiked_base_shapes():
    # generate() spikes only a Decomposable; a spiked AbsAdditive writes
    # no convex field and reads back as the same function.
    base = AbsAdditive(I_10, (2, 3), AdditiveMap.from_mapping({2: 1, 3: Fraction(-1, 2)}))
    f = Spiked(base, R(Fraction(1, 3)), Fraction(7, 8))
    f.validate()
    text = dumps_instance(f)
    assert "convex" not in json.loads(text)
    again = loads_instance(text)
    assert again == f
    assert dumps_instance(again) == text

    twice = Spiked(f, R(0), Fraction(1))
    twice.validate()
    with pytest.raises(ValueError, match="one level"):
        dumps_instance(twice)

    wide = Decomposable(I_10, (2,), ConvexSpec(Fraction(1)), AdditiveMap.from_mapping({2: 3}))
    assert loads_instance(dumps_instance(Spiked(wide, R(0), Fraction(1)))).base == wide


def test_instance_json_rejects_malformed():
    doc = json.loads(dumps_instance(generate(0)))  # basis (11, 15) on (-9/2, 8)
    for text in (
        "{not json",
        '{"variant": "mystery", "interval": "(0, 1)", "basis": []}',
        json.dumps({**doc, "basis": ["x"]}),
        json.dumps({**doc, "basis": [1, 11, 15]}),
        json.dumps({**doc, "basis": [11, 11, 15]}),
        json.dumps({**doc, "additive": {"x": "1"}}),
        json.dumps({**doc, "convex": {**doc["convex"], "quad": "-1"}}),
        json.dumps({**doc, "variant": "spiked", "spike": {"at": "9", "lift": "1"}}),
        json.dumps({**doc, "variant": "spiked", "spike": {"at": "0", "lift": "0"}}),
        json.dumps({**doc, "interval": "(1, 0)"}),
        "[" * 100_000,
        '{"basis": [' + "1" * 5000 + "]}",
    ):
        with pytest.raises(ParseError):
            loads_instance(text)


def test_randomized_generator_instances_validate():
    rng = random.Random(0)
    for _ in range(20):
        seed = rng.randrange(10**6)
        inst = generate(
            seed,
            kind=rng.choice(["decomposable", "abs_additive", "spiked"]),
            basis_size=rng.randrange(1, 5),
            max_hinges=rng.randrange(0, 9),
        )
        inst.validate()
