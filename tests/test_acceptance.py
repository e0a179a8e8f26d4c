"""Acceptance suite: one criterion per test, one pass/fail line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance and budget is pinned here; nothing is calibrated at run
time.  The 200-digit numeric oracle lives in oracles.py and shares no
code path with the library's enclosures.
"""

import dataclasses
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from wrightdecomp import (
    AbsAdditive,
    AdditiveMap,
    ConvexSpec,
    Decomposable,
    ExactReal,
    ExtensionHandle,
    Interval,
    Ordering,
    compare,
    decompose,
    double_delta,
    generate,
    jensen_check,
    lipschitz_bound,
    make_grid,
    uniqueness_check,
    verify_against_truth,
    wright_check,
)
from wrightdecomp.cli import main as cli_main

from oracles import is_squarefree, radical_bounds

R = ExactReal.from_rational
SQRT = ExactReal.sqrt

EPS8 = Fraction(1, 10**8)
EPS_SET = (Fraction(1, 100), Fraction(1, 10**4), EPS8)

_KEYS = (1, 2, 3, 5, 6, 7, 10, 11, 13, 15)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed or elapsed >= budget_s else "PASS"
        print(f"[criterion {number}] {name}: {verdict} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _rand_exact(rng: random.Random) -> ExactReal:
    terms = {}
    for _ in range(rng.randrange(0, 4)):
        m = rng.choice(_KEYS)
        q = Fraction(rng.randrange(-64, 65), rng.choice((1, 2, 4, 8, 16)))
        terms[m] = terms.get(m, 0) + q
    return ExactReal(terms)


def test_criterion_1_exact_arithmetic_suite():
    with criterion(1, "exact arithmetic: ring axioms + enclosures", 30):
        rng = random.Random(0xC0FFEE)
        for _ in range(10_000):
            a, b, c = _rand_exact(rng), _rand_exact(rng), _rand_exact(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            for value in (a + b, a * b):
                for m, q in value.coefficients.items():
                    assert q != 0 and is_squarefree(m)
        for _ in range(1_000):
            x = _rand_exact(rng)
            eps = Fraction(1, 10 ** rng.randrange(2, 10))
            lo, hi = x.bounds(eps)
            assert hi - lo <= eps
            olo, ohi = radical_bounds(x, digits=200)
            assert lo <= olo and ohi <= hi


def test_criterion_2_wright_positivity():
    with criterion(2, "Wright positivity on 50 seeded instances", 120):
        for seed in range(50):
            inst = generate(
                seed,
                kind="decomposable",
                basis_size=1 + seed % 3,
                max_hinges=8,
                nonzero_rational_part=(seed % 5 == 0),
            )
            report = None
            for grid_n, max_steps in ((24, 30), (30, 36)):
                grid = make_grid(inst.interval, grid_n, 0, inst.basis, seed)
                report = wright_check(inst, grid, max_grid_steps=max_steps)
                if report.checked >= 10_000:
                    break
            assert report.checked >= 10_000, (seed, report.checked)
            assert report.passed, (seed, report.certificate)


def test_criterion_3_jensen_wright_separation():
    with criterion(3, "Jensen/Wright separation fixture", 5):
        fixture = AbsAdditive(
            Interval.open(-10, 10), (2,), AdditiveMap.from_mapping({2: 1})
        )
        jensen = jensen_check(fixture, make_grid(fixture.interval, 6, 6, (2,), seed=0))
        assert jensen.passed and jensen.checked == 66
        grid = make_grid(fixture.interval, 1, 0, (2,), seed=0)
        assert grid.rationals == (Fraction(0),)
        report = wright_check(
            fixture,
            grid,
            (SQRT(2), R(2) - SQRT(2)),
            max_grid_steps=0,
        )
        assert not report.passed
        cert = report.certificate
        assert cert.witness == (R(0), SQRT(2), R(2) - SQRT(2))
        assert cert.violation_amount() == R(-2)
        assert cert.verify(fixture)


def test_criterion_4_lipschitz_modulus():
    with criterion(4, "bracket Lipschitz modulus 13/4", 5):
        f = Decomposable(Interval.open(-2, 2), (2,), ConvexSpec(quad=Fraction(1)))
        bracket = (Fraction(-1), Fraction(-1, 2), Fraction(3, 2), Fraction(7, 4))
        L = lipschitz_bound(f, Fraction(0), Fraction(1), bracket, Fraction(1, 64))
        assert L == Fraction(13, 4)
        grid = make_grid(Interval.open(0, 1), 14, 0, (), seed=0)
        for i, x in enumerate(grid.rationals):
            for y in grid.rationals[i + 1 :]:
                gap = abs(f.evaluate(R(x)) - f.evaluate(R(y)))
                assert gap <= L * (y - x)


def test_criterion_5_extension_correctness():
    with criterion(5, "extension enclosures on 20 instances x 100 probes", 120):
        for seed in range(20):
            inst = generate(
                500 + seed,
                kind="decomposable",
                basis_size=1 + seed % 3,
                nonzero_rational_part=(seed % 4 == 0),
            )
            c1 = inst.additive.rational_slope
            grid = make_grid(inst.interval, 40, 60, inst.basis, seed)
            points = grid.points()
            assert len(points) == 100
            handle = ExtensionHandle(inst)
            for x in points:
                encs = [handle.extend_eval(x, eps) for eps in EPS_SET]
                truth = inst.convex.value(x) + c1 * x
                for enc, eps in zip(encs, EPS_SET):
                    assert enc.contains(truth), (seed, x.literal())
                    assert compare(enc.width, eps) is not Ordering.GREATER
                for outer, inner in zip(encs, encs[1:]):
                    assert outer.contains_enclosure(inner)
                if x.is_rational:
                    assert all(enc.is_point for enc in encs)


def _round_trip_instances():
    for seed in range(50):
        yield seed, generate(
            600 + seed,
            kind="decomposable",
            basis_size=1 + seed % 3,
            max_hinges=6,
            nonzero_rational_part=(seed < 10),
        )


def test_criterion_6_decomposition_round_trip():
    with criterion(6, "decomposition round trip on 50 instances", 300):
        for seed, inst in _round_trip_instances():
            grid = make_grid(inst.interval, 8, 4, inst.basis, seed)
            result = decompose(inst, EPS8, grid)
            for enc in result.additive_hat.values():
                assert compare(enc.width, EPS8) is not Ordering.GREATER
            assert result.prediction.consistent, seed
            for rep in result.transfer_reports:
                assert rep.monotone_passed and rep.within_twice_eps
            report = verify_against_truth(result, inst)
            assert report.passed, (seed, report.failures)


def test_criterion_7_uniqueness():
    with criterion(7, "uniqueness: two independent runs agree on 50 instances", 300):
        for seed, inst in _round_trip_instances():
            report = uniqueness_check(inst, EPS8, (seed, 7919 + seed))
            assert report.passed, (seed, report.to_jsonable())


def test_criterion_8_transfer_property():
    with criterion(8, "double differences ignore the additive part", 60):
        rng = random.Random(88)
        checked = 0
        inst_pool = []
        for seed in range(20):
            inst = generate(
                800 + seed, kind="decomposable", nonzero_rational_part=(seed % 2 == 0)
            )
            c1 = inst.additive.rational_slope
            ground = Decomposable(
                inst.interval,
                inst.basis,
                dataclasses.replace(inst.convex, slope=inst.convex.slope + c1),
            )
            grid = make_grid(inst.interval, 8, 4, inst.basis, seed)
            pts = grid.points()
            inst_pool.append((inst, grid))
            attempts = 0
            while checked < 50 * (seed + 1) and attempts < 500:
                attempts += 1
                x = rng.choice(pts)
                u = R(Fraction(rng.randrange(1, 24), 8))
                v = rng.choice(pts) - rng.choice(pts)
                if compare(v, 0) is not Ordering.GREATER:
                    continue
                if not inst.interval.contains(x + u + v):
                    continue
                assert double_delta(inst, u, v, x) == double_delta(ground, u, v, x)
                checked += 1
        assert checked >= 1_000, checked

        inst, grid = inst_pool[0]
        v_values = set()
        rationals = grid.rationals
        for i, q1 in enumerate(rationals):
            for q2 in rationals[i + 1 :]:
                v_values.add(q2 - q1)
        v_list = sorted(v_values)[:10]
        assert len(v_list) == 10
        for v in v_list:
            pts = [p for p in grid.points() if inst.interval.contains(p + R(v))]
            values = [inst.evaluate(p + R(v)) - inst.evaluate(p) for p in pts]
            for a, b in zip(values, values[1:]):
                assert compare(a, b) is not Ordering.GREATER


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reports are byte-identical across reruns", 60):
        inst = tmp_path / "inst.json"
        assert cli_main(["gen", "--seed", "13", "--nonzero-c1", "--out", str(inst)]) == 0
        first_gen = inst.read_bytes()
        assert cli_main(["gen", "--seed", "13", "--nonzero-c1", "--out", str(inst)]) == 0
        assert inst.read_bytes() == first_gen

        abs_inst = tmp_path / "abs.json"
        abs_inst.write_text(
            json.dumps(
                {
                    "variant": "abs_additive",
                    "interval": "(-10, 10)",
                    "basis": [2],
                    "additive": {"2": "1"},
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )

        runs = {
            "wright": ["check-wright", str(abs_inst), "--grid-n", "1",
                       "--steps", "sqrt(2),2-sqrt(2)", "--out"],
            "jensen": ["check-jensen", str(inst), "--grid-n", "6", "--out"],
            "decompose": ["decompose", str(inst), "--eps", "1e-8", "--out"],
        }
        for tag, argv in runs.items():
            out = tmp_path / f"{tag}.json"
            expected_code = 2 if tag == "wright" else 0
            assert cli_main(argv + [str(out)]) == expected_code
            blob = out.read_bytes()
            assert cli_main(argv + [str(out)]) == expected_code
            assert out.read_bytes() == blob, tag

        csv_path = tmp_path / "plot.csv"
        rep_path = tmp_path / "plot.json"
        argv = [
            "report", str(inst), "--grid-n", "5", "--irrational-n", "3",
            "--eps", "1/10000", "--csv", str(csv_path), "--out", str(rep_path),
        ]
        assert cli_main(argv) == 0
        blobs = (csv_path.read_bytes(), rep_path.read_bytes())
        assert cli_main(argv) == 0
        assert (csv_path.read_bytes(), rep_path.read_bytes()) == blobs
