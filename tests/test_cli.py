import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import wrightdecomp
from wrightdecomp import RESOLUTION_LIMIT, decompose, load_instance, make_grid
from wrightdecomp.cli import main
from wrightdecomp.errors import NotWrightConvexError

from oracles import pell_sqrt11_convergent, wright_convex

SQUARE = {
    "variant": "decomposable",
    "interval": "(-10, 10)",
    "basis": [2],
    "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
    "additive": {},
}

FIXTURE_ABS = {
    "variant": "abs_additive",
    "interval": "(-10, 10)",
    "basis": [2],
    "additive": {"2": "1"},
}


@pytest.fixture
def abs_instance(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(FIXTURE_ABS, sort_keys=True, indent=2) + "\n")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_instance_and_roundtrips(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "7", "--variant", "decomposable", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["variant"] == "decomposable"
    # stdout path
    assert run_cli("gen", "--seed", "7") == 0
    captured = capsys.readouterr().out
    assert json.loads(captured) == doc


def test_gen_explicit_basis(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "3", "--basis", "2,5", "--out", str(out)) == 0
    assert json.loads(out.read_text())["basis"] == [2, 5]


def test_eval_prints_literal(tmp_path, capsys):
    inst = tmp_path / "sq.json"
    inst.write_text(
        json.dumps(
            {
                "variant": "decomposable",
                "interval": "(-10, 10)",
                "basis": [2],
                "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
                "additive": {"2": "3"},
            }
        )
    )
    assert run_cli("eval", str(inst), "--at", "1 + sqrt(2)") == 0
    assert capsys.readouterr().out.strip() == "6 + 2*sqrt(2)"


def test_eval_domain_error_exits_1(tmp_path, capsys):
    inst = tmp_path / "sq.json"
    inst.write_text(
        json.dumps(
            {
                "variant": "decomposable",
                "interval": "(0, 1)",
                "basis": [2],
                "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
                "additive": {},
            }
        )
    )
    assert run_cli("eval", str(inst), "--at", "5") == 1


@pytest.mark.parametrize("command", ["check-jensen", "decompose"])
def test_no_room_for_irrational_probes_exits_1(tmp_path, capsys, command):
    # probes r + c*sqrt(2) with c a nonzero multiple of 1/8 never fit in
    # an interval this narrow
    inst = tmp_path / "narrow.json"
    inst.write_text(
        json.dumps(
            {
                "variant": "decomposable",
                "interval": "(0, 1/1000000)",
                "basis": [2],
                "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
                "additive": {},
            }
        )
    )
    assert run_cli(command, str(inst), "--irrational-n", "2") == 1
    assert capsys.readouterr().err.startswith("error: could not place 2 irrational probes")


def test_check_wright_clean_instance(tmp_path):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    assert run_cli("gen", "--seed", "11", "--out", str(inst)) == 0
    code = run_cli(
        "check-wright", str(inst), "--grid-n", "6", "--max-grid-steps", "8",
        "--out", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["report"]["passed"] is True
    assert doc["report"]["description"] == "no violation found on grid"
    assert doc["config"]["subcommand"] == "check-wright"


def test_check_wright_negative_max_grid_steps_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "1", "--out", str(inst)) == 0
    code = run_cli("check-wright", str(inst), "--grid-n", "5", "--max-grid-steps", "-1")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: max_grid_steps must be >= 0")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["eval", "INST", "--at", "sqrt(998244359987710471)"], "998244359987710471"),
        (["decompose", "INST", "--eps", "1e-3000000"], "'1e-3000000'"),
        # 10**4300 has 4301 digits, past what str() of an int may print.
        (["decompose", "INST", "--eps", "1e-4300"], "'1e-4300'"),
    ],
    ids=["index-past-cap", "huge-exponent", "too-many-digits"],
)
def test_oversized_literal_exits_1_quickly(tmp_path, capsys, argv, named):
    inst = tmp_path / "sq.json"
    inst.write_text(json.dumps(SQUARE))
    start = time.perf_counter()
    assert run_cli(*[str(inst) if a == "INST" else a for a in argv]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


@pytest.mark.parametrize("command", ["decompose", "report"])
def test_eps_below_resolution_limit_exits_1_quickly(tmp_path, capsys, command):
    # 1e-4299 parses, and comparisons refine until their sign is certain,
    # but the refinement a run needs grows without bound as eps shrinks;
    # the floor bounds the run time.  The floor itself is accepted.
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    extra = ["--csv", str(tmp_path / "r.csv")] if command == "report" else []
    start = time.perf_counter()
    assert run_cli(command, str(inst), "--eps", "1e-4299", *extra) == 1
    assert time.perf_counter() - start < 5
    floor = f"error: eps is below the resolution limit {RESOLUTION_LIMIT}"
    assert capsys.readouterr().err.startswith(floor)
    assert run_cli(command, str(inst), "--eps", "1e-200", *extra) == 0


@pytest.mark.parametrize("command", ["decompose", "report"])
def test_nonpositive_eps_exits_1_before_the_gate(tmp_path, capsys, command):
    # the Jensen gate refuses this spiked instance, but eps is checked first
    inst = tmp_path / "spiked.json"
    assert run_cli("gen", "--seed", "2", "--variant", "spiked", "--out", str(inst)) == 0
    extra = ["--csv", str(tmp_path / "r.csv")] if command == "report" else []
    assert run_cli(command, str(inst), *extra) == 2
    capsys.readouterr()
    assert run_cli(command, str(inst), "--eps", "0", *extra) == 1
    assert capsys.readouterr().err == "error: eps must be positive, got 0\n"


def test_check_wright_finds_abs_violation(abs_instance, tmp_path):
    report = tmp_path / "cert.json"
    code = run_cli(
        "check-wright", abs_instance,
        "--grid-n", "1",
        "--steps", "sqrt(2),2-sqrt(2)",
        "--out", str(report),
    )
    assert code == 2
    doc = json.loads(report.read_text())
    cert = doc["report"]["certificate"]
    assert cert["violation"] == "-2"
    assert cert["witness"] == ["0", "1*sqrt(2)", "2 + -1*sqrt(2)"]


def test_check_wright_certifies_abs_violation_at_a_step_below_1e_300(tmp_path):
    # |A| with A(sqrt11) = 1 fails Wright's inequality at (0, u, sqrt11)
    # for u = p/q - sqrt11 from a Pell convergent, 0 < u < 1e-300.
    inst = tmp_path / "abs11.json"
    doc = dict(FIXTURE_ABS, basis=[11], additive={"11": "1"})
    inst.write_text(json.dumps(doc))
    p, q = pell_sqrt11_convergent()
    report = tmp_path / "cert.json"
    code = run_cli(
        "check-wright", str(inst),
        "--grid-n", "1",
        "--steps", f"{p}/{q} + -1*sqrt(11),sqrt(11)",
        "--max-grid-steps", "0",
        "--out", str(report),
    )
    assert code == 2
    cert = json.loads(report.read_text())["report"]["certificate"]
    assert cert["violation"] == "-2"
    assert cert["witness"] == ["0", f"{p}/{q} + -1*sqrt(11)", "1*sqrt(11)"]
    assert run_cli("verify-certificate", str(report)) == 0


def test_verify_certificate_round_trip(abs_instance, tmp_path):
    report = tmp_path / "cert.json"
    run_cli(
        "check-wright", abs_instance, "--grid-n", "1",
        "--steps", "sqrt(2),2-sqrt(2)", "--out", str(report),
    )
    assert run_cli("verify-certificate", str(report)) == 0
    # also with explicit instance override
    assert run_cli("verify-certificate", str(report), "--instance", abs_instance) == 0
    # a tampered certificate is rejected
    doc = json.loads(report.read_text())
    doc["report"]["certificate"]["lhs"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify-certificate", str(bad)) == 2


@pytest.mark.parametrize(
    "kind, witness, lhs, rhs, context",
    [
        ("wright", ["0", "-1", "1"], "0", "2", {}),
        ("jensen", ["0", "1"], "-1", "1", {"t": "2"}),
        ("monotone", ["1", "0", "-1"], "-1", "1", {}),
    ],
    ids=["wright", "jensen", "monotone"],
)
def test_verify_certificate_rejects_forged_witness(tmp_path, capsys, kind, witness, lhs, rhs, context):
    # each reproduces lhs < rhs on the convex x^2, through a witness that
    # ``recompute_sides`` refuses
    inst = tmp_path / "square.json"
    inst.write_text(json.dumps(SQUARE))
    cert = {"kind": kind, "witness": witness, "lhs": lhs, "rhs": rhs, "context": context}
    report = tmp_path / "forged.json"
    report.write_text(json.dumps({"config": {"instance": str(inst)}, "certificate": cert}))
    assert run_cli("verify-certificate", str(report)) == 2
    assert "REJECTED" in capsys.readouterr().out


def test_verify_certificate_accepts_a_monotone_certificate(tmp_path, capsys):
    # no checker emits the monotone kind, but verify-certificate re-checks
    # it.  The Wright convex f = A, with A(sqrt(2)) = 1 and A = 0 on Q, is
    # not convex: slope(0, sqrt(2)) > 0 > slope(sqrt(2), 2).  (-x^2, the
    # library test's instance, is refused by the loader's quad >= 0 check.)
    inst = tmp_path / "additive.json"
    inst.write_text(json.dumps(dict(SQUARE, convex={"quad": "0"}, additive={"2": "1"})))
    cert = {"kind": "monotone", "witness": ["0", "sqrt(2)", "2"],
            "lhs": "-sqrt(2)", "rhs": "2 - sqrt(2)"}
    report = tmp_path / "monotone.json"
    report.write_text(json.dumps({"config": {"instance": str(inst)}, "certificate": cert}))
    assert run_cli("verify-certificate", str(report)) == 0
    assert "certificate verified" in capsys.readouterr().out


def test_decompose_evaluates_each_point_once(tmp_path, monkeypatch):
    # the run's one extension handle evaluates each point once; the Jensen
    # gate, the Lipschitz brackets, the chains' midpoints and the transfer
    # check's monotone scan read the compiled form directly, the gate and
    # the scan each with its own memo and the brackets and the midpoints
    # with none, so a point they share with another reader is valued again
    from wrightdecomp.exactreal import _from_lattice
    from wrightdecomp.funcspec import _FunctionBase

    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    points, valued = [], []
    evaluate, compiled = _FunctionBase.evaluate, _FunctionBase._compiled

    def counting(self, x):
        points.append(x)
        return evaluate(self, x)

    def counted(self, radicals):
        vrad, t, value = compiled(self, radicals)

        def recorded(c, den):
            valued.append(_from_lattice(radicals, c, den))
            return value(c, den)

        return vrad, t, recorded

    monkeypatch.setattr(_FunctionBase, "evaluate", counting)
    monkeypatch.setattr(_FunctionBase, "_compiled", counted)
    assert run_cli("decompose", str(inst), "--out", str(tmp_path / "result.json")) == 0
    assert len(points) == len(set(points)) == 14
    assert set(points) < set(valued)
    assert (len(valued), len(set(valued))) == (156, 120)
    # verify's recovery and its truth check share one handle too, and it
    # runs no Jensen gate, so no point is valued twice
    points.clear()
    valued.clear()
    assert run_cli("verify", str(tmp_path / "result.json"), "--truth", str(inst)) == 0
    assert len(points) == len(set(points)) == 5
    assert set(points) < set(valued)
    assert (len(valued), len(set(valued))) == (35, 35)


def test_wright_sweep_decides_on_lattice_ints(monkeypatch):
    # wright_check takes its step profile, row ends and triple signs on
    # lattice ints: a first sweep compares ExactReal values only to sort the
    # grid's points (15) and to compile f (3, with its 12 arithmetic
    # calls), both cached, and to check each row's x against the two ends
    # of the interval; a second sweep makes those 32 domain checks alone
    import wrightdecomp
    from wrightdecomp import ExactReal, exactreal, generate, make_grid, wright_check

    f = generate(0)
    grid = make_grid(f.interval, 16, 0, f.basis, 0)
    calls = {"compare": 0, "arith": 0}
    compare = exactreal.compare

    def counting(a, b):
        calls["compare"] += 1
        return compare(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("wrightdecomp") and getattr(module, "compare", None) is compare:
            monkeypatch.setattr(module, "compare", counting)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
                 "__truediv__"):
        def arith(*args, _op=getattr(ExactReal, name)):
            calls["arith"] += 1
            return _op(*args)

        monkeypatch.setattr(ExactReal, name, arith)
    assert wrightdecomp.analysis.compare is counting
    counts = []
    for _ in range(2):
        report = wright_check(f, grid, max_grid_steps=20)
        assert (report.passed, report.checked) == (True, 5092)
        counts.append(dict(calls))
        calls.update(compare=0, arith=0)
    assert len(grid.points()) == 16
    assert counts == [{"compare": 50, "arith": 12}, {"compare": 2 * 16, "arith": 0}]


def test_check_jensen(abs_instance, tmp_path):
    assert run_cli("check-jensen", abs_instance, "--grid-n", "5", "--irrational-n", "3") == 0


def test_check_jensen_spiked_violation(tmp_path):
    inst = tmp_path / "spiked.json"
    inst.write_text(
        json.dumps(
            {
                "variant": "spiked",
                "interval": "(-10, 10)",
                "basis": [2],
                "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
                "additive": {},
                "spike": {"at": "0", "lift": "50"},
            }
        )
    )
    report = tmp_path / "rep.json"
    code = run_cli("check-jensen", str(inst), "--grid-n", "5", "--irrational-n", "0",
                   "--out", str(report))
    assert code == 2
    assert run_cli("verify-certificate", str(report)) == 0


@pytest.mark.parametrize("command", ["decompose", "report"])
def test_decompose_rejects_non_midpoint_convex(tmp_path, command):
    inst = tmp_path / "spiked.json"
    inst.write_text(
        json.dumps(
            {
                "variant": "spiked",
                "interval": "(-10, 10)",
                "basis": [2],
                "convex": {"quad": "1", "slope": "0", "offset": "0", "hinges": []},
                "additive": {},
                "spike": {"at": "0", "lift": "50"},
            }
        )
    )
    report = tmp_path / "rep.json"
    extra = ["--csv", str(tmp_path / "plot.csv")] if command == "report" else []
    code = run_cli(command, str(inst), "--grid-n", "5", "--irrational-n", "0",
                   "--out", str(report), *extra)
    assert code == 2
    doc = json.loads(report.read_text())
    assert doc["certificate"]["kind"] == "jensen"
    assert run_cli("verify-certificate", str(report)) == 0


def test_decompose_refuses_a_transfer_certificate(tmp_path):
    # spiked seed 0 passes the Jensen gate; a transfer check's monotone
    # scan holds a Wright certificate, so the run is refused, not reported
    inst, out = tmp_path / "spiked.json", tmp_path / "refusal.json"
    assert run_cli("gen", "--seed", "0", "--variant", "spiked", "--out", str(inst)) == 0
    assert run_cli("decompose", str(inst), "--out", str(out)) == 2
    doc = json.loads(out.read_text())
    assert doc["error"] == "not Wright convex on sampled points"
    assert doc["certificate"]["kind"] == "wright"
    assert "residuals" not in doc


# Outcomes (refuted, inconclusive, pass) of each command at CLI defaults on
# ``gen`` seeds 0-19.  decompose refutes a spiked seed by its Jensen gate
# (5 seeds) or by a transfer check's Wright certificate (7).  A flagged
# prediction holds no certificate, so it leaves 18 abs-additive seeds
# inconclusive.  check-wright's default steps are grid differences, with
# no conjugate pair, so every |A| passes it.
OUTCOMES = {
    "spiked": {"decompose": (12, 0, 8), "check-wright": (20, 0, 0), "check-jensen": (3, 0, 17)},
    "abs-additive": {
        "decompose": (0, 18, 2), "check-wright": (0, 0, 20), "check-jensen": (0, 0, 20),
    },
    "decomposable": {
        "decompose": (0, 0, 20), "check-wright": (0, 0, 20), "check-jensen": (0, 0, 20),
    },
}


@pytest.mark.parametrize("variant", list(OUTCOMES))
def test_outcome_table(tmp_path, variant):
    # every refutation re-verifies, and none falls on an instance that the
    # oracle labels Wright convex
    counts = {command: [0, 0, 0] for command in OUTCOMES[variant]}
    for seed in range(20):
        inst = tmp_path / f"{seed}.json"
        assert run_cli("gen", "--seed", str(seed), "--variant", variant, "--out", str(inst)) == 0
        convex = wright_convex(load_instance(str(inst)))
        for command, tally in counts.items():
            out = tmp_path / f"{seed}-{command}.json"
            code = run_cli(command, str(inst), "--out", str(out))
            tally[(2, 3, 0).index(code)] += 1
            if code == 2:
                assert not convex, (seed, command)
                assert run_cli("verify-certificate", str(out)) == 0, (seed, command)
    assert {command: tuple(tally) for command, tally in counts.items()} == OUTCOMES[variant]


@pytest.mark.parametrize(
    "argv, checked",
    [
        (["check-wright", "--grid-n", "1"], ("report", "checked")),
        (["check-jensen", "--grid-n", "0", "--irrational-n", "0"], ("report", "checked")),
        (
            ["decompose", "--irrational-n", "0"],
            ("residuals", "additive_prediction", "probes_checked"),
        ),
    ],
    ids=["check-wright", "check-jensen", "decompose"],
)
def test_vacuous_evidence_is_inconclusive(tmp_path, argv, checked):
    # a pass is evidence over the grid, so a run that checks nothing is not one
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    command, *flags = argv
    assert run_cli(command, str(inst), *flags, "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    for key in checked:
        doc = doc[key]
    assert doc == 0


def test_report_with_an_empty_gate_is_inconclusive(tmp_path):
    # one rational grid point leaves the Jensen gate no pair to check
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    csv_path = tmp_path / "r.csv"
    out = tmp_path / "r.json"
    code = run_cli("report", str(inst), "--grid-n", "1", "--csv", str(csv_path), "--out", str(out))
    assert code == 3
    assert csv_path.exists()
    doc = json.loads(out.read_text())
    assert doc["inconclusive"] == "decomposition needs at least two rational grid points"
    assert doc["rows"] == 7  # one rational and six irrational points


@pytest.mark.parametrize("grid_n", [0, 1])
def test_decompose_on_too_few_rationals_is_inconclusive(tmp_path, grid_n):
    # the Jensen gate needs a pair of rational grid points; without one the
    # run checks nothing, so it is inconclusive and its document says why
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    assert run_cli("decompose", str(inst), "--grid-n", str(grid_n), "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert doc["inconclusive"] == "decomposition needs at least two rational grid points"
    assert doc["config"]["grid_n"] == grid_n
    # the recovery reads no grid, so verify reproduces a stored result on
    # such a grid; this one, with no coefficients, does not match
    result = tmp_path / "result.json"
    config = {"grid_n": grid_n, "irrational_n": 4}
    result.write_text(json.dumps({"eps": "1/100", "seed": 0, "config": config, "additive": {}}))
    assert run_cli("verify", str(result), "--truth", str(inst)) == 2


def test_decompose_with_disjoint_chain_rounds_is_inconclusive(tmp_path):
    # A spike of 10 at round 1's midpoint of the chain that recovers the
    # first coefficient at eps 1e-40 makes round 1 miss round 0: f|Q is
    # not convex there, but no certificate is in hand, so the run is
    # inconclusive.  The spike is off the grid, so the sweeps pass.
    from wrightdecomp import ExactReal, ExtensionHandle, Spiked, dumps_instance, generate
    from wrightdecomp.decomposition import _recovery_point

    base = generate(0)
    r, q = _recovery_point(base.interval, base.basis[0])
    x = ExactReal.from_rational(r) + ExactReal.sqrt(base.basis[0]) * q
    handle = ExtensionHandle(base)
    handle.extend_eval(x, Fraction(1, 10**40) * q)
    mid = handle._chains[x].rounds[1]
    inst, out = tmp_path / "spiked.json", tmp_path / "out.json"
    at = ExactReal.from_rational(Fraction(mid.mid, mid.den))
    inst.write_text(dumps_instance(Spiked(base, at, 10)))
    assert run_cli("decompose", str(inst), "--eps", "1e-40", "--out", str(out)) == 3
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "inconclusive"}
    assert doc["config"]["eps"] == str(Fraction(1, 10**40))
    assert doc["inconclusive"].startswith("enclosures [") and doc["inconclusive"].endswith(
        "are disjoint"
    )
    for command in ("check-wright", "check-jensen"):
        assert run_cli(command, str(inst), "--out", str(out)) == 0


def test_decompose_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    result = tmp_path / "result.json"
    verdict = tmp_path / "verdict.json"
    assert run_cli("gen", "--seed", "21", "--nonzero-c1", "--out", str(inst)) == 0
    assert run_cli("decompose", str(inst), "--eps", "1e-8", "--out", str(result)) == 0
    doc = json.loads(result.read_text())
    assert "rational_coefficient" not in doc and "constant" not in doc
    code = run_cli("verify", str(result), "--truth", str(inst), "--out", str(verdict))
    assert code == 0
    assert json.loads(verdict.read_text())["passed"] is True
    # a result written with the keys that older versions emitted still verifies
    doc.update(rational_coefficient="0", constant="0")
    doc["residuals"]["rational_zero_witnesses"] = ["1/2"]
    for rep in doc["residuals"]["transfer"]:
        rep.update(rational_points_checked=1, rational_equal=True)
    result.write_text(json.dumps(doc))
    assert run_cli("verify", str(result), "--truth", str(inst)) == 0


def test_verify_runs_only_the_recovery_phase(tmp_path, monkeypatch):
    # verify compares the stored coefficients, so it never needs the
    # Jensen gate, the transfer checks or the prediction that decompose
    # reports
    from wrightdecomp import decomposition

    inst = tmp_path / "inst.json"
    result = tmp_path / "result.json"
    assert run_cli("gen", "--seed", "21", "--nonzero-c1", "--out", str(inst)) == 0
    assert run_cli("decompose", str(inst), "--out", str(result)) == 0

    def evidence_phase(*args, **kwargs):
        raise AssertionError("verify ran the evidence phase")

    monkeypatch.setattr(decomposition, "jensen_check", evidence_phase)
    monkeypatch.setattr(decomposition, "difference_transfer_check", evidence_phase)
    monkeypatch.setattr(decomposition, "_additive_at", evidence_phase)
    assert run_cli("verify", str(result), "--truth", str(inst)) == 0


@pytest.mark.parametrize(
    "variant, gate_message",
    [
        ("abs-additive", "ground-truth verification needs a Decomposable instance"),
        ("spiked", "source is not Jensen convex on the sampled rationals"),
    ],
)
def test_verify_error_order(tmp_path, capsys, variant, gate_message):
    # a truth that is not a Decomposable is refused before any work: even
    # the spiked truth, which decompose's Jensen gate refuses, meets the
    # type check first, because verify runs no gate
    inst, truth, result = tmp_path / "inst.json", tmp_path / "truth.json", tmp_path / "r.json"
    assert run_cli("gen", "--seed", "2", "--out", str(inst)) == 0
    assert run_cli("gen", "--seed", "2", "--variant", variant, "--out", str(truth)) == 0
    assert run_cli("decompose", str(inst), "--out", str(result)) == 0
    capsys.readouterr()
    assert run_cli("verify", str(result), "--truth", str(truth), "--out", str(tmp_path / "v")) == 1
    assert capsys.readouterr().err == "error: ground-truth verification needs a Decomposable instance\n"
    if variant == "spiked":
        # on the CLI's default grid the library's gate refuses this truth
        source = load_instance(str(truth))
        grid = make_grid(source.interval, 8, 4, source.basis, 0)
        with pytest.raises(NotWrightConvexError) as info:
            decompose(source, Fraction(1, 10**8), grid)
        assert str(info.value) == gate_message


def test_report_emits_csv(tmp_path):
    inst = tmp_path / "inst.json"
    csv_path = tmp_path / "plot.csv"
    summary = tmp_path / "summary.json"
    assert run_cli("gen", "--seed", "23", "--out", str(inst)) == 0
    code = run_cli(
        "report", str(inst), "--grid-n", "4", "--irrational-n", "2",
        "--eps", "1/10000", "--csv", str(csv_path), "--out", str(summary),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x_literal,lo,hi,width"
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4


def test_report_determinism_byte_identical(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("gen", "--seed", "29", "--out", str(inst))
    outs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        assert run_cli(
            "report", str(inst), "--grid-n", "4", "--irrational-n", "2",
            "--eps", "1/10000", "--csv", str(csv_path), "--out", str(rep),
        ) == 0
        outs.append((csv_path.read_bytes(), rep.read_bytes()))
    a, b = outs
    assert a[0] == b[0]
    # the JSON embeds its own output paths, which differ; normalize them
    ja = json.loads(a[1]).copy()
    jb = json.loads(b[1]).copy()
    for j, tag in ((ja, "a"), (jb, "b")):
        assert j["csv"].endswith(f"{tag}.csv")
        j["csv"] = j["config"]["csv"] = j["config"]["out"] = None
    assert ja == jb


def run_cli_process(*argv):
    # the child imports the package these tests import, installed or not
    path = [str(Path(wrightdecomp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    command = [sys.executable, "-m", "wrightdecomp.cli", *argv]
    return subprocess.run(command, capture_output=True, text=True, env=env)


def test_usage_error_exits_1(tmp_path):
    assert_exit_1 = run_cli_process("no-such-command")
    assert assert_exit_1.returncode == 1
    assert assert_exit_1.stderr.startswith("usage: wrightdecomp")
    # an inconclusive outcome reaches the shell through console_main too
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--seed", "0", "--out", str(inst)) == 0
    assert run_cli_process("check-wright", str(inst), "--grid-n", "1").returncode == 3


def test_usage_error_prints_usage_and_exits_1(capsys):
    # argparse would exit 2, which the outcome rule keeps for refutations
    with pytest.raises(SystemExit) as exc:
        run_cli("decompose")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: wrightdecomp decompose")
    assert "error: the following arguments are required: instance" in err


# A Wright certificate of x**2 at (0, 1, 1), whose fields the cases below drop one at a time.
_CERT = {"kind": "wright", "witness": ["0", "1", "1"], "lhs": "4", "rhs": "2"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"config": {"instance": "inst.json"}, "report": {}},
         "report {report} carries no certificate"),
        ({"config": {}, "certificate": _CERT},
         "report {report} names no instance to re-check against"),
        *(
            ({"config": {"instance": "inst.json"}, "certificate": dict(_CERT, kind=kind)},
             f"certificate kind has the wrong JSON type {type(kind).__name__}")
            for kind in (5, True, None, ["wright"])
        ),
    ],
    # the first two ids are those pytest gave these cases before the kind cases
    ids=["doc0-carries no certificate", "doc1-names no instance",
         "kind-int", "kind-bool", "kind-null", "kind-list"],
)
def test_verify_certificate_input_errors_exit_1(tmp_path, monkeypatch, capsys, doc, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps(SQUARE))
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    assert run_cli("verify-certificate", str(report)) == 1
    assert capsys.readouterr().err == f"error: {message.format(report=report)}\n"


@pytest.mark.parametrize(
    "command, doc, names",
    [
        ("eval", dict(SQUARE, convex=[]), ""),
        ("eval", [1, 2], ""),
        ("eval", dict(SQUARE, basis=2), ""),
        ("eval", dict(SQUARE, basis=[2, True]), ""),
        ("eval", dict(SQUARE, basis=[2, 2]), ""),
        ("eval", dict(SQUARE, interval=5), ""),
        ("eval", dict(SQUARE, convex=dict(SQUARE["convex"], quad=1)), ""),
        ("verify-certificate", {"report": {"certificate": "x"}}, ""),
        ("verify", {"eps": "1/100", "seed": 0, "config": [8, 4], "additive": {}}, ""),
        # an instance document given as the result has no eps
        ("verify", SQUARE, "missing field 'eps'"),
        ("verify", {"eps": "1/100", "seed": 0, "additive": {"2": {"lo": "0"}}},
         "missing field 'hi'"),
        ("verify", {"eps": "1/100", "seed": 0, "config": {"grid_n": 8}, "additive": {}},
         "missing field 'irrational_n'"),
        ("verify", {"eps": "1/100", "seed": "abc", "additive": {}}, "seed 'abc' is not an integer"),
        ("verify", {"eps": "1/100", "seed": 0, "additive": {"x": {"lo": "0", "hi": "0"}}},
         "additive key 'x' is not an integer"),
        *(
            ("verify-certificate", {"certificate": {k: v for k, v in _CERT.items() if k != field}},
             f"certificate missing field '{field}'")
            for field in _CERT
        ),
    ],
    ids=["convex-list", "top-level-list", "basis-int", "basis-entry-bool", "basis-repeated",
         "interval-int", "quad-int", "certificate-str", "verify-config-list",
         "verify-missing-eps", "verify-missing-hi", "verify-missing-irrational-n",
         "verify-seed-str", "verify-additive-key-str",
         *(f"certificate-missing-{field}" for field in _CERT)],
)
def test_malformed_document_exits_1(tmp_path, capsys, command, doc, names):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(SQUARE))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "eval": ["eval", str(bad), "--at", "1"],
        "verify-certificate": ["verify-certificate", str(bad), "--instance", str(inst)],
        "verify": ["verify", str(bad), "--truth", str(inst)],
    }[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if "missing field" in names:
        # the message names the document and its missing field
        document = "report" if command == "verify-certificate" else "decomposition result"
        assert f"{document} {bad} {names}" in err
    else:
        assert names in err  # a malformed field is named with its value


def test_write_error_names_the_target(tmp_path, capsys):
    # the report is written through a temporary file beside its target;
    # an error names the target, never the temporary file
    inst = tmp_path / "sq.json"
    inst.write_text(json.dumps(SQUARE))
    taken = tmp_path / "taken"
    taken.mkdir()
    for target, reason in ((tmp_path / "nodir" / "x.csv", "No such file or directory"),
                           (taken, "Is a directory")):
        assert run_cli("report", str(inst), "--grid-n", "2", "--irrational-n", "0",
                       "--csv", str(target)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{reason}: '{target}'" in err
        assert ".tmp-" not in err
    assert sorted(tmp_path.iterdir()) == [inst, taken] and not list(taken.iterdir())


def test_parser_built_once_keeps_no_options_between_runs(tmp_path):
    # main reuses one parser per process; a run with defaults after one
    # with options must still see the defaults
    from wrightdecomp.cli import _build_parser

    assert _build_parser() is _build_parser()
    inst = tmp_path / "sq.json"
    inst.write_text(json.dumps(SQUARE))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli("decompose", str(inst), "--eps", "1/1000", "--grid-n", "6",
                   "--irrational-n", "2", "--seed", "3", "--out", str(first)) == 0
    assert run_cli("decompose", str(inst), "--out", str(second)) == 0
    config = json.loads(first.read_text())["config"]
    assert (config["eps"], config["grid_n"], config["irrational_n"], config["seed"]) == (
        "1/1000", 6, 2, 3
    )
    config = json.loads(second.read_text())["config"]
    assert (config["eps"], config["grid_n"], config["irrational_n"], config["seed"]) == (
        "1/100000000", 8, 4, 0
    )


@pytest.mark.parametrize("key", ["seed", "grid_n", "irrational_n"])
def test_verify_refuses_json_booleans(tmp_path, capsys, key):
    # bool is an int subclass: unchecked, a JSON true would read as 1
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(SQUARE))
    doc = {"eps": "1/100", "seed": 0, "config": {"grid_n": 8, "irrational_n": 4}, "additive": {}}
    if key == "seed":
        doc["seed"] = True
    else:
        doc["config"][key] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad), "--truth", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} has the wrong JSON type bool" in err


def test_missing_file_exits_1():
    assert run_cli("eval", "/nonexistent/path.json", "--at", "1") == 1
