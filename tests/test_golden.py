"""Byte-identity of checker reports, decomposition results, report CSVs
and CLI outputs against pinned files.

Refactors and speedups of the arithmetic, checker, extension and
decomposition layers must not change a single digit of what they report.
Regenerate the files with ``python tests/test_golden.py`` only when a
change is meant to alter results, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from wrightdecomp import (
    decompose,
    dumps_instance,
    generate,
    jensen_check,
    make_grid,
    wright_check,
)
from wrightdecomp.cli import main

DATA = Path(__file__).parent / "data"
EPS8 = Fraction(1, 10**8)
CHECK_KINDS = ("spiked", "abs_additive", "decomposable")
CHECK_SEEDS = range(6)


def decompose_text(seed: int) -> str:
    f = generate(seed, nonzero_rational_part=True)
    grid = make_grid(f.interval, 8, 4, f.basis, seed)
    return json.dumps(decompose(f, EPS8, grid).to_jsonable(), sort_keys=True, indent=2) + "\n"


def check_runs() -> dict:
    """Instance and Wright and Jensen reports for each kind and seed."""
    runs = {}
    for kind in CHECK_KINDS:
        for s in CHECK_SEEDS:
            f = generate(s, kind=kind)
            grid = make_grid(f.interval, 10, 3, f.basis, s)
            runs[f"{kind}_{s}"] = f, {
                "wright": wright_check(f, grid, max_grid_steps=12),
                "jensen": jensen_check(f, grid),
            }
    return runs


def checks_text(runs: dict) -> str:
    doc = {
        name: {check: report.to_jsonable() for check, report in reports.items()}
        for name, (_, reports) in runs.items()
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# Each CLI run: a name, its argv and the files it writes.  Paths are
# relative to a scratch working directory, so the ``config`` block that
# every report embeds is the same on every machine.
CLI_RUNS = (
    ("gen", ["gen", "--seed", "0", "--nonzero-c1", "--basis", "2,3", "--out", "inst.json"],
     ["inst.json"]),
    ("gen-spiked", ["gen", "--seed", "1", "--variant", "spiked", "--out", "spiked.json"],
     ["spiked.json"]),
    ("gen-abs", ["gen", "--seed", "2", "--variant", "abs-additive", "--basis", "2",
                 "--out", "abs.json"], ["abs.json"]),
    ("gen-stdout", ["gen", "--seed", "3"], []),
    ("eval", ["eval", "inst.json", "--at", "1/3 + sqrt(2)"], []),
    ("check-wright", ["check-wright", "inst.json", "--grid-n", "6", "--irrational-n", "2",
                      "--max-grid-steps", "8", "--out", "cw.json"], ["cw.json"]),
    ("check-wright-steps", ["check-wright", "abs.json", "--grid-n", "1",
                            "--steps", "sqrt(2),2-sqrt(2)", "--out", "cw_abs.json"],
     ["cw_abs.json"]),
    ("verify-certificate-wright", ["verify-certificate", "cw_abs.json"], []),
    ("check-jensen", ["check-jensen", "inst.json", "--grid-n", "6", "--irrational-n", "2"], []),
    ("check-jensen-spiked", ["check-jensen", "spiked.json", "--grid-n", "6",
                             "--irrational-n", "2", "--out", "cj.json"], ["cj.json"]),
    ("verify-certificate-jensen", ["verify-certificate", "cj.json", "--instance", "spiked.json"],
     []),
    ("decompose", ["decompose", "inst.json", "--eps", "1e-8", "--out", "dec.json"],
     ["dec.json"]),
    ("verify", ["verify", "dec.json", "--truth", "inst.json", "--out", "ver.json"], ["ver.json"]),
    ("verify-tampered", ["verify", "tampered.json", "--truth", "inst.json"], []),
    ("report", ["report", "inst.json", "--grid-n", "4", "--irrational-n", "2",
                "--csv", "rep.csv", "--out", "rep.json"], ["rep.csv", "rep.json"]),
    ("decompose-spiked", ["decompose", "spiked.json", "--grid-n", "6", "--irrational-n", "2"],
     []),
    ("report-spiked", ["report", "spiked.json", "--grid-n", "6", "--irrational-n", "2",
                       "--csv", "spiked.csv", "--out", "rep_spiked.json"], ["rep_spiked.json"]),
)


def _write_tampered_result() -> None:
    # the stored decomposition of ``dec.json`` with one enclosure moved
    doc = json.loads(Path("dec.json").read_text(encoding="utf-8"))
    doc["additive"]["2"]["lo"] = "0"
    Path("tampered.json").write_text(json.dumps(doc), encoding="utf-8")


def cli_text(tmp: Path) -> str:
    """Exit code, stdout and written files of every run in ``CLI_RUNS``."""
    outputs = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, argv, files in CLI_RUNS:
            if name == "verify-tampered":
                _write_tampered_result()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            outputs[name] = {
                "exit": code,
                "stdout": stdout.getvalue(),
                "files": {p: Path(p).read_text(encoding="utf-8") for p in files},
            }
    finally:
        os.chdir(cwd)
    return json.dumps(outputs, sort_keys=True, indent=1) + "\n"


def report_csv(tmp: Path) -> str:
    inst, csv_path = tmp / "inst.json", tmp / "report.csv"
    inst.write_text(dumps_instance(generate(0, nonzero_rational_part=True)), encoding="utf-8")
    assert main(["report", str(inst), "--csv", str(csv_path), "--out", str(tmp / "out.json")]) == 0
    return csv_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_matches_golden(seed):
    assert decompose_text(seed) == (DATA / f"decompose_{seed}.json").read_text(encoding="utf-8")


def test_checker_reports_match_golden():
    runs = check_runs()
    assert checks_text(runs) == (DATA / "checks.json").read_text(encoding="utf-8")
    # Every certificate a checker emits re-checks in isolation.
    failing = [
        (f, report.certificate)
        for f, reports in runs.values()
        for report in reports.values()
        if not report.passed
    ]
    assert {cert.kind for _, cert in failing} == {"wright", "jensen"}
    for f, cert in failing:
        assert cert.verify(f)
        assert cert.recompute_sides(f) == (cert.lhs, cert.rhs)


def test_report_csv_matches_golden(tmp_path):
    assert report_csv(tmp_path) == (DATA / "report_0.csv").read_text(encoding="utf-8")


def test_cli_outputs_match_golden(tmp_path):
    assert cli_text(tmp_path) == (DATA / "cli.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    for s in (0, 1, 2):
        (DATA / f"decompose_{s}.json").write_text(decompose_text(s), encoding="utf-8")
    (DATA / "checks.json").write_text(checks_text(check_runs()), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (DATA / "report_0.csv").write_text(report_csv(Path(tmp)), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (DATA / "cli.json").write_text(cli_text(Path(tmp)), encoding="utf-8")
