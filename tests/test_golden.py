"""Byte-identity of checker reports, decomposition results and report CSVs
against pinned files.

Refactors and speedups of the arithmetic, checker, extension and
decomposition layers must not change a single digit of what they report.
Regenerate the files with ``python tests/test_golden.py`` only when a
change is meant to alter results, and say so in CHANGES.md.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wrightdecomp import (
    chord_slope_monotone_check,
    decompose,
    dump_instance,
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


def checks_text() -> str:
    """Wright, Jensen and chord-slope reports for each kind and seed."""
    doc = {}
    for kind in CHECK_KINDS:
        for s in CHECK_SEEDS:
            f = generate(s, kind=kind)
            grid = make_grid(f.interval, 10, 3, f.basis, s)
            doc[f"{kind}_{s}"] = {
                "wright": wright_check(f, grid, max_grid_steps=12).to_jsonable(),
                "jensen": jensen_check(f, grid).to_jsonable(),
                "monotone": chord_slope_monotone_check(f, grid).to_jsonable(),
            }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def report_csv(tmp: Path) -> str:
    inst, csv_path = tmp / "inst.json", tmp / "report.csv"
    dump_instance(generate(0, nonzero_rational_part=True), inst)
    assert main(["report", str(inst), "--csv", str(csv_path), "--out", str(tmp / "out.json")]) == 0
    return csv_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_matches_golden(seed):
    assert decompose_text(seed) == (DATA / f"decompose_{seed}.json").read_text(encoding="utf-8")


def test_checker_reports_match_golden():
    assert checks_text() == (DATA / "checks.json").read_text(encoding="utf-8")


def test_report_csv_matches_golden(tmp_path):
    assert report_csv(tmp_path) == (DATA / "report_0.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    for s in (0, 1, 2):
        (DATA / f"decompose_{s}.json").write_text(decompose_text(s), encoding="utf-8")
    (DATA / "checks.json").write_text(checks_text(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (DATA / "report_0.csv").write_text(report_csv(Path(tmp)), encoding="utf-8")
