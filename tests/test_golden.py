"""Byte-identity of decomposition results and report CSVs against pinned files.

Refactors and speedups of the extension and decomposition layers must not
change a single digit of what they report.  Regenerate the files with
``python tests/test_golden.py`` only when a change is meant to alter
results, and say so in CHANGES.md.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wrightdecomp import decompose, dump_instance, generate, make_grid
from wrightdecomp.cli import main

DATA = Path(__file__).parent / "data"
EPS8 = Fraction(1, 10**8)


def decompose_text(seed: int) -> str:
    f = generate(seed, nonzero_rational_part=True)
    grid = make_grid(f.interval, 8, 4, f.basis, seed)
    return json.dumps(decompose(f, EPS8, grid).to_jsonable(), sort_keys=True, indent=2) + "\n"


def report_csv(tmp: Path) -> str:
    inst, csv_path = tmp / "inst.json", tmp / "report.csv"
    dump_instance(generate(0, nonzero_rational_part=True), inst)
    assert main(["report", str(inst), "--csv", str(csv_path), "--out", str(tmp / "out.json")]) == 0
    return csv_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_matches_golden(seed):
    assert decompose_text(seed) == (DATA / f"decompose_{seed}.json").read_text(encoding="utf-8")


def test_report_csv_matches_golden(tmp_path):
    assert report_csv(tmp_path) == (DATA / "report_0.csv").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    for s in (0, 1, 2):
        (DATA / f"decompose_{s}.json").write_text(decompose_text(s), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (DATA / "report_0.csv").write_text(report_csv(Path(tmp)), encoding="utf-8")
