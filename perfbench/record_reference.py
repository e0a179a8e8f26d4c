"""Record the ``checked`` count of every Wright instance the benchmark can visit.

Run from the repository root, on a commit whose results are trusted:

    python3 perfbench/record_reference.py

It sweeps both blocks of both Wright workloads (a few seconds) and
rewrites ``perfbench/reference.json``.  Speed-ups must leave these counts
unchanged, so the file only changes when the sweep itself is meant to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wrightdecomp  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in workloads.load({}).items():
        if not isinstance(workload, workloads.WrightWorkload):
            continue
        counts = {}
        for base in (0, workload.held_out_offset):
            for s in range(base, base + workload.instances):
                report = workload.sweep(wrightdecomp, workload.prepare(wrightdecomp, s, "ref", HERE))
                if not report.passed:
                    print(f"{name} instance {s} failed its sweep", file=sys.stderr)
                    return 1
                counts[str(s)] = report.checked
                print(name, s, report.checked, flush=True)
        reference[name] = counts
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
