"""The benchmark's workloads: which instances a run visits and how each is checked.

Every workload draws its instances from ``generate`` and drives only the
package's public functions (``wright_check`` and friends, or
``wrightdecomp.cli.main``).  Why each workload exists is written down in
``README.md`` beside this file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: Seeds come in blocks of this many.  Even blocks (seed 0) visit the
#: acceptance instances, odd blocks (seed 1000, the held-out seed) a
#: disjoint set.
SEED_BLOCK = 1000


def instance_indices(seed: int, count: int, held_out_offset: int) -> list[int]:
    """Instance indices a run visits, in visiting order.

    The block fixes the set: the first ``count`` indices of the
    acceptance block, or of the held-out block starting at
    ``held_out_offset``.  The rest of the seed fixes the order; seeds that
    are multiples of SEED_BLOCK keep ascending order, so seed 0 replays
    the acceptance seeds in the order the tests use.
    """
    base = held_out_offset if (seed // SEED_BLOCK) % 2 else 0
    order = list(range(count))
    if seed % SEED_BLOCK:
        random.Random(seed).shuffle(order)
    return [base + i for i in order]


class WrightWorkload:
    """One ``wright_check`` sweep per generated instance.

    The instances are those of the acceptance Wright sweep (criterion 2),
    on a smaller grid, so that one instance takes a fraction of a second
    and a run can repeat every instance many times.  An instance passes
    when the sweep reports ``passed`` and its ``checked`` count equals the
    count recorded in ``reference.json``.
    """

    held_out_offset = 60  # a multiple of 15 keeps s % 3 and s % 5 aligned

    def __init__(self, name, instances, grid, steps, reference):
        self.name = name
        self.instances = instances
        self.grid = grid  # (rational points, irrational probes)
        self.steps = steps
        self.reference = reference

    def prepare(self, wd, s: int, tag: str, workdir: Path):
        inst = wd.generate(
            s,
            kind="decomposable",
            basis_size=1 + s % 3,
            max_hinges=8,
            nonzero_rational_part=(s % 5 == 0),
        )
        n_rat, n_irr = self.grid
        return s, inst, wd.make_grid(inst.interval, n_rat, n_irr, inst.basis, s)

    def sweep(self, wd, item):
        s, inst, grid = item
        return wd.wright_check(inst, grid, max_grid_steps=self.steps)

    def run(self, wd, item, tracer=None) -> list[str]:
        s = item[0]
        report = self.sweep(wd, item)
        problems = []
        if not report.passed:
            problems.append(f"instance {s}: sweep reported a violation")
        expected = self.reference.get(str(s))
        if report.checked != expected:
            problems.append(f"instance {s}: checked {report.checked}, reference {expected}")
        return problems


class CliWorkload:
    """``decompose``, ``verify --truth`` and ``report`` through ``cli.main``.

    ``gen`` writes the instance files during set-up.  An instance passes
    when every command exits 0, the verify report says ``"passed": true``
    and the CSV holds one row per grid point.
    """

    name = "cli-decompose"
    instances = 4
    held_out_offset = 300  # a multiple of 3 keeps the basis sizes aligned
    grid_n = 8
    irrational_n = 8

    def _argv_gen(self, s: int, path: Path) -> list[str]:
        argv = ["gen", "--seed", str(600 + s), "--basis-size", str(1 + s % 3), "--hinges", "6"]
        if s % self.held_out_offset < 10:
            argv.append("--nonzero-c1")
        return argv + ["--out", str(path)]

    def prepare(self, wd, s: int, tag: str, workdir: Path):
        path = workdir / f"inst-{s}-{tag}.json"
        code = wd.cli.main(self._argv_gen(s, path))
        if code != 0:
            raise RuntimeError(f"gen for instance {s} exited {code}")
        return s, path

    def run(self, wd, item, tracer=None) -> list[str]:
        s, inst = item
        stem = inst.with_suffix("")
        result, verified = Path(f"{stem}-result.json"), Path(f"{stem}-verify.json")
        csv_path, report = Path(f"{stem}-plot.csv"), Path(f"{stem}-report.json")
        commands = (
            ("decompose", [str(inst), "--eps", "1e-8", "--out", str(result)]),
            ("verify", [str(result), "--truth", str(inst), "--out", str(verified)]),
            (
                "report",
                [
                    str(inst), "--grid-n", str(self.grid_n), "--irrational-n", str(self.irrational_n),
                    "--eps", "1e-8", "--csv", str(csv_path), "--out", str(report),
                ],
            ),
        )
        main = wd.cli.main
        for command, args in commands:
            argv = [command, *args]
            code = tracer.call(f"cli.{command}", main, argv) if tracer else main(argv)
            if code != 0:
                return [f"instance {s}: {command} exited {code}"]
        problems = []
        if json.loads(verified.read_text(encoding="utf-8")).get("passed") is not True:
            problems.append(f"instance {s}: verify did not pass")
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != self.grid_n + self.irrational_n:
            problems.append(f"instance {s}: report CSV has {len(rows)} rows")
        return problems


def load(reference: dict) -> dict:
    """The workloads by name; ``reference`` maps workload -> instance -> checked."""
    return {
        "wright-rational": WrightWorkload(
            "wright-rational",
            instances=6,
            grid=(16, 0),
            steps=20,
            reference=reference.get("wright-rational", {}),
        ),
        "wright-irrational": WrightWorkload(
            "wright-irrational",
            instances=6,
            grid=(8, 2),
            steps=10,
            reference=reference.get("wright-irrational", {}),
        ),
        "cli-decompose": CliWorkload(),
    }
