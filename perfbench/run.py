"""Benchmark of wrightdecomp: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload wright-rational --seed 0 --seconds 40 --trace 0

A run is a closed loop with a single client: the next instance starts
when the previous one has its verdict.  It makes passes over a fixed set
of instances until ``--seconds`` have gone by.  Each pass imports the
package anew from ``src/`` of the checkout, so the process-global caches
start cold, as they do for a CLI user, and warm across the instances of
the pass, as they do for a library user.

``--trace 0`` times the passes with nothing wrapped and prints the
end-to-end metrics, scaled to a fixed machine speed by a calibration
kernel timed between instances.  ``--trace 1`` runs each instance of a
pass twice, once plain and once traced (alternating which goes first),
and prints the per-layer metrics of the traced runs, per pass, plus the
tracing overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record with the environment and every instance time goes to
``.bench_out/``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _fresh_import():
    """Import wrightdecomp from src/ anew, so its caches start empty."""
    for name in [n for n in sys.modules if n.split(".")[0] == "wrightdecomp"]:
        del sys.modules[name]
    wd = importlib.import_module("wrightdecomp")
    importlib.import_module("wrightdecomp.cli")
    if SRC not in Path(wd.__file__).resolve().parents:
        raise ImportError(f"wrightdecomp was imported from {wd.__file__}, not from {SRC}")
    return wd


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten instances beyond it, if any."""
    n = len(times)
    if n <= 10:
        return None
    return {"percentile": 100 * (n - 10) / n, "value_s": sorted(times)[n - 11], "samples": n}


#: Timings are scaled to a fixed machine speed.  A calibration kernel (the
#: Fraction and dict arithmetic that the span type is built from) is timed
#: between consecutive instances, and each instance time is multiplied by
#: CALIBRATION_REFERENCE_S over the mean of the kernel times on either
#: side.  The machine the benchmark was tuned on is shared: its speed
#: drifts by up to 1.8x over seconds and minutes, and the kernel slows
#: with it (README.md, "Why calibration").
CALIBRATION_REFERENCE_S = 0.003


def _calibration_kernel() -> dict:
    acc: dict = {}
    for k in range(1, 300):
        q = Fraction(k % 29 + 1, k % 31 + 2)
        for m in (1, 2, 3, 5):
            acc[m] = acc.get(m, 0) + q * m
    return acc


def _kernel_seconds() -> float:
    start = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - start


class _PassClock:
    """Starts passes while the next one is expected to end within the budget.

    The first pass always runs; later ones start only if the run, with
    one more pass as long as the last, stays within ``seconds``.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.passes = 0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.passes and now - self.start + (now - self.last) > self.seconds:
            return False
        self.last = now
        self.passes += 1
        return True


def _attempt(workload, wd, item, tracer=None) -> tuple[float, list[str]]:
    start = time.perf_counter()
    try:
        problems = workload.run(wd, item, tracer)
    except Exception as exc:  # an instance that raises is a failed instance
        problems = [f"instance {item[0]}: {type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, problems


def _run_plain(workload, indices, workdir, seconds, record):
    before_setup = time.perf_counter() - _PROCESS_START
    scale = CALIBRATION_REFERENCE_S
    kernel = _kernel_seconds()
    before_setup *= scale / kernel
    setups, scaled, failures = [], {}, []
    attempted = failed = 0
    clock = _PassClock(seconds)
    while clock.another():
        began = time.perf_counter()
        wd = _fresh_import()
        items = [workload.prepare(wd, s, "plain", workdir) for s in indices]
        elapsed = time.perf_counter() - began
        gc.collect()
        after = _kernel_seconds()
        setups.append(elapsed * 2 * scale / (kernel + after))
        kernel = after
        for item in items:
            elapsed, problems = _attempt(workload, wd, item)
            after = _kernel_seconds()
            scaled.setdefault(item[0], []).append(elapsed * 2 * scale / (kernel + after))
            kernel = after
            attempted += 1
            failed += bool(problems)
            failures.extend(problems)
            record["instances"].append(
                {"index": item[0], "seconds": elapsed, "kernel_s": after, "problems": problems}
            )
        if clock.passes == 1:
            # Later passes repeat the same work; what they add to the peak
            # is allocator growth from re-importing, which varies with
            # their number.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_instance = [statistics.median(v) for v in scaled.values()]
    record["setups_scaled_s"] = setups
    record["tail"] = _tail([row["seconds"] for row in record["instances"]])
    metrics = {
        "setup_s": (before_setup + statistics.median(setups), "s"),
        "instance_s_p50": (statistics.median(per_instance), "s"),
        "instances_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failed, failures, metrics


def _run_traced(workload, indices, workdir, seconds, record, stem):
    tracer = tracing.Tracer()
    plain_total = traced_total = 0.0
    failures = []
    attempted = failed = 0
    clock = _PassClock(seconds)
    while clock.another():
        wd = _fresh_import()
        n = clock.passes - 1
        for pos, s in enumerate(indices):
            row = {"index": s, "pass": n, "problems": []}
            for traced in (False, True) if (pos + n) % 2 == 0 else (True, False):
                if traced:
                    tracer.instance_id = n * len(indices) + pos
                    with tracer:
                        item = workload.prepare(wd, s, "traced", workdir)
                        elapsed, problems = _attempt(workload, wd, item, tracer)
                    traced_total += elapsed
                    row["traced_seconds"] = elapsed
                else:
                    item = workload.prepare(wd, s, "plain", workdir)
                    elapsed, problems = _attempt(workload, wd, item)
                    plain_total += elapsed
                    row["seconds"] = elapsed
                row["problems"].extend(problems)
            attempted += 1
            failed += bool(row["problems"])
            failures.extend(row["problems"])
            record["instances"].append(row)
    tracer.dump(stem)
    metrics = tracer.metrics(clock.passes, traced_total / plain_total - 1)
    return attempted, failed, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "wrightdecomp" / "__init__.py").is_file():
        print(f"error: no wrightdecomp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    table = workloads.load(reference)
    workload = table.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")

    indices = workloads.instance_indices(args.seed, workload.instances, workload.held_out_offset)

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "instances": [],
    }
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=OUT) as work:
        if args.trace:
            attempted, failed, failures, metrics = _run_traced(
                workload, indices, Path(work), args.seconds, record, OUT / f"{tag}-spans"
            )
        else:
            attempted, failed, failures, metrics = _run_plain(
                workload, indices, Path(work), args.seconds, record
            )
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in failures[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
