"""Command-line front end.

Exit codes, one per outcome: 0 = pass (evidence over the grid, or the
command succeeded); 2 = refuted (a certificate that verifies is written,
or the document that verify or verify-certificate checks does not
reproduce); 3 = inconclusive (the evidence failed without a certificate,
or nothing was checked); 1 = usage or domain errors.  Reports are JSON,
plot data CSV; all numeric output uses exact literals, and a run with an
identical configuration produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from .analysis import ViolationCertificate, jensen_check, wright_check
from .decomposition import _TOO_FEW_RATIONALS, _check_eps, _recover, _verify, decompose
from .domain import make_grid
from .errors import InconsistentEnclosureError, NotWrightConvexError, ParseError, TooFewPointsError
from .errors import WrightDecompError, _expect_type
from .exactreal import ExactReal, parse_rational
from .extension import ExtensionHandle
from .funcspec import Decomposable, _index, dumps_instance, generate, load_instance


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the convention here
    # reserves 2 for refutations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write(out: str | None, text: str) -> None:
    """Write ``text`` to stdout if ``out`` is None, else atomically to ``out``
    through a temporary file beside it; an OSError names ``out``."""
    if not out:
        sys.stdout.write(text)
        return
    path = Path(out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno:
            raise OSError(exc.errno, exc.strerror, out) from exc
        raise


def _emit(config: dict, payload: dict) -> None:
    """Write a report, with the run's ``config`` embedded, to ``config["out"]``."""
    text = json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"
    _write(config["out"], text)


def _outcome(*, refuted: bool = False, evidence: bool = True) -> int:
    """Every command's exit code, from one rule: 2 (refuted) for an exact
    disproof in hand, else 0 (pass) on evidence, else 3 (inconclusive: a
    check failed without a certificate, or nothing was checked).  An
    error exits 1, in ``main``."""
    return 2 if refuted else 0 if evidence else 3


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args reads the parser and never changes it.
    parser = _Parser(prog="wrightdecomp", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--variant",
        default="decomposable",
        choices=["decomposable", "abs-additive", "abs_additive", "spiked"],
    )
    p.add_argument("--basis", default=None, help="comma-separated squarefree radicals, e.g. 2,3")
    p.add_argument("--basis-size", type=int, default=2)
    p.add_argument("--hinges", type=int, default=4, help="maximum hinge count")
    p.add_argument("--nonzero-c1", action="store_true", help="additive part not vanishing on Q")
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate an instance at a span point")
    p.add_argument("instance")
    p.add_argument("--at", required=True, help="ExactReal literal")

    def sweep(name: str, about: str, grid_n: int, irrational_n: int, eps: str | None = None):
        """A command that reads an instance on a grid (``_load_grid``)."""
        p = sub.add_parser(name, help=about)
        p.add_argument("instance")
        if eps is not None:
            p.add_argument("--eps", default=eps)
        p.add_argument("--grid-n", type=int, default=grid_n)
        p.add_argument("--irrational-n", type=int, default=irrational_n)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        return p

    p = sweep("check-wright", "exact double-difference sweep", 12, 0)
    p.add_argument("--steps", default=None, help="comma-separated ExactReal step literals")
    p.add_argument("--max-grid-steps", type=int, default=None)
    sweep("check-jensen", "exact midpoint-convexity sweep", 12, 4)
    sweep("decompose", "recover the additive part vanishing on Q", 8, 4, eps="1/100000000")

    p = sub.add_parser("verify", help="check a decomposition against ground truth")
    p.add_argument("result", help="decomposition result JSON")
    p.add_argument("--truth", required=True, help="instance file with known ground truth")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-certificate", help="re-check an emitted certificate")
    p.add_argument("report", help="report JSON containing a certificate")
    p.add_argument("--instance", default=None, help="instance file (defaults to the report's)")

    p = sweep("report", "emit extension enclosures as CSV plot data", 12, 6, eps="1/10000")
    p.add_argument("--csv", required=True)
    return parser


def _cmd_gen(args) -> int:
    basis = tuple(int(b) for b in args.basis.split(",")) if args.basis else None
    inst = generate(
        args.seed,
        kind=args.variant,
        basis_size=args.basis_size,
        basis=basis,
        max_hinges=args.hinges,
        nonzero_rational_part=args.nonzero_c1,
    )
    _write(args.out, dumps_instance(inst))
    return _outcome()


def _cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    x = ExactReal.parse(args.at)
    value = inst.evaluate(x)
    sys.stdout.write(value.literal() + "\n")
    return _outcome()


def _config(args, instance, eps, seed, grid_n, irrational_n, **extra) -> dict:
    """The run configuration that every report embeds."""
    return {
        "subcommand": args.subcommand,
        "instance": instance,
        "eps": None if eps is None else str(eps),
        "seed": seed,
        "grid_n": grid_n,
        "irrational_n": irrational_n,
        "steps": [],
        "out": args.out,
        "csv": None,
        **extra,
    }


def _load_grid(args, **extra):
    """Instance, ``--eps`` (if the command has one), grid and report config
    of the commands that sweep a grid."""
    inst = load_instance(args.instance)
    eps = parse_rational(args.eps) if hasattr(args, "eps") else None
    if eps is not None:
        _check_eps(eps)
    grid = make_grid(inst.interval, args.grid_n, args.irrational_n, inst.basis, args.seed)
    config = _config(args, args.instance, eps, args.seed, args.grid_n, args.irrational_n, **extra)
    args.config = config  # what ``main`` embeds in a refusal
    return inst, eps, grid, config


def _cmd_check_wright(args) -> int:
    inst, _, grid, config = _load_grid(args, max_grid_steps=args.max_grid_steps)
    steps = tuple(ExactReal.parse(s) for s in args.steps.split(",")) if args.steps else ()
    report = wright_check(inst, grid, steps, max_grid_steps=args.max_grid_steps)
    config["steps"] = [s.literal() for s in steps]
    _emit(config, {"check": "wright", "report": report.to_jsonable()})
    return _outcome(refuted=not report.passed, evidence=report.checked > 0)


def _cmd_check_jensen(args) -> int:
    inst, _, grid, config = _load_grid(args)
    report = jensen_check(inst, grid)
    _emit(config, {"check": "jensen", "report": report.to_jsonable()})
    return _outcome(refuted=not report.passed, evidence=report.checked > 0)


def _cmd_decompose(args) -> int:
    inst, eps, grid, config = _load_grid(args)
    result = decompose(inst, eps, grid)
    _emit(config, result.to_jsonable())
    return _outcome(evidence=result.passed)


def _cmd_verify(args) -> int:
    truth = load_instance(args.truth)
    if not isinstance(truth, Decomposable):
        raise ValueError("ground-truth verification needs a Decomposable instance")
    with open(args.result, "r", encoding="utf-8") as fh:
        doc = _expect_type(json.load(fh), dict, "decomposition result")
    try:
        eps = parse_rational(doc["eps"])
        seed = _index(doc["seed"], "seed")
        run = _expect_type(doc.get("config", {"grid_n": 8, "irrational_n": 4}), dict, "config")
        grid_n = _expect_type(run["grid_n"], int, "grid_n")
        irrational_n = _expect_type(run["irrational_n"], int, "irrational_n")
        stored = {
            _index(k, "additive key"): (_expect_type(e, dict, "additive enclosure")["lo"], e["hi"])
            for k, e in _expect_type(doc["additive"], dict, "additive").items()
        }
    except KeyError as exc:
        raise ParseError(f"decomposition result {args.result} missing field {exc}") from exc
    _check_eps(eps)
    # Only the recovery phase, which reads no grid: the stored coefficients
    # are all this compares, and a Decomposable truth passes any gate.
    handle = ExtensionHandle(truth)
    additive_hat, _ = _recover(handle, eps)
    recomputed = {m: (enc.lo.literal(), enc.hi.literal()) for m, enc in additive_hat.items()}
    payload = _verify(additive_hat, eps, seed, handle).to_jsonable()
    if stored != recomputed:
        payload["passed"] = False
        payload["failures"].append("stored additive enclosures do not match a reproduced run")
    config = _config(args, args.truth, eps, seed, grid_n, irrational_n, result=args.result)
    _emit(config, payload)
    return _outcome(refuted=not payload["passed"])


def _cmd_verify_certificate(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = _expect_type(json.load(fh), dict, "report")
    cert_doc = None
    if "report" in doc and isinstance(doc["report"], dict):
        cert_doc = doc["report"].get("certificate")
    if cert_doc is None:
        cert_doc = doc.get("certificate")
    if cert_doc is None:
        raise ParseError(f"report {args.report} carries no certificate")
    config = doc.get("config") or {}
    instance_path = args.instance or _expect_type(config, dict, "config").get("instance")
    if not instance_path:
        raise ParseError(f"report {args.report} names no instance to re-check against")
    inst = load_instance(_expect_type(instance_path, str, "instance path"))
    try:
        cert = ViolationCertificate.from_jsonable(cert_doc)
    except KeyError as exc:
        raise ParseError(f"report {args.report} certificate missing field {exc}") from exc
    if cert.verify(inst):
        sys.stdout.write("certificate verified: violation reproduces exactly\n")
        return _outcome()
    sys.stdout.write("certificate REJECTED: violation does not reproduce\n")
    return _outcome(refuted=True)


def _cmd_report(args) -> int:
    inst, eps, grid, config = _load_grid(args, csv=args.csv)
    handle = ExtensionHandle(inst)
    gate = jensen_check(inst, grid.rational_only())
    if not gate.passed:
        raise NotWrightConvexError(gate.certificate)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x_literal", "lo", "hi", "width"])
    for x in grid.points():
        enc = handle.extend_eval(x, eps)
        writer.writerow([x.literal(), enc.lo.literal(), enc.hi.literal(), enc.width.literal()])
    _write(args.csv, buf.getvalue())
    payload = {"rows": len(grid.points()), "csv": args.csv}
    if not gate.checked:
        payload["inconclusive"] = _TOO_FEW_RATIONALS
    _emit(config, payload)
    return _outcome(evidence=gate.checked > 0)


_COMMANDS = {
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "check-wright": _cmd_check_wright,
    "check-jensen": _cmd_check_jensen,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "verify-certificate": _cmd_verify_certificate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return _COMMANDS[args.subcommand](args)
        except NotWrightConvexError as exc:
            _emit(args.config, {"error": exc.refusal, "certificate": exc.certificate.to_jsonable()})
            return _outcome(refuted=True)
        except (TooFewPointsError, InconsistentEnclosureError) as exc:
            # A failed check with no certificate.  ``verify`` sets no
            # ``args.config`` and raises neither: its truth is a
            # Decomposable, whose chains are never disjoint.
            _emit(args.config, {"inconclusive": str(exc)})
            return _outcome(evidence=False)
    except (WrightDecompError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
