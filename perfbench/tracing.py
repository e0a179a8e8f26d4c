"""Span tracing around the public functions of each wrightdecomp module.

The tracer replaces names where the calling module looks them up: a
function such as ``compare`` is imported by name into several modules,
so every ``wrightdecomp.*`` module attribute bound to the original is
swapped, and methods are swapped on the class that defines them.
``uninstall`` puts every original back.

Spans (name, start, end, parent, instance id) are kept in flat arrays
in memory and written out by ``dump``.  ``ExactReal`` operators and
``ExtensionHandle.f_rational`` are only counted: they run hundreds of
thousands of times per instance and a span each would dominate the run.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, module the function is defined in, attribute name)
_FUNCTIONS = (
    ("exactreal.compare", "wrightdecomp.exactreal", "compare"),
    ("domain.make_grid", "wrightdecomp.domain", "make_grid"),
    ("funcspec.generate", "wrightdecomp.funcspec", "generate"),
    ("analysis.wright_check", "wrightdecomp.analysis", "wright_check"),
    ("analysis.jensen_check", "wrightdecomp.analysis", "jensen_check"),
    ("analysis.lipschitz_bound", "wrightdecomp.analysis", "lipschitz_bound"),
    ("extension.difference_transfer_check", "wrightdecomp.extension", "difference_transfer_check"),
    ("decomposition.decompose", "wrightdecomp.decomposition", "decompose"),
    ("decomposition.verify_against_truth", "wrightdecomp.decomposition", "verify_against_truth"),
)

# (span name, module, class, method)
_METHODS = (
    ("exactreal.bounds", "wrightdecomp.exactreal", "ExactReal", "bounds"),
    ("domain.contains", "wrightdecomp.domain", "Interval", "contains"),
    ("funcspec.evaluate", "wrightdecomp.funcspec", "Decomposable", "evaluate"),
    ("extension.extend_eval", "wrightdecomp.extension", "ExtensionHandle", "extend_eval"),
)

# (counter name, module, class, method): counted, not spanned.
_COUNTED = tuple(
    ("exactreal.arith", "wrightdecomp.exactreal", "ExactReal", op)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
) + (("extension.f_rational", "wrightdecomp.extension", "ExtensionHandle", "f_rational"),)


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("i")
        self.span_instance = array.array("i")
        self.counts: Counter[str] = Counter()
        self.instance_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, instances = self.span_parent, self.span_instance
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(tracer.instance_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for the benchmark's own calls)."""
        return self._spanned(name, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "wrightdecomp"]
        for span, modname, attr in _FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._spanned(span, original)
            if span == "analysis.wright_check":
                wrapper = self._wright_counter(wrapper)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for span, modname, clsname, attr in _METHODS:
            owner = _defining_class(getattr(sys.modules[modname], clsname), attr)
            wrapper = self._spanned(span, owner.__dict__[attr])
            if span == "funcspec.evaluate":
                wrapper = self._evaluate_counter(wrapper)
            self._patch(owner, attr, wrapper)
        for counter, modname, clsname, attr in _COUNTED:
            owner = _defining_class(getattr(sys.modules[modname], clsname), attr)
            self._patch(owner, attr, self._counted(counter, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _evaluate_counter(self, traced):
        counts = self.counts

        def evaluate(f, x):
            counts["funcspec.evaluate.rational" if x.is_rational else "funcspec.evaluate.irrational"] += 1
            return traced(f, x)

        return evaluate

    def _wright_counter(self, traced):
        counts = self.counts

        def wright_check(*args, **kwargs):
            report = traced(*args, **kwargs)
            counts["analysis.wright.triples"] += report.checked
            return report

        return wright_check

    # -- aggregation -----------------------------------------------------

    def metrics(self, passes: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, as {name: (value, unit)}.

        Every pass does the same work from a fresh import, so counts per
        pass are whole numbers that repeat exactly from run to run.
        """
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]

        def nid(name: str) -> int:
            return self._name_ids.get(name, -1)

        compare_id, bounds_id = nid("exactreal.compare"), nid("exactreal.bounds")
        wright_id, evaluate_id = nid("analysis.wright_check"), nid("funcspec.evaluate")
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        refined = set()
        bounds_in_compare = evals_in_wright = 0
        for i in range(n):
            k, p = names[i], parents[i]
            calls[k] += 1
            total_ns[k] += dur[i]
            self_ns[k] += dur[i] - child[i]
            if p < 0:
                continue
            if k == bounds_id and names[p] == compare_id:
                refined.add(p)
                bounds_in_compare += 1
            elif k == evaluate_id and names[p] == wright_id:
                evals_in_wright += 1

        def get(table, name):
            k = nid(name)
            return table[k] if k >= 0 else 0

        def ratio(a, b):
            return a / b if b else 0.0

        def count(name):
            return (get(calls, name) / passes, "count")

        def counter(name):
            return (self.counts[name] / passes, "count")

        def self_s(name):
            return (get(self_ns, name) / 1e9 / passes, "s")

        def total_s(name):
            return (get(total_ns, name) / 1e9 / passes, "s")

        compares = get(calls, "exactreal.compare")
        triples = self.counts["analysis.wright.triples"]
        extends = get(calls, "extension.extend_eval")
        cli_self = sum(get(self_ns, f"cli.{c}") for c in ("decompose", "verify", "report"))
        return {
            "exactreal.compare.calls": count("exactreal.compare"),
            "exactreal.compare.self_s": self_s("exactreal.compare"),
            "exactreal.compare.refined_frac": (ratio(len(refined), compares), "fraction"),
            "exactreal.compare.bounds_per_refined": (ratio(bounds_in_compare, len(refined)), "ratio"),
            "exactreal.bounds.calls": count("exactreal.bounds"),
            "exactreal.bounds.self_s": self_s("exactreal.bounds"),
            "exactreal.arith.calls": counter("exactreal.arith"),
            "domain.contains.calls": count("domain.contains"),
            "domain.contains.self_s": self_s("domain.contains"),
            "domain.make_grid.s": total_s("domain.make_grid"),
            "funcspec.evaluate.calls.rational": counter("funcspec.evaluate.rational"),
            "funcspec.evaluate.calls.irrational": counter("funcspec.evaluate.irrational"),
            "funcspec.evaluate.self_s": self_s("funcspec.evaluate"),
            "funcspec.generate.s": total_s("funcspec.generate"),
            "analysis.wright_check.self_s": self_s("analysis.wright_check"),
            "analysis.wright.triples": counter("analysis.wright.triples"),
            "analysis.wright.evals_per_triple": (ratio(evals_in_wright, triples), "ratio"),
            "analysis.jensen_check.s": total_s("analysis.jensen_check"),
            "analysis.lipschitz_bound.calls": count("analysis.lipschitz_bound"),
            "extension.extend_eval.calls": count("extension.extend_eval"),
            "extension.extend_eval.self_s": self_s("extension.extend_eval"),
            "extension.source_evals_per_extend": (
                ratio(self.counts["extension.f_rational"], extends),
                "ratio",
            ),
            "extension.difference_transfer_check.s": total_s("extension.difference_transfer_check"),
            "decomposition.decompose.s": total_s("decomposition.decompose"),
            "decomposition.verify_against_truth.s": total_s("decomposition.verify_against_truth"),
            "cli.decompose.s": total_s("cli.decompose"),
            "cli.verify.s": total_s("cli.verify"),
            "cli.report.s": total_s("cli.report"),
            "cli.self_s": (cli_self / 1e9 / passes, "s"),
            "trace.overhead_frac": (overhead_frac, "fraction"),
        }

    def dump(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (layout) and ``<stem>.bin`` (arrays)."""
        fields = ("span_name", "span_start", "span_end", "span_parent", "span_instance")
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "clock": "time.perf_counter_ns",
            "arrays": [
                {"field": f, "typecode": getattr(self, f).typecode, "itemsize": getattr(self, f).itemsize}
                for f in fields
            ],
            "byteorder": sys.byteorder,
            "counts": dict(self.counts),
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
