import dataclasses
import importlib.util
from pathlib import Path

import wrightdecomp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in wrightdecomp.__all__ if not hasattr(wrightdecomp, name)]
    assert missing == []


def test_public_surface_is_pinned():
    # Every addition to or removal from the public API shows up here.
    assert sorted(wrightdecomp.__all__) == [
        "AbsAdditive",
        "AdditiveMap",
        "BracketPolicy",
        "CheckReport",
        "ConvexSpec",
        "Decomposable",
        "DecompositionResult",
        "Enclosure",
        "ExactReal",
        "ExtensionHandle",
        "FunctionDef",
        "Interval",
        "Ordering",
        "RESOLUTION_LIMIT",
        "SampleGrid",
        "Spiked",
        "TransferReport",
        "UniquenessReport",
        "VerificationReport",
        "ViolationCertificate",
        "build_steps",
        "check_radical_index",
        "compare",
        "decompose",
        "difference_transfer_check",
        "double_delta",
        "dumps_instance",
        "errors",
        "generate",
        "jensen_check",
        "lipschitz_bound",
        "load_instance",
        "loads_instance",
        "make_grid",
        "parse_rational",
        "rational_anchors",
        "shifted_intersection",
        "uniqueness_check",
        "verify_against_truth",
        "wright_check",
    ]


def test_bracket_policy_knobs_are_pinned():
    # Every knob added to or removed from the bracket placement shows up here.
    fields = [f.name for f in dataclasses.fields(wrightdecomp.BracketPolicy)]
    assert fields == ["initial_eps", "margin_widths", "slope_eps"]


def test_error_hierarchy_is_pinned():
    # Every error class added to or removed from the package shows up here.
    errors = wrightdecomp.errors
    defined = {
        name: obj.__bases__
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.WrightDecompError)
        and obj.__module__ == errors.__name__
    }
    base = (errors.WrightDecompError,)
    assert defined == {
        "WrightDecompError": (Exception,),
        "ParseError": (errors.WrightDecompError, ValueError),
        "EmptyDomainError": base,
        "OutOfDomainError": base,
        "OutOfSpanError": base,
        "NonPositiveStepError": base,
        "BracketViolationError": base,
        "BracketUnavailableError": base,
        "NotWrightConvexError": base,
        "TooFewPointsError": (errors.WrightDecompError, ValueError),
        "InconsistentEnclosureError": base,
    }


def test_benchmark_tracer_installs_and_restores():
    # The benchmark's tracer wraps library functions and methods by name;
    # removing or renaming one of them breaks traced benchmark runs, and
    # every original must be put back.
    import wrightdecomp.cli  # noqa: F401  (the tracer also patches names imported here)

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    compare = wrightdecomp.exactreal.compare
    evaluate = wrightdecomp.funcspec._FunctionBase.__dict__["evaluate"]
    tracer = tracing.Tracer()
    patched = []
    try:
        tracer.install()  # raises if a wrapped name is gone
        patched = list(tracer._patches)
        assert patched
        assert wrightdecomp.analysis.compare is not compare
        # Arithmetic routed around the wrapped operators would read 0 here.
        f = wrightdecomp.generate(0)
        grid = wrightdecomp.make_grid(f.interval, 4, 0, f.basis, 0)
        wrightdecomp.wright_check(f, grid, max_grid_steps=3)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
    assert tracer.counts["exactreal.arith"] > 0
    assert tracer.names.index("exactreal.compare") in tracer.span_name
    assert wrightdecomp.analysis.compare is compare
    assert wrightdecomp.exactreal.compare is compare
    assert wrightdecomp.funcspec._FunctionBase.__dict__["evaluate"] is evaluate
