"""The benchmark's tracer wraps library names by lookup: it must still find
every one of them, and put every original back."""

import importlib.util
from pathlib import Path

import wrightdecomp  # noqa: F401  (the tracer wraps the imported modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    patched = []
    try:
        tracer.install()  # raises if a wrapped name is gone
        patched = list(tracer._patches)
        assert patched
    finally:
        tracer.uninstall()
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
