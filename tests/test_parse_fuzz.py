"""Fuzzing of the three text entry points: ExactReal.parse, Interval.parse
and loads_instance.

Whatever the input, each must end quickly with either a value or a
``WrightDecompError`` (``ParseError`` for malformed text); a bare
``ValueError``, ``TypeError`` or a hang is a bug.  A value that parses
must survive a round trip through its own literal or document.
"""

import json
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings, strategies as st

from wrightdecomp import ExactReal, Interval, dumps_instance, generate, loads_instance
from wrightdecomp.errors import WrightDecompError

FUZZ = settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.too_slow],
)

# Pieces of literals, well and badly formed, glued together at random.
_TOKENS = st.sampled_from(
    [
        "sqrt(", ")", "(", "*", "**", "+", "-", "/", ".", "e", "E", ",", " ",
        "0", "1", "2", "3", "7", "12", "10", "1e-8", "1e5000", "9" * 30,
        "²", "¹⁰", "٣", "inf", "-inf", "nan", "_",
    ]
)
_LITERAL_TEXT = st.one_of(st.lists(_TOKENS, max_size=12).map("".join), st.text(max_size=40))


def _accepts(parse, text):
    """parse(text), or None when it raised an error of the package."""
    try:
        return parse(text)
    except WrightDecompError:
        return None


@FUZZ
@given(_LITERAL_TEXT)
@example("sqrt(²)")
@example("3*sqrt(¹⁰)")
@example("2**sqrt(2)")
@example("sqrt(" + "9" * 5000 + ")")
def test_exactreal_parse_fuzz(text):
    x = _accepts(ExactReal.parse, text)
    if x is not None:
        assert ExactReal.parse(x.literal()) == x


_ENDPOINT = st.one_of(_LITERAL_TEXT, st.sampled_from(["-inf", "inf", "+inf", "0", "1", "sqrt(2)"]))
_INTERVAL_TEXT = st.one_of(
    st.builds(lambda lo, hi: f"({lo}, {hi})", _ENDPOINT, _ENDPOINT),
    _LITERAL_TEXT,
)


@FUZZ
@given(_INTERVAL_TEXT)
@example("(1, 0)")
@example("(sqrt(2), 1)")
def test_interval_parse_fuzz(text):
    interval = _accepts(Interval.parse, text)
    if interval is not None:
        assert Interval.parse(interval.literal()) == interval


_VALID = json.loads(dumps_instance(generate(0, kind="spiked")))  # basis (11, 15) on (-9/2, 8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _LITERAL_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_FIELDS = {
    "variant": st.sampled_from(["decomposable", "abs_additive", "spiked", "mystery"]) | _JSON,
    "interval": _INTERVAL_TEXT | _JSON,
    "basis": st.lists(st.sampled_from([1, 2, 11, 15, "11", "x", "²", -3, 4]), max_size=4) | _JSON,
    "convex": st.fixed_dictionaries(
        {},
        optional={
            "quad": _LITERAL_TEXT,
            "slope": _LITERAL_TEXT,
            "offset": _LITERAL_TEXT,
            "hinges": st.lists(
                st.fixed_dictionaries({"knot": _LITERAL_TEXT, "weight": _LITERAL_TEXT}), max_size=3
            ),
        },
    )
    | _JSON,
    "additive": st.dictionaries(
        st.sampled_from(["1", "11", "15", "x", "0", "4"]), _LITERAL_TEXT, max_size=3
    )
    | _JSON,
    "spike": st.fixed_dictionaries({"at": _LITERAL_TEXT, "lift": _LITERAL_TEXT}) | _JSON,
}


@st.composite
def _instance_text(draw):
    """A valid spiked document with some fields replaced or dropped, or raw text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=60))
    doc = dict(_VALID)
    for key in draw(st.sets(st.sampled_from(sorted(_FIELDS)), max_size=3)):
        if draw(st.booleans()):
            doc[key] = draw(_FIELDS[key])
        else:
            doc.pop(key, None)
    return json.dumps(doc)


@FUZZ
@given(_instance_text())
@example(json.dumps({**_VALID, "basis": ["x"]}))
@example(json.dumps({**_VALID, "convex": {**_VALID["convex"], "quad": "-1"}}))
@example(json.dumps({**_VALID, "spike": {"at": "9", "lift": "1"}}))
@example("[" * 100_000)
def test_loads_instance_fuzz(text):
    inst = _accepts(loads_instance, text)
    if inst is not None:
        assert loads_instance(dumps_instance(inst)) == inst
