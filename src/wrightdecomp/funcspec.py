"""Exactly evaluable function instances and their seeded generator.

Three families:

* ``Decomposable`` -- convex catalog part (quadratic + affine + hinge sum)
  plus a Q-linear additive map; the ground-truth family.
* ``AbsAdditive`` -- absolute value of an additive map; midpoint convex by
  the triangle inequality but not a convex-plus-additive sum.
* ``Spiked`` -- a base instance lifted at a single point; the stock
  counterexample for midpoint convexity checkers.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Union

from .domain import Interval, rational_anchors
from .errors import OutOfDomainError, OutOfSpanError, ParseError, _expect_type
from .exactreal import ExactReal, Ordering, check_radical_index, compare, parse_rational
from .exactreal import _coordinates, _from_lattice, _lattice_quadratic, _lattice_sign
from .exactreal import _minus, _side

_SQUAREFREE_POOL = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


@dataclass(frozen=True)
class ConvexSpec:
    """Convex catalog function a*x^2 + b*x + c0 + sum_i w_i * max(0, x - k_i).

    ``value`` is this definition in ``ExactReal`` arithmetic, summing
    w_i*(x - k_i) over the knots below x in any order.  It reads nothing of
    ``_pieces``, the table that ``Decomposable``'s compiled form reads, so
    it is an independent reference for that form.
    """

    quad: Fraction = Fraction(0)
    slope: ExactReal = ExactReal()
    offset: ExactReal = ExactReal()
    hinges: tuple[tuple[ExactReal, Fraction], ...] = ()

    @functools.cached_property
    def _pieces(self) -> tuple[tuple[ExactReal, ...], tuple[tuple[ExactReal, ExactReal], ...]]:
        """The knots in increasing order, and for each i the (b_i, c_i) with
        value = quad*x^2 + b_i*x + c_i past the first i knots."""
        # Sorted here too, so a spec built without validate() still sums its hinges.
        hinges = sorted(self.hinges, key=functools.cmp_to_key(lambda h, k: compare(h[0], k[0])))
        b, c = self.slope, self.offset
        pieces = [(b, c)]
        for knot, weight in hinges:
            b, c = b + weight, c - knot * weight
            pieces.append((b, c))
        return tuple(k for k, _ in hinges), tuple(pieces)

    def value(self, x: ExactReal) -> ExactReal:
        out = (x * self.quad + self.slope) * x + self.offset
        for knot, weight in self.hinges:
            if compare(x, knot) is Ordering.GREATER:
                out = out + (x - knot) * weight
        return out

    def validate(self) -> None:
        if self.quad < 0:
            raise ValueError(f"quadratic coefficient must be >= 0, got {self.quad}")
        prev = None
        for knot, weight in self.hinges:
            if weight <= 0:
                raise ValueError(f"hinge weight must be > 0, got {weight}")
            if prev is not None and compare(prev, knot) is not Ordering.LESS:
                raise ValueError("hinge knots must be strictly increasing")
            prev = knot

    def used_radicals(self) -> set[int]:
        rad = set(self.slope.radicals()) | set(self.offset.radicals())
        for knot, _ in self.hinges:
            rad |= set(knot.radicals())
        return rad


@dataclass(frozen=True)
class AdditiveMap:
    """Q-linear map determined by its values on basis radicals.

    ``coeffs`` maps a squarefree index m to A(sqrt(m)); the action on a
    span element sum_m q_m*sqrt(m) is sum_m q_m * A(sqrt(m)).
    """

    coeffs: tuple[tuple[int, ExactReal], ...] = ()

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, ExactReal | int | Fraction]) -> "AdditiveMap":
        items = []
        for m, c in sorted(mapping.items()):
            check_radical_index(m)
            cv = c if isinstance(c, ExactReal) else ExactReal.from_rational(c)
            if not cv.is_zero:
                items.append((m, cv))
        return cls(tuple(items))

    def coefficient(self, m: int) -> ExactReal:
        for k, c in self.coeffs:
            if k == m:
                return c
        return ExactReal()

    @property
    def rational_slope(self) -> ExactReal:
        """A(1); zero exactly when the map vanishes on Q."""
        return self.coefficient(1)

    def value(self, x: ExactReal) -> ExactReal:
        out = ExactReal()
        for m, q in x.coefficients.items():
            c = self.coefficient(m)
            if not c.is_zero:
                out = out + c * q
        return out

    def used_radicals(self) -> set[int]:
        rad = set()
        for m, c in self.coeffs:
            if m != 1:
                rad.add(m)
            rad |= set(c.radicals())
        return rad

    def validate(self) -> None:
        for m, c in self.coeffs:
            check_radical_index(m)
            if c.is_zero:
                raise ValueError("stored additive coefficients must be nonzero")


class _FunctionBase:
    interval: Interval
    basis: tuple[int, ...]

    def evaluate(self, x: ExactReal) -> ExactReal:
        self._check(x)
        # Two selections per instance: the rationals, and the whole span.
        radicals = (1,) if x.is_rational else (1, *sorted(self.basis))
        vrad, t, value = self._compiled(radicals)
        den = x._den
        return _from_lattice(vrad, value(_coordinates(x, radicals, den), den), t * den * den)

    def _check(self, x: ExactReal) -> None:
        """Raise unless x lies in the interval and in the basis's span."""
        if not self.interval.contains(x):
            raise OutOfDomainError(f"{x} is outside {self.interval.literal()}")
        for m in x.radicals():
            if m not in self.basis:
                raise OutOfSpanError(f"{x} uses radical {m} outside basis {self.basis}")

    def _on_lattice(self, radicals: tuple[int, ...]) -> tuple:
        """``(vrad, t, value)`` for points x = sum c_i*sqrt(radicals_i) / den:
        ``value(c, den)`` is f(x) as int coordinates on the value radicals
        ``vrad`` (1 first) over t*den**2, never reduced.  It checks neither
        domain nor span: each c must be a point that ``_check`` accepts,
        so a coordinate on a radical outside the basis is 0.  This is the
        family's one definition of its value, compiled for one set of
        radicals, without a point's denominator; read it through
        ``_compiled``."""
        raise NotImplementedError

    @functools.cached_property
    def _lattices(self) -> dict:
        return {}

    def _compiled(self, radicals: tuple[int, ...]) -> tuple:
        """``_on_lattice(radicals)``, compiled once per instance and set of
        radicals: the one way ``evaluate``, ``wright_check``, the extension
        chain and a spiked instance read f's value."""
        compiled = self._lattices.get(radicals)
        if compiled is None:
            compiled = self._lattices[radicals] = self._on_lattice(radicals)
        return compiled

    def _validate_basis(self, used: set[int]) -> None:
        basis = set(self.basis)
        if len(basis) < len(self.basis):
            raise ValueError(f"basis {self.basis} repeats a radical")
        for m in self.basis:
            check_radical_index(m)
            if m == 1:
                raise ValueError("basis lists proper radicals only (1 is implicit)")
        for e in (self.interval.lo, self.interval.hi):
            if e is not None:
                used |= set(e.radicals())
        missing = used - basis
        if missing:
            raise ValueError(f"radicals {sorted(missing)} used but absent from basis {self.basis}")


@dataclass(frozen=True)
class Decomposable(_FunctionBase):
    """f = convex + additive, Ng's decomposition by construction.

    On hinge piece i, f(x) = a*x^2 + b_i*x + c_i + A(x), and b_i*x + A(x)
    is Q-linear in x's coordinates.  So each piece is an integer table of
    L_{i,m} = b_i*sqrt(m) + A(sqrt(m)) for m in 1 and the basis, and of
    c_i, all over one denominator (``exactreal._lattice_quadratic``).
    ``_on_lattice`` compiles it for one set of radicals: it finds a point's
    piece by bisecting the knots, each compared in ints
    (``exactreal._side``), and gives the value as a tuple of ints over one
    denominator.  ``evaluate``, the extension chain and ``wright_check``
    all read this form through ``_compiled``, and it equals
    ``convex.value(x) + additive.value(x)``.
    """

    interval: Interval
    basis: tuple[int, ...]
    convex: ConvexSpec
    additive: AdditiveMap = AdditiveMap()

    def _on_lattice(self, radicals: tuple[int, ...]) -> tuple:
        convex = self.convex
        images = {m: self.additive.coefficient(m) for m in (1, *self.basis)}
        vrad, t, value = _lattice_quadratic(convex.quad, convex._pieces[1], images, radicals)
        knots = [_side(radicals, k) for k in convex._pieces[0]]

        def piecewise(c: tuple[int, ...], den: int) -> tuple[int, ...]:
            # x's piece is the number of knots below x; at a knot both pieces agree.
            lo, hi = 0, len(knots)
            while lo < hi:
                mid = (lo + hi) // 2
                if knots[mid](c, den) > 0:
                    lo = mid + 1
                else:
                    hi = mid
            return value(c, den, lo)

        return vrad, t, piecewise

    def validate(self) -> None:
        self.convex.validate()
        self.additive.validate()
        self._validate_basis(self.convex.used_radicals() | self.additive.used_radicals())


@dataclass(frozen=True)
class AbsAdditive(_FunctionBase):
    interval: Interval
    basis: tuple[int, ...]
    additive: AdditiveMap

    def _on_lattice(self, radicals: tuple[int, ...]) -> tuple:
        images = {m: self.additive.coefficient(m) for m in (1, *self.basis)}
        zero = ((ExactReal(), ExactReal()),)
        vrad, t, value = _lattice_quadratic(Fraction(0), zero, images, radicals)

        def absolute(c: tuple[int, ...], den: int) -> tuple[int, ...]:
            v = value(c, den, 0)
            return tuple([-n for n in v]) if _lattice_sign(vrad, v, 1) is Ordering.LESS else v

        return vrad, t, absolute

    def validate(self) -> None:
        self.additive.validate()
        self._validate_basis(self.additive.used_radicals())


@dataclass(frozen=True)
class Spiked(_FunctionBase):
    """``base`` lifted by ``lift`` at the one point ``at``, on the base's
    interval and basis."""

    base: "FunctionDef"
    at: ExactReal
    lift: Fraction

    @property
    def interval(self) -> Interval:
        return self.base.interval

    @property
    def basis(self) -> tuple[int, ...]:
        return self.base.basis

    def _on_lattice(self, radicals: tuple[int, ...]) -> tuple:
        vrad, t, value = self.base._compiled(radicals)
        # Scale the base's values when t does not carry lift's denominator.
        k = self.lift.denominator // math.gcd(self.lift.denominator, t)
        lift = self.lift.numerator * (t * k // self.lift.denominator)
        _, diff = _minus(radicals, self.at)

        def spiked(c: tuple[int, ...], den: int) -> tuple[int, ...]:
            v = value(c, den)
            if k != 1:
                v = tuple([k * n for n in v])
            return v if any(diff(c, den)) else (v[0] + lift * den * den, *v[1:])

        return vrad, t * k, spiked

    def validate(self) -> None:
        if self.lift <= 0:
            raise ValueError(f"spike lift must be > 0, got {self.lift}")
        self.base.validate()
        if not self.interval.contains(self.at):
            raise ValueError("spike point must lie in the interval")
        self._validate_basis(set(self.at.radicals()))


FunctionDef = Union[Decomposable, AbsAdditive, Spiked]


# -- seeded generator ----------------------------------------------------


def generate(
    seed: int,
    *,
    kind: str = "decomposable",
    basis_size: int = 2,
    basis: tuple[int, ...] | None = None,
    max_hinges: int = 4,
    nonzero_rational_part: bool = False,
) -> FunctionDef:
    """Deterministic instance satisfying every invariant of its family.

    ``nonzero_rational_part`` gives the additive map a nonzero value on Q,
    exercising the normalization the decomposition pipeline must apply.
    An explicit ``basis`` overrides the sampled one.
    """
    if basis is not None:
        basis = tuple(sorted({check_radical_index(m) for m in basis}))
        basis_size = len(basis)
    if not 1 <= basis_size <= 4:
        raise ValueError("basis_size must be between 1 and 4")
    if not 0 <= max_hinges <= 8:
        raise ValueError("max_hinges must be between 0 and 8")
    rng = random.Random(seed)
    if basis is None:
        basis = tuple(sorted(rng.sample(_SQUAREFREE_POOL, basis_size)))
    else:
        rng.sample(_SQUAREFREE_POOL, basis_size)  # keep the draw sequence aligned
    lo = -Fraction(rng.randrange(8, 25), 2)
    hi = Fraction(rng.randrange(8, 25), 2)
    interval = Interval.open(lo, hi)

    def small(lo_i: int, hi_i: int, den: int = 8) -> Fraction:
        return Fraction(rng.randrange(lo_i * den, hi_i * den + 1), den)

    def span_value(scale: int = 2) -> ExactReal:
        coeffs: dict[int, Fraction] = {1: small(-scale, scale)}
        for m in basis:
            if rng.random() < 0.4:
                c = small(-1, 1)
                if c:
                    coeffs[m] = c
        return ExactReal(coeffs)

    a, b = rational_anchors(interval)

    def convex_part() -> ConvexSpec:
        quad = abs(small(0, 2))
        slope = span_value()
        offset = span_value()
        knots: list[ExactReal] = []
        for _ in range(rng.randrange(0, max_hinges + 1)):
            base_pt = a + Fraction(rng.randrange(1, 64), 64) * (b - a)
            knot = ExactReal.from_rational(base_pt)
            if rng.random() < 0.3:
                m = rng.choice(basis)
                bump = knot + ExactReal({m: small(-1, 1)})
                if interval.contains(bump):
                    knot = bump
            if all(compare(knot, k) is not Ordering.EQUAL for k in knots):
                knots.append(knot)
        knots.sort(key=functools.cmp_to_key(compare))
        hinges = tuple((k, small(1, 24) / 8 + Fraction(1, 8)) for k in knots)
        return ConvexSpec(quad, slope, offset, hinges)

    def additive_part(include_rational: bool) -> AdditiveMap:
        coeffs: dict[int, ExactReal] = {}
        for m in basis:
            if rng.random() < 0.75:
                c: ExactReal = ExactReal.from_rational(small(-3, 3))
                if rng.random() < 0.3:
                    c = c + ExactReal({rng.choice(basis): small(-1, 1)})
                if not c.is_zero:
                    coeffs[m] = c
        if include_rational:
            c1 = Fraction(0)
            while c1 == 0:
                c1 = small(-2, 2, den=4)
            coeffs[1] = ExactReal.from_rational(c1)
        return AdditiveMap.from_mapping(coeffs)

    kind = kind.replace("-", "_")
    if kind == "decomposable":
        inst: FunctionDef = Decomposable(
            interval, basis, convex_part(), additive_part(nonzero_rational_part)
        )
    elif kind == "abs_additive":
        add = additive_part(False)
        if not add.coeffs:
            add = AdditiveMap.from_mapping({basis[0]: 1})
        inst = AbsAdditive(interval, basis, add)
    elif kind == "spiked":
        base = Decomposable(interval, basis, convex_part(), additive_part(False))
        at = a + Fraction(rng.randrange(1, 16), 16) * (b - a)
        lift = small(1, 4) + Fraction(1, 8)
        inst = Spiked(base, ExactReal.from_rational(at), lift)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    inst.validate()
    return inst


# -- instance files ------------------------------------------------------


def _parts_to_jsonable(f: FunctionDef) -> dict:
    """The ``additive`` and, for a ``Decomposable``, ``convex`` fields of
    f, at top level or as a spiked instance's base."""
    if not isinstance(f, (Decomposable, AbsAdditive)):
        raise ValueError("instance files support one level of spiking only")
    doc: dict = {"additive": {str(m): c.literal() for m, c in f.additive.coeffs}}
    if isinstance(f, Decomposable):
        c = f.convex
        doc["convex"] = {
            "quad": str(c.quad),
            "slope": c.slope.literal(),
            "offset": c.offset.literal(),
            "hinges": [{"knot": k.literal(), "weight": str(w)} for k, w in c.hinges],
        }
    return doc


def _convex_from_jsonable(d: dict) -> ConvexSpec:
    _expect_type(d, dict, "convex")
    hinges = tuple(
        (ExactReal.parse(_expect_type(h, dict, "hinge")["knot"]), parse_rational(h["weight"]))
        for h in _expect_type(d.get("hinges", []), list, "hinges")
    )
    return ConvexSpec(
        parse_rational(d.get("quad", "0")),
        ExactReal.parse(d.get("slope", "0")),
        ExactReal.parse(d.get("offset", "0")),
        hinges,
    )


def _index(value, what: str) -> int:
    """A radical index written as a JSON integer or a decimal string."""
    try:
        return int(_expect_type(value, (int, str), what))
    except ValueError as exc:
        raise ParseError(f"{what} {value!r} is not an integer") from exc


def dumps_instance(f: FunctionDef) -> str:
    """The instance document of f.  A ``Spiked`` f's base must not itself
    be spiked."""
    if isinstance(f, Spiked):
        doc = _parts_to_jsonable(f.base)
        doc["variant"] = "spiked"
        doc["spike"] = {"at": f.at.literal(), "lift": str(f.lift)}
    else:
        doc = _parts_to_jsonable(f)
        doc["variant"] = "decomposable" if isinstance(f, Decomposable) else "abs_additive"
    doc["interval"] = f.interval.literal()
    doc["basis"] = list(f.basis)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_instance(text: str) -> FunctionDef:
    """Parse and validate an instance document; every malformed one is a
    ParseError.  The base is an ``AbsAdditive`` for ``abs_additive`` and
    for a ``spiked`` document without ``convex``, else a ``Decomposable``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past Python's digit limit
        raise ParseError(f"invalid instance JSON: {exc}") from exc
    _expect_type(doc, dict, "instance document")
    try:
        variant = doc["variant"]
        interval = Interval.parse(doc["interval"])
        entries = _expect_type(doc["basis"], list, "basis")
        basis = tuple(sorted(_index(m, "basis entry") for m in entries))
        items = _expect_type(doc.get("additive", {}), dict, "additive").items()
        additive = AdditiveMap.from_mapping(
            {_index(k, "additive key"): ExactReal.parse(v) for k, v in items}
        )
        if variant not in ("decomposable", "abs_additive", "spiked"):
            raise ParseError(f"unknown variant {variant!r}")
        if variant == "abs_additive" or (variant == "spiked" and "convex" not in doc):
            inst: FunctionDef = AbsAdditive(interval, basis, additive)
        else:
            inst = Decomposable(interval, basis, _convex_from_jsonable(doc["convex"]), additive)
        if variant == "spiked":
            spike = _expect_type(doc["spike"], dict, "spike")
            at, lift = ExactReal.parse(spike["at"]), parse_rational(spike["lift"])
            inst = Spiked(inst, at, lift)
    except KeyError as exc:
        raise ParseError(f"instance document missing field {exc}") from exc
    try:
        inst.validate()
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"invalid instance: {exc}") from exc
    return inst


def load_instance(path: str | Path) -> FunctionDef:
    return loads_instance(Path(path).read_text(encoding="utf-8"))
