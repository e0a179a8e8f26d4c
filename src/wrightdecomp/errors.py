"""Exception hierarchy shared across the package."""

from __future__ import annotations


class WrightDecompError(Exception):
    """Base class for all package-specific errors."""


class ParseError(WrightDecompError, ValueError):
    """Malformed literal or instance document."""


def _expect_type(value, kind, what: str):
    """``value`` if it is a ``kind``, else ParseError.

    Documents are untyped JSON, so a value of the wrong type is malformed
    input rather than a program fault.  A JSON ``true`` or ``false`` is a
    Python ``bool``, which is an ``int``; it is refused unless ``kind``
    names ``bool`` itself.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ParseError(f"{what} has the wrong JSON type {type(value).__name__}")
    return value


class EmptyDomainError(WrightDecompError):
    """A shifted intersection exhausted the interval, or the interval has
    no room for the requested sample points."""


class OutOfDomainError(WrightDecompError):
    """Evaluation point lies outside the instance interval."""


class OutOfSpanError(WrightDecompError):
    """Evaluation point uses radicals outside the instance basis, or a
    product's radical index would exceed ``MAX_RADICAL_INDEX``."""


class NonPositiveStepError(WrightDecompError):
    """Double difference requires strictly positive steps."""


class BracketViolationError(WrightDecompError):
    """Lipschitz bracket rationals do not satisfy the required ordering."""


class BracketUnavailableError(WrightDecompError):
    """No admissible rational bracket could be placed inside the interval."""


class NotWrightConvexError(WrightDecompError):
    """The source fails an inequality that every Wright convex function
    satisfies.  Carries the violation certificate, whose ``kind`` names
    the inequality: ``jensen`` from the midpoint gate, ``wright`` from a
    transfer scan.  ``refusal`` is the ``error`` of a CLI refusal."""

    def __init__(self, certificate):
        self.certificate = certificate
        if certificate.kind == "jensen":
            message = "source is not Jensen convex on the sampled rationals"
            self.refusal = "not midpoint convex on sampled rationals"
        else:
            message = "source is not Wright convex on the sampled points"
            self.refusal = "not Wright convex on sampled points"
        super().__init__(message)


class TooFewPointsError(WrightDecompError, ValueError):
    """The grid has too few points for a check to test anything: no
    evidence either way, so the CLI reports it as inconclusive."""


class InconsistentEnclosureError(WrightDecompError):
    """Certified enclosures became contradictory (source breaks the
    convexity assumptions the enclosure construction relies on)."""
