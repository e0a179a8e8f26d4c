"""Exact decomposition toolkit for Wright convex functions.

Checks Wright and Jensen convexity with exact certificates over function
instances defined on finitely generated radical extensions of Q, builds
the convex part as a certified extension of the restriction to the
rationals, and recovers the unique additive part vanishing on Q.
"""

from .exactreal import (
    Enclosure,
    ExactReal,
    Ordering,
    check_radical_index,
    compare,
    parse_rational,
)
from .domain import Interval, SampleGrid, make_grid, rational_anchors, shifted_intersection
from .funcspec import (
    AbsAdditive,
    AdditiveMap,
    ConvexSpec,
    Decomposable,
    FunctionDef,
    Spiked,
    dumps_instance,
    generate,
    load_instance,
    loads_instance,
)
from .analysis import (
    CheckReport,
    ViolationCertificate,
    build_steps,
    double_delta,
    jensen_check,
    lipschitz_bound,
    wright_check,
)
from .extension import (
    BracketPolicy,
    ExtensionHandle,
    TransferReport,
    difference_transfer_check,
)
from .decomposition import (
    DecompositionResult,
    RESOLUTION_LIMIT,
    UniquenessReport,
    VerificationReport,
    decompose,
    uniqueness_check,
    verify_against_truth,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
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
