"""Find-larger / find-smaller queries on 1-difference sequences in O(1).

The one-level structure (:class:`OneLevelFL`) is built in linear time
and space; :class:`DoublingFL` is the log-factor baseline it is measured
against; :class:`LevelAncestorIndex` answers level-ancestor queries on
rooted trees through the same machinery; :mod:`findlarger.oracle` holds
the brute-force references everything is verified against.
"""

from .core import (
    BuildStats,
    EmptySequenceError,
    InvalidKappaError,
    NotAnIntegerError,
    NotOneDifferenceError,
    OneLevelFL,
    SpaceReport,
    ValueOutOfRangeError,
    compute_valleys,
    fs_query,
    validate_sequence,
)
from .doubling import DoublingFL
from .trees import (
    CycleError,
    DepthOutOfRangeError,
    EmptyTreeError,
    EulerTour,
    LevelAncestorIndex,
    MalformedTreeError,
    MultipleRootsError,
    NoRootError,
    Tree,
    TreeFormatError,
    TreeTooLargeError,
    UnbalancedParensError,
    UnknownNodeError,
    euler_tour,
    parse_balanced_parens,
    parse_parent_array,
)

__version__ = "0.1.0"

__all__ = [
    "BuildStats",
    "CycleError",
    "DepthOutOfRangeError",
    "DoublingFL",
    "EmptySequenceError",
    "EmptyTreeError",
    "EulerTour",
    "InvalidKappaError",
    "LevelAncestorIndex",
    "MalformedTreeError",
    "MultipleRootsError",
    "NoRootError",
    "NotAnIntegerError",
    "NotOneDifferenceError",
    "OneLevelFL",
    "SpaceReport",
    "Tree",
    "TreeFormatError",
    "TreeTooLargeError",
    "UnbalancedParensError",
    "UnknownNodeError",
    "ValueOutOfRangeError",
    "compute_valleys",
    "euler_tour",
    "fs_query",
    "parse_balanced_parens",
    "parse_parent_array",
    "validate_sequence",
    "__version__",
]
