"""Exception types shared across the package."""

__all__ = [
    "LlpError",
    "EmptySupport",
    "NonPositiveWeight",
    "WeightsDoNotSumToOne",
    "DuplicateSupportPoint",
    "DomainMismatch",
    "IntractableExactProportion",
    "MalformedEncoding",
    "InfiniteClass",
    "BudgetExceeded",
    "InvalidParams",
    "ZeroGap",
    "UnreachableCount",
    "CollisionPersistent",
    "InvalidNoiseBound",
    "OracleReject",
    "DegenerateSample",
    "NoCandidateAccepted",
    "InvalidAuxiliaryCount",
    "UnsupportedRecord",
    "NotAHypothesis",
]


class LlpError(Exception):
    """Base class for every error raised by llp_lab."""


class EmptySupport(LlpError):
    """A distribution was given no atoms."""


class NonPositiveWeight(LlpError):
    """A distribution atom has weight <= 0."""


class WeightsDoNotSumToOne(LlpError):
    """Explicit distribution weights do not sum to exactly 1."""


class DuplicateSupportPoint(LlpError):
    """The same point appears twice in an explicit distribution."""


class DomainMismatch(LlpError):
    """A hypothesis was evaluated on a point outside its input space."""


class IntractableExactProportion(LlpError):
    """Exact proportion requested for a hypothesis with no closed form on a cube too large to enumerate."""


class MalformedEncoding(LlpError, ValueError):
    """An encoding does not decode; also a ValueError, as InvalidParams is.

    Either a hypothesis bit string, or a JSON record that is not an object,
    lacks a required field, holds a non-list where a list belongs or names
    an unknown kind.  The message names the record and the field.
    """


class InfiniteClass(LlpError):
    """Enumeration requested for a class with no finite enumeration."""


class BudgetExceeded(LlpError):
    """An enumeration or search would exceed its candidate budget."""


class InvalidParams(LlpError, ValueError):
    """Arguments outside a formula's precondition (e.g. m < d); also a ValueError, for callers catching one."""


class ZeroGap(LlpError):
    """Gap-based sample size requested with beta = 0."""


class UnreachableCount(LlpError):
    """No hypothesis can realize the target positive count: it is not a sum of the sample's multiplicities."""


class CollisionPersistent(LlpError):
    """Every retry failed to realize a target count that might be reachable: it is a sum of the sample's multiplicities."""


class InvalidNoiseBound(LlpError):
    """Noise bound outside [0, 1/2)."""


class OracleReject(LlpError):
    """An oracle refused a query and the caller has no fallback."""


class DegenerateSample(LlpError):
    """A reduction was handed an empty input sample."""


class NoCandidateAccepted(LlpError):
    """No oracle candidate passed the disagreement test."""


class InvalidAuxiliaryCount(LlpError):
    """Auxiliary block size too small for the cover-to-subset-count reduction."""


class NotAHypothesis(LlpError, TypeError):
    """A hypothesis function was handed something that is not one of the seven kinds.

    Also a TypeError, the builtin it replaces, for callers catching one.
    """


class UnsupportedRecord(LlpError, TypeError):
    """A `core.record` class has a field whose compare, hash or repr option is set.

    Also a TypeError, as `dataclass`'s own errors in a class declaration are.
    """
