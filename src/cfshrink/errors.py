"""Exception types shared across the package."""


class CfshrinkError(Exception):
    """Base class for all package-specific errors."""


class ExponentTooSmall(CfshrinkError):
    """Exponent too close to 1/2; the series may diverge."""


class NoRootInUnitInterval(CfshrinkError):
    """Defining sum stays above 1 on the whole admissible s-range."""


class AmbiguousBranch(CfshrinkError):
    """Branch selection undecidable: enclosures still overlap at max precision."""


class DepthTooLarge(CfshrinkError):
    """Word enumeration budget exceeded for the requested depth."""


class UndefinedForZeroTarget(CfshrinkError):
    """Growth exponents are undefined when the target is identically zero."""


class PrecisionExhausted(CfshrinkError):
    """Verdict still straddles the threshold at maximum working precision."""


class Inapplicable(CfshrinkError):
    """Operation does not apply to this input (degenerate target)."""


class NoRoot(CfshrinkError):
    """Finite-alphabet equation has no root in (0, 1]; enlarge the alphabet."""


class BudgetExceeded(CfshrinkError):
    """Requested enumeration exceeds the configured budget."""


class InvalidWitness(CfshrinkError):
    """A witness construction breaks one of its invariants (empty hit set,
    degenerate, short or overlapping intervals, repeated addresses)."""
