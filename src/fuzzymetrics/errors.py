"""Exception types shared across the package."""


class FuzzyMetricsError(Exception):
    """Base class for all errors raised by this package."""


class BadGrid(FuzzyMetricsError):
    """Alpha grid violates its invariants (range, ordering, endpoints)."""


class NonNested(FuzzyMetricsError):
    """Cut endpoints are not monotone in alpha, so the cuts do not nest."""


class CurvatureMismatch(FuzzyMetricsError):
    """A cut endpoint lies on the wrong side of a chord for its declared curvature."""


class EmptyCut(FuzzyMetricsError):
    """A lower endpoint exceeds the matching upper endpoint."""


class OutOfRange(FuzzyMetricsError):
    """An argument falls outside its admissible range."""


class GridMismatch(FuzzyMetricsError):
    """Two objects that must share a sampling grid do not."""


class EmptyFamily(FuzzyMetricsError):
    """A family operation received no members."""


class BadIndex(FuzzyMetricsError):
    """A sequence index is not a positive integer."""


class ParseError(FuzzyMetricsError):
    """Input file or inline constructor could not be parsed."""


class VerdictFailure(FuzzyMetricsError):
    """A strict-mode run produced a failing verdict."""


__all__ = [name for name, obj in list(globals().items()) if isinstance(obj, type) and issubclass(obj, FuzzyMetricsError)]
