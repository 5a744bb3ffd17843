"""Exception types shared across the package."""


class GwaselError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GwaselError):
    """Malformed input file; message carries the offending row number."""


class DimensionError(GwaselError):
    """Row/column counts of related inputs do not line up."""


class ImputationError(GwaselError):
    """A genotype column cannot be imputed (e.g. entirely missing)."""


class DegenerateColumnError(GwaselError):
    """A column has zero sample variance where variation is required."""


class CollinearityError(GwaselError):
    """A design column is numerically dependent on the current model."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} is collinear with the current model")


class PerfectFitError(GwaselError):
    """Residual sum of squares is zero where a positive value is required."""


class TraitScaleError(GwaselError, ValueError):
    """The trait's scale leaves float64: n times its centred sum of squares
    is not finite, or its values are so small that their squares may
    underflow, so its RSS, F statistics and criterion values are not to be
    trusted."""


class BudgetError(GwaselError):
    """A combinatorial enumeration scored more candidates than its budget allows."""
