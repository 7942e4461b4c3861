"""Exception types shared across the package."""


class GridSizeError(ValueError):
    """Requested grid exceeds the configured leaf cap."""


class ScaleError(ValueError):
    """Operation needs a coarser cube (e.g. splitting a leaf-scale cube)."""


class DomainError(ValueError):
    """Input outside the mathematical domain (e.g. non-positive weight)."""


class DimensionError(ValueError):
    """Operation only defined in a specific dimension."""


class KernelValidationError(ValueError):
    """A perfect-dyadic kernel violates the size or constancy condition.

    Carries the offending cube pair as heap indices in ``cube_pair``.
    """

    def __init__(self, message, cube_pair=None):
        super().__init__(message)
        self.cube_pair = cube_pair


class NormError(ValueError):
    """Operator norm undefined (an all-zero measure on one side)."""


class DecompositionError(AssertionError):
    """An exact-partition certificate failed; names the worst excluded pair."""

    def __init__(self, message, pair=None, residual=None):
        super().__init__(message)
        self.pair = pair
        self.residual = residual
