"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Incompatible operand shapes, a non-square matrix, or a dimension below what is needed."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class InvalidStateError(ValueError):
    """A candidate density matrix or Bloch vector is not a valid state."""


class NumericalConsistencyError(ArithmeticError):
    """An analytically guaranteed property failed beyond round-off tolerance."""


class EigensolverError(RuntimeError):
    """The underlying eigensolver failed to converge."""
