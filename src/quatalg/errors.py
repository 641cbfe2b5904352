"""Exception hierarchy for the quatalg package."""


class QuatAlgError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(QuatAlgError):
    """An element (or matrix) with zero reduced norm was inverted."""


class DimensionMismatch(QuatAlgError):
    """Matrix or vector shapes do not line up."""


class UnsupportedAlgebra(QuatAlgError):
    """The operation is only defined for definite algebras (a < 0 and b < 0)."""


class InternalInvariant(QuatAlgError):
    """A value violated an invariant the theory guarantees; likely a bug."""


class NotInBaseField(QuatAlgError):
    """A coefficient expected to be rational has a nonzero i-part."""


class AlgorithmFailure(QuatAlgError):
    """The generator-preimage search exhausted every branch."""


class BudgetExceeded(QuatAlgError):
    """An input would need more memory than a kernel admits; raised before any work."""


class BlockNotInvertible(QuatAlgError):
    """The lower-left block of the 4x4 reduction is singular."""


class OffDiagonalZero(QuatAlgError):
    """The 2x2 reduction degenerates: c = 0 makes the matrix triangular.

    The left eigenvalues are then exactly the two diagonal entries,
    carried in ``eigenvalues``.
    """

    def __init__(self, top, bottom):
        super().__init__("lower-left entry is zero; eigenvalues are the diagonal entries")
        self.eigenvalues = (top, bottom)


class ParseError(QuatAlgError):
    """Expression or matrix file rejected; ``position`` is the text offset."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DivisionByZeroLiteral(ParseError):
    """A rational literal with denominator zero."""


class NonSquare(QuatAlgError):
    """Matrix file entries do not form a square matrix."""


class MissingAlgebra(QuatAlgError):
    """Matrix file lacks the algebra parameters."""
