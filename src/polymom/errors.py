"""Exception types shared across the package."""


class PolymomError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(PolymomError):
    """The input violates a documented precondition of the operation."""


class DimensionError(PreconditionError):
    """Operands have incompatible dimensions or shapes."""


class SingularMatrixError(PolymomError):
    """A square matrix required to be invertible is singular.

    Carries the exact rank of the offending matrix.
    """

    def __init__(self, message, rank):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


class NotSpanningError(PreconditionError):
    """A point set does not affinely span its ambient space."""


class DegenerateSimplexError(PreconditionError):
    """A simplex with zero volume appeared where a full-dimensional one is required."""


class NotStronglyNonDegenerateError(PreconditionError):
    """The vertex set has a degenerate (d+1)-subset; use the weak solver."""


class NotWeaklyNonDegenerateError(PreconditionError):
    """Some (d+2)-subset of the vertex set lies in a hyperplane; no solver applies."""


class IncompleteMomentsError(PreconditionError):
    """A moment table is missing entries required for the requested operation."""

    def __init__(self, message, missing):
        super().__init__(f"{message}: missing {sorted(missing)}")
        self.missing = tuple(sorted(missing))


class DegenerateDirectionError(PreconditionError):
    """An evaluation direction annihilates an edge pairing at some vertex."""

    def __init__(self, vertex):
        super().__init__(f"direction is orthogonal to an edge at vertex {vertex}")
        self.vertex = vertex
