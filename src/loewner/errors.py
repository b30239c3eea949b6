"""Exception types raised across the package. Each subclass of
LoewnerError is raised by some code of the package, and cli._EXIT_CODES
maps them to the CLI's exit codes."""


class LoewnerError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LoewnerError):
    """Operands have incompatible dimensions."""


class TooLarge(LoewnerError):
    """An input is too large to process: a dimension above the CLI cap, a
    generator whose Gram matrix T^t T overflows, or a matrix the package
    computes (or a spectrum) that does not fit in a double, which raises
    TooLarge with no warning."""


class NonConvergence(LoewnerError):
    """The eigensolver exhausted its sweep budget, linalg._MAX_SWEEPS."""


class NotPSD(LoewnerError):
    """A matrix required to be positive semidefinite is not."""


class Singular(LoewnerError):
    """A matrix required to be invertible is (numerically) singular."""


class DomainError(LoewnerError):
    """A scalar function is undefined at an eigenvalue of its argument."""


class OutOfInterval(LoewnerError):
    """A matrix lies outside the unit interval [0, I]."""

    def __init__(self, message, offending_eigenvalue=None):
        super().__init__(message)
        self.offending_eigenvalue = offending_eigenvalue


class NotAnEffect(LoewnerError):
    """An input expected to lie in [0, I] does not."""


class BadParameter(LoewnerError):
    """A scalar parameter lies outside its admissible range."""


class NotDiagonal(LoewnerError):
    """A matrix required to be diagonal is not."""


class NotAutomorphism(LoewnerError):
    """A claimed order automorphism failed a consistency check."""


class InternalInversionFailure(LoewnerError):
    """A theoretically invertible matrix was numerically intractable."""


class InvalidSpec(LoewnerError):
    """An interval specification is malformed."""


class OutOfDomain(LoewnerError):
    """A matrix lies outside the declared interval domain."""


class IntermediateSingular(LoewnerError):
    """A chain step required inverting a singular intermediate value."""


class NotIsomorphic(LoewnerError):
    """Two intervals belong to different canonical classes."""

    def __init__(self, class_a, class_b, message=None):
        self.class_a = class_a
        self.class_b = class_b
        super().__init__(message or f"intervals are not order isomorphic: "
                                    f"{class_a.value} vs {class_b.value}")
