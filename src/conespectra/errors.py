"""Exception types shared across the package."""


class ConeSpectraError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(ConeSpectraError):
    """An adaptive quadrature exhausted its subdivision budget."""


class SingularityOnGrid(ConeSpectraError):
    """A quadrature node coincides with a singular point."""


class DegenerateJet(ConeSpectraError):
    """A series operation requires a nonzero leading derivative."""


class DuplicateBranchPoints(ConeSpectraError):
    pass


class BaseOnBranchPoint(ConeSpectraError):
    pass


class PathTooCloseToBranchPoint(ConeSpectraError):
    pass


class NotABranchPoint(ConeSpectraError):
    pass


class DegenerateZero(ConeSpectraError):
    """The singular differential does not have the expected double zero."""


class DiagonalEvaluation(ConeSpectraError):
    pass


class SingularNormalizationSystem(ConeSpectraError):
    pass


class ConsistencyFailure(ConeSpectraError):
    """Two independent computation routes disagree beyond tolerance."""


class MissingJet(ConeSpectraError):
    pass


class DomainError(ConeSpectraError):
    """An argument lies outside the domain of the function it is given
    to; the CLI reports these as invalid input."""


class InsufficientOrder(DomainError):
    """A series order is too low for the computation asked of it."""


class PoleEvaluation(ConeSpectraError):
    pass


class CoincidentPoles(DomainError):
    pass


class CoincidentArguments(DomainError):
    pass


class ConeArgument(DomainError):
    pass


class FitIllConditioned(ConeSpectraError):
    pass


class StepTooSmall(ConeSpectraError):
    pass
