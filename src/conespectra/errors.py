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


class InsufficientOrder(ConeSpectraError):
    pass


class ConsistencyFailure(ConeSpectraError):
    """Two independent computation routes disagree beyond tolerance."""


class MissingJet(ConeSpectraError):
    pass


class DomainError(ConeSpectraError):
    pass


class PoleEvaluation(ConeSpectraError):
    pass


class CoincidentPoles(ConeSpectraError):
    pass


class CoincidentArguments(ConeSpectraError):
    pass


class ConeArgument(ConeSpectraError):
    pass


class FitIllConditioned(ConeSpectraError):
    pass


class StepTooSmall(ConeSpectraError):
    pass


class GridTooCoarse(ConeSpectraError):
    pass
