"""Exception hierarchy for the toolkit.

Every failure mode raised by the library is a subclass of ``ToolkitError``,
so callers (the CLI in particular) can report the failing condition by
class name in machine-readable error records.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- grid construction ---

class NonPositiveSpacing(ToolkitError):
    """Grid spacing h must be strictly positive."""


class TruncationTooSmall(ToolkitError):
    """Truncation radius R does not leave room for an exterior ring."""


class EmptyInterior(ToolkitError):
    """Spacing too coarse: no lattice node falls strictly inside the domain."""


class SpacingMismatch(ToolkitError):
    """h does not divide the domain extent within rounding tolerance."""


class NonFiniteSample(ToolkitError):
    """A sampled function returned NaN or infinity at a node."""


class GridMismatch(ToolkitError):
    """Fields or operators built on different grids were combined."""


# --- operator assembly ---

class OrderOutOfRange(ToolkitError):
    """Fractional order s must lie in the open interval (0, 1)."""


class SingularOverlap(ToolkitError):
    """A node or boundary point is off the center-anchored h-lattice, or two overlap."""


class NonPositiveRadius(ToolkitError):
    """Effective truncation radius must be positive."""


class OperatorTooLarge(ToolkitError):
    """The dense operator blocks would not fit in physical memory."""


# --- nonlinearity ---

class NonFiniteValue(ToolkitError):
    """q or its derivative evaluated to NaN or infinity."""


class InvalidRange(ToolkitError):
    """Sampling range is inconsistent with the nonlinearity constants."""


class UnknownModel(ToolkitError):
    """Requested catalogue model name does not exist."""


class NegativeCoefficient(ToolkitError):
    """Coefficient profile a(x) must be nonnegative."""


# --- solvers ---

class SingularSystem(ToolkitError):
    """Linear system factorization failed; signals an assembly bug."""


class NewtonDiverged(ToolkitError):
    """Newton iteration failed to reduce the residual within max_iters."""


class JacobianSingular(ToolkitError):
    """Newton Jacobian not invertible; signals a negative derivative."""


class NonPositiveLambda(ToolkitError):
    """Barrier construction produced a nonpositive kernel-mass bound."""


# --- measurements ---

class WindowTouchesBoundary(ToolkitError):
    """Evaluation point too close to the domain for honest quadrature."""


class RankDeficientProbes(ToolkitError):
    """Probe family is linearly dependent as window vectors."""


class MisfitStagnation(ToolkitError):
    """Recovery made no progress; carries the last iterate."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class BankMismatch(ToolkitError):
    """Cauchy banks were generated from different probing families."""


# --- CLI ---

class ConfigParse(ToolkitError):
    """Experiment configuration could not be parsed."""


class Validation(ToolkitError):
    """Experiment configuration failed validation."""
