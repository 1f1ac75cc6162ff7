"""Exception hierarchy for the toolkit, and the readers of outside numbers.

The solvers, measurements and CLI raise subclasses of ``ToolkitError``, so
callers (the CLI in particular) can report the failing condition by class
name in machine-readable error records.  The exceptions are ``ValueError``:
``grid.Domain``, ``fraclap.FracParams`` and ``fraclap.cns`` raise it for a
bad kind, bound or dimension, and the operator blocks' products for an
operand of the wrong shape.

A number from outside (a config value or a caller's argument) is read by
_finite_real, and an integer by _finite_integer; each caller raises
Validation, with its own bounds, when they return None.
"""

import math
from numbers import Integral, Real


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- grid construction ---

class NonPositiveSpacing(ToolkitError):
    """Grid spacing h must be strictly positive."""


class NonFiniteGrid(ToolkitError):
    """Grid spacing h or truncation radius R is NaN or infinite."""


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
    """A node or boundary point is off the center-anchored h-lattice, two
    overlap, or the interior nodes do not fill a lattice box."""


class NonPositiveRadius(ToolkitError):
    """Effective truncation radius must be positive."""


# --- nonlinearity ---

class InvalidRange(ToolkitError):
    """Sampling range is inconsistent with the nonlinearity constants."""


class UnknownModel(ToolkitError):
    """Requested catalogue model name does not exist."""


class NegativeCoefficient(ToolkitError):
    """Coefficient profile a(x) must be nonnegative."""


# --- solvers ---

class SingularSystem(ToolkitError):
    """Linear system factorization failed; signals an assembly bug."""


class OperatorTooLarge(ToolkitError):
    """One Cholesky factor of the system matrix would not fit in physical memory."""


class NewtonDiverged(ToolkitError):
    """Newton iteration failed to reduce the residual within max_iters."""


class JacobianSingular(ToolkitError):
    """Newton Jacobian not invertible; signals a negative derivative."""


class StepNotConverged(NewtonDiverged):
    """Preconditioned CG for a Newton step met a non-positive curvature or
    missed its tolerance within the iteration cap."""


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
    """Experiment configuration or an argument failed validation."""


def _finite_real(value) -> float | None:
    """value as a float if it is a real number other than a bool and a float
    holds it finitely, else None (True would run as 1, a string or array
    raises bare in a comparison, and an int past the float range overflows)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _finite_integer(value) -> int | None:
    """value as an int if _finite_real reads it and it is integral, else
    None: 2.0 reads as 2, and 2.5, True and "2" are None."""
    number = _finite_real(value)
    if number is None or not number.is_integer():
        return None
    return int(value) if isinstance(value, Integral) else int(number)
