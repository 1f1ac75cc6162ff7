"""Exception hierarchy for the toolkit, and the one reader of outside numbers and arrays.

The solvers, measurements and CLI raise subclasses of ``ToolkitError``, so
callers (the CLI in particular) can report the failing condition by class
name in machine-readable error records.  ``Validation`` is also a
``ValueError``: ``grid.Domain``, ``fraclap.FracParams`` and ``fraclap.cns``
raise it for a bad kind, bound or dimension.  A bare ``ValueError``
remains only for an operand of the wrong shape in the operator blocks'
products and the solver's factor, a fault of the program.

A number from outside (a config value or a caller's argument) is read by
_number, on _finite_real, and an integer by _number on _finite_integer;
it raises Validation naming the value unless the number is finite and at
least its lower bound.  Outside this module only grid.build_grid calls
the two primitives, to raise its own NonFiniteGrid.  Each strict bound
(a positive tolerance, s in (0, 1)) is one comparison after the read.
An array from outside (a field's values, a potential, a source, a DN
matrix, a Cauchy datum, an eta schedule) is read by _values, with one
pass for finiteness, one for the lower bound, and a copy only to convert
to float64.
"""

import math
from numbers import Integral, Real

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- grid construction ---

class NonPositiveSpacing(ToolkitError):
    """Grid spacing h must be strictly positive."""


class NonFiniteGrid(ToolkitError):
    """Grid spacing h or truncation radius R is not a finite real number."""


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


class Validation(ToolkitError, ValueError):
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


def _number(value, key: str, low: float | None = None, integer: bool = False):
    """value by _finite_real (_finite_integer if integer), >= low, else Validation naming key."""
    number = (_finite_integer if integer else _finite_real)(value)
    if number is None or (low is not None and number < low):
        raise Validation(f"{key} must be {'an integer' if integer else 'a finite number'}"
                         f"{'' if low is None else f' >= {low}'}, got {value!r}")
    return number


def _values(values, key: str, shape: tuple, low: float | None = None, nonfinite=Validation):
    """values as a float64 array of shape (None matches any length), else
    Validation naming key: its entries must be real numbers (no bool,
    complex, string or object entries, no ragged list), finite (else
    nonfinite) and >= low; a wrong length is GridMismatch.  A float64 array
    is returned as is."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as err:
        raise Validation(f"{key} must be an array of real numbers: {err}") from None
    if arr.dtype.kind not in "iuf":
        at = f": {_entry(key, arr, 0)}" if arr.ndim and arr.size and arr.dtype != object else ""
        raise Validation(f"{key} must hold real numbers, got dtype {arr.dtype}{at}")
    if arr.ndim != len(shape):
        raise Validation(f"{key} must be a {len(shape)}-D array, got shape {arr.shape}")
    if any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise GridMismatch(f"{key} must have shape {shape}, got {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not (finite := np.isfinite(arr)).all():
        raise nonfinite(f"{key} has a non-finite entry: {_entry(key, arr, np.argmin(finite))}")
    if low is not None and (arr < low).any():
        raise Validation(f"{key} must be >= {low}, got {_entry(key, arr, np.argmax(arr < low))}")
    return arr


def _entry(key: str, arr: np.ndarray, k) -> str:
    """'key[i, j] = value' for the entry of arr at flat index k."""
    return f"{key}[{', '.join(map(str, np.unravel_index(k, arr.shape)))}] = {arr.flat[k].item()!r}"
