"""Forward solvers and the order-principle toolbox.

Solves the linear problem  L u + a(x) u = f  in the domain with u = g
outside, and the semilinear problem  L u + q(x, u) = 0, both with exterior
data prescribed on the truncated ring.  The system matrix is the assembled
interior block plus the nonnegative diagonal (truncation tail and
potential), a symmetric positive-definite M-matrix; solves use a dense
Cholesky factorization, so sign- and order-principle checks are not
confounded by iterative tolerances.  Each system matrix is built as one
Fortran-order copy of the interior block with the diagonal added in place,
and LAPACK factors that copy in place, so a factorization holds one matrix
(and cho_factor's byte-per-entry finiteness mask) beyond the operator.  The
copy is a plain memory copy of the block's transpose, which relies on
assembly making the interior block bitwise symmetric (a test pins that).

Each assembled operator retains two pieces of state here, held through a
weak reference so they die with the operator: the last system factored
through _retained_factor (its diagonal and the Cholesky factor, a_ii.nbytes,
so 126 MB at 2D h=2^-5), and the barrier cutoff eta with its image L eta.
_retained_factor is the one place that decides factor reuse; solve_linear
and the DN assembly in calderon both go through it, so they share the one
factor.  It reuses the factor while the diagonal is bit for bit the same
and frees it before factoring a new one, so at most one factor is held;
build_barrier applies the operator to eta once per operator.  A reused
factor or image is the very array the call would have recomputed, so every
result is unchanged.  The state is not thread-safe: share an operator
between threads only with a lock around these calls.

The barrier construction follows the cutoff recipe: a radial profile equal
to one on the domain and falling smoothly to zero at the truncation sphere.
Because the cutoff attains its maximum on the domain, the assembled
operator applied to it is bounded below by the closed-form tail mass, which
keeps the bound constant strictly positive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    GridMismatch,
    JacobianSingular,
    NewtonDiverged,
    NonPositiveLambda,
    SingularSystem,
    ToolkitError,
    Validation,
)
from .fraclap import NonlocalOperator, apply_operator
from .grid import Field, Grid
from .nonlinearity import Nonlinearity
from .serialize import write_csv


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Data for L u + a u = f with exterior values g.

    a and f are per-interior-node arrays; g is a full nodal field that
    vanishes on interior nodes.  The potential must be nonnegative.
    """

    op: NonlocalOperator
    a: np.ndarray
    f: np.ndarray
    g: Field

    def __post_init__(self):
        ni = self.op.grid.n_interior
        a = np.asarray(self.a, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if a.shape != (ni,) or f.shape != (ni,):
            raise GridMismatch("a and f must have one value per interior node")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))):
            raise Validation("potential a and source f must be finite")
        if not self.g.grid.same_as(self.op.grid):
            raise GridMismatch("exterior data lives on a different grid")
        if np.any(a < 0):
            raise Validation("potential a must be nonnegative")
        if np.any(self.g.interior_values != 0.0):
            raise Validation("exterior data must vanish on interior nodes")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 50
    residual_tol: float = 1e-10
    damping: float = 0.5

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise Validation("residual_tol must be positive")
        if not 0.0 < self.damping < 1.0:
            raise Validation("damping must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class Barrier:
    """Barrier function phi with L phi + a phi >= 1 on interior nodes.

    lam is the kernel-mass lower bound used to scale the cutoff;
    big_c = 1 / lam bounds phi on the domain.
    """

    phi: Field
    lam: float
    big_c: float


@dataclass(frozen=True, eq=False)
class SemilinearSolution:
    u: Field
    residuals: tuple[float, ...]
    iterations: int


@dataclass(eq=False)
class _Retained:
    """What _retained_factor and build_barrier keep for one operator."""

    diagonal: np.ndarray | None = None     # of the last factored system
    factor: tuple | None = None            # its Cholesky factor
    cutoff: tuple[Field, np.ndarray] | None = None     # eta and L eta


_RETAINED: weakref.WeakKeyDictionary[NonlocalOperator, _Retained] = (
    weakref.WeakKeyDictionary())


def _full_field(grid: Grid, interior: np.ndarray, exterior: np.ndarray) -> Field:
    values = np.zeros(grid.n_nodes)
    values[grid.interior_index] = interior
    values[grid.exterior_index] = exterior
    return Field.from_values(grid, values)


def _factor_system(op: NonlocalOperator, diagonal: np.ndarray,
                   error: type[ToolkitError] = SingularSystem):
    """Cholesky factor of the system matrix op.a_ii + diag(diagonal).

    The matrix is one Fortran-order copy of a_ii with the diagonal added in
    place, and LAPACK factors that copy without copying it again; op.a_ii
    is left untouched.  The copy is taken of the transpose, a plain memory
    copy instead of a strided one, which is the same matrix because
    assembly makes a_ii bitwise symmetric.  A failed factorization raises
    error.
    """
    matrix = op.a_ii.T.copy(order="F")
    matrix[np.diag_indices_from(matrix)] += diagonal
    try:
        return scipy.linalg.cho_factor(matrix, overwrite_a=True)
    except scipy.linalg.LinAlgError as err:
        raise error(str(err)) from err


def _retained_factor(op: NonlocalOperator, diagonal: np.ndarray):
    """Factor of op.a_ii + diag(diagonal), kept with the operator.

    Reused while diagonal is bit for bit the one last factored; otherwise
    the old factor is dropped before the new one is computed, so one
    operator holds at most one factor.
    """
    state = _RETAINED.setdefault(op, _Retained())
    if state.diagonal is None or state.diagonal.tobytes() != diagonal.tobytes():
        state.diagonal = state.factor = None       # free the old factor first
        state.factor = _factor_system(op, diagonal)
        state.diagonal = diagonal
    return state.factor


def homogenize(op: NonlocalOperator, g: Field) -> tuple[Field, np.ndarray]:
    """Split exterior data off the unknown.

    Returns (g_tilde, h_source): the zero extension of g and the interior
    source it induces, so that solving with zero exterior data and the
    shifted source reproduces the original solution after adding g_tilde.
    """
    if not g.grid.same_as(op.grid):
        raise GridMismatch("exterior data lives on a different grid")
    if np.any(g.interior_values != 0.0):
        raise Validation("exterior data must vanish on interior nodes")
    h_source = apply_operator(op, g, farfield=0.0)
    return g, h_source


def solve_linear(problem: LinearProblem) -> Field:
    """Solve L u + a u = f with u = g outside; returns the full nodal field.

    The system matrix is symmetric positive definite for a >= 0, so the
    solution exists and is unique.  Its factor is the operator's retained
    one, reused while the potential is bit for bit the same.
    """
    op = problem.op
    factor = _retained_factor(op, op.tail + problem.a)
    rhs = problem.f - op.a_ie @ problem.g.exterior_values
    u_int = scipy.linalg.cho_solve(factor, rhs)
    return _full_field(op.grid, u_int, problem.g.exterior_values)


def solve_semilinear(op: NonlocalOperator, nl: Nonlinearity, g: Field,
                     cfg: NewtonConfig = NewtonConfig()) -> SemilinearSolution:
    """Damped Newton for L u + q(x, u) = 0 with u = g outside.

    Starts from the zero interior iterate; the returned residual trace is
    the sup-norm of the nonlinear residual per iteration, for
    convergence-order checks.
    """
    grid = op.grid
    if not g.grid.same_as(grid):
        raise GridMismatch("exterior data lives on a different grid")
    if np.any(g.interior_values != 0.0):
        raise Validation("exterior data must vanish on interior nodes")
    xi = grid.interior_nodes
    ge = g.exterior_values
    ext_part = op.a_ie @ ge
    u = np.zeros(grid.n_interior)

    def residual(vec):
        return op.a_ii @ vec + ext_part + op.tail * vec + nl.q(xi, vec)

    res = residual(u)
    res_norm = float(np.max(np.abs(res)))
    trace = [res_norm]
    for it in range(cfg.max_iters):
        if res_norm <= cfg.residual_tol:
            return SemilinearSolution(u=_full_field(grid, u, ge),
                                      residuals=tuple(trace), iterations=it)
        dq = nl.dq(xi, u)
        if np.any(dq < 0):
            raise JacobianSingular("q has negative t-derivative on the iterate")
        step = scipy.linalg.cho_solve(
            _factor_system(op, op.tail + dq, JacobianSingular), -res)
        alpha = 1.0
        while True:
            u_new = u + alpha * step
            res_new = residual(u_new)
            new_norm = float(np.max(np.abs(res_new)))
            if new_norm < res_norm:
                break
            alpha *= cfg.damping
            if alpha < 1e-14:
                raise NewtonDiverged(
                    f"no residual reduction at iteration {it}, residual {res_norm:.3e}")
        u, res, res_norm = u_new, res_new, new_norm
        trace.append(res_norm)
    if res_norm <= cfg.residual_tol:
        return SemilinearSolution(u=_full_field(grid, u, ge),
                                  residuals=tuple(trace), iterations=cfg.max_iters)
    raise NewtonDiverged(
        f"residual {res_norm:.3e} above tolerance after {cfg.max_iters} iterations")


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic step: 1 at t <= 0 falling to 0 at t >= 1, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - (10.0 * t**3 - 15.0 * t**4 + 6.0 * t**5)


def _cutoff(op: NonlocalOperator) -> tuple[Field, np.ndarray]:
    """The cutoff eta of op's grid and L eta, computed once per operator."""
    state = _RETAINED.setdefault(op, _Retained())
    if state.cutoff is None:
        grid = op.grid
        center = grid.domain.center
        r_in = float(np.linalg.norm(grid.domain.half_widths))
        if not grid.R > r_in:
            raise NonPositiveLambda("truncation ball does not strictly contain the domain")
        rho = np.linalg.norm(grid.nodes - center, axis=1)
        eta = Field.from_values(grid, _smoothstep((rho - r_in) / (grid.R - r_in)))
        state.cutoff = (eta, apply_operator(op, eta, farfield=0.0))
    return state.cutoff


def build_barrier(op: NonlocalOperator, a: np.ndarray) -> Barrier:
    """Construct the barrier phi = eta / lam from the radial cutoff eta.

    eta equals one on the domain and falls to zero at the truncation
    sphere; lam is the minimum over interior nodes of L eta + a eta.
    """
    grid = op.grid
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n_interior,):
        raise GridMismatch("potential must have one value per interior node")
    if not np.all(np.isfinite(a)):
        raise Validation("potential a must be finite")
    if np.any(a < 0):
        raise Validation("potential a must be nonnegative")
    eta, image = _cutoff(op)
    values = image + a * eta.interior_values
    lam = float(np.min(values))
    if lam <= 0:
        raise NonPositiveLambda(f"cutoff gives lam = {lam}; enlarge R")
    phi = Field.from_values(grid, eta.values / lam)
    return Barrier(phi=phi, lam=lam, big_c=1.0 / lam)


def check_linf_bound(u: Field, f: np.ndarray, g: Field,
                     barrier: Barrier) -> tuple[float, float, bool]:
    """Evaluate the sup-norm estimate |u| <= |g|_inf + C |f|_inf.

    Returns (lhs, rhs, pass) with an 1e-8 slack on the comparison.
    """
    lhs = float(np.max(np.abs(u.interior_values)))
    g_sup = float(np.max(np.abs(g.exterior_values))) if g.grid.n_exterior else 0.0
    f_sup = float(np.max(np.abs(f))) if len(f) else 0.0
    rhs = g_sup + barrier.big_c * f_sup
    return lhs, rhs, lhs <= rhs + 1e-8


def check_comparison(u1: Field, u2: Field, tol: float = 1e-10) -> bool:
    """Componentwise ordering of two solutions on interior nodes."""
    if not u1.grid.same_as(u2.grid):
        raise GridMismatch("solutions live on different grids")
    return bool(np.all(u1.interior_values >= u2.interior_values - tol))


def solution_to_csv(path, u: Field) -> None:
    """CSV export: one row per node, coordinate columns then the value."""
    dim = u.grid.dim
    header = ["x"] if dim == 1 else ["x", "y"]
    header.append("value")
    rows = [tuple(map(float, p)) + (float(v),)
            for p, v in zip(u.grid.nodes, u.values)]
    write_csv(path, header, rows)


def trace_to_csv(path, residuals) -> None:
    write_csv(path, ["iteration", "residual"],
              [(k, float(r)) for k, r in enumerate(residuals)])
