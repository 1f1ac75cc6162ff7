"""Forward solvers and the order-principle toolbox.

Solves the linear problem  L u + a(x) u = f  in the domain with u = g
outside, and the semilinear problem  L u + q(x, u) = 0, both with exterior
data prescribed on the truncated ring.  This module is the only one that
knows the system matrix, a_ii + diag(tail + potential): a symmetric
positive-definite M-matrix, solved by a dense Cholesky factorization so
sign- and order-principle checks are not confounded by iterative
tolerances.  The factor is the only array that grows like ni^2: the
operator stores its blocks as lattice convolutions, and each system matrix
is its lower triangle in LAPACK's rectangular full packed layout,
ni (ni + 1) / 2 floats filled from the interior block's kernel (bit for
bit the dense entries) with the diagonal added, which dpftrf factors in
place with level-3 BLAS and dpftrs solves against.  Every LAPACK call of
the package goes through _lapack(): scipy's f2py wrappers, the extension
module scipy.linalg._flapack, loaded on first use without the scipy.linalg
package and its array-API layer.  _factor_system, the one place a factor
is allocated, raises OperatorTooLarge before allocating one that would not
fit in physical memory, so any operator can be assembled and applied.
LAPACK is called without finiteness scans of the matrix; the diagonal and
each right-hand side, the only places a non-finite value can enter, are
checked instead and raise SingularSystem.

Each assembled operator retains two pieces of state here, held through a
weak reference so they die with the operator: the last system factored
through _solve_system (its diagonal and the packed Cholesky factor,
ni (ni + 1) / 2 float64, so 63 MB at 2D h=2^-5), and the barrier cutoff
eta with its image L eta.  _solve_system is the one call for a solve at a
potential; solve_linear and the DN assembly in calderon both go through
it, so they share the one factor.  It reuses the factor while the diagonal
is bit for bit the same and frees it before factoring a new one, so at
most one factor is held.  Newton factors nothing unless a step is stiff.
Each Jacobian is J = J0 + diag(dq) with dq >= 0 and J0 = a_ii + diag(tail)
the system at potential zero, and a step whose dq is small against J0's
row sums is conjugate gradients preconditioned by the optimal tau matrix
of J, inverted by sine transforms (numpy.fft) over the interior box, so a
Newton solve holds no ni^2 array; a stiffer step solves against the
retained factor of its own Jacobian.  build_barrier applies the operator
to eta once per operator.  A reused factor or image is the very array the call
would have recomputed, so every result is unchanged.  The state is not
thread-safe: share an operator between threads only with a lock around
these calls.

The barrier construction follows the cutoff recipe: a radial profile equal
to one on the domain and falling smoothly to zero at the truncation sphere.
Because the cutoff attains its maximum on the domain, the assembled
operator applied to it is bounded below by the closed-form tail mass, which
keeps the bound constant strictly positive.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    JacobianSingular,
    NewtonDiverged,
    NonPositiveLambda,
    OperatorTooLarge,
    SingularSystem,
    StepNotConverged,
    Validation,
    _number,
    _values,
)
from .fraclap import NonlocalOperator, _dst, apply_operator
from .grid import _AXES, Field, Grid
from .nonlinearity import Nonlinearity
from .serialize import write_csv


def _checked_potential(op: NonlocalOperator, a) -> np.ndarray:
    """a read as every solve at a potential reads it: errors._values, one
    value per interior node of op, >= 0."""
    return _values(a, "potential a", (op.grid.n_interior,), 0)


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Data for L u + a u = f with exterior values g.

    a and f are per-interior-node arrays, read by errors._values; g is a
    full nodal field that vanishes on interior nodes.  The potential must
    be nonnegative.
    """

    op: NonlocalOperator
    a: np.ndarray
    f: np.ndarray
    g: Field

    def __post_init__(self):
        object.__setattr__(self, "a", _checked_potential(self.op, self.a))
        object.__setattr__(self, "f", _values(self.f, "source f per interior node", self.a.shape))
        if not self.g.grid.same_as(self.op.grid):
            raise GridMismatch("exterior data lives on a different grid")
        if np.any(self.g.interior_values != 0.0):
            raise Validation("exterior data must vanish on interior nodes")


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 50
    residual_tol: float = 1e-10
    damping: float = 0.5

    def __post_init__(self):
        # True would run as 1 iteration, and 2.5 fail inside Newton
        iters = _number(self.max_iters, "max_iters", 0, integer=True)
        object.__setattr__(self, "max_iters", iters)
        # an infinite tolerance accepts the zero interior after 0 iterations
        if not _number(self.residual_tol, "residual_tol") > 0:
            raise Validation(f"residual_tol must be positive, got {self.residual_tol!r}")
        if not 0.0 < _number(self.damping, "damping") < 1.0:
            raise Validation(f"damping must lie in (0, 1), got {self.damping!r}")


@dataclass(frozen=True, eq=False)
class Barrier:
    """Barrier function phi with L phi + a phi >= 1 on interior nodes.

    lam is the kernel-mass lower bound used to scale the cutoff;
    big_c = 1 / lam bounds phi on the domain.
    """

    phi: Field
    lam: float

    @property
    def big_c(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True, eq=False)
class SemilinearSolution:
    """Newton's solution, the sup-norm residual per iterate and, per Newton
    step, the CG iterations its linear step took."""

    u: Field
    residuals: tuple[float, ...]
    cg_iterations: tuple[int, ...]

    @property
    def iterations(self) -> int:
        """Newton steps taken, one per residual after the first."""
        return len(self.residuals) - 1


@dataclass(eq=False)
class _Retained:
    """What _solve_system and build_barrier keep for one operator."""

    diagonal: np.ndarray | None = None     # of the last factored system
    factor: np.ndarray | None = None       # its packed Cholesky factor, ni (ni + 1) / 2
    cutoff: tuple[Field, np.ndarray] | None = None     # eta and L eta


_RETAINED: weakref.WeakKeyDictionary[NonlocalOperator, _Retained] = (
    weakref.WeakKeyDictionary())


def _full_field(grid: Grid, interior: np.ndarray, exterior: np.ndarray) -> Field:
    values = np.zeros(grid.n_nodes)
    values[grid.interior_index] = interior
    values[grid.exterior_index] = exterior
    return Field.from_values(grid, values)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's LAPACK wrappers, the extension module scipy.linalg._flapack.

    Importing the scipy.linalg package costs about 0.25 s and 25 MiB, most
    of it scipy's array-API layer, while the package calls five wrappers
    of this one module (dpftrf, dpftrs, dgesv, dgesdd and dgesdd_lwork).  So on first use
    this imports the top-level scipy package alone, loads the module from
    its file and registers it in sys.modules under its own name; a later
    import of scipy.linalg reuses that module object, and when scipy.linalg
    came first, its module is the one returned.  ImportError names the
    directory searched when the module is not there.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        where = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, [where])
        if spec is None:
            raise ImportError(f"no {_FLAPACK} in {where}", name=_FLAPACK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module


def _factor_system(op: NonlocalOperator, diagonal: np.ndarray) -> np.ndarray:
    """Cholesky factor of the system matrix op.a_ii + diag(diagonal), in
    rectangular full packed storage (TRANSR='N', UPLO='L').

    The lower triangle is one flat array of ni (ni + 1) / 2 floats, filled
    from the interior block and the diagonal in one pass, which LAPACK
    factors in place.  Only diagonal can carry a non-finite value into the
    matrix, so it is checked instead of scanning the whole matrix; a
    non-finite diagonal or a failed factorization raises SingularSystem.  A
    factor that would not fit in physical memory (2D h=2^-6 needs 1.04 GB,
    h=2^-7 15.8 GiB) raises OperatorTooLarge before anything is allocated.
    """
    if not np.isfinite(diagonal).all():
        raise SingularSystem("the system matrix has a non-finite diagonal entry")
    ni = op.a_ii.shape[0]
    need, have = ni * (ni + 1) // 2 * 8, _physical_memory()
    if need > have:
        raise OperatorTooLarge(
            f"one packed factor of the system matrix, ni (ni + 1) / 2 floats, "
            f"needs {need / 2**30:.1f} GiB, physical memory is {have / 2**30:.1f} GiB")
    packed = np.empty(ni * (ni + 1) // 2)
    op.a_ii.fill(packed, diagonal)
    factor, info = _lapack().dpftrf(ni, packed, transr="N", uplo="L", overwrite_a=True)
    if info > 0:
        raise SingularSystem(
            f"the leading minor of order {info} is not positive definite")
    return factor


def _solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against a factor of _factor_system for one right-hand side or
    its columns; the factor is finite by construction, so only the
    right-hand side is checked, raising SingularSystem."""
    if not np.isfinite(rhs).all():
        raise SingularSystem("the right-hand side has a non-finite entry")
    ni = rhs.shape[0]
    if factor.shape != (ni * (ni + 1) // 2,):
        raise ValueError(f"the factor does not have order {ni}")
    x, _ = _lapack().dpftrs(ni, factor, rhs.reshape(ni, -1), transr="N", uplo="L")
    return x.reshape(rhs.shape)


def _solve_system(op: NonlocalOperator, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (op.a_ii + diag(op.tail + a)) x = rhs, for one right-hand side
    or its columns, against the factor kept with the operator.

    The factor is reused while the diagonal is bit for bit the one last
    factored; otherwise the old factor is dropped before the new one is
    computed, so one operator holds at most one factor.
    """
    diagonal = op.tail + a
    state = _RETAINED.setdefault(op, _Retained())
    if state.diagonal is None or state.diagonal.tobytes() != diagonal.tobytes():
        state.diagonal = state.factor = None       # free the old factor first
        state.factor = _factor_system(op, diagonal)
        state.diagonal = diagonal
    return _solve(state.factor, rhs)


def solve_linear(problem: LinearProblem) -> Field:
    """Solve L u + a u = f with u = g outside; returns the full nodal field.

    The system matrix is symmetric positive definite for a >= 0, so the
    solution exists and is unique.  Its factor is the operator's retained
    one, reused while the potential is bit for bit the same.
    """
    op = problem.op
    rhs = problem.f - op.a_ie @ problem.g.exterior_values
    u_int = _solve_system(op, problem.a, rhs)
    return _full_field(op.grid, u_int, problem.g.exterior_values)


# Newton's linear step: CG stops once ||r||_2 <= _CG_RTOL ||b||_2, and
# raises StepNotConverged after _CG_MAX_ITERS iterations.  It runs only
# while max dq is at most (_CG_MAX_KAPPA - 1) times the row-sum bound
# lam0 <= lambda_min(J0), a bound on cond(J0^-1 J) (see _newton_step)
_CG_RTOL = 1e-13
_CG_MAX_ITERS = 500
_CG_MAX_KAPPA = 4.0


def _newton_step(op: NonlocalOperator, dq: np.ndarray, rhs: np.ndarray,
                 tau: np.ndarray) -> tuple[np.ndarray, int]:
    """x with J x = rhs, J = a_ii + diag(tail + dq), and the CG iterations it
    took, 0 for a direct solve.

    J0 = a_ii + diag(tail) is an M-matrix, so its smallest eigenvalue is at
    least its smallest row sum, lam0 = min(tail - rowsum(a_ie)) (Gershgorin).
    While max dq <= (_CG_MAX_KAPPA - 1) lam0 the step is conjugate
    gradients preconditioned by P = Q diag(lambda) Q, the optimal tau matrix
    of J (Bini and Di Benedetto), with Q the orthonormal multilevel DST-I
    over the interior box: lambda = diag(Q J Q) is tau
    (op.a_ii.tau_eigenvalues(), the off-diagonal part) plus the projection
    of diag(J) by the squared sines (op.a_ii.tau_diagonal), and P^-1 =
    Q diag(1 / lambda) Q is two DST-I passes by numpy.fft per iteration.
    Q is orthogonal, so each lambda_j = q_j^T J q_j lies in
    [lambda_min(J), lambda_max(J)] and P is positive definite.  J is block
    Toeplitz with Toeplitz blocks plus a diagonal, and its tau matrix keeps
    the count nearly flat: at s = 1/2, 9 to 14 per step in 2D from h = 2^-3
    to 2^-7 (T. Chan's optimal circulant took 17 to 33), and 9 or 10 at
    s = 0.9 (the circulant up to 64).  Any other step is solved against a
    Cholesky factor of J, kept with the operator.

    The switch bounds the condition number of J0^-1 J, whose quotients
    x^T J x / x^T J0 x lie in [1, 1 + max dq / lam0]: that bound set the
    count of CG preconditioned by J0's factor, as Newton's was until the
    tau matrix replaced it (by way of T. Chan's circulant).  Under tau the
    count follows the variation of dq, not its size: forced past the switch
    at 2D h = 2^-5 and 1D h = 2^-8, s from 1/4 to 0.9, a constant dq of
    4 lam0 or 1e5 takes 3 to 10 iterations, a Gaussian bump of height 1e3
    takes 36 to 314, and one of height 1e5 mostly misses 500.
    """
    lam0 = np.min(op.tail - op.a_ie.row_sums)
    if np.max(dq) > (_CG_MAX_KAPPA - 1.0) * lam0:
        return _solve_system(op, dq, rhs), 0
    box = op.a_ii.box
    shift = op.tail + dq
    inverse = 1.0 / (tau + op.a_ii.tau_diagonal(op.a_ii.diagonal + shift))

    def precondition(r):
        return _dst(_dst(r.reshape(box)) * inverse).ravel()

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precondition(r)
    p, rz = z, r @ z
    stop = _CG_RTOL * np.linalg.norm(rhs)
    for k in range(1, _CG_MAX_ITERS + 1):
        jp = op.a_ii @ p + shift * p
        curvature = p @ jp
        if not curvature > 0:
            raise StepNotConverged(
                f"CG met curvature {curvature:.3e} at iteration {k}")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * jp
        if np.linalg.norm(r) <= stop:
            return x, k
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise StepNotConverged(
        f"CG missed relative residual {_CG_RTOL:g} in {_CG_MAX_ITERS} iterations")


def solve_semilinear(op: NonlocalOperator, nl: Nonlinearity, g: Field,
                     cfg: NewtonConfig = NewtonConfig()) -> SemilinearSolution:
    """Damped Newton for L u + q(x, u) = 0 with u = g outside.

    Starts from the zero interior iterate; the returned residual trace is
    the sup-norm of the nonlinear residual per iteration, for
    convergence-order checks.  A negative or non-finite dq on an iterate
    raises JacobianSingular.  A linear step whose Jacobian J = J0 + diag(dq)
    has max dq at most 3 times the least row sum of J0 = a_ii + diag(tail)
    (see _newton_step for what that bounds) is CG preconditioned by the optimal tau
    matrix of J, whose eigenvalues lie within J's spectrum; their
    off-diagonal part is computed once per call, so such a solve factors
    nothing (at s = 1/2, 10-12 iterations per step in 1D at h =
    2^-6..2^-8, 9-14 in 2D at h = 2^-3..2^-7, and no more at s = 1/4, 3/4
    and 0.9); a stiffer step (a large potential, or s near 1, where the
    row-sum bound is loose) is a direct Cholesky solve of J, and
    cg_iterations records 0 for it.  CG's forcing term is fixed: it stops
    at ||r||_2 <= 1e-13 ||b||_2, so the step's relative error is at most
    cond(J) 1e-13, the bound of a direct solve with 1e-13 in place of the
    unit roundoff.
    After 500 iterations, or on a curvature p^T J p <= 0, it raises
    StepNotConverged, a NewtonDiverged.  An nl that is not a Nonlinearity
    is Validation.
    """
    if not isinstance(nl, Nonlinearity):
        raise Validation(f"nl must be a Nonlinearity, got {type(nl).__name__}")
    grid = op.grid
    if not g.grid.same_as(grid):
        raise GridMismatch("exterior data lives on a different grid")
    if np.any(g.interior_values != 0.0):
        raise Validation("exterior data must vanish on interior nodes")
    xi = grid.interior_nodes
    ge = g.exterior_values
    ext_part = op.a_ie @ ge
    u = np.zeros(grid.n_interior)
    tau = op.a_ii.tau_eigenvalues()

    def residual(vec):
        return op.a_ii @ vec + ext_part + op.tail * vec + nl.q(xi, vec)

    def solution():
        return SemilinearSolution(u=_full_field(grid, u, ge),
                                  residuals=tuple(trace), cg_iterations=tuple(cg))

    res = residual(u)
    res_norm = float(np.max(np.abs(res)))
    trace, cg = [res_norm], []
    for it in range(cfg.max_iters):
        if res_norm <= cfg.residual_tol:
            return solution()
        dq = nl.dq(xi, u)
        if np.any(dq < 0):
            raise JacobianSingular("q has negative t-derivative on the iterate")
        if not (np.isfinite(dq).all() and np.isfinite(res).all()):
            raise JacobianSingular("the Newton system has a non-finite entry")
        step, k = _newton_step(op, dq, -res, tau)
        cg.append(k)
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
        return solution()
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
    a = _checked_potential(op, a)
    eta, image = _cutoff(op)
    values = image + a * eta.interior_values
    lam = float(np.min(values))
    if lam <= 0:
        raise NonPositiveLambda(f"cutoff gives lam = {lam}; enlarge R")
    phi = Field.from_values(grid, eta.values / lam)
    return Barrier(phi=phi, lam=lam)


def check_linf_bound(u: Field, f: np.ndarray, g: Field,
                     barrier: Barrier) -> tuple[float, float, bool]:
    """Evaluate the sup-norm estimate |u| <= |g|_inf + C |f|_inf.

    Returns (lhs, rhs, pass) with an 1e-8 slack on the comparison.  g and
    the barrier must live on u's grid (GridMismatch), and f is read by
    errors._values, one value per interior node.
    """
    grid = u.grid
    if not (g.grid.same_as(grid) and barrier.phi.grid.same_as(grid)):
        raise GridMismatch("exterior data or barrier lives on a different grid")
    f = _values(f, "source f per interior node", (grid.n_interior,))
    lhs = float(np.max(np.abs(u.interior_values)))
    g_sup = float(np.max(np.abs(g.exterior_values))) if g.grid.n_exterior else 0.0
    f_sup = float(np.max(np.abs(f))) if len(f) else 0.0
    rhs = g_sup + barrier.big_c * f_sup
    return lhs, rhs, lhs <= rhs + 1e-8


def check_comparison(u1: Field, u2: Field, tol: float = 1e-10) -> bool:
    """Componentwise ordering of two solutions on interior nodes, up to a
    finite tol >= 0 (Validation)."""
    tol = _number(tol, "tol", 0)
    if not u1.grid.same_as(u2.grid):
        raise GridMismatch("solutions live on different grids")
    return bool(np.all(u1.interior_values >= u2.interior_values - tol))


_CSV_BLOCK = 1024  # nodes per block of solution_to_csv rows


def solution_to_csv(path, u: Field) -> None:
    """CSV export: one row per node, coordinate columns then the value."""
    grid = u.grid
    header = [*_AXES[:grid.dim], "value"]

    def rows():
        # blocks of nodes, so no per-node list is as long as the grid
        for start in range(0, grid.n_nodes, _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            yield from np.column_stack((grid.nodes[start:stop],
                                        u.values[start:stop])).tolist()

    write_csv(path, header, rows())


def trace_to_csv(path, residuals) -> None:
    write_csv(path, ["iteration", "residual"],
              [(k, float(r)) for k, r in enumerate(residuals)])
