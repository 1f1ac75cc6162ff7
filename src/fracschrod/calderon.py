"""Linearization of the solution map, DN matrices, and potential recovery.

The solution map g -> u_g of the semilinear problem is differentiated at a
reference exterior datum: the difference quotients (u_{g+eta*h} - u_g)/eta
converge, as eta -> 0, to the solution of the linear problem with potential
dq(x, u_g) and exterior data h.  The convergence study measures that error
in a weighted l2 norm (scaled by h^(n/2)) and the sup norm.

Linearized responses on a window assemble into a discrete DN matrix: one
column per probing exterior datum, each evaluated through the exterior
operator identity N v - m v + L(E0 probe).  Recovery inverts the map from
the interior potential to the DN matrix by regularized nonlinear least
squares with a nonnegativity bound; on synthetic data this is an inverse
crime by construction and is labeled as such in outputs.

The strong-uniqueness probe quantifies the rigidity that powers the
uniqueness argument: the map from nodal vectors (vanishing beyond the
truncation ball) to their window trace stacked with their window operator
values has no kernel exactly when a function cannot hide from the window;
its smallest singular value is the quantitative surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BankMismatch,
    GridMismatch,
    InvalidRange,
    MisfitStagnation,
    NewtonDiverged,
    RankDeficientProbes,
    SingularSystem,
    Validation,
    _number,
    _values,
)
from .cauchy import CauchyDatum, mass_m
from .fraclap import NonlocalOperator, _blocks, _Stencil
from .grid import Field, Grid, Window
from .nonlinearity import Nonlinearity
from .solver import (LinearProblem, NewtonConfig, _checked_potential, _lapack,
                     _solve_system, solve_linear, solve_semilinear)


def solve_linearized(op: NonlocalOperator, dq_at_ug: np.ndarray,
                     h: Field) -> Field:
    """Solve the linearized problem: potential dq(x, u_g), source 0, data h."""
    return solve_linear(LinearProblem(op=op, a=dq_at_ug, f=np.zeros(op.grid.n_interior), g=h))


@dataclass(frozen=True, eq=False)
class LinearizationStudy:
    """Difference-quotient errors along a decreasing eta schedule."""

    g: Field
    h: Field
    etas: tuple[float, ...]
    errors_l2: tuple[float, ...]
    errors_sup: tuple[float, ...]
    converged: tuple[bool, ...]
    norms: tuple[str, str] = ("l2-weighted", "sup")


# the study's Newton settings unless the caller gives its own: the
# difference quotients divide the solves' error by eta
LINEARIZATION_NEWTON = NewtonConfig(residual_tol=1e-12)


def linearization_study(op: NonlocalOperator, nl: Nonlinearity, g: Field,
                        h: Field, eta_schedule,
                        cfg: NewtonConfig = LINEARIZATION_NEWTON
                        ) -> LinearizationStudy:
    """Measure convergence of the difference quotient to the linearization.

    For each eta, solves the semilinear problem at data g + eta h, forms
    w = (u_{g+eta h} - u_g)/eta, and records the distance to the linearized
    solution in both norms.  A diverging solve is recorded, not fatal.  The
    schedule is read by errors._values as a 1-D array.
    """
    etas = _values(eta_schedule, "eta_schedule", (None,)).tolist()
    if len(etas) < 2 or not all(x > y > 0 for x, y in zip(etas, etas[1:])):
        raise InvalidRange("eta schedule must be strictly decreasing and positive")

    grid = op.grid
    if not h.grid.same_as(grid):
        raise GridMismatch("direction h lives on a different grid")
    base = solve_semilinear(op, nl, g, cfg)
    # the Newton solves' CG steps factor nothing; the linearized system at
    # dq(u_g) is the one factor
    u_star = solve_linearized(op, nl.dq(grid.interior_nodes, base.u.interior_values), h)
    scale = grid.h ** (grid.dim / 2.0)

    errors_l2, errors_sup, converged = [], [], []
    for eta in etas:
        data = Field.from_values(grid, g.values + eta * h.values)
        try:
            u = solve_semilinear(op, nl, data, cfg).u
        except NewtonDiverged:
            errors_l2.append(float("nan"))
            errors_sup.append(float("nan"))
            converged.append(False)
            continue
        w = (u.values - base.u.values) / eta
        diff = w - u_star.values
        errors_l2.append(float(scale * np.sqrt(np.sum(diff**2))))
        errors_sup.append(float(np.max(np.abs(diff))))
        converged.append(True)
    return LinearizationStudy(g=g, h=h, etas=tuple(etas),
                              errors_l2=tuple(errors_l2),
                              errors_sup=tuple(errors_sup),
                              converged=tuple(converged))


@dataclass(frozen=True, eq=False)
class DnMatrix:
    """Window responses of the linearized problem, one column per probe.

    A probe is the unit exterior datum at a window node; probes holds those
    nodes, an int array in column order (dn_map's default: every window
    node, ascending).  Any other probe family is a combination of these
    columns, so it carries no more information.  The matrix is read by
    errors._values, one row per window node and one column per probe."""

    window: Window
    probes: np.ndarray
    probe_ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _values(
            self.matrix, "response matrix", (self.window.size, len(self.probes))))


def _probe_rows(window: Window, probes) -> np.ndarray:
    """The window row of each probe node.  A node the window lacks, or one
    given twice, would be a zero or repeated unit column: RankDeficientProbes;
    anything but a nonempty 1-D integer array is Validation."""
    nodes = np.asarray(probes)
    if nodes.ndim != 1 or nodes.size == 0 or not np.issubdtype(nodes.dtype, np.integer):
        raise Validation(f"probes must be a nonempty 1-D array of window node indices, "
                         f"got {nodes.dtype} of shape {nodes.shape}")
    rows = np.minimum(np.searchsorted(window.indices, nodes), window.size - 1)
    if np.any(window.indices[rows] != nodes) or np.bincount(rows).max() > 1:
        raise RankDeficientProbes("probe nodes must be distinct nodes of the window")
    return rows


class _DnAssembler:
    """Shared machinery for DN matrices and their potential derivatives.

    Every solve is one solver._solve_system call at the potential, which
    owns the system matrix and the operator's retained factor (shared with
    solve_linear), so the DN matrix and its Jacobian at one potential share
    one factor and the operator holds at most one factor.  Each evaluation
    of recover_potential is one gauss_newton call, the cost, gradient and
    Gauss-Newton matrix from the Khatri-Rao structure of the Jacobian;
    curvature gives the second derivative its geodesic acceleration needs,
    seen through J^T.  Neither forms J.
    A probe is the unit datum at a window node (nodes, default: every window
    node), checked before any set-up.  Set-up forms no array over all N
    nodes against all p probes: the window rows are formed one batch at a
    time, each giving the Neumann kernel, its interior columns negated, and
    the zero-extension term at the probe columns.
    """

    def __init__(self, op: NonlocalOperator, window: Window, nodes=None):
        grid = op.grid
        if not window.grid.same_as(grid):
            raise GridMismatch("window grid differs from operator grid")
        nodes = window.indices if nodes is None else nodes
        at = _probe_rows(window, nodes)
        self.op = op
        self.window = window
        self.nodes = np.array(nodes, dtype=int)
        mass = mass_m(grid, op.params, window.indices)[at]

        stencil = _Stencil(grid, op.params)
        # exact columns of -a_ie: the unit probes' right-hand sides
        self.rhs = stencil.rows(grid.interior_index, self.nodes)[0]
        # constant-in-potential part of each column: the Neumann kernel's
        # mass, the kernel mass m and the zero-extension term, by the
        # operator rows at window nodes; a probe's column is -w_gj off its
        # own row and (-sum N_g - m_g) + (sum_j w_gj + tail_g - w_gg) on it.
        # No correction reaches an interior column from a window node, at
        # least h from the domain (mass_m)
        self.neumann_lin = np.empty((window.size, grid.n_interior))
        self.const = np.empty((window.size, self.nodes.size))
        total = np.empty(window.size)       # sum_j w_gj + tail_g per window row
        for sl in _blocks(window.size, grid.n_nodes):
            rows, tails = stencil.rows(window.indices[sl])
            np.negative(rows[:, grid.interior_index], out=self.neumann_lin[sl])
            np.negative(rows[:, self.nodes], out=self.const[sl])
            total[sl] = rows.sum(axis=1) + tails
        own = (at, np.arange(at.size))
        self.const[own] = (-self.neumann_lin[at].sum(axis=1) - mass) + (total[at] + self.const[own])

    def matrix(self, a: np.ndarray) -> np.ndarray:
        return self.const + self.neumann_lin @ _solve_system(self.op, a, self.rhs)

    def gauss_newton(self, a: np.ndarray, target: np.ndarray, lam: float
                     ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Cost, gradient and Gauss-Newton matrix of the recovery problem,
        and the solutions sols at a that curvature takes.

        With res = matrix(a) - target, the cost is
        (||res||_F^2 + lam ||a||^2) / 2.  Column j of the Jacobian J of
        vec(res) (probe columns one after another) is
        -vec(outer(green[j], sols[j])), with sols = S^-1 rhs (ni x p) and
        green = S^-1 N^T (ni x k) from two solves on one factor, so by the
        Khatri-Rao identity (Kolda and Bader, SIAM Rev. 51, 2009)
        J^T vec(res) = -rowsum(sols * (green res)) and
        J^T J = (sols sols^T) * (green green^T), at O(ni^2 (k + p)) time and
        ni^2 memory; J itself, with its k p rows, is never formed.  The
        Tikhonov term adds lam a to the gradient and lam I to the matrix.
        """
        sols = _solve_system(self.op, a, self.rhs)
        green = _solve_system(self.op, a, self.neumann_lin.T)
        res = self.neumann_lin @ sols
        res += self.const
        res -= target
        cost = 0.5 * (float(np.vdot(res, res)) + lam * float(a @ a))
        grad = -(sols * (green @ res)).sum(axis=1) + lam * a
        gram = (sols @ sols.T) * (green @ green.T)
        gram.flat[:: len(a) + 1] += lam
        return cost, grad, gram, sols

    def curvature(self, a: np.ndarray, v: np.ndarray, sols: np.ndarray) -> np.ndarray:
        """J^T D^2 r[v, v]: the residual's second derivative along v, seen
        through the Jacobian, without forming J.

        With S = a_ii + diag(tail + a) and sols = S^-1 rhs, the DN matrix is
        const + N sols, so its second derivative along v is
        2 N S^-1 V S^-1 V sols (V = diag(v)), and J^T W is
        -rowsum(sols * S^-1 N^T W) for J's columns
        -vec(outer(green[j], sols[j])), green = S^-1 N^T.  sols is the one
        gauss_newton returned at a; three more solves on the factor at a.
        The Tikhonov residual sqrt(lam) a is linear and adds nothing.
        """
        w = _solve_system(self.op, a, v[:, None] * sols)
        w = _solve_system(self.op, a, v[:, None] * w)
        y = _solve_system(self.op, a, self.neumann_lin.T @ (2.0 * (self.neumann_lin @ w)))
        return -np.einsum("jp,jp->j", sols, y)


def dn_map(op: NonlocalOperator, a: np.ndarray, window: Window,
           probes=None) -> DnMatrix:
    """Assemble the linearized DN matrix for a nonnegative potential.

    Column k holds the operator values of the linearized solution driven by
    the unit datum at probe node k (default: every window node, ascending),
    evaluated on the window through the exterior identity.  The potential
    and the probe nodes are checked before any set-up.
    """
    a = _checked_potential(op, a)
    asm = _DnAssembler(op, window, probes)
    return DnMatrix(window=window, probes=asm.nodes,
                    probe_ids=tuple(f"node-{i}" for i in asm.nodes),
                    matrix=asm.matrix(a))


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    a_estimate: np.ndarray
    fitted: DnMatrix        # the DN matrix at a_estimate
    misfit: float
    objective: float
    n_evaluations: int      # gauss_newton calls, the one at a = 0 included
    iterations: int         # accepted steps
    damping: float          # the final mu
    stop: str               # "gradient", "cost", "step", "damping" or "cap"
    gradient_norm: float    # projected-gradient sup norm at the estimate


# The bounded Levenberg-Marquardt iteration of recover_potential: the damping
# mu starts at _MU_START and never falls below _MU_FLOOR.  It stops on a
# projected gradient of exactly zero ("gradient"), an accepted step that
# lowers the cost by at most _FTOL of it ("cost") or moves the potential by
# at most _XTOL of its norm ("step"), mu above _MU_STOP ("damping"), or the
# evaluation cap ("cap").  The gradient gets no positive tolerance: on
# configs/recover.json it falls to 2e-11 of its start while the estimate is
# still 7e-3 off the truth, which 25 more evaluations bring within 1e-7, so
# a tolerance would stop the iteration far from it.  A geodesic acceleration
# is kept while twice its length is at most _ACCEL of the step's (Transtrum
# and Sethna's bound)
_MU_START, _MU_FLOOR, _MU_STOP = 1e-3, 1e-15, 1e16
_FTOL = _XTOL = 1e-15
_ACCEL = 0.75


def _damped_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve of a damped step by the LAPACK of the factor: a second
    OpenBLAS, numpy's, contends with its threads, and at 1D h=2^-6
    (ni = 127) numpy.linalg.solve took 6.9 ms a call against 0.22 ms."""
    x, info = _lapack().dgesv(system, rhs)[2:]
    if info != 0:
        raise SingularSystem(
            f"the damped recovery step could not be solved (dgesv info {info})")
    return x


def recover_potential(reference_op: NonlocalOperator, measurements: DnMatrix,
                      lambda_reg: float, *,
                      max_evaluations: int = 500) -> RecoveryResult:
    """Regularized least-squares recovery of the potential from a DN matrix.

    Minimizes the squared Frobenius misfit plus lambda_reg ||a||^2 over
    a >= 0, with the analytic potential-derivative of the forward map, by a
    bounded Levenberg-Marquardt iteration from a = 0 (an iteratively
    regularized Gauss-Newton method: J^T J only ever appears damped).  Each
    evaluation is one _DnAssembler.gauss_newton call, the cost, gradient
    J^T r and Gauss-Newton matrix J^T J (the Tikhonov term included) in
    ni and ni^2 floats, whatever the number of probes.

    A step holds at zero the nodes at the bound whose gradient, or whose
    damped step, points outward, solves (J_f^T J_f + mu diag(J_f^T J_f)) v
    = -g_f on the others (Marquardt's scaling), adds half the geodesic
    acceleration (the damped solve of -J^T D^2 r[v, v], from
    _DnAssembler.curvature; Transtrum and Sethna 2012) while it is short
    against v, and projects onto a >= 0.  The gain ratio of the cost's
    decrease to the Gauss-Newton model's for v accepts or rejects it, and
    mu follows Nielsen's update.  Along the narrow curved valleys of this
    problem the acceleration is what lets the steps lengthen: without it
    the configs/recover.json truth is still about 1e-3 away after 500
    evaluations.  The result carries the DN matrix at the estimate, the
    accepted steps, final damping, stop reason and projected-gradient sup
    norm, the matrix from the accepted evaluation's solutions.  A start
    a = 0 that meets the bound-constrained optimality conditions (every
    gradient entry >= 0) returns at once with stop "gradient"; otherwise
    MisfitStagnation (carrying the last iterate) is raised when no step
    lowered the cost, and SingularSystem when a damped step cannot be solved.
    """
    lam = _number(lambda_reg, "lambda_reg", 0)
    cap = _number(max_evaluations, "max_evaluations", 1, integer=True)
    ni = reference_op.grid.n_interior
    asm = _DnAssembler(reference_op, measurements.window, measurements.probes)
    target = measurements.matrix

    a = np.zeros(ni)
    cost, grad, gram, sols = asm.gauss_newton(a, target, lam)
    cost0 = cost
    evaluations, iterations, mu, nu = 1, 0, _MU_START, 2.0
    stop = None
    while True:
        free = (a > 0) | (grad <= 0)
        gradient_norm = float(np.max(np.abs(grad[free]), initial=0.0))
        if stop is None:
            stop = ("gradient" if gradient_norm == 0.0
                    else "cap" if evaluations >= cap
                    else "damping" if mu > _MU_STOP else None)
        if stop is not None:
            break
        scale = np.diag(gram)
        while True:
            system = gram[np.ix_(free, free)]
            system.flat[:: len(system) + 1] += mu * scale[free]
            v = _damped_solve(system, -grad[free])
            outward = (a[free] <= 0) & (v < 0)
            if not outward.any():
                break
            free[np.flatnonzero(free)[outward]] = False
        step = np.zeros(ni)
        step[free] = v
        predicted = -(grad @ step + 0.5 * step @ gram @ step)
        if not predicted > 0:           # every node held: damp towards -g
            mu, nu = mu * nu, 2 * nu
            continue
        accel = _damped_solve(system, -asm.curvature(a, step, sols)[free])
        if 2 * np.linalg.norm(accel) <= _ACCEL * np.linalg.norm(v):
            step[free] += 0.5 * accel
        trial = np.maximum(a + step, 0.0)
        cost_t, grad_t, gram_t, sols_t = asm.gauss_newton(trial, target, lam)
        evaluations += 1
        rho = (cost - cost_t) / predicted
        if rho > 0:
            if cost - cost_t <= _FTOL * cost:
                stop = "cost"
            elif np.linalg.norm(trial - a) <= _XTOL * (np.linalg.norm(a) + _XTOL):
                stop = "step"
            a, cost, grad, gram, sols = trial, cost_t, grad_t, gram_t, sols_t
            iterations += 1
            mu, nu = max(_MU_FLOOR, mu * max(1 / 3, 1 - (2 * rho - 1) ** 3)), 2.0
        else:
            mu, nu = mu * nu, 2 * nu
    fitted = DnMatrix(asm.window, asm.nodes, measurements.probe_ids,
                      asm.const + asm.neumann_lin @ sols)
    if stop != "gradient" and cost0 > 1e-24 and cost >= cost0 * (1 - 1e-12):
        raise MisfitStagnation("recovery made no progress", last_iterate=a)
    return RecoveryResult(a_estimate=a, fitted=fitted,
                          misfit=float(np.linalg.norm(fitted.matrix - target)),
                          objective=2 * cost, n_evaluations=evaluations,
                          iterations=iterations, damping=float(mu), stop=stop,
                          gradient_norm=gradient_norm)


def strong_uniqueness_probe(grid: Grid, op: NonlocalOperator,
                            window: Window) -> float:
    """Smallest singular value of the trace-plus-operator window map.

    Builds the map psi -> (psi on W, L psi on W) over nodal vectors psi that
    vanish beyond the truncation ball, with operator rows scaled to unit
    norm so the two blocks are comparable.  Returns the smallest singular
    value, or zero when the map has fewer rows than unknowns and cannot be
    injective.  The value is LAPACK's dgesdd without vectors, the call
    scipy.linalg.svdvals makes; a failed SVD raises SingularSystem.
    """
    if not (window.grid.same_as(grid) and op.grid.same_as(grid)):
        raise GridMismatch("window or operator grid differs")
    n = grid.n_nodes
    k = window.size
    if 2 * k < n:
        return 0.0
    weights, tails = _Stencil(op.grid, op.params).rows(window.indices)
    t_matrix = np.vstack([np.zeros((k, n)), -weights])
    t_matrix[np.arange(k), window.indices] = 1.0
    # add, not overwrite: w_gg multiplies psi_g - psi_g
    t_matrix[np.arange(k, 2 * k), window.indices] += weights.sum(axis=1) + tails
    t_matrix[k:] /= np.linalg.norm(t_matrix[k:], axis=1, keepdims=True)
    lapack = _lapack()
    work, _ = lapack.dgesdd_lwork(*t_matrix.shape, compute_uv=0, full_matrices=0)
    _, sigma, _, info = lapack.dgesdd(t_matrix, compute_uv=0, full_matrices=0,
                                      lwork=int(work))
    if info != 0:
        raise SingularSystem(f"the probe's SVD failed (dgesdd info {info})")
    return float(sigma[-1])


@dataclass(frozen=True)
class BankComparison:
    probe_ids: tuple[str, ...]
    distances: tuple[float, ...]
    max_distance: float
    equal: bool


def compare_cauchy_banks(bank1: list[CauchyDatum], bank2: list[CauchyDatum],
                         tol: float) -> BankComparison:
    """Per-probe sup distance between paired Cauchy data; equal iff all <= tol.

    tol must be a finite real >= 0 (Validation); banks of different sizes,
    probes or windows, or empty banks, raise BankMismatch."""
    tol = _number(tol, "tol", 0)
    if len(bank1) != len(bank2):
        raise BankMismatch("banks have different sizes")
    if not bank1:
        raise BankMismatch("empty banks have no Cauchy data to compare")
    ids1 = tuple(d.provenance for d in bank1)
    ids2 = tuple(d.provenance for d in bank2)
    if ids1 != ids2:
        raise BankMismatch("banks use different probing families")
    distances = []
    for d1, d2 in zip(bank1, bank2):
        if not np.array_equal(d1.window.indices, d2.window.indices):
            raise BankMismatch("banks use different windows")
        distances.append(max(float(np.max(np.abs(d1.trace - d2.trace))),
                             float(np.max(np.abs(d1.neumann - d2.neumann)))))
    max_distance = max(distances)
    return BankComparison(probe_ids=ids1, distances=tuple(distances),
                          max_distance=max_distance,
                          equal=max_distance <= tol)
