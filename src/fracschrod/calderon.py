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
import scipy.linalg

from .errors import (
    BankMismatch,
    GridMismatch,
    InvalidRange,
    MisfitStagnation,
    NewtonDiverged,
    RankDeficientProbes,
    Validation,
)
from .cauchy import CauchyDatum, mass_m
from .fraclap import NonlocalOperator, _blocks, _Stencil
from .grid import Field, Grid, Window
from .nonlinearity import Nonlinearity
from .solver import (LinearProblem, NewtonConfig, _checked_potential, _solve_system,
                     solve_linear, solve_semilinear)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def mean_potential(u1: Field, u2: Field, nl: Nonlinearity) -> np.ndarray:
    """Average of dq along the segment from u2(x) to u1(x), per interior node.

    16-point Gauss-Legendre quadrature of dq(x, t u1 + (1-t) u2) over
    t in [0, 1]; nonnegative whenever dq is.
    """
    if not u1.grid.same_as(u2.grid):
        raise GridMismatch("fields live on different grids")
    xi = u1.grid.interior_nodes
    v1 = u1.interior_values
    v2 = u2.interior_values
    out = np.zeros(v1.shape)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        t = 0.5 * (node + 1.0)
        out += 0.5 * weight * np.asarray(nl.dq(xi, t * v1 + (1.0 - t) * v2))
    return out


def solve_linearized(op: NonlocalOperator, dq_at_ug: np.ndarray,
                     h: Field) -> Field:
    """Solve the linearized problem: potential dq(x, u_g), source 0, data h."""
    ni = op.grid.n_interior
    return solve_linear(LinearProblem(op=op, a=np.asarray(dq_at_ug, dtype=float),
                                      f=np.zeros(ni), g=h))


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


def linearization_study(op: NonlocalOperator, nl: Nonlinearity, g: Field,
                        h: Field, eta_schedule,
                        cfg: NewtonConfig = NewtonConfig(residual_tol=1e-12)
                        ) -> LinearizationStudy:
    """Measure convergence of the difference quotient to the linearization.

    For each eta, solves the semilinear problem at data g + eta h, forms
    w = (u_{g+eta h} - u_g)/eta, and records the distance to the linearized
    solution in both norms.  A diverging solve is recorded, not fatal.
    """
    etas = [float(e) for e in eta_schedule]
    if len(etas) < 2 or not all(x > y > 0 for x, y in zip(etas, etas[1:])):
        raise InvalidRange("eta schedule must be strictly decreasing and positive")

    grid = op.grid
    if not h.grid.same_as(grid):
        raise GridMismatch("direction h lives on a different grid")
    base = solve_semilinear(op, nl, g, cfg)
    # the Newton solves' CG steps factor nothing; the linearized system at
    # dq(u_g) is the one factor
    dq_ref = np.asarray(nl.dq(grid.interior_nodes, base.u.interior_values))
    u_star = solve_linearized(op, dq_ref, h)
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
    """Window responses of the linearized problem, one column per probe."""

    window: Window
    probes: tuple[Field, ...]
    probe_ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.window.size, len(self.probes)):
            raise GridMismatch("response matrix shape does not match probes")
        if not np.all(np.isfinite(self.matrix)):
            raise Validation("response matrix contains non-finite values")


def canonical_probes(window: Window) -> list[tuple[str, Field]]:
    """Per-node unit bumps on the window: the full-information probe basis."""
    grid = window.grid
    out = []
    for idx in window.indices:
        values = np.zeros(grid.n_nodes)
        values[idx] = 1.0
        out.append((f"node-{int(idx)}", Field.from_values(grid, values)))
    return out


class _DnAssembler:
    """Shared machinery for DN matrices and their potential derivatives.

    Every solve is one solver._solve_system call at the potential, which
    owns the system matrix and the operator's retained factor (shared with
    solve_linear), so a Jacobian at the potential just evaluated (as trf
    asks for it) factors nothing and the operator holds at most one factor.
    Set-up forms no array over all N nodes against all p probes: probe
    values are held at their support and at the window only, and the window
    rows are formed one batch at a time, each giving the zero-extension
    term and the Neumann kernel, its interior columns negated.
    """

    def __init__(self, op: NonlocalOperator, window: Window,
                 probes: list[tuple[str, Field]]):
        grid = op.grid
        if not window.grid.same_as(grid):
            raise GridMismatch("window grid differs from operator grid")
        self.op = op
        self.window = window
        self.ids = tuple(name for name, _ in probes)
        self.fields = tuple(f for _, f in probes)
        for f in self.fields:
            if not f.grid.same_as(grid):
                raise GridMismatch("probe grid differs from operator grid")
            if np.any(f.interior_values != 0.0):
                raise Validation("probes must be supported on exterior nodes")
        pw = np.stack([f.values[window.indices] for f in self.fields], axis=1)
        if np.linalg.matrix_rank(pw) < len(self.fields):
            raise RankDeficientProbes("probes are dependent as window vectors")
        mass = mass_m(grid, op.params, window.indices)

        stencil = _Stencil(grid, op.params)
        # the probes' exterior support and their values there, by exact
        # columns of -a_ie
        support = np.unique(np.concatenate([np.flatnonzero(f.values)
                                            for f in self.fields]))
        values = np.stack([f.values[support] for f in self.fields], axis=1)
        self.rhs = stencil.rows(grid.interior_index, support)[0] @ values
        # constant-in-potential part of each column: the Neumann kernel's
        # mass, the kernel mass m and the zero-extension term, by the
        # operator rows at window nodes; no correction reaches an interior
        # column from a window node, at least h from the domain (mass_m)
        self.neumann_lin = np.empty((window.size, grid.n_interior))
        e0 = np.empty(pw.shape)
        for sl in _blocks(window.size, grid.n_nodes):
            rows, tails = stencil.rows(window.indices[sl])
            np.negative(rows[:, grid.interior_index], out=self.neumann_lin[sl])
            e0[sl] = (pw[sl] * (rows.sum(axis=1) + tails)[:, None]
                      - rows[:, support] @ values)
        self.const = pw * -self.neumann_lin.sum(axis=1)[:, None] - mass[:, None] * pw + e0

    def matrix(self, a: np.ndarray) -> np.ndarray:
        return self.const + self.neumann_lin @ _solve_system(self.op, a, self.rhs)

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """Stacked derivative of vec(matrix) with respect to the potential;
        both solves use one factor, since the diagonal is bitwise equal."""
        sols = _solve_system(self.op, a, self.rhs)
        green = _solve_system(self.op, a, self.neumann_lin.T).T
        return (-sols.T[:, None, :] * green).reshape(-1, len(a))


def dn_map(op: NonlocalOperator, a: np.ndarray, window: Window,
           probes: list[tuple[str, Field]] | None = None) -> DnMatrix:
    """Assemble the linearized DN matrix for a nonnegative potential.

    Column k holds the operator values of the linearized solution driven by
    probe k, evaluated on the window through the exterior identity.  The
    potential is checked as the solver checks it, before any set-up.
    """
    a = _checked_potential(op, a)
    if probes is None:
        probes = canonical_probes(window)
    asm = _DnAssembler(op, window, probes)
    return DnMatrix(window=window, probes=asm.fields, probe_ids=asm.ids,
                    matrix=asm.matrix(a))


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    a_estimate: np.ndarray
    fitted: DnMatrix        # the DN matrix at a_estimate
    misfit: float
    objective: float
    n_evaluations: int


def recover_potential(reference_op: NonlocalOperator, measurements: DnMatrix,
                      lambda_reg: float, *,
                      max_evaluations: int = 500) -> RecoveryResult:
    """Regularized least-squares recovery of the potential from a DN matrix.

    Minimizes the squared Frobenius misfit plus lambda_reg ||a||^2 over
    a >= 0, with the Tikhonov term carried as augmented residual rows and
    the analytic potential-derivative of the forward map; the optimizer is
    a trust-region Gauss-Newton iteration honoring the bound.  The result
    carries the DN matrix at the estimate, fitted.  Raises MisfitStagnation
    (carrying the last iterate) when no descent happens.
    """
    # scipy.optimize takes about 0.1 s to import and only this function uses it
    from scipy.optimize import least_squares

    if not (np.isfinite(lambda_reg) and lambda_reg >= 0):
        raise Validation("lambda_reg must be finite and nonnegative")
    ni = reference_op.grid.n_interior
    asm = _DnAssembler(reference_op, measurements.window,
                       list(zip(measurements.probe_ids, measurements.probes)))
    target = measurements.matrix
    sq = np.sqrt(lambda_reg)

    def residuals(a):
        r = (asm.matrix(a) - target).T.reshape(-1)
        return np.concatenate([r, sq * a]) if lambda_reg > 0 else r

    def jac(a):
        j = asm.jacobian(a)
        return np.vstack([j, sq * np.eye(ni)]) if lambda_reg > 0 else j

    a0 = np.zeros(ni)
    r0 = residuals(a0)
    cost0 = 0.5 * float(r0 @ r0)
    result = least_squares(residuals, a0, jac=jac, bounds=(0.0, np.inf),
                           method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                           max_nfev=max_evaluations)
    fitted = DnMatrix(asm.window, asm.fields, asm.ids, asm.matrix(result.x))
    if cost0 > 1e-24 and result.cost >= cost0 * (1 - 1e-12):
        raise MisfitStagnation("recovery made no progress",
                               last_iterate=result.x)
    return RecoveryResult(a_estimate=result.x, fitted=fitted,
                          misfit=float(np.linalg.norm(fitted.matrix - target)),
                          objective=float(2 * result.cost),
                          n_evaluations=int(result.nfev))


def strong_uniqueness_probe(grid: Grid, op: NonlocalOperator,
                            window: Window) -> float:
    """Smallest singular value of the trace-plus-operator window map.

    Builds the map psi -> (psi on W, L psi on W) over nodal vectors psi that
    vanish beyond the truncation ball, with operator rows scaled to unit
    norm so the two blocks are comparable.  Returns the smallest singular
    value, or zero when the map has fewer rows than unknowns and cannot be
    injective.
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
    return float(scipy.linalg.svdvals(t_matrix)[-1])


@dataclass(frozen=True)
class BankComparison:
    probe_ids: tuple[str, ...]
    distances: tuple[float, ...]
    max_distance: float
    equal: bool


def compare_cauchy_banks(bank1: list[CauchyDatum], bank2: list[CauchyDatum],
                         tol: float) -> BankComparison:
    """Per-probe sup distance between paired Cauchy data; equal iff all <= tol."""
    if len(bank1) != len(bank2):
        raise BankMismatch("banks have different sizes")
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
