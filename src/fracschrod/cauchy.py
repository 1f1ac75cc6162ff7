"""Nonlocal Neumann traces and Cauchy data on exterior windows.

The Neumann derivative at an exterior point x integrates kernel-weighted
differences of u between x and the domain only:

    N u(x) = C(n, s) integral over Omega of (u(x) - u(y)) / |x - y|^(n+2s) dy,

by midpoint quadrature over the interior cells.  The kernel mass

    m(x) = C(n, s) integral over Omega of |x - y|^(-n-2s) dy

is evaluated in closed form in 1D and by adaptive quadrature in 2D, which
makes it an independent ingredient when cross-checking the exterior
operator identity

    L u = N u - m u + L(E0 g)   on the window,

where E0 g extends the exterior data by zero across the domain.  Both
quantities reject evaluation points within one spacing of the domain,
where midpoint quadrature of the near-singular kernel degrades.

A Cauchy datum pairs the exterior trace of a solution with its Neumann
trace on a window; banks of data, one per probing exterior datum, stand in
for the full Cauchy data set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import dblquad

from .errors import GridMismatch, Validation, WindowTouchesBoundary
from .fraclap import FracParams, NonlocalOperator, _blocks, _Stencil
from .grid import Field, Grid, Region, Window
from .nonlinearity import Nonlinearity
from .solver import NewtonConfig, solve_semilinear


@dataclass(frozen=True, eq=False)
class CauchyDatum:
    """Paired exterior trace and Neumann trace on a window."""

    window: Window
    trace: np.ndarray
    neumann: np.ndarray
    provenance: str

    def __post_init__(self):
        k = self.window.size
        if self.trace.shape != (k,) or self.neumann.shape != (k,):
            raise GridMismatch("trace and neumann must match the window size")
        if not (np.all(np.isfinite(self.trace)) and np.all(np.isfinite(self.neumann))):
            raise Validation("Cauchy datum contains non-finite values")


def _require_clear_of_boundary(grid: Grid, points: np.ndarray) -> None:
    d = grid.domain.distance(points)
    if np.any(d < grid.h * (1 - 1e-12)):
        raise WindowTouchesBoundary(
            f"evaluation point within one spacing of the domain (min dist {d.min():.3g})")


def neumann_derivative(grid: Grid, params: FracParams, u: Field,
                       indices: np.ndarray) -> np.ndarray:
    """Nonlocal Neumann derivative of u at the given exterior nodes.

    Midpoint quadrature over interior cells; the kernel is nonsingular
    because the evaluation points keep a positive distance from the domain.
    """
    if not u.grid.same_as(grid):
        raise GridMismatch("field grid differs")
    indices = np.asarray(indices, dtype=int)
    if not np.all(grid.labels[indices] == Region.EXTERIOR):
        raise Validation("Neumann derivative is defined at exterior nodes")
    _require_clear_of_boundary(grid, grid.nodes[indices])
    stencil = _Stencil(grid, params)
    ui = u.interior_values
    ux = u.values[indices]
    out = np.empty(indices.size)
    for sl in _blocks(indices.size, ui.size):
        kern = stencil.midpoint(indices[sl], grid.interior_index)
        out[sl] = np.einsum("kj,kj->k", kern, ux[sl, None] - ui[None, :])
    return out


def _mass_at_point(domain, params: FracParams, x: np.ndarray) -> float:
    """Exact kernel mass of the domain seen from an exterior point."""
    s = params.s
    if params.n == 1:
        a, b = domain.lower[0], domain.upper[0]
        xv = float(x[0])
        if xv > b:
            return params.cns * ((xv - b) ** (-2 * s) - (xv - a) ** (-2 * s)) / (2 * s)
        if xv < a:
            return params.cns * ((a - xv) ** (-2 * s) - (b - xv) ** (-2 * s)) / (2 * s)
        raise Validation("point lies inside the domain")
    (ax, ay), (bx, by) = domain.lower, domain.upper
    val, _ = dblquad(
        lambda yy, yx: ((x[0] - yx) ** 2 + (x[1] - yy) ** 2) ** (-(1 + s)),
        ax, bx, ay, by)
    return params.cns * val


def mass_m(grid: Grid, params: FracParams, index: int) -> float:
    """Kernel mass m at an exterior node, exact in 1D and adaptive in 2D."""
    if grid.labels[index] != Region.EXTERIOR:
        raise Validation("m is defined at exterior nodes")
    x = grid.nodes[index]
    _require_clear_of_boundary(grid, x[None, :])
    return _mass_at_point(grid.domain, params, x)


def exterior_identity_check(grid: Grid, op: NonlocalOperator, u: Field,
                            g: Field, window: Window) -> float:
    """Max discrepancy of L u = N u - m u + L(E0 g) over the window.

    The left side and the zero-extension term use the assembly quadrature;
    the Neumann term uses interior-cell midpoint sums and m is exact, so
    the residual measures genuine quadrature mismatch between the routines
    rather than a shared truncation artifact.
    """
    if not (u.grid.same_as(grid) and g.grid.same_as(grid)):
        raise GridMismatch("fields live on a different grid")
    if not np.allclose(u.exterior_values, g.exterior_values, atol=1e-12):
        raise Validation("u must equal g on exterior nodes")
    _require_clear_of_boundary(grid, window.points)

    idx = window.indices
    # L u - L(E0 g) = L(u - E0 g), both at far-field zero
    v = u.values - np.where(grid.labels == Region.EXTERIOR, g.values, 0.0)
    stencil = _Stencil(grid, op.params)
    lhs = np.empty(idx.size)
    for sl in _blocks(idx.size, grid.n_nodes):
        w, tail = stencil.rows(idx[sl])
        lhs[sl] = np.einsum("kj,kj->k", w, v[idx[sl], None] - v) + tail * v[idx[sl]]
    mass = np.array([_mass_at_point(grid.domain, op.params, x) for x in window.points])
    rhs = neumann_derivative(grid, op.params, u, idx) - mass * u.values[idx]
    return float(np.max(np.abs(lhs - rhs)))


def make_cauchy_datum(grid: Grid, op: NonlocalOperator, nl: Nonlinearity,
                      g: Field, window: Window,
                      cfg: NewtonConfig = NewtonConfig(),
                      provenance: str = "g") -> CauchyDatum:
    """Solve the semilinear problem for g and record its Cauchy pair on W."""
    if not (g.grid.same_as(grid) and op.grid.same_as(grid)):
        raise GridMismatch("grid mismatch between data and operator")
    sol = solve_semilinear(op, nl, g, cfg)
    trace = sol.u.values[window.indices].copy()
    neumann = neumann_derivative(grid, op.params, sol.u, window.indices)
    return CauchyDatum(window=window, trace=trace, neumann=neumann,
                       provenance=provenance)


def build_cauchy_bank(grid: Grid, op: NonlocalOperator, nl: Nonlinearity,
                      probes: list[tuple[str, Field]], window: Window,
                      cfg: NewtonConfig = NewtonConfig()) -> list[CauchyDatum]:
    """One Cauchy datum per probing exterior datum."""
    return [make_cauchy_datum(grid, op, nl, g, window, cfg, provenance=name)
            for name, g in probes]


def bank_to_json(bank: list[CauchyDatum]) -> dict:
    if not bank:
        return {"window": [], "data": []}
    return {
        "window": [int(i) for i in bank[0].window.indices],
        "data": [{"g-id": d.provenance,
                  "trace": [float(v) for v in d.trace],
                  "neumann": [float(v) for v in d.neumann]} for d in bank],
    }
