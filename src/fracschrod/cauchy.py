"""Nonlocal Neumann traces and Cauchy data on exterior windows.

The Neumann derivative at an exterior point x integrates kernel-weighted
differences of u between x and the domain only:

    N u(x) = C(n, s) integral over Omega of (u(x) - u(y)) / |x - y|^(n+2s) dy,

by midpoint quadrature over the interior cells.  The kernel mass

    m(x) = C(n, s) integral over Omega of |x - y|^(-n-2s) dy

is evaluated in closed form, as a flux through the faces of the box (the
divergence theorem), which makes it an independent ingredient when
cross-checking the exterior operator identity

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

from .errors import GridMismatch, Validation, WindowTouchesBoundary, _values
from .fraclap import FracParams, NonlocalOperator, _Stencil, evaluate_at
from .grid import Field, Grid, Region, Window, _node_indices
from .nonlinearity import Nonlinearity
from .solver import NewtonConfig, solve_semilinear


@dataclass(frozen=True, eq=False)
class CauchyDatum:
    """Paired exterior trace and Neumann trace on a window, each read by
    errors._values, with the CG iterations of each Newton step of the
    solve behind it."""

    window: Window
    trace: np.ndarray
    neumann: np.ndarray
    provenance: str
    cg_iterations: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("trace", "neumann"):
            object.__setattr__(self, name, _values(getattr(self, name), name, (self.window.size,)))


def _exterior_indices(grid: Grid, params: FracParams, indices) -> np.ndarray:
    """indices as validated exterior nodes at least one spacing from the
    domain, for params of the grid's dimension."""
    if params.n != grid.dim:
        raise GridMismatch(f"params of dimension {params.n} on a {grid.dim}D grid")
    indices = _node_indices(grid, indices)
    if not np.all(grid.labels[indices] == Region.EXTERIOR):
        raise Validation("N u and m are defined at exterior nodes")
    d = grid.domain.distance(grid.nodes[indices])
    if np.any(d < grid.h * (1 - 1e-12)):
        raise WindowTouchesBoundary(
            f"evaluation point within one spacing of the domain (min dist {d.min():.3g})")
    return indices


def neumann_derivative(grid: Grid, params: FracParams, u: Field,
                       indices: np.ndarray) -> np.ndarray:
    """Nonlocal Neumann derivative of u at the given exterior nodes.

    Midpoint quadrature over interior cells; the kernel is nonsingular
    because the evaluation points keep a positive distance from the domain.
    Each batch of kernel rows (_Stencil.interior_rows) is reduced against
    the differences of u by one einsum.
    """
    if not u.grid.same_as(grid):
        raise GridMismatch("field grid differs")
    indices = _exterior_indices(grid, params, indices)
    return _neumann(_Stencil(grid, params), u, indices)


def _neumann(stencil: _Stencil, u: Field, indices: np.ndarray) -> np.ndarray:
    """neumann_derivative at validated exterior indices, from a stencil of
    u's grid, so a bank builds its stencil once."""
    ui, ux = u.interior_values, u.values[indices]
    out = np.empty(indices.size)
    for sl, kern in stencil.interior_rows(indices):
        out[sl] = np.einsum("kj,kj->k", kern, ux[sl, None] - ui[None, :])
    return out


def _face_integral(d, t, p):
    """Integral of (d^2 + tau^2)^(-p) over tau in [0, t], d != 0, elementwise:
    t |d|^(-2p) 2F1(1/2, p; 3/2; -t^2/d^2), odd in t."""
    # scipy.special loads scipy's array-API layer (about 0.25 s), so it is
    # imported on first use; only mass_m needs it
    from scipy.special import hyp2f1

    return t * np.abs(d) ** (-2.0 * p) * hyp2f1(0.5, p, 1.5, -((t / d) ** 2))


def mass_m(grid: Grid, params: FracParams, indices) -> np.ndarray:
    """Kernel mass m at exterior nodes, in closed form: -C/(2s) times the
    outward flux of (y - x) |y - x|^(-n-2s) through the faces of the box.  A
    face at signed normal distance d contributes sign(d) |d|^(-2s) in 1D and
    d times its face integral at p = 1 + s in 2D (0 for a face seen edge-on)."""
    points = grid.nodes[_exterior_indices(grid, params, indices)]
    lo = np.asarray(grid.domain.lower) - points
    hi = np.asarray(grid.domain.upper) - points
    d = np.concatenate([hi, -lo], axis=1)  # upper faces, then lower faces
    s = params.s
    # per n: an n-D form needs the (n - 1)-D integral over each face
    if params.n == 1:
        flux = np.sign(d) * np.abs(d) ** (-2 * s)
    else:  # the face normal to one axis spans the other
        safe = np.where(d == 0.0, 1.0, d)
        flux = d * (_face_integral(safe, np.tile(hi[:, ::-1], 2), 1 + s)
                    - _face_integral(safe, np.tile(lo[:, ::-1], 2), 1 + s))
    return params.cns * -flux.sum(axis=1) / (2 * s)


def exterior_identity_check(op: NonlocalOperator, u: Field, g: Field,
                            window: Window) -> float:
    """Max discrepancy of L u = N u - m u + L(E0 g) over the window.

    The left side and the zero-extension term use the assembly quadrature;
    the Neumann term uses interior-cell midpoint sums and m is exact, so
    the residual measures genuine quadrature mismatch between the routines
    rather than a shared truncation artifact.
    """
    grid = op.grid
    if not (u.grid.same_as(grid) and g.grid.same_as(grid)
            and window.grid.same_as(grid)):
        raise GridMismatch("fields or window live on a different grid")
    if not np.allclose(u.exterior_values, g.exterior_values, atol=1e-12):
        raise Validation("u must equal g on exterior nodes")
    idx = window.indices
    rhs = (neumann_derivative(grid, op.params, u, idx)
           - mass_m(grid, op.params, idx) * u.values[idx])
    # L u - L(E0 g) = L(u - E0 g), both at far-field zero
    v = u.values - np.where(grid.labels == Region.EXTERIOR, g.values, 0.0)
    lhs = evaluate_at(op, Field.from_values(grid, v), idx)
    return float(np.max(np.abs(lhs - rhs)))


def build_cauchy_bank(op: NonlocalOperator, nl: Nonlinearity,
                      probes: list[tuple[str, Field]], window: Window,
                      cfg: NewtonConfig = NewtonConfig()) -> list[CauchyDatum]:
    """One Cauchy datum per probing exterior datum, every Neumann trace from
    one stencil of op (at 2D h=2^-7 a stencil takes 64-103 ms to build and
    holds 57 MiB).  The window, and that nl is a Nonlinearity (Validation),
    are checked before any solve."""
    if not isinstance(nl, Nonlinearity):
        raise Validation(f"nl must be a Nonlinearity, got {type(nl).__name__}")
    if not window.grid.same_as(op.grid):
        raise GridMismatch("window grid differs from operator grid")
    indices = _exterior_indices(op.grid, op.params, window.indices)
    stencil = _Stencil(op.grid, op.params)
    bank = []
    for name, g in probes:
        sol = solve_semilinear(op, nl, g, cfg)
        bank.append(CauchyDatum(window=window, trace=sol.u.values[indices].copy(),
                                neumann=_neumann(stencil, sol.u, indices),
                                provenance=name, cg_iterations=sol.cg_iterations))
    return bank


def bank_to_json(bank: list[CauchyDatum]) -> dict:
    if not bank:
        return {"window": [], "data": []}
    return {
        "window": [int(i) for i in bank[0].window.indices],
        "data": [{"g-id": d.provenance,
                  "trace": [float(v) for v in d.trace],
                  "neumann": [float(v) for v in d.neumann]} for d in bank],
    }
