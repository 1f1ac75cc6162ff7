"""Discrete integral fractional Laplacian on the truncated lattice.

The operator acts on a nodal field u by the singular-integral definition

    L u(x) = C(n, s) P.V. integral of (u(x) - u(y)) / |x - y|^(n + 2s) dy,

with the normalization C(n, s) = Gamma(n/2 + s) 4^s / (|Gamma(-s)| pi^(n/2)).

Every weight is read off one lattice stencil: nodes and boundary points sit
on the spacing-h lattice anchored at the domain center, so a weight depends
only on their integer offset k.  Quadrature scheme, per evaluation node x:

* every lattice cell inside the truncation ball carries the midpoint weight
  C h^n / |h k|^(n + 2s) against the difference u(x) - u(y_j);
* the cell centered at x itself is integrated through the symmetric
  second-difference form, whose numerator vanishes to second order and
  cancels the kernel singularity; its mass lands on the nearest axis
  neighbors and the balancing diagonal;
* cells centered on excluded boundary-lattice points take the value of the
  adjacent exterior node in the outward direction (admissible exterior data
  vanishes near the boundary, so the attribution is exact for it, and the
  assembled block stays symmetric with the M-matrix sign pattern);
* everything beyond the truncation ball is integrated in closed form and
  multiplies u(x) minus the assumed far-field value.

Assembly gathers the midpoint weights of each block of interior rows
straight into the dense blocks a_ii and a_ie, negated, then subtracts the
sparse corrections the stencil lists (boundary cells first, then the
singular cell) and sets the diagonal from the finished rows; no row over
all nodes is formed.  The stencil is cheap enough to rebuild per call; the
assembled operator is immutable and apply() is a pure function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gamma, pi

import numpy as np
from scipy.integrate import quad

from .errors import (
    GridMismatch,
    NonPositiveRadius,
    OperatorTooLarge,
    OrderOutOfRange,
    SingularOverlap,
)
from .grid import _TOL, Field, Grid, Region

__all__ = [
    "FracParams",
    "NonlocalOperator",
    "cns",
    "frac_params",
    "tail_mass",
    "assemble",
    "apply_operator",
    "evaluate_at",
]


def cns(n: int, s: float) -> float:
    """Normalization constant Gamma(n/2+s) 4^s / (|Gamma(-s)| pi^(n/2))."""
    if not 0.0 < s < 1.0:
        raise OrderOutOfRange(f"s = {s} must lie in (0, 1)")
    if n < 1:
        raise ValueError(f"dimension n = {n} must be >= 1")
    return gamma(n / 2 + s) * 4.0**s / (abs(gamma(-s)) * pi ** (n / 2))


@dataclass(frozen=True)
class FracParams:
    """Dimension, fractional order, and the kernel normalization constant."""

    n: int
    s: float
    cns: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"only n in {{1, 2}} supported, got {self.n}")
        if not 0.0 < self.s < 1.0:
            raise OrderOutOfRange(f"s = {self.s} must lie in (0, 1)")


def frac_params(n: int, s: float) -> FracParams:
    return FracParams(n=n, s=s, cns=cns(n, s))


def tail_mass(params: FracParams, r_eff: float) -> float:
    """Closed-form kernel mass beyond radius r_eff around the evaluation node.

    1D: both half-lines, 2 r^(-2s) / (2s); 2D: 2 pi r^(-2s) / (2s); scaled
    by the normalization constant.
    """
    if not r_eff > 0:
        raise NonPositiveRadius(f"r_eff = {r_eff}")
    if params.n == 1:
        return params.cns * 2.0 * r_eff ** (-2 * params.s) / (2 * params.s)
    return params.cns * 2.0 * pi * r_eff ** (-2 * params.s) / (2 * params.s)


@lru_cache(maxsize=None)
def _square_cell_mass(s: float) -> float:
    """Integral of |z|^(-2s) over the unit square [-1/2, 1/2]^2."""
    wedge, _ = quad(lambda t: (2.0 * np.cos(t)) ** (2 * s - 2), 0.0, pi / 4)
    return 8.0 / (2.0 - 2.0 * s) * 0.5 ** (2.0 - 2.0 * s) * wedge


def _singular_weight(params: FracParams, h: float) -> float:
    """Per-axis second-difference weight for the cell containing the node."""
    s = params.s
    if params.n == 1:
        return params.cns * (h / 2.0) ** (2 - 2 * s) / ((2 - 2 * s) * h * h)
    cell = h ** (2 - 2 * s) * _square_cell_mass(s)
    return params.cns * cell / (4.0 * h * h)


_BLOCK = 1 << 19  # float64 entries per batch of rows (4 MiB)


def _blocks(count: int, width: int) -> list[slice]:
    """Slices covering range(count) whose rows of length width fit in _BLOCK."""
    step = max(1, _BLOCK // max(width, 1))
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


class _Stencil:
    """Offset-indexed quadrature weights of one grid: the only kernel source.

    Cells are the nodes followed by the boundary points, keyed by integer
    lattice coordinates; the offset between two keys indexes ``kernel``, the
    midpoint weights over [-2K, 2K]^n (zero at the origin), K the largest
    coordinate (floor(R/h) on a grid from build_grid).  ``share[c]``
    lists the nodes receiving the mass of cell c (itself, or the outward
    exterior neighbors of a boundary point; -1 padded), ``count[c]`` how
    many; a cell with none feeds the tail.
    """

    def __init__(self, grid: Grid, params: FracParams):
        h, n = grid.h, grid.dim
        center = grid.domain.center
        points = np.concatenate([grid.nodes, grid.boundary_points.reshape(-1, n)])
        scaled = (points - center) / h
        coords = np.rint(scaled).astype(np.int64)
        off = np.any(np.abs(scaled - coords) > _TOL, axis=1)
        if np.any(off):
            raise SingularOverlap(f"point {tuple(points[off][0])} is off the h-lattice")
        k = max(1, int(np.abs(coords).max()))
        width = 4 * k + 1
        self.strides = width ** np.arange(n - 1, -1, -1)
        self.origin = 2 * k * int(self.strides.sum())
        self.keys = coords @ self.strides
        self.table = np.full(width**n, -1)
        self.table[self.origin + self.keys] = np.arange(len(points))
        if np.count_nonzero(self.table >= 0) < len(points):
            raise SingularOverlap("two cells share a lattice point")

        axis = h * np.arange(-2 * k, 2 * k + 1)
        offsets = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
        d = np.linalg.norm(offsets, axis=-1).ravel()
        d[self.origin] = 1.0
        self.kernel = params.cns * h**n / d ** (n + 2 * params.s)
        self.kernel[self.origin] = 0.0

        self.grid, self.params = grid, params
        self.w_sing = _singular_weight(params, h)
        nn = grid.n_nodes
        self.share = np.full((len(points), n), -1)
        self.share[:nn, 0] = np.arange(nn)
        # A boundary cell goes to the exterior node one step outward across
        # each face it lies on (no node is outward of two boundary points);
        # ext is False past the nodes, so a lookup miss (-1) selects nothing.
        bd = points[nn:]
        on_face = np.abs(np.abs(bd - center) - grid.domain.half_widths) <= _TOL * h
        outward = self.table[self.origin + self.keys[nn:, None]
                             + np.where(bd > center, 1, -1) * self.strides]
        ext = np.append(grid.labels == Region.EXTERIOR, np.zeros(len(bd) + 1, bool))
        self.share[nn:] = np.where(on_face & ext[outward], outward, -1)
        self.count = np.count_nonzero(self.share >= 0, axis=1)

    def midpoint(self, targets, cols, out=None) -> np.ndarray:
        """Midpoint weights between target nodes (rows) and cells (cols).

        Each row is one gather from a shifted view of the kernel, so no
        index array of the block's size is formed; out receives the block.
        """
        keys = self.keys[targets]
        low = keys.min(initial=0)
        base = self.origin + low - self.keys[cols]
        if out is None:
            out = np.empty((keys.size, base.size))
        for row, shift in zip(out, keys - low):
            np.take(self.kernel[shift:], base, out=row)
        return out

    def corrections(self, targets) -> tuple[list, np.ndarray]:
        """Sparse additions to the midpoint rows at the targets, and their tails.

        Returns (adds, tail): adds lists (row, node, mass) batches, row local
        to targets, in the order they apply (the boundary cells, then the
        singular mass of each -/+ axis step); no batch repeats a (row, node)
        pair.  Mass no node receives goes to tail, with the far-field mass.
        """
        targets = np.asarray(targets, dtype=int)
        m = targets.size
        adds, tail = [], np.zeros(m)
        bd = np.arange(self.grid.n_nodes, len(self.keys))
        self._spread(adds, tail, np.repeat(np.arange(m), bd.size), np.tile(bd, m),
                     self.midpoint(targets, bd).ravel())
        steps = np.repeat(self.strides, 2) * np.tile([-1, 1], len(self.strides))
        cells = self.table[self.origin + self.keys[targets] + steps[:, None]].ravel()
        self._spread(adds, tail, np.tile(np.arange(m), steps.size), cells,
                     np.full(cells.size, self.w_sing))
        tail += [self._far_tail(self.grid.nodes[g]) for g in targets]
        return adds, tail

    def _spread(self, adds, tail, rows, cells, mass) -> None:
        """Share the mass of each (row, cell) pair among the cell's nodes, else tail."""
        count = np.where(cells >= 0, self.count[cells], 0)
        for col in self.share[cells].T:
            has = (cells >= 0) & (col >= 0)
            adds.append((rows[has], col[has], mass[has] / count[has]))
        np.add.at(tail, rows[count == 0], mass[count == 0])

    def rows(self, targets) -> tuple[np.ndarray, np.ndarray]:
        """Weights (m, N) over all nodes, zero at the row's own node, and tail
        coefficients (m,) at the targets, so that at a target node g

            L u (x_g) = sum_j w_gj (u_g - u_j) + tail_g (u_g - farfield).
        """
        w = self.midpoint(targets, np.arange(self.grid.n_nodes))
        adds, tail = self.corrections(targets)
        for row, node, mass in adds:
            w[row, node] += mass
        return w, tail

    def _far_tail(self, x: np.ndarray) -> float:
        """Closed-form kernel mass beyond the truncation ball, seen from x."""
        R, h, center = self.grid.R, self.grid.h, self.grid.domain.center
        if self.grid.dim == 1:
            dd = float(x[0] - center[0])
            return 0.5 * (tail_mass(self.params, max(R + dd, 0.5 * h))
                          + tail_mass(self.params, max(R - dd, 0.5 * h)))
        r_eff = max(R - float(np.linalg.norm(x - center)), 0.5 * h)
        return tail_mass(self.params, r_eff)


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Assembled fractional Laplacian restricted to interior rows.

    a_ii is symmetric bit for bit, with positive diagonal and nonpositive
    off-diagonal entries; a_ie is nonpositive; tail holds the closed-form
    kernel mass beyond the truncation ball per interior node.  Row sums of
    [a_ii a_ie] vanish, so constants with matching far-field are annihilated
    exactly.
    """

    params: FracParams
    grid: Grid
    a_ii: np.ndarray
    a_ie: np.ndarray
    tail: np.ndarray

    def apply(self, u: Field, farfield: float = 0.0) -> np.ndarray:
        return apply_operator(self, u, farfield)


def assemble(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the discrete operator for a grid and fractional order.

    Raises OperatorTooLarge when the dense blocks would not fit in physical
    memory, and SingularOverlap when a node or boundary point is off the
    lattice, both before allocating the blocks.
    """
    params = frac_params(grid.dim, s)
    ni, nn = grid.n_interior, grid.n_nodes
    need, have = ni * nn * 8, _physical_memory()
    if need > have:
        raise OperatorTooLarge(
            f"dense blocks need {need / 2**30:.1f} GiB, physical memory is "
            f"{have / 2**30:.1f} GiB")
    stencil = _Stencil(grid, params)
    interior, exterior = grid.interior_index, grid.exterior_index
    inner = grid.labels == Region.INTERIOR
    column = grid.local_of_global()
    a_ii = np.empty((ni, ni))
    a_ie = np.empty((ni, grid.n_exterior))
    tail = np.empty(ni)
    for sl in _blocks(ni, nn):
        rows = interior[sl]
        b_ii, b_ie = a_ii[sl], a_ie[sl]
        np.negative(stencil.midpoint(rows, interior, out=b_ii), out=b_ii)
        np.negative(stencil.midpoint(rows, exterior, out=b_ie), out=b_ie)
        adds, tail[sl] = stencil.corrections(rows)
        for row, node, mass in adds:
            into = inner[node]
            b_ii[row[into], column[node[into]]] -= mass[into]
            b_ie[row[~into], column[node[~into]]] -= mass[~into]
        r = np.arange(sl.start, sl.stop)
        a_ii[r, r] = -(np.sum(b_ii, axis=1) + np.sum(b_ie, axis=1))
    for arr in (a_ii, a_ie, tail):
        arr.setflags(write=False)
    return NonlocalOperator(params=params, grid=grid, a_ii=a_ii, a_ie=a_ie, tail=tail)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def apply_operator(op: NonlocalOperator, u: Field, farfield: float = 0.0) -> np.ndarray:
    """Operator value at every interior node.

    Evaluated in the difference form sum_j w_ij (u_i - u_j), so constants
    with matching far-field are annihilated exactly, not merely to roundoff.
    Per block of interior rows, the differences u_j - u_i against all
    interior and all exterior nodes are formed at once (at most 1 MiB each)
    and each row is reduced with a (1, n) @ (n, 1) matmul, which numpy hands
    to the same BLAS dot as np.dot of two vectors.  Since a (u_j - u_i) is
    exactly (-a)(u_i - u_j) in IEEE arithmetic, every value is bit-identical
    to one dot per row over the negated weights.
    """
    if not u.grid.same_as(op.grid):
        raise GridMismatch("field grid differs from operator grid")
    ui = u.interior_values
    ue = u.exterior_values
    out = np.empty(op.grid.n_interior)
    # a quarter of _BLOCK: freed 4 MiB temporaries stay in the malloc heap
    # and raised the peak RSS of a 1D principles run by 3%
    for sl in _blocks(op.grid.n_interior, 4 * op.grid.n_nodes):
        own = ui[sl, None]
        inner = np.matmul(op.a_ii[sl, None, :], (ui - own)[:, :, None])
        outer = np.matmul(op.a_ie[sl, None, :], (ue - own)[:, :, None])
        out[sl] = inner[:, 0, 0] + outer[:, 0, 0]
    return out + op.tail * (ui - farfield)


def evaluate_at(op: NonlocalOperator, u: Field, indices,
                farfield: float = 0.0) -> np.ndarray:
    """Operator values at any nodes (typically exterior), from one stencil.

    Same stencil as assembly; for nodes near the edge of the truncation ball
    the tail distance is clamped below at h/2.  Per block of nodes the
    stencil rows are formed once and each is reduced with the matmul row
    dot of apply_operator, so every value is bit-identical to
    np.dot(w, u_g - u) + tail (u_g - farfield) over that node's row.
    """
    if not u.grid.same_as(op.grid):
        raise GridMismatch("field grid differs from operator grid")
    indices = np.asarray(indices, dtype=int)
    stencil = _Stencil(op.grid, op.params)
    out = np.empty(indices.size)
    for sl in _blocks(indices.size, op.grid.n_nodes):
        w, tail = stencil.rows(indices[sl])
        own = u.values[indices[sl], None]
        dots = np.matmul(w[:, None, :], (own - u.values)[:, :, None])
        out[sl] = dots[:, 0, 0] + tail * (own[:, 0] - farfield)
    return out
