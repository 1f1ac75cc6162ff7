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
straight into the dense interior block a_ii and a reused exterior buffer,
negated, then subtracts the sparse corrections the stencil lists (boundary
cells first, then the singular cell) and sets the diagonal from the
finished rows; no row over all nodes is formed, and the exterior rows are
kept only as their sums.  The exterior block a_ie is stored by structure
(ExteriorBlock): a product with it is a lattice convolution of the kernel,
near offsets summed directly and the rest by FFT, equal to the dense
product to roundoff; its columns can still be gathered exactly.  So
constants with matching far-field are annihilated to roundoff (below the
acceptance gate's 1e-12), not exactly.  The stencil is cheap enough to
rebuild per call; the assembled operator is immutable and apply() is a
pure function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gamma, pi

import numpy as np
import scipy.fft
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
    "ExteriorBlock",
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
    lattice coordinates (``coords``); the offset between two keys indexes
    ``kernel``, the midpoint weights over [-reach, reach]^n (zero at the
    origin), reach = 2K with K the largest coordinate (floor(R/h) on a grid
    from build_grid).  ``share[c]`` lists the nodes receiving the mass of
    cell c (itself, or the outward exterior neighbors of a boundary point;
    -1 padded), ``count[c]`` how many; a cell with none feeds the tail.
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
        self.reach = 2 * k
        width = 4 * k + 1
        self.strides = width ** np.arange(n - 1, -1, -1)
        self.origin = 2 * k * int(self.strides.sum())
        self.coords = coords
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
        The offsets lie inside the kernel by construction, so the gather
        clips instead of checking bounds (which buffers out, 1.5x slower).
        """
        keys = self.keys[targets]
        low = keys.min(initial=0)
        base = self.origin + low - self.keys[cols]
        if out is None:
            out = np.empty((keys.size, base.size))
        for row, shift in zip(out, keys - low):
            np.take(self.kernel[shift:], base, out=row, mode="clip")
        return out

    def corrections(self, targets) -> tuple[list, np.ndarray]:
        """Sparse additions to the midpoint rows at the targets, and the mass
        they leave over.

        Returns (adds, spill): adds lists (row, node, mass) batches, row local
        to targets, in the order they apply (the boundary cells, then the
        singular mass of each -/+ axis step); no batch repeats a (row, node)
        pair.  Mass no node receives goes to spill; a target's tail
        coefficient is its spill plus far_tails.
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
        tail += self.far_tails(targets)
        for row, node, mass in adds:
            w[row, node] += mass
        return w, tail

    def far_tails(self, targets) -> list[float]:
        """Closed-form kernel mass beyond the truncation ball, per target node."""
        return [self._far_tail(self.grid.nodes[g]) for g in targets]

    def _far_tail(self, x: np.ndarray) -> float:
        R, h, center = self.grid.R, self.grid.h, self.grid.domain.center
        if self.grid.dim == 1:
            dd = float(x[0] - center[0])
            return 0.5 * (tail_mass(self.params, max(R + dd, 0.5 * h))
                          + tail_mass(self.params, max(R - dd, 0.5 * h)))
        r_eff = max(R - float(np.linalg.norm(x - center)), 0.5 * h)
        return tail_mass(self.params, r_eff)


_NEAR = 8  # kernel offsets with |k|_inf <= _NEAR are summed directly


class ExteriorBlock:
    """The exterior block a_ie of an assembled operator, stored by structure.

    a_ie holds no dense (ni, n_exterior) array.  Every interior row of the
    block is the same lattice kernel read at the row's own key, so

        (a_ie @ g)_i = -(K * G)(k_i),

    a convolution on the lattice.  G holds g at the exterior nodes' keys
    and, at each boundary point, the mean of g over the exterior nodes its
    cell is attributed to (zero where the cell feeds the tail); K is the
    stencil's midpoint kernel with the singular weight w_sing added at the
    -/+ axis unit offsets, where the singular cell's mass lands.  Offsets
    with |k|_inf <= _NEAR, which carry the large weights, are summed
    directly; the rest of K is applied by FFT from its stored rfft
    spectrum, over a box large enough that the circular convolution is
    exact at every target key.  The product therefore equals the dense one
    to roundoff, not bit for bit.

    columns(idx) gathers exterior columns exactly, in assembly's own order
    of operations, so they equal the entries of the dense block bit for
    bit; row_sums are the dense block's row sums, taken during assembly.
    """

    def __init__(self, stencil: _Stencil, row_sums: np.ndarray):
        grid, n = stencil.grid, stencil.grid.dim
        self.grid, self.params = grid, stencil.params
        self.shape = (grid.n_interior, grid.n_exterior)
        self.row_sums = row_sums
        coords = stencil.coords
        # source box: every cell, padded so each near-field shift stays inside
        low = coords.min(axis=0) - _NEAR
        span = coords.max(axis=0) + _NEAR + 1 - low
        targets = coords[grid.interior_index]
        t_low = targets.min(axis=0)
        t_span = targets.max(axis=0) + 1 - t_low
        self._span = tuple(int(v) for v in span)
        at = np.ravel_multi_index((coords - low).T, self._span)
        self._t_at = np.ravel_multi_index((targets - t_low).T, tuple(t_span))
        # boundary cells that pass mass on: one (cell, exterior node, count)
        # triple per receiving node, as lattice maps into G
        column = grid.local_of_global()
        nn = grid.n_nodes
        cell, slot = np.nonzero(stencil.share[nn:] >= 0)
        node = stencil.share[nn:][cell, slot]
        self._fold = (at[nn + cell], column[node],
                      stencil.count[nn + cell].astype(float))
        self._ext = at[grid.exterior_index]

        # offsets d = t - m over targets t and source keys m
        d_low = t_low - (low + span - 1)
        d_span = t_span + span - 1
        axes = [np.arange(d_low[a], d_low[a] + d_span[a]) for a in range(n)]
        d = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        inside = np.all(np.abs(d) <= stencil.reach, axis=-1)
        kern = np.zeros(inside.shape)
        kern[inside] = stencil.kernel[stencil.origin + d[inside] @ stencil.strides]
        unit = np.sum(np.abs(d), axis=-1) == 1
        kern[unit] += stencil.w_sing
        near = np.all(np.abs(d) <= _NEAR, axis=-1)
        self._near = [(kern[tuple(i)], tuple(slice(s, s + w) for s, w in
                       zip(t_low - (d[tuple(i)] + low), t_span)))
                      for i in np.argwhere(near) if kern[tuple(i)] != 0.0]
        self._near.sort(key=lambda term: term[0])
        kern[near] = 0.0
        self._size = tuple(int(scipy.fft.next_fast_len(int(w), real=True))
                           for w in d_span)
        self._spectrum = scipy.fft.rfftn(kern, self._size)
        self._valid = tuple(slice(s - 1, s - 1 + w) for s, w in zip(span, t_span))

    @property
    def nbytes(self) -> int:
        arrays = (self.row_sums, self._t_at, self._ext, self._spectrum, *self._fold)
        return sum(a.nbytes for a in arrays) + 8 * len(self._near)

    def __matmul__(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.shape[1],):
            raise ValueError(f"a_ie @ g needs g of shape ({self.shape[1]},), got {g.shape}")
        field = np.zeros(self._span)
        flat = field.reshape(-1)
        flat[self._ext] = g
        cell, node, count = self._fold
        np.add.at(flat, cell, g[node] / count)
        total = scipy.fft.irfftn(scipy.fft.rfftn(field, self._size) * self._spectrum,
                                 self._size)[self._valid]
        for weight, window in self._near:
            total += weight * field[window]
        return -total.reshape(-1)[self._t_at]

    def columns(self, idx) -> np.ndarray:
        """Exterior columns idx (distinct local indices), shape (ni, len(idx)),
        bit for bit the entries assembly computes for them."""
        idx = np.asarray(idx, dtype=int)
        grid = self.grid
        stencil = _Stencil(grid, self.params)
        cols = grid.exterior_index[idx]
        where = np.full(grid.n_nodes, -1)
        where[cols] = np.arange(idx.size)
        out = np.empty((grid.n_interior, idx.size))
        for sl in _blocks(grid.n_interior, grid.n_nodes):
            block = out[sl]
            rows = grid.interior_index[sl]
            np.negative(stencil.midpoint(rows, cols, out=block), out=block)
            _subtract(block, where, stencil.corrections(rows)[0])
        return out


def _subtract(block: np.ndarray, where: np.ndarray, adds: list) -> None:
    """block[row, where[node]] -= mass for each add whose node has a column."""
    for row, node, mass in adds:
        hit = where[node] >= 0
        block[row[hit], where[node[hit]]] -= mass[hit]


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Assembled fractional Laplacian restricted to interior rows.

    a_ii is symmetric bit for bit, with positive diagonal and nonpositive
    off-diagonal entries; a_ie is the nonpositive exterior block, stored as
    a lattice convolution (ExteriorBlock); tail holds the closed-form
    kernel mass beyond the truncation ball per interior node.  Row sums of
    [a_ii a_ie] vanish, so constants with matching far-field are
    annihilated up to the roundoff of the exterior product.
    """

    params: FracParams
    grid: Grid
    a_ii: np.ndarray
    a_ie: ExteriorBlock
    tail: np.ndarray

    def apply(self, u: Field, farfield: float = 0.0) -> np.ndarray:
        return apply_operator(self, u, farfield)


def assemble(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the discrete operator for a grid and fractional order.

    Raises OperatorTooLarge when a_ii and one Cholesky factor of the system
    matrix would not fit in physical memory, and SingularOverlap when a
    node or boundary point is off the lattice, both before allocating a_ii.
    Per block of interior rows the exterior entries are formed in one
    reused buffer (at most 4 MiB), summed into the diagonal and the
    exterior row sums, and discarded.
    """
    params = frac_params(grid.dim, s)
    ni, nn = grid.n_interior, grid.n_nodes
    need, have = 2 * ni * ni * 8, _physical_memory()
    if need > have:
        raise OperatorTooLarge(
            f"the interior block and one factor need {need / 2**30:.1f} GiB, "
            f"physical memory is {have / 2**30:.1f} GiB")
    stencil = _Stencil(grid, params)
    interior, exterior = grid.interior_index, grid.exterior_index
    column = grid.local_of_global()
    at_interior = np.where(grid.labels == Region.INTERIOR, column, -1)
    at_exterior = np.where(grid.labels == Region.EXTERIOR, column, -1)
    blocks = _blocks(ni, nn)
    a_ii = np.empty((ni, ni))
    buffer = np.empty((blocks[0].stop - blocks[0].start, grid.n_exterior))
    row_sums = np.empty(ni)
    tail = np.empty(ni)
    for sl in blocks:
        rows = interior[sl]
        b_ii, b_ie = a_ii[sl], buffer[:rows.size]
        np.negative(stencil.midpoint(rows, interior, out=b_ii), out=b_ii)
        np.negative(stencil.midpoint(rows, exterior, out=b_ie), out=b_ie)
        adds, tail[sl] = stencil.corrections(rows)
        tail[sl] += stencil.far_tails(rows)
        _subtract(b_ii, at_interior, adds)
        _subtract(b_ie, at_exterior, adds)
        row_sums[sl] = np.sum(b_ie, axis=1)
        r = np.arange(sl.start, sl.stop)
        a_ii[r, r] = -(np.sum(b_ii, axis=1) + row_sums[sl])
    del buffer
    for arr in (a_ii, row_sums, tail):
        arr.setflags(write=False)
    return NonlocalOperator(params=params, grid=grid, a_ii=a_ii,
                            a_ie=ExteriorBlock(stencil, row_sums), tail=tail)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def apply_operator(op: NonlocalOperator, u: Field, farfield: float = 0.0) -> np.ndarray:
    """Operator value at every interior node.

    The interior part is evaluated in the difference form
    sum_j w_ij (u_i - u_j): per block of interior rows the differences
    u_j - u_i are formed at once (at most 1 MiB) and each row is reduced
    with a (1, n) @ (n, 1) matmul, the BLAS dot of two vectors.  The
    exterior part is (a_ie @ u_e) - u_i * rowsum(a_ie), one lattice
    convolution, so constants with matching far-field are annihilated to
    the roundoff of that product (far below 1e-12 at the sizes the
    acceptance gate checks), not exactly.
    """
    if not u.grid.same_as(op.grid):
        raise GridMismatch("field grid differs from operator grid")
    ui = u.interior_values
    out = op.a_ie @ u.exterior_values - ui * op.a_ie.row_sums
    # a quarter of _BLOCK: freed 4 MiB temporaries stay in the malloc heap
    # and raised the peak RSS of a 1D principles run by 3%
    for sl in _blocks(op.grid.n_interior, 4 * op.grid.n_interior):
        inner = np.matmul(op.a_ii[sl, None, :], (ui - ui[sl, None])[:, :, None])
        out[sl] += inner[:, 0, 0]
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
