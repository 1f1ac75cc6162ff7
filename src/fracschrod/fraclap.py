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

Both blocks are stored by structure.  Off the diagonal an entry depends
only on the lattice offset between its two cells, so a product with either
block is a lattice convolution of the kernel, near offsets summed directly
and the rest by numpy.fft, equal to the dense product to roundoff
(InteriorBlock, ExteriorBlock), each kernel a box slice of the stencil's
table (_offset_kernel).  Each near offset is one contiguous add over the
flattened source sub-box, bit for bit a sum over shifted windows
(_Convolution).  Assembly forms no row: each block takes its row sums as
its own product with a vector of ones, and the diagonal balances them, so
constants with matching far-field are annihilated to roundoff (below the
acceptance gate's 1e-12), not exactly.  The dense entries can still be
formed bit for bit: a_ii.fill writes the lower triangle of the interior
block plus a diagonal in packed storage, the system matrix the solver
factors, and _Stencil.rows, the one place the sparse corrections are
applied, gives a_ie's entries negated when restricted to exterior
columns.  A stencil is rebuilt per call: 6-7 ms at 2D h=2^-5, and
64-103 ms holding 57 MiB at h=2^-7, on a 2-core x86-64 host.  The
assembled operator is immutable and apply() is pure.

The interior block also gives the eigenvalues of its optimal tau matrix,
which the orthonormal DST-I diagonalizes (_dst), for the solver's
preconditioner.  The module needs numpy alone.  Its FFTs are scipy.fft's
bit for bit on numpy >= 2 (_rfftn, _irfftn, _fast_len), and the 2D
singular cell's mass takes its one hypergeometric value from a
Gauss-Legendre rule, so importing the package loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, pi, prod

import numpy as np

from .errors import (
    GridMismatch,
    NonPositiveRadius,
    OrderOutOfRange,
    SingularOverlap,
    Validation,
    _number,
)
from .grid import _DIMENSIONS, _TOL, Field, Grid, Region, _node_indices

__all__ = [
    "ExteriorBlock",
    "FracParams",
    "InteriorBlock",
    "NonlocalOperator",
    "cns",
    "tail_mass",
    "assemble",
    "apply_operator",
    "evaluate_at",
]


def cns(n: int, s: float) -> float:
    """Normalization constant Gamma(n/2+s) 4^s / (|Gamma(-s)| pi^(n/2)).  s
    and the integer n >= 1 are read by errors._number; s outside (0, 1)
    raises OrderOutOfRange."""
    s = _number(s, "order s")
    if not 0.0 < s < 1.0:
        raise OrderOutOfRange(f"s = {s} must lie in (0, 1)")
    n = _number(n, "dimension n", 1, integer=True)
    return gamma(n / 2 + s) * 4.0**s / (abs(gamma(-s)) * pi ** (n / 2))


@dataclass(frozen=True)
class FracParams:
    """Dimension n, fractional order s, and the kernel normalization
    constant cns(n, s), computed here, which reads both.  n must be a
    dimension of grid._DIMENSIONS (Validation); s outside (0, 1) raises
    OrderOutOfRange."""

    n: int
    s: float
    cns: float = field(init=False)

    def __post_init__(self):
        if self.n not in _DIMENSIONS.values():
            raise Validation(f"only n in {set(_DIMENSIONS.values())} supported, "
                             f"got {self.n}")
        object.__setattr__(self, "cns", cns(self.n, self.s))


def tail_mass(params: FracParams, r_eff: float) -> float:
    """Closed-form kernel mass beyond radius r_eff around the evaluation node:
    the sphere area 2 pi^(n/2) / Gamma(n/2) times r^(-2s) / (2s), scaled by
    the normalization constant.  The area is exactly 2.0 in 1D (both
    half-lines) and 2 pi in 2D in floating point.
    """
    if not r_eff > 0:
        raise NonPositiveRadius(f"r_eff = {r_eff}")
    sphere = 2.0 * pi ** (params.n / 2) / gamma(params.n / 2)
    return params.cns * sphere * r_eff ** (-2 * params.s) / (2 * params.s)


# 40-node Gauss-Legendre rule on [0, 1] for the 2D singular cell mass
_CELL_NODES, _CELL_WEIGHTS = np.polynomial.legendre.leggauss(40)
_CELL_NODES, _CELL_WEIGHTS = 0.5 * (_CELL_NODES + 1.0), 0.5 * _CELL_WEIGHTS


def _square_cell_mass(s: float) -> float:
    """Integral of |z|^(-2s) over [-1/2, 1/2]^2: the flux of z |z|^(-2s), whose
    divergence is (2 - 2s) |z|^(-2s), through four faces at distance 1/2.
    A face contributes 2^(2s - 1) 2F1(1/2, s; 3/2; -1), and 2F1(1/2, s; 3/2;
    -1) = integral of (1 + t^2)^(-s) over t in [0, 1] comes from the
    Gauss-Legendre rule (within 3.3e-16 relative of a 40-digit value for s in
    [0.01, 0.99]; scipy's hyp2f1 is within 1.2e-15)."""
    f = float(np.sum(_CELL_WEIGHTS * (1.0 + _CELL_NODES**2) ** -s))
    return 4.0 * 0.5 ** (1.0 - 2.0 * s) * f / (2.0 - 2.0 * s)


def _singular_weight(params: FracParams, h: float) -> float:
    """Per-axis second-difference weight for the cell containing the node."""
    s = params.s
    # per n: the 1D bits reach probe.csv's sigma_min, pinned with bound 0
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
    lattice coordinates (``coords``); the offset d between two cells indexes
    ``kernel``, the n-D table of midpoint weights over [-reach, reach]^n
    (entry d + reach per axis, zero at d = 0), reach = 2K with K the largest
    coordinate (floor(R/h) on a grid from build_grid), laid out for this
    class and _offset_kernel only.  ``share[c]`` lists the nodes receiving
    the mass of cell c (itself, or the outward exterior neighbors of a
    boundary point; -1 padded), ``count[c]`` how many; a cell with none
    feeds the tail.
    """

    def __init__(self, grid: Grid, params: FracParams):
        h, n = grid.h, grid.dim
        center = grid.domain.center
        points = np.concatenate([grid.nodes, grid.boundary_points.reshape(-1, n)])
        scaled = (points - center) / h
        coords = np.rint(scaled).astype(np.int64)
        off = np.any(np.abs(scaled - coords) > _TOL, axis=1)
        if np.any(off):
            raise SingularOverlap(
                f"point {tuple(points[off][0].tolist())} is off the h-lattice")
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

        # |offset| as the root of the squared axis offsets summed in axis
        # order (what linalg.norm computes), by broadcasting and in place
        square = (h * np.arange(-2 * k, 2 * k + 1)) ** 2
        d = square
        for _ in range(n - 1):
            d = np.add.outer(d, square)
        np.sqrt(d, out=d)
        zero = (self.reach,) * n
        d[zero] = 1.0
        d **= n + 2 * params.s
        self.kernel = np.divide(params.cns * h**n, d, out=d)
        self.kernel[zero] = 0.0

        self.grid, self.params, self.center = grid, params, center
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

    def midpoint(self, targets, cols) -> np.ndarray:
        """Midpoint weights between target nodes (rows) and any cells (cols).

        Each row is one gather from a shifted view of the flattened kernel,
        so no index array of the block's size is formed.  The offsets lie
        inside the kernel by construction, so the gather clips instead of
        checking bounds (which buffers out, 1.5x slower).
        """
        keys = self.keys[targets]
        low = keys.min(initial=0)
        base = self.origin + low - self.keys[cols]
        flat = self.kernel.reshape(-1)
        out = np.empty((keys.size, base.size))
        for row, shift in zip(out, keys - low):
            np.take(flat[shift:], base, out=row, mode="clip")
        return out

    def interior_rows(self, targets):
        """Batches (sl, rows): the midpoint weights from targets[sl] to the
        interior nodes, 512 KiB at a time.  The interior nodes fill a box from
        corner low, so the row of a node at c is the kernel's box K(low - c +
        m), m over the box, which is K(c - low - m) as K(d) = K(-d) bit for
        bit; a batch is one gather from a sliding-window view of the kernel."""
        low, span = _interior_box(self)
        boxes = np.lib.stride_tricks.sliding_window_view(self.kernel, tuple(span))
        corners = (self.reach + low - self.coords[targets]).T
        size = int(np.prod(span))
        for sl in _blocks(len(targets), 8 * size):  # 8 rows' width: 512 KiB
            yield sl, boxes[tuple(corners[:, sl])].reshape(-1, size)

    def rows(self, targets, cols=None) -> tuple[np.ndarray, np.ndarray]:
        """Weights (m, len(cols)) from the targets to the distinct nodes cols
        (default: every node), and tail coefficients (m,) at the targets, so
        that at a target node g

            L u (x_g) = sum_j w_gj (u_g - u_j) + tail_g (u_g - farfield),

        the sum over every node j; w_gg is nonzero one step off a face (g
        receives the boundary cell's mass) and multiplies u_g - u_g.  The
        only code that applies corrections: to the midpoint weights it adds
        the mass of each boundary cell, then the singular mass of each -/+
        axis step, shared among the nodes the cell is attributed to; mass no
        node receives spills to the tail, ahead of far_tails.
        """
        nn = self.grid.n_nodes
        targets = np.asarray(targets, dtype=int)
        cols = np.arange(nn) if cols is None else np.asarray(cols, dtype=int)
        where = np.full(nn + 1, -1)        # where[-1] = -1: a padding -1 misses
        where[cols] = np.arange(cols.size)
        w, tail, m = self.midpoint(targets, cols), np.zeros(targets.size), targets.size
        bd = np.arange(nn, len(self.keys))
        steps = np.repeat(self.strides, 2) * np.tile([-1, 1], len(self.strides))
        for rows, cells, mass in (
                (np.repeat(np.arange(m), bd.size), np.tile(bd, m),
                 self.midpoint(targets, bd).ravel()),
                (np.tile(np.arange(m), steps.size),
                 self.table[self.origin + self.keys[targets] + steps[:, None]].ravel(),
                 np.full(steps.size * m, self.w_sing))):
            count = np.where(cells >= 0, self.count[cells], 0)
            for node in self.share[cells].T:
                hit = (cells >= 0) & (where[node] >= 0)
                w[rows[hit], where[node[hit]]] += mass[hit] / count[hit]
            np.add.at(tail, rows[count == 0], mass[count == 0])
        tail += self.far_tails(targets)
        return w, tail

    def far_tails(self, targets) -> list[float]:
        """Closed-form kernel mass beyond the truncation ball, per target node,
        with the bits of a node-by-node evaluation: each distance is the
        square root of a (1, n) @ (n, 1) matmul, the BLAS dot np.linalg.norm
        takes (a sum of squares can round differently), and tail_mass stays
        a scalar power per node."""
        R, h = self.grid.R, self.grid.h
        x = self.grid.nodes[targets] - self.center
        # per n: the same 1D pin; the 2D branch double-counts B(0, R) \ B(x, R - |x|)
        if self.grid.dim == 1:
            return [0.5 * (tail_mass(self.params, max(R + dd, 0.5 * h))
                           + tail_mass(self.params, max(R - dd, 0.5 * h)))
                    for dd in x[:, 0].tolist()]
        norms = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
        return [tail_mass(self.params, max(r, 0.5 * h)) for r in (R - norms).tolist()]


# Kernel offsets with |k|_inf <= _NEAR are summed directly, the rest by FFT.
# The FFT's roundoff scales with the largest weight it carries, so a smaller
# radius moves the sample outputs further from their references: at 0 and 1
# they leave the bounds of tests/test_bounded.py (barrier_C at 2.65 and 1.40
# of its bound), at 2 and 3 the worst column reaches 0.85 and 0.65 of its
# bound, and at 4 0.59, near radius 8's 0.55.  In 2D that is 80 direct
# terms instead of 288, which were most of a product's time.
_NEAR = 4


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, 2^a 3^b 5^c: the length pocketfft
    transforms fastest, as scipy.fft.next_fast_len(n, real=True) picks it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _rfftn(x: np.ndarray, size) -> np.ndarray:
    """Real n-D FFT of x zero-padded to size, over every axis."""
    return np.fft.rfftn(x, size, axes=tuple(range(len(size))))


def _irfftn(spectrum: np.ndarray, size) -> np.ndarray:
    """Inverse of _rfftn onto the box size.  Unnormalized transforms scaled
    once by 1 / prod(size) afterwards: numpy's norm="backward" scales each
    axis in turn, while this is scipy.fft.irfftn bit for bit (numpy >= 2,
    whose pocketfft is scipy's C++ one)."""
    out = np.fft.irfftn(spectrum, size, axes=tuple(range(len(size))), norm="forward")
    out *= 1.0 / prod(size)
    return out


def _along_axes(mats, x: np.ndarray) -> np.ndarray:
    """x with mats[k] applied along its axis k: the Kronecker product of the
    mats times x flattened, one small matmul per axis."""
    for axis, m in enumerate(mats):
        x = np.moveaxis(np.tensordot(m, x, axes=(1, axis)), 0, axis)
    return x


def _dst(x: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I of x over every axis, Q x with

        Q[j, a] = prod_k sqrt(2 / (n_k + 1)) sin(pi (j_k + 1) (a_k + 1) / (n_k + 1))

    for x of extents n_k: Q is symmetric and orthogonal, its own inverse.
    Along an axis of extent n the sum over a is minus the imaginary part of
    the real FFT of [0, x, 0, ..., 0], of length 2 (n + 1), a power of two
    on the boxes of build_grid: the odd extension [0, x, 0, -x reversed]
    has twice that transform, so the zeros stand for its odd half at half
    the copying."""
    scale = 1.0
    for axis, n in enumerate(x.shape):
        ext = np.zeros(x.shape[:axis] + (2 * (n + 1),) + x.shape[axis + 1:])
        inner = (slice(None),) * axis + (slice(1, n + 1),)
        ext[inner] = x
        x = np.fft.rfft(ext, axis=axis)[inner].imag
        scale *= -np.sqrt(2.0 / (n + 1))
    return scale * x


def _sine_squares(n: int) -> np.ndarray:
    """s[j, a] = q_j(a)^2, the squared entries of the orthonormal DST-I
    vectors q_j(a) = sqrt(2 / (n + 1)) sin(pi j a / (n + 1)), j, a = 1..n."""
    j = np.arange(1, n + 1)
    return (2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.outer(j, j)) ** 2


def _tau_weights(n: int) -> np.ndarray:
    """g[j - 1, d + n - 1] = sum_a q_j(a) q_j(a + |d|) over 1 <= a <= n - |d|,
    for the vectors q_j of _sine_squares and offsets |d| < n: the weight of
    a Toeplitz matrix's entry at offset d in the eigenvalue q_j^T T q_j of
    its optimal tau matrix.  In closed form, with theta = pi j / (n + 1),

        g = [(n - |d|) cos(theta d) - (-1)^j sin((n - |d|) theta) / sin theta]
            / (n + 1)."""
    j, d = np.arange(1, n + 1)[:, None], np.arange(1 - n, n)
    theta, left = np.pi / (n + 1) * j, n - np.abs(d)
    sign = np.where(j % 2, -1.0, 1.0)       # (-1)^j
    return (left * np.cos(theta * d) - sign * np.sin(left * theta)
            / np.sin(theta)) / (n + 1)


def _interior_box(stencil: _Stencil) -> tuple[np.ndarray, np.ndarray]:
    """Lowest lattice coordinate and extent of the box the interior nodes fill.

    The interior nodes of a grid from build_grid are every lattice point of
    a box, in row-major order, so a field over the box flattens to the
    interior order; any other node set raises SingularOverlap.
    """
    targets = stencil.coords[stencil.grid.interior_index]
    low = targets.min(axis=0)
    span = targets.max(axis=0) + 1 - low
    box = np.indices(span).reshape(len(span), -1).T
    if not np.array_equal(targets - low, box):
        raise SingularOverlap("the interior nodes do not fill a lattice box")
    return low, span


def _offset_kernel(stencil: _Stencil, low, span) -> np.ndarray:
    """The kernel K(d) over the box of offsets d in [low, low + span), one
    zero-padded slice of the stencil's table: the midpoint weights, zero
    beyond the reach, with w_sing added at the -/+ axis unit offsets, where
    the singular cell's mass lands."""
    kern, r = np.zeros(tuple(int(w) for w in span)), stencil.reach
    a, b = np.clip(low, -r, r + 1), np.clip(low + span, -r, r + 1)  # may be empty
    kern[tuple(map(slice, a - low, b - low))] = stencil.kernel[
        tuple(map(slice, a + r, b + r))]
    units = np.eye(len(span), dtype=int)
    for at in np.concatenate([-units, units]) - low:
        if np.all((at >= 0) & (at < span)):
            kern[tuple(at)] += stencil.w_sing
    return kern


class _Convolution:
    """The kernel K of _offset_kernel convolved with a lattice field.

    (K * F)(t) = sum_m K(t - m) F(m), for t in a target box and F given on
    a source box that reaches _NEAR past every target.  The part of K with
    |k|_inf > _NEAR is applied first, by FFT from its stored rfft spectrum
    over a box large enough that the circular convolution is exact at every
    target (equal to the direct sum to roundoff, not bit for bit).  The
    near offsets, the (2 _NEAR + 1)^n sub-box of K around offset 0, carry
    the large weights and are added directly, smallest weight first (ties
    in row-major offset order), from the sub-box of F within _NEAR of the
    targets, copied contiguous.  At that sub-box's row stride the targets
    fill one flat run, so each term is one contiguous add from a fixed
    start, and weight * sub-box is formed once per distinct weight: every
    target sees the products and adds of a sum over shifted windows of F,
    in the same order, bit for bit.  The radius _NEAR = 4 trades the direct
    terms' cost against the FFT's roundoff, which grows with the largest
    weight the FFT carries; see the comment at _NEAR.
    """

    def __init__(self, stencil: _Stencil, low, span, t_low, t_span):
        self.span = tuple(int(w) for w in span)
        d_span = t_span + span - 1
        d_low = t_low - (low + span - 1)
        kern = _offset_kernel(stencil, d_low, d_span)
        # offsets [-_NEAR, _NEAR]^n: in the box, as sources reach _NEAR past targets
        near = kern[tuple(slice(-a - _NEAR, -a + _NEAR + 1) for a in d_low)]
        d = np.indices(near.shape).reshape(near.ndim, -1).T - _NEAR
        sub = tuple(int(w) + 2 * _NEAR for w in t_span)
        self._sub = tuple(slice(a - _NEAR, a - _NEAR + w) for a, w in zip(t_low - low, sub))
        # targets at the sub-box's flat positions, from 0 to run - 1
        self._acc = (int(t_span[0]),) + sub[1:]
        self._target = tuple(slice(0, int(w)) for w in t_span)
        self._run = int(np.ravel_multi_index(tuple(t_span - 1), sub)) + 1
        # nonzero near terms in row-major offset order, stably by weight
        weights = near.flatten()
        term = weights != 0.0
        order = np.argsort(weights[term], kind="stable")
        weight = weights[term][order]
        start = np.ravel_multi_index((_NEAR - d[term][order]).T, sub)
        first = np.flatnonzero(np.r_[True, weight[1:] != weight[:-1]])
        self._weights = weight[first]
        self._starts = np.split(start, first[1:])
        near[...] = 0.0
        self._size = tuple(_fast_len(int(w)) for w in d_span)
        self._spectrum = _rfftn(kern, self._size)
        self._valid = tuple(slice(s - 1, s - 1 + w) for s, w in zip(span, t_span))

    @property
    def nbytes(self) -> int:
        arrays = (self._spectrum, self._weights, *self._starts)
        return sum(a.nbytes for a in arrays)

    def __call__(self, field: np.ndarray) -> np.ndarray:
        """(K * field) over the target box, flattened in row-major order."""
        acc = np.zeros(self._acc)      # padding cells are summed, then dropped
        acc[self._target] = _irfftn(
            _rfftn(field, self._size) * self._spectrum, self._size)[self._valid]
        src = np.ascontiguousarray(field[self._sub]).reshape(-1)
        scaled = np.empty_like(src)
        run = self._run
        total = acc.reshape(-1)[:run]
        for weight, starts in zip(self._weights, self._starts):
            np.multiply(weight, src, out=scaled)
            for a in starts.tolist():
                total += scaled[a:a + run]
        return acc[self._target].reshape(-1)


class ExteriorBlock:
    """The exterior block a_ie of an assembled operator, stored by structure.

    a_ie holds no dense (ni, n_exterior) array.  Every interior row of the
    block is the same lattice kernel read at the row's own key, so

        (a_ie @ g)_i = -(K * G)(k_i),

    a convolution on the lattice (_Convolution).  G holds g at the exterior
    nodes' keys and, at each boundary point, the mean of g over the
    exterior nodes its cell is attributed to (zero where the cell feeds the
    tail); K is the kernel of _offset_kernel.  The product equals the dense
    one to roundoff, not bit for bit; the exact entries are
    -_Stencil.rows(interior, exterior).  row_sums is a_ie @ 1, the block's
    row sums by the same convolution.
    """

    def __init__(self, stencil: _Stencil):
        grid = stencil.grid
        self.shape = (grid.n_interior, grid.n_exterior)
        coords = stencil.coords
        # source box: every cell, padded so each near-field shift stays inside
        low = coords.min(axis=0) - _NEAR
        span = coords.max(axis=0) + _NEAR + 1 - low
        self._conv = _Convolution(stencil, low, span, *_interior_box(stencil))
        at = np.ravel_multi_index((coords - low).T, self._conv.span)
        # boundary cells that pass mass on: one (cell, exterior node, count)
        # triple per receiving node, as lattice maps into G
        column = grid.local_of_global()
        nn = grid.n_nodes
        cell, slot = np.nonzero(stencil.share[nn:] >= 0)
        node = stencil.share[nn:][cell, slot]
        self._fold = (at[nn + cell], column[node],
                      stencil.count[nn + cell].astype(float))
        self._ext = at[grid.exterior_index]
        self.row_sums = self @ np.ones(self.shape[1])
        self.row_sums.setflags(write=False)

    @property
    def nbytes(self) -> int:
        arrays = (self.row_sums, self._ext, *self._fold)
        return sum(a.nbytes for a in arrays) + self._conv.nbytes

    def __matmul__(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.shape[1],):
            raise ValueError(f"a_ie @ g needs g of shape ({self.shape[1]},), got {g.shape}")
        field = np.zeros(self._conv.span)
        flat = field.reshape(-1)
        flat[self._ext] = g
        cell, node, count = self._fold
        np.add.at(flat, cell, g[node] / count)
        return -self._conv(field)


def _pairs(table: np.ndarray) -> np.ndarray:
    """Read-only view v[i0, i1, j0, j1] = table[(r - 1) + i0 - j0,
    (w - 1) + i1 - j1] of a table over the offsets of an (r, w) box."""
    (r, w), (s0, s1) = [(n + 1) // 2 for n in table.shape], table.strides
    return np.lib.stride_tricks.as_strided(
        table[r - 1:, w - 1:], shape=(r, w, r, w), strides=(s0, s1, -s0, -s1),
        writeable=False)


class InteriorBlock:
    """The interior block a_ii of an assembled operator, stored by structure.

    a_ii holds no dense (ni, ni) array.  Off the diagonal, entry (i, j) is
    -K(k_i - k_j), with K the kernel of _offset_kernel, so a_ii is block
    Toeplitz with Toeplitz blocks on the interior box.  off_sums is
    off_diagonal(1), the off-diagonal row sums, and the diagonal balances
    each row of [a_ii a_ie]: -(off_sums + exterior_sums), given the
    exterior block's row sums.  box is the interior box's extent per axis,
    the shape an interior vector reshapes to in row-major order.

    a_ii @ v is diagonal * v plus off_diagonal(v), a lattice convolution
    over the interior box padded by _NEAR (equal to the dense product to
    roundoff).  fill writes the lower triangle of a_ii + diag(shift) bit
    for bit from strided views of the negated kernel over the offsets
    [-(w - 1), w - 1] per axis of box width w; as K(d) = K(-d) bit for bit,
    the block is bitwise symmetric, so either triangle is it.
    """

    def __init__(self, stencil: _Stencil, exterior_sums: np.ndarray):
        ni = stencil.grid.n_interior
        self.shape = (ni, ni)
        low, span = _interior_box(stencil)
        self._conv = _Convolution(stencil, low - _NEAR, span + 2 * _NEAR, low, span)
        self.box = tuple(int(w) for w in span)
        self._pad = tuple(slice(_NEAR, _NEAR + w) for w in self.box)
        self._kernel = -_offset_kernel(stencil, 1 - span, 2 * span - 1)
        # with the box as (r, w) = (box rows, last axis), pairs[i0, i1, j0,
        # j1] is entry (i, j) off the diagonal and upper[...] says i <= j in
        # the interior order; built once, since per-call views cost more
        # than a small matrix's whole fill
        r, w = ni // self.box[-1], self.box[-1]
        self._upper_table = np.add.outer(w * np.arange(1 - r, r), np.arange(1 - w, w)) <= 0
        self._pairs = _pairs(self._kernel.reshape(2 * r - 1, 2 * w - 1))
        self._upper = _pairs(self._upper_table)
        self.off_sums = self.off_diagonal(np.ones(ni))
        self.diagonal = -(self.off_sums + exterior_sums)
        for arr in (self.off_sums, self.diagonal):
            arr.setflags(write=False)

    @property
    def nbytes(self) -> int:
        arrays = (self.diagonal, self.off_sums, self._kernel, self._upper_table)
        return sum(a.nbytes for a in arrays) + self._conv.nbytes

    def off_diagonal(self, v: np.ndarray) -> np.ndarray:
        """(a_ii - diag(a_ii)) @ v by lattice convolution."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise ValueError(f"a_ii @ v needs v of shape ({self.shape[1]},), "
                             f"got {v.shape}")
        field = np.zeros(self._conv.span)
        field[self._pad] = v.reshape(self.box)
        return -self._conv(field)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.diagonal * v + self.off_diagonal(v)

    def tau_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the optimal tau matrix of a_ii - diag(a_ii) over
        the box: lambda_j = q_j^T (a_ii - diag(a_ii)) q_j, with q_j the
        orthonormal multilevel DST-I vectors, the diagonal of Q T Q for the
        orthogonal Q that diagonalizes the tau algebra.  As T is block
        Toeplitz with Toeplitz blocks, lambda is the kernel table weighted
        by one _tau_weights factor per axis."""
        return _along_axes([_tau_weights(n) for n in self.box], self._kernel)

    def tau_diagonal(self, d: np.ndarray) -> np.ndarray:
        """Eigenvalues of the optimal tau matrix of diag(d) over the box,
        lambda_j = sum_a q_j(a)^2 d_a: d weighted by one _sine_squares
        factor per axis."""
        return _along_axes([_sine_squares(n) for n in self.box], d.reshape(self.box))

    def fill(self, out: np.ndarray, shift: np.ndarray) -> None:
        """Write the lower triangle of a = a_ii + diag(shift) into out, a flat
        array of ni (ni + 1) / 2 floats in LAPACK's rectangular full packed
        layout (TRANSR='N', UPLO='L'), bit for bit the dense sum: the
        off-diagonal entries assembly computes, and diagonal + shift.

        With m = ni - ni // 2, e = 1 - ni % 2 and ld = ni + e, out is the
        Fortran-order (ld, m) array p with p[e + i, j] = a[i, j] for i >= j
        and p[i, j + 1 - e] = a[m + i, m + j] for i <= j < ni // 2.
        """
        ni = self.shape[0]
        n2, e = ni // 2, 1 - ni % 2
        m, ld = ni - n2, ni + e
        if out.shape != (ld * m,) or out.dtype != float or not out.flags.c_contiguous:
            raise ValueError(f"fill needs a contiguous array of {ld * m} float64")
        pairs, upper = self._pairs, self._upper
        r, w = pairs.shape[:2]
        first, skip = divmod(m, w)          # column m is (first, skip) in the box
        packed = out.reshape(m, ld).T
        # a[:, :m], whose part above the diagonal the triangle overwrites: the
        # whole box rows of columns, then the part of row first (splitting an
        # axis into the box's axes is a view for any strides)
        rect = packed[e:]
        np.copyto(rect[:, : m - skip].reshape(r, w, first, w), pairs[:, :, :first])
        if skip:
            np.copyto(rect[:, m - skip:].reshape(r, w, skip), pairs[:, :, first, :skip])
        # the a[m:, m:] triangle, masked to i <= j: the rest of box row first
        # against itself and the rows below it, and those rows among themselves
        if n2:
            tri, head, k = packed[:n2, 1 - e:], w - skip, r - first - 1
            below = slice(first + 1, r)
            np.copyto(tri[:head, :head], pairs[first, skip:, first, skip:],
                      where=upper[first, skip:, first, skip:])
            np.copyto(tri[:head, head:].reshape(head, k, w), pairs[first, skip:, below])
            np.copyto(tri[head:, head:].reshape(k, w, k, w), pairs[below, :, below],
                      where=upper[below, :, below])
        np.add(self.diagonal[:m], shift[:m], out=out[e:: ld + 1])
        np.add(self.diagonal[m:], shift[m:], out=out[(1 - e) * ld:: ld + 1])


@dataclass(frozen=True, eq=False)
class NonlocalOperator:
    """Assembled fractional Laplacian restricted to interior rows.

    a_ii (InteriorBlock) is bitwise symmetric, with positive diagonal and
    nonpositive off-diagonal entries, and a_ie (ExteriorBlock) nonpositive;
    both are lattice convolutions.  tail holds the closed-form kernel mass
    beyond the truncation ball per interior node.  The diagonal balances
    the blocks' row sums, so rows of [a_ii a_ie] sum to zero and constants
    with matching far-field are annihilated, both up to the roundoff of
    the convolutions.  No array of the operator grows like ni^2 or ni N.
    """

    params: FracParams
    grid: Grid
    a_ii: InteriorBlock
    a_ie: ExteriorBlock
    tail: np.ndarray

    def apply(self, u: Field, farfield: float = 0.0) -> np.ndarray:
        return apply_operator(self, u, farfield)


def assemble(grid: Grid, s: float) -> NonlocalOperator:
    """Assemble the discrete operator for a grid and fractional order.

    Builds the operator only; whether a factor of its system matrix fits in
    memory is the solver's question, asked when a factor is requested.
    Raises SingularOverlap, before the blocks are built, when a node or
    boundary point is off the lattice.  No row is formed: each block's row
    sums are its product with ones, and tail is the closed-form far mass
    alone (2D h=2^-7 assembles in under a second).  On a grid from
    build_grid an interior row spills nothing to the tail: its axis steps
    land on nodes or boundary cells, and every boundary cell has an
    exterior receiver, because R is at least the domain diameter.
    """
    params = FracParams(grid.dim, s)
    stencil = _Stencil(grid, params)
    a_ie = ExteriorBlock(stencil)
    tail = np.array(stencil.far_tails(grid.interior_index))
    tail.setflags(write=False)
    return NonlocalOperator(params=params, grid=grid,
                            a_ii=InteriorBlock(stencil, a_ie.row_sums),
                            a_ie=a_ie, tail=tail)


def apply_operator(op: NonlocalOperator, u: Field, farfield: float = 0.0) -> np.ndarray:
    """Operator value at every interior node, from two lattice convolutions
    in difference form.  The interior part sum_j a_ij (u_j - u_i) is
    off_diagonal(w) - w * off_sums with w = u_i - mean(u_i): equal in exact
    arithmetic for any shift, and the shift makes w vanish for constant u_i,
    so the convolution's roundoff scales with the variation of u_i rather
    than its size.  The exterior part is (a_ie @ u_e) - u_i * rowsum(a_ie).
    Constants with matching far-field are therefore annihilated to the
    roundoff of the exterior product (far below 1e-12 at the sizes the
    acceptance gate checks), not exactly.  farfield is read by errors._number.
    """
    if not u.grid.same_as(op.grid):
        raise GridMismatch("field grid differs from operator grid")
    farfield = _number(farfield, "farfield")
    ui = u.interior_values
    w = ui - np.mean(ui)
    out = op.a_ie @ u.exterior_values - ui * op.a_ie.row_sums
    out += op.a_ii.off_diagonal(w) - w * op.a_ii.off_sums
    return out + op.tail * (ui - farfield)


def evaluate_at(op: NonlocalOperator, u: Field, indices,
                farfield: float = 0.0) -> np.ndarray:
    """Operator values at any nodes (typically exterior), from one stencil.

    Same stencil as assembly; for nodes near the edge of the truncation ball
    the tail distance is clamped below at h/2.  Per block of nodes the
    stencil rows are formed once and each is reduced by one BLAS dot, a
    (1, N) @ (N, 1) matmul, so every value is bit-identical to
    np.dot(w, u_g - u) + tail (u_g - farfield) over that node's row.
    farfield is read by errors._number.
    """
    if not u.grid.same_as(op.grid):
        raise GridMismatch("field grid differs from operator grid")
    farfield = _number(farfield, "farfield")
    indices = _node_indices(op.grid, indices)
    stencil = _Stencil(op.grid, op.params)
    out = np.empty(indices.size)
    for sl in _blocks(indices.size, op.grid.n_nodes):
        w, tail = stencil.rows(indices[sl])
        own = u.values[indices[sl], None]
        dots = np.matmul(w[:, None, :], (own - u.values)[:, :, None])
        out[sl] = dots[:, 0, 0] + tail * (own[:, 0] - farfield)
    return out
