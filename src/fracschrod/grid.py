"""Computational domain, truncated exterior lattice, and nodal fields.

The domain is an open interval or an open axis-aligned box.  Nodes are the
points of the uniform lattice of spacing ``h``, anchored at the domain
center, that fall either strictly inside the domain (INTERIOR) or outside
its closure but within distance ``R`` of the center (EXTERIOR).  Lattice
points landing exactly on the domain boundary belong to neither region;
they are excluded from the node set but retained separately because the
operator quadrature must still account for their cells.

All types are immutable value data after construction and safe to share
across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInterior,
    NonFiniteGrid,
    NonFiniteSample,
    NonPositiveSpacing,
    SpacingMismatch,
    TruncationTooSmall,
    Validation,
    _finite_real,
    _number,
    _values,
)

_TOL = 1e-9  # lattice classification tolerance, relative to h

# the supported domain kinds and their dimensions, and the coordinate names
# of a node table's columns; a new dimension starts here
_DIMENSIONS = {"interval-1d": 1, "box-2d": 2}
_AXES = ("x", "y")


class Region(enum.Enum):
    INTERIOR = "INTERIOR"
    EXTERIOR = "EXTERIOR"
    ALL = "ALL"


@dataclass(frozen=True)
class Domain:
    """Bounded open interval (1D) or axis-aligned open box (2D).

    Attributes:
        kind: a key of _DIMENSIONS, which gives the number of bounds per side
        lower: per-axis lower bounds
        upper: per-axis upper bounds

    Each bound is read by errors._number and stored as a float; a bad
    kind, bound count or bound raises Validation.
    """

    kind: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DIMENSIONS:
            raise Validation(f"unknown domain kind {self.kind!r}")
        expect = _DIMENSIONS[self.kind]
        for side in ("lower", "upper"):
            bounds = getattr(self, side)
            if not isinstance(bounds, (tuple, list, np.ndarray)) or len(bounds) != expect:
                raise Validation(f"{self.kind} needs {expect} bound(s) per side")
            object.__setattr__(self, side, tuple(_number(b, f"domain {side}") for b in bounds))
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise Validation("upper bound must exceed lower bound on every axis")

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        return Domain("interval-1d", (lo,), (hi,))

    @staticmethod
    def box(lower: tuple[float, float], upper: tuple[float, float]) -> "Domain":
        return Domain("box-2d", lower, upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    @property
    def half_widths(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.upper) - np.asarray(self.lower))

    @property
    def diameter(self) -> float:
        return float(2.0 * np.linalg.norm(self.half_widths))

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from points (..., dim) to the domain closure."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        overhang = np.maximum(np.abs(pts - self.center) - self.half_widths, 0.0)
        return np.linalg.norm(overhang, axis=-1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform lattice restricted to the domain and a truncated exterior ring.

    Attributes:
        domain: the open domain
        h: lattice spacing
        R: truncation radius measured from the domain center
        nodes: (N, dim) node coordinates, lexicographically ordered
        labels: (N,) Region per node, INTERIOR or EXTERIOR
        interior_index: global indices of interior nodes, ascending
        exterior_index: global indices of exterior nodes, ascending
        boundary_points: (M, dim) lattice points on the domain boundary,
            excluded from the node set but tracked for quadrature bookkeeping
    """

    domain: Domain
    h: float
    R: float
    nodes: np.ndarray
    labels: np.ndarray
    interior_index: np.ndarray
    exterior_index: np.ndarray
    boundary_points: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_interior(self) -> int:
        return self.interior_index.size

    @property
    def n_exterior(self) -> int:
        return self.exterior_index.size

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[self.interior_index]

    @property
    def exterior_nodes(self) -> np.ndarray:
        return self.nodes[self.exterior_index]

    def local_of_global(self) -> np.ndarray:
        """Map global node index -> index within its own region."""
        loc = np.empty(self.n_nodes, dtype=int)
        loc[self.interior_index] = np.arange(self.n_interior)
        loc[self.exterior_index] = np.arange(self.n_exterior)
        return loc

    def same_as(self, other: "Grid") -> bool:
        return (self.domain == other.domain and self.h == other.h
                and self.R == other.R and self.n_nodes == other.n_nodes)


@dataclass(frozen=True, eq=False)
class Field:
    """Real values attached to every node of a grid, read by
    errors._values (a non-finite value is NonFiniteSample); a float64
    array is kept as given, from_values keeps a read-only copy."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _values(
            self.values, "field values", (self.grid.n_nodes,), nonfinite=NonFiniteSample))

    @staticmethod
    def zeros(grid: Grid) -> "Field":
        return Field(grid, _freeze(np.zeros(grid.n_nodes)))

    @staticmethod
    def from_values(grid: Grid, values) -> "Field":
        field = Field(grid, values)
        object.__setattr__(field, "values", _freeze(field.values.copy()))
        return field

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior_index]

    @property
    def exterior_values(self) -> np.ndarray:
        return self.values[self.grid.exterior_index]


@dataclass(frozen=True, eq=False)
class Window:
    """A measurement window: a nonempty set of exterior node indices."""

    grid: Grid
    indices: np.ndarray  # global node indices, ascending

    def __post_init__(self):
        idx = self.indices
        if not isinstance(idx, np.ndarray) or idx.ndim != 1:
            raise Validation("window indices must be a 1-D array, "
                             f"got {type(idx).__name__} of shape {np.shape(idx)}")
        if idx.size == 0:
            raise Validation("window must be nonempty")
        idx = _node_indices(self.grid, idx)
        if np.any(idx[1:] <= idx[:-1]):
            raise Validation("window indices must be strictly ascending")
        if not np.all(self.grid.labels[idx] == Region.EXTERIOR):
            raise Validation("window indices must all be EXTERIOR nodes")

    @property
    def size(self) -> int:
        return self.indices.size


def _node_indices(grid: Grid, indices) -> np.ndarray:
    """indices as an int array of node indices; Validation unless every
    entry is an integer in [0, n_nodes) (no truncation, no wrap-around)."""
    arr = np.asarray(indices)
    if arr.size:
        if not np.issubdtype(arr.dtype, np.integer):
            raise Validation(f"node indices must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= grid.n_nodes:
            raise Validation(f"node indices must lie in [0, {grid.n_nodes})")
    return arr.astype(int, copy=False)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_grid(domain: Domain, h: float, R: float) -> Grid:
    """Construct the node set for a domain, spacing, and truncation radius.

    The lattice is anchored at the domain center, so identical inputs always
    produce identical node orderings.  Raises NonFiniteGrid (h or R not a
    finite real number), NonPositiveSpacing, TruncationTooSmall (R below the
    domain diameter) or SpacingMismatch (h does not divide the domain
    extent) before any array, then EmptyInterior.
    """
    if _finite_real(h) is None or _finite_real(R) is None:
        raise NonFiniteGrid(f"h = {h!r} and R = {R!r} must be finite real numbers")
    if not h > 0:
        raise NonPositiveSpacing(f"h = {h}")
    if R < domain.diameter * (1 - 1e-12):
        raise TruncationTooSmall(
            f"R = {R} must reach at least the domain diameter {domain.diameter}")
    for lo, hi in zip(domain.lower, domain.upper):
        ratio = (hi - lo) / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise SpacingMismatch(f"h = {h} does not divide extent {hi - lo}")

    center = domain.center
    kmax = int(np.floor(R / h + 1e-12))
    line = h * np.arange(-kmax, kmax + 1)
    axes = np.meshgrid(*(c + line for c in center), indexing="ij")
    pts = np.column_stack([a.ravel() for a in axes])

    tol = _TOL * h
    offset = np.abs(pts - center) - domain.half_widths
    inside = np.all(offset < -tol, axis=1)
    on_boundary = ~inside & np.all(offset <= tol, axis=1)
    in_ball = np.linalg.norm(pts - center, axis=1) <= R + tol
    exterior = in_ball & ~inside & ~on_boundary

    keep = inside | exterior
    nodes = pts[keep]
    labels = np.where(inside[keep], Region.INTERIOR, Region.EXTERIOR)
    boundary_points = pts[on_boundary & in_ball]

    interior_index = np.flatnonzero(labels == Region.INTERIOR)
    exterior_index = np.flatnonzero(labels == Region.EXTERIOR)
    if interior_index.size == 0:
        raise EmptyInterior(f"no lattice node strictly inside the domain at h = {h}")

    return Grid(domain=domain, h=float(h), R=float(R),
                nodes=_freeze(nodes), labels=_freeze(labels),
                interior_index=_freeze(interior_index),
                exterior_index=_freeze(exterior_index),
                boundary_points=_freeze(boundary_points))


def sample_function(grid: Grid, f, region: Region = Region.ALL) -> Field:
    """Sample a scalar function of coordinates onto a Field.

    Values outside the selected region are zero; a region that is not a
    Region raises Validation.  1D functions receive a scalar coordinate, 2D
    functions receive (x, y).  A bump from c3_bump is evaluated on all the
    region's points in one call, with the same bits.
    """
    if not isinstance(region, Region):
        raise Validation(f"region must be a Region, got {region!r}")
    if region == Region.ALL:
        mask = np.ones(grid.n_nodes, dtype=bool)
    else:
        mask = grid.labels == region
    values = np.zeros(grid.n_nodes)
    pts = grid.nodes[mask]
    if isinstance(f, _Bump):
        sampled = f.at(pts)
    else:
        sampled = np.asarray([f(*p) for p in pts], dtype=float)
    if sampled.size and not np.all(np.isfinite(sampled)):
        bad = pts[~np.isfinite(sampled)][0]
        raise NonFiniteSample(f"f returned a non-finite value at {tuple(bad.tolist())}")
    values[mask] = sampled
    return Field(grid, _freeze(values))


@dataclass(frozen=True)
class _Bump:
    """amplitude * (1 - r^2)^4 on r < 1, r = |x - center| / width, else 0."""

    center: tuple[float, ...]
    width: float
    amplitude: float

    def __call__(self, *coords) -> float:
        return float(self.at([coords])[0])

    def at(self, points: np.ndarray) -> np.ndarray:
        """The profile at each row of an (m, n) array of points.

        Every step is the scalar formula's IEEE operation, elementwise and
        in the same order, except the fourth power: numpy's vectorized
        power may differ from libm's pow in the last bit, so it is taken
        as Python floats, and only on the support.
        """
        c = self.center
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(c):
            raise Validation(f"bump center {c} has {len(c)} component(s), "
                             f"the point has {points.shape[-1]}")
        # Python float arithmetic overflows to inf and makes nan silently
        with np.errstate(all="ignore"):
            r2 = np.zeros(points.shape[0])
            for x, ci in zip(points.T, c):
                d = x - ci
                d /= self.width
                d *= d
                r2 += d
            base = np.subtract(1.0, r2, out=r2)
            support = np.flatnonzero(base > 0.0)
            out = np.zeros(points.shape[0])
            out[support] = [b ** 4 for b in base[support].tolist()]
            out *= self.amplitude
        return out


def c3_bump(center, width: float, amplitude: float = 1.0):
    """A compactly supported bump with three continuous derivatives.

    Returns the profile amplitude * (1 - r^2)^4 on r < 1 with
    r = |x - center| / width, which vanishes to third order at the support
    edge.  Works for 1D (scalar center) and 2D (pair center); a point
    whose dimension differs from the center's raises Validation, and so
    does a center component, width or amplitude that errors._number
    refuses, or a width that is not positive.  The profile takes one point
    as profile(*coords), or an (m, n) array of points as profile.at(points).
    """
    c = np.atleast_1d(np.asarray(center, dtype=object))
    if c.ndim != 1:
        raise Validation(f"bump center must be a point, got shape {c.shape}")
    width = _number(width, "bump width")
    if not width > 0:
        raise Validation(f"bump width must be positive, got {width}")
    return _Bump(tuple(_number(ci, "bump center component") for ci in c), width,
                 _number(amplitude, "bump amplitude"))


def annulus_window(grid: Grid, inner: float, outer: float) -> Window:
    """All exterior nodes whose distance to the domain lies in [inner, outer],
    each bound read by errors._number."""
    inner, outer = _number(inner, "window inner"), _number(outer, "window outer")
    d = grid.domain.distance(grid.exterior_nodes)
    sel = (d >= inner - 1e-12) & (d <= outer + 1e-12)
    return Window(grid, _freeze(grid.exterior_index[np.flatnonzero(sel)]))

