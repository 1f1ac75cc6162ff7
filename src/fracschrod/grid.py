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
    GridMismatch,
    NonFiniteSample,
    NonPositiveSpacing,
    SpacingMismatch,
    TruncationTooSmall,
    Validation,
)

_TOL = 1e-9  # lattice classification tolerance, relative to h


class Region(enum.Enum):
    INTERIOR = "INTERIOR"
    EXTERIOR = "EXTERIOR"
    ALL = "ALL"


@dataclass(frozen=True)
class Domain:
    """Bounded open interval (1D) or axis-aligned open box (2D).

    Attributes:
        kind: "interval-1d" or "box-2d"
        lower: per-axis lower bounds
        upper: per-axis upper bounds
    """

    kind: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("interval-1d", "box-2d"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        expect = 1 if self.kind == "interval-1d" else 2
        if len(self.lower) != expect or len(self.upper) != expect:
            raise ValueError(f"{self.kind} needs {expect} bound(s) per side")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise ValueError("upper bound must exceed lower bound on every axis")

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        return Domain("interval-1d", (float(lo),), (float(hi),))

    @staticmethod
    def box(lower: tuple[float, float], upper: tuple[float, float]) -> "Domain":
        return Domain("box-2d", (float(lower[0]), float(lower[1])),
                      (float(upper[0]), float(upper[1])))

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
    """Real values attached to every node of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n_nodes,):
            raise GridMismatch(
                f"field length {self.values.shape} != node count {self.grid.n_nodes}")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteSample("field contains non-finite values")

    @staticmethod
    def zeros(grid: Grid) -> "Field":
        return Field(grid, _freeze(np.zeros(grid.n_nodes)))

    @staticmethod
    def from_values(grid: Grid, values) -> "Field":
        return Field(grid, _freeze(np.array(values, dtype=float)))

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
        if self.indices.size == 0:
            raise Validation("window must be nonempty")
        if not np.all(self.grid.labels[self.indices] == Region.EXTERIOR):
            raise Validation("window indices must all be EXTERIOR nodes")

    @property
    def size(self) -> int:
        return self.indices.size

    @property
    def points(self) -> np.ndarray:
        return self.grid.nodes[self.indices]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_grid(domain: Domain, h: float, R: float) -> Grid:
    """Construct the node set for a domain, spacing, and truncation radius.

    The lattice is anchored at the domain center, so identical inputs always
    produce identical node orderings.  Raises NonPositiveSpacing,
    TruncationTooSmall (R smaller than the domain diameter), SpacingMismatch
    (h does not divide the domain extent), or EmptyInterior.
    """
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
    if domain.dim == 1:
        pts = center[0] + line[:, None]
    else:
        x, y = np.meshgrid(center[0] + line, center[1] + line, indexing="ij")
        pts = np.column_stack([x.ravel(), y.ravel()])

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

    Values outside the selected region are zero.  1D functions receive a
    scalar coordinate, 2D functions receive (x, y).
    """
    if region == Region.ALL:
        mask = np.ones(grid.n_nodes, dtype=bool)
    else:
        mask = grid.labels == region
    values = np.zeros(grid.n_nodes)
    pts = grid.nodes[mask]
    sampled = np.asarray([f(*p) for p in pts], dtype=float)
    if sampled.size and not np.all(np.isfinite(sampled)):
        bad = pts[~np.isfinite(sampled)][0]
        raise NonFiniteSample(f"f returned a non-finite value at {tuple(bad)}")
    values[mask] = sampled
    return Field(grid, _freeze(values))


def c3_bump(center, width: float, amplitude: float = 1.0):
    """A compactly supported bump with three continuous derivatives.

    Returns the profile amplitude * (1 - r^2)^4 on r < 1 with
    r = |x - center| / width, which vanishes to third order at the support
    edge.  Works for 1D (scalar center) and 2D (pair center).
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def profile(*coords):
        p = np.asarray(coords, dtype=float)
        r2 = float(np.sum(((p - c) / width) ** 2))
        return amplitude * max(0.0, 1.0 - r2) ** 4

    return profile


def annulus_window(grid: Grid, inner: float, outer: float) -> Window:
    """All exterior nodes whose distance to the domain lies in [inner, outer]."""
    d = grid.domain.distance(grid.exterior_nodes)
    sel = (d >= inner - 1e-12) & (d <= outer + 1e-12)
    return Window(grid, _freeze(grid.exterior_index[np.flatnonzero(sel)]))

