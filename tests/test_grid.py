import json

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    Region,
    Window,
    annulus_window,
    build_grid,
    c3_bump,
    sample_function,
)
from fracschrod.errors import (
    EmptyInterior,
    GridMismatch,
    NonFiniteGrid,
    NonFiniteSample,
    NonPositiveSpacing,
    SpacingMismatch,
    TruncationTooSmall,
    Validation,
)
from fracschrod.grid import _Bump
from fracschrod.serialize import dumps
from conftest import GRIDS_2D


def test_interval_example_nodes():
    grid = build_grid(Domain.interval(-1, 1), 0.5, 2.0)
    assert grid.interior_nodes.ravel().tolist() == [-0.5, 0.0, 0.5]
    assert grid.exterior_nodes.ravel().tolist() == [-2.0, -1.5, 1.5, 2.0]
    # boundary lattice points are excluded from the node set entirely
    assert grid.boundary_points.ravel().tolist() == [-1.0, 1.0]
    assert grid.n_nodes == 7


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        build_grid(Domain.interval(-1, 1), 0.5, 0.5)


def test_empty_interior():
    # the lattice is anchored at the domain center, which lies strictly
    # inside whenever h divides the extent a whole number of times; only an
    # extent that rounds to zero steps of h, below the classification
    # tolerance of 1e-9 h, leaves it on the boundary and the interior empty
    with pytest.raises(EmptyInterior, match="no lattice node"):
        build_grid(Domain.interval(-1e-12, 1e-12), 1.0, 1.0)
    with pytest.raises(EmptyInterior):
        build_grid(Domain.box((-1.0, -1e-12), (1.0, 1e-12)), 0.25, 2.0)


def test_nonpositive_spacing():
    with pytest.raises(NonPositiveSpacing):
        build_grid(Domain.interval(-1, 1), 0.0, 2.0)


@pytest.mark.parametrize("h, R", [(0.5, np.nan), (0.5, np.inf), (np.inf, 2.0)])
def test_non_finite_spacing_or_radius(h, R):
    # checked before any array is built: no raw ValueError, OverflowError
    # or RuntimeWarning from the lattice
    with pytest.raises(NonFiniteGrid):
        build_grid(Domain.interval(-1, 1), h, R)


def test_spacing_mismatch():
    with pytest.raises(SpacingMismatch):
        build_grid(Domain.interval(-1, 1), 0.3, 2.0)


def test_box_interior_count():
    # brute-force enumeration oracle: lattice points with both |x_i| < 1
    h = 2.0**-4
    ks = np.arange(-64, 65)
    line = ks * h
    strict = line[np.abs(line) < 1 - 1e-12]
    expected = len(strict) ** 2
    assert expected == 961

    grid = build_grid(Domain.box((-1, -1), (1, 1)), h, 3.0)
    assert grid.n_interior == expected


def _per_dimension_grid(domain, h, R):
    """build_grid's node set from its former per-dimension lattice, the
    reference for its one n-D meshgrid: nodes, labels, interior and
    exterior indices and boundary points."""
    center = domain.center
    kmax = int(np.floor(R / h + 1e-12))
    line = h * np.arange(-kmax, kmax + 1)
    if domain.dim == 1:
        pts = center[0] + line[:, None]
    else:
        x, y = np.meshgrid(center[0] + line, center[1] + line, indexing="ij")
        pts = np.column_stack([x.ravel(), y.ravel()])
    tol = 1e-9 * h
    offset = np.abs(pts - center) - domain.half_widths
    inside = np.all(offset < -tol, axis=1)
    on_boundary = ~inside & np.all(offset <= tol, axis=1)
    in_ball = np.linalg.norm(pts - center, axis=1) <= R + tol
    keep = inside | (in_ball & ~on_boundary)
    labels = np.where(inside[keep], Region.INTERIOR, Region.EXTERIOR)
    return (pts[keep], labels, np.flatnonzero(labels == Region.INTERIOR),
            np.flatnonzero(labels == Region.EXTERIOR), pts[on_boundary & in_ball])


# off-center domains, R not a multiple of h, and the two 2D golden grids
LATTICE_GRIDS = {
    "1d": (Domain.interval(-1, 1), 2.0**-5, 4.0),
    "1d-offset": (Domain.interval(0.5, 2.0), 0.125, 2.3),
    "2d-offset": (Domain.box((0.25, -1.0), (1.25, 0.5)), 0.125, 2.9),
    **{name: spec[:3] for name, spec in GRIDS_2D.items()},
}


@pytest.mark.parametrize("name", LATTICE_GRIDS)
def test_build_grid_is_the_per_dimension_lattice(name):
    domain, h, R = LATTICE_GRIDS[name]
    grid = build_grid(domain, h, R)
    nodes, labels, interior, exterior, boundary = _per_dimension_grid(domain, h, R)
    for got, want in ((grid.nodes, nodes), (grid.interior_index, interior),
                      (grid.exterior_index, exterior), (grid.boundary_points, boundary)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert grid.labels.tolist() == labels.tolist()
    assert grid.n_exterior > 0 and len(boundary) > 0


def test_partition_and_determinism():
    g1 = build_grid(Domain.interval(-1, 1), 0.125, 3.0)
    g2 = build_grid(Domain.interval(-1, 1), 0.125, 3.0)
    assert np.array_equal(g1.nodes, g2.nodes)
    assert all(lab in (Region.INTERIOR, Region.EXTERIOR) for lab in g1.labels)
    assert g1.n_interior + g1.n_exterior == g1.n_nodes
    assert not set(g1.interior_index) & set(g1.exterior_index)


def test_refinement_nesting():
    coarse = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    fine = build_grid(Domain.interval(-1, 1), 0.125, 2.0)
    fine_set = {round(float(x) / 0.125) for x in fine.nodes.ravel()}
    for x in coarse.nodes.ravel():
        assert round(float(x) / 0.125) in fine_set


def test_sample_constant_all():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    f = sample_function(grid, lambda x: 1.0, Region.ALL)
    assert np.all(f.values == 1.0)


def test_sample_exterior_bump_zero_inside():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    f = sample_function(grid, lambda x: max(0.0, 1 - (abs(x) - 1.5) ** 2),
                        Region.EXTERIOR)
    assert np.all(f.interior_values == 0.0)
    assert np.max(f.exterior_values) > 0.0


def test_sample_squares_interior():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    f = sample_function(grid, lambda x: x * x, Region.INTERIOR)
    assert f.interior_values.tolist() == [0.5625, 0.25, 0.0625, 0.0,
                                          0.0625, 0.25, 0.5625]
    assert np.all(f.exterior_values == 0.0)


def test_sample_nonfinite_rejected():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    with pytest.raises(NonFiniteSample):
        sample_function(grid, lambda x: float("nan"), Region.ALL)
    # the per-point loop and the bump's array call both name the first bad
    # node order: 1.5, and the exterior's first node -2.0, as plain floats
    with pytest.raises(NonFiniteSample, match=r"at \(1\.5,\)$"):
        sample_function(grid, lambda x: float("nan") if x > 1.4 else 0.0)
    with pytest.raises(NonFiniteSample, match=r"at \(-2\.0,\)$"):
        sample_function(grid, _Bump((1.5,), 0.25, float("inf")), Region.EXTERIOR)
    box = build_grid(Domain.box((-1, -1), (1, 1)), 0.5, 3.0)
    with pytest.raises(NonFiniteSample, match=r"at \(-0\.5, 0\.0\)$"):
        sample_function(box, lambda x, y: float("nan") if x < y else 0.0, Region.INTERIOR)


def test_field_validation():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    with pytest.raises(GridMismatch):
        Field.from_values(grid, np.zeros(3))
    with pytest.raises(NonFiniteSample):
        Field.from_values(grid, np.full(grid.n_nodes, np.inf))


def test_window_checks():
    grid = build_grid(Domain.interval(-1, 1), 0.25, 2.0)
    w = annulus_window(grid, 0.5, 1.0)
    assert w.size > 0
    assert np.all(grid.labels[w.indices] == Region.EXTERIOR)
    with pytest.raises(Validation):
        Window(grid, grid.interior_index[:2])
    with pytest.raises(Validation):
        annulus_window(grid, 50.0, 60.0)
    # a list raised a bare AttributeError; a repeated node, a 2-D array and
    # a descending pair (signed or unsigned) were accepted
    e = grid.exterior_index
    for bad in ([int(e[0])], np.array([e[0], e[0]]), np.array([[e[0]]]),
                e[1::-1], e[1::-1].astype(np.uint64)):
        with pytest.raises(Validation):
            Window(grid, bad)


def test_c3_bump_support_and_smoothness():
    bump = c3_bump(1.5, 0.25, 2.0)
    assert bump(1.5) == 2.0
    assert bump(1.74999) > 0.0
    assert bump(1.75) == 0.0
    assert bump(1.8) == 0.0
    # vanishes to fourth order in (1 - r) at the support edge
    eps = 1e-4
    assert bump(1.75 - eps) < 2.0 * (2.1 * eps / 0.25) ** 4


def test_c3_bump_rejects_a_center_of_another_dimension():
    # numpy broadcasting would put [1.5] at (1.5, 1.5) in 2D, and a pair
    # center on a 1D point would read as zero everywhere
    with pytest.raises(Validation, match="1 component"):
        c3_bump([1.5], 0.4)(1.5, 1.5)
    with pytest.raises(Validation, match="2 component"):
        c3_bump([1.5, 0.0], 0.4)(1.5)
    assert c3_bump([1.5, 0.0], 0.4)(1.5, 0.0) == 1.0
    with pytest.raises(Validation, match="1 component"):
        c3_bump([1.5], 0.4).at(np.zeros((3, 2)))
    # a zero width raised ZeroDivisionError at the first point evaluated
    for width in (0.0, -0.4, float("nan")):
        with pytest.raises(Validation, match="width"):
            c3_bump(1.5, width)


def scalar_bump(center, width, amplitude, *coords):
    """The bump formula one point at a time in Python floats: the reference."""
    r2 = 0.0
    for x, ci in zip(coords, np.atleast_1d(center).tolist()):
        d = (float(x) - ci) / width
        r2 += d * d
    return amplitude * max(0.0, 1.0 - r2) ** 4


@pytest.mark.parametrize("dim", [1, 2])
def test_c3_bump_array_is_the_scalar_formula_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    # dyadic cases put points exactly at the center and exactly on r = 1
    cases = [(np.full(dim, 1.5), 0.25, 2.0), (np.full(dim, -0.75), 0.5, -1.25)]
    cases += [(rng.uniform(-2.0, 2.0, dim), rng.uniform(0.05, 1.5),
               rng.uniform(-2.0, 2.0)) for _ in range(12)]
    for center, width, amplitude in cases:
        axes = np.eye(dim)
        pts = np.vstack([center + width * rng.uniform(-1.3, 1.3, (500, dim)),
                         center[None, :], center + width * axes,
                         center - width * axes,
                         center + np.nextafter(width, 0.0) * axes])
        ref = np.array([scalar_bump(center, width, amplitude, *p) for p in pts])
        bump = c3_bump(center, width, amplitude)
        assert bump.at(pts).tobytes() == ref.tobytes()
        assert np.array([bump(*p) for p in pts]).tobytes() == ref.tobytes()
        off = ref == 0.0
        assert off.any() and (~off).any()
        assert np.all(np.signbit(ref[off]) == (amplitude < 0))
    grid = build_grid(Domain.box((-1, -1), (1, 1)) if dim == 2
                      else Domain.interval(-1, 1), 2.0**-4, 3.0)
    center, width, amplitude = np.full(dim, 1.6), 0.4, -0.7
    sampled = sample_function(grid, c3_bump(center, width, amplitude), Region.EXTERIOR)
    looped = sample_function(
        grid, lambda *x: scalar_bump(center, width, amplitude, *x), Region.EXTERIOR)
    assert sampled.values.tobytes() == looped.values.tobytes()


def test_json_round_trip():
    grid = build_grid(Domain.interval(-1, 1), 0.5, 2.0)
    values = [float(v) for v in sample_function(grid, lambda x: x / 3.0).values]
    # 17 significant digits round-trip exactly
    assert json.loads(dumps(values)) == values


def test_domain_geometry():
    d = Domain.box((-1, -1), (1, 1))
    assert d.lower == (-1.0, -1.0) and all(type(v) is float for v in d.upper)
    assert d.diameter == pytest.approx(2 * np.sqrt(2))
    assert d.distance(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    assert d.distance(np.array([[2.0, 2.0]]))[0] == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        Domain.interval(1.0, 1.0)
    # the dimension comes from the kind; extra components are not dropped
    with pytest.raises(ValueError, match="box-2d needs 2 bound"):
        Domain.box((-1, -1, -1), (1, 1, 1))
    with pytest.raises(ValueError, match="interval-1d needs 1 bound"):
        Domain("interval-1d", (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="unknown domain kind 'box-3d'"):
        Domain("box-3d", (-1.0,) * 3, (1.0,) * 3)


@pytest.mark.parametrize("h, R", [(True, 3.0), ("0.25", 3.0), (float("nan"), 3.0),
                                  (0.25, "3.0"), (0.25, True)])
def test_spacing_or_radius_that_is_not_a_finite_real(h, R):
    # h = True ran as h = 1.0, a string raised a bare TypeError, nan raised
    # NonPositiveSpacing, and R = True ran into TruncationTooSmall as R = 1
    with pytest.raises(NonFiniteGrid):
        build_grid(Domain.interval(-1, 1), h, R)


@pytest.mark.parametrize("make", [
    lambda: Domain.interval("-1", "1"),
    lambda: Domain("interval-1d", ("a",), ("b",)),
    lambda: Domain.interval(-np.inf, 1),
    lambda: Domain(["interval-1d"], (-1.0,), (1.0,)),
    lambda: Domain("interval-1d", -1.0, 1.0),
])
def test_domain_reads_its_kind_and_bounds(make):
    # the strings constructed (compared as strings), -inf constructed and
    # failed at build_grid as a domain of diameter inf, and a list kind or
    # a scalar side raised a bare TypeError
    with pytest.raises(Validation):
        make()


def test_annulus_window_reads_its_band():
    # a string bound raised a bare TypeError in the comparison
    grid = build_grid(Domain.interval(-1, 1), 0.25, 3.0)
    with pytest.raises(Validation, match="window inner"):
        annulus_window(grid, "0.25", 1.0)


@pytest.mark.parametrize("args", [([1.5], "0.4"), ([1.5], 0.4, "2"), (["1.5"], 0.4),
                                  ([1.5], float("inf")), ([1.5], 0.4, float("nan"))])
def test_c3_bump_reads_center_width_and_amplitude(args):
    # a string width raised a bare TypeError, a string amplitude or center
    # ran as the number it spells, and an infinite width made a constant
    with pytest.raises(Validation, match="bump"):
        c3_bump(*args)


@pytest.mark.parametrize("region", ["EXTERIOR", None])
def test_sample_function_refuses_a_region_that_is_not_a_region(region):
    # either ran and returned an all-zero field
    grid = build_grid(Domain.interval(-1, 1), 0.25, 3.0)
    with pytest.raises(Validation, match="region"):
        sample_function(grid, c3_bump(1.5, 0.4), region)


# the grid of the array-reader rows: 1D (-1, 1), h = 1/4, R = 2, 15 nodes
QUARTER = build_grid(Domain.interval(-1, 1), 0.25, 2.0)


@pytest.mark.parametrize("values", [
    ["1"] * QUARTER.n_nodes,               # ran as 1.0
    [True] * QUARTER.n_nodes,              # ran as 1.0
    [1j] * QUARTER.n_nodes,                # a bare TypeError
    [[0.0]] + [0.0] * (QUARTER.n_nodes - 1),   # a ragged list: a bare ValueError
], ids=["strings", "bools", "complex", "ragged"])
def test_field_refuses_values_that_are_not_real_numbers(values):
    with pytest.raises(Validation, match="field values"):
        Field.from_values(QUARTER, values)


def test_field_reads_a_list_of_floats():
    # a list raised a bare AttributeError ('list' object has no attribute 'shape')
    field = Field(QUARTER, [0.0] * QUARTER.n_nodes)
    assert field.values.dtype == np.float64
    assert field.values.tolist() == [0.0] * QUARTER.n_nodes


def test_field_stores_the_bytes_it_is_given():
    values = np.linspace(-1.0, 1.0, QUARTER.n_nodes)
    values[0], values[1] = -0.0, 5e-324
    kept = Field(QUARTER, values)
    assert kept.values is values
    copied = Field.from_values(QUARTER, values)
    assert copied.values.tobytes() == values.tobytes()
    assert not np.shares_memory(copied.values, values) and not copied.values.flags.writeable
    values[2] = 7.0
    assert copied.values[2] != 7.0
