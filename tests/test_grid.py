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
    GridMismatch,
    NonFiniteSample,
    NonPositiveSpacing,
    SpacingMismatch,
    TruncationTooSmall,
    Validation,
)
from fracschrod.serialize import dumps


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


def test_nonpositive_spacing():
    with pytest.raises(NonPositiveSpacing):
        build_grid(Domain.interval(-1, 1), 0.0, 2.0)


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


def test_c3_bump_support_and_smoothness():
    bump = c3_bump(1.5, 0.25, 2.0)
    assert bump(1.5) == 2.0
    assert bump(1.74999) > 0.0
    assert bump(1.75) == 0.0
    assert bump(1.8) == 0.0
    # vanishes to fourth order in (1 - r) at the support edge
    eps = 1e-4
    assert bump(1.75 - eps) < 2.0 * (2.1 * eps / 0.25) ** 4


def test_json_round_trip():
    grid = build_grid(Domain.interval(-1, 1), 0.5, 2.0)
    values = [float(v) for v in sample_function(grid, lambda x: x / 3.0).values]
    # 17 significant digits round-trip exactly
    assert json.loads(dumps(values)) == values


def test_domain_geometry():
    d = Domain.box((-1, -1), (1, 1))
    assert d.diameter == pytest.approx(2 * np.sqrt(2))
    assert d.distance(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    assert d.distance(np.array([[2.0, 2.0]]))[0] == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        Domain.interval(1.0, 1.0)
