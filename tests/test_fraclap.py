import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    Region,
    apply_operator,
    assemble,
    build_grid,
    cns,
    frac_params,
    operator_to_json,
    sample_function,
    tail_mass,
)
from fracschrod.errors import (
    GridMismatch,
    NonPositiveRadius,
    OperatorTooLarge,
    OrderOutOfRange,
    SingularOverlap,
)
from fracschrod.cauchy import neumann_derivative
from fracschrod.fraclap import _physical_memory, _Stencil
from oracles import fraclap_quad_1d, tail_mass_quad_2d


def test_cns_half_order_values():
    # Gamma(1) = 1 and |Gamma(-1/2)| = 2 sqrt(pi) give 1/pi in 1D
    assert cns(1, 0.5) == pytest.approx(1.0 / np.pi, rel=1e-14)
    # Gamma(3/2) = sqrt(pi)/2 gives 1/(2 pi) in 2D
    assert cns(2, 0.5) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)


def test_cns_extreme_orders_positive_finite():
    for s in (0.001, 0.999):
        v = cns(1, s)
        assert np.isfinite(v) and v > 0


def test_cns_order_out_of_range():
    for s in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(OrderOutOfRange):
            cns(1, s)


def test_tail_mass_closed_forms():
    p = frac_params(1, 0.5)
    # (1/pi) * 2 * 2^-1 / (2 * 0.5) = 1/pi
    assert tail_mass(p, 2.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert tail_mass(p, 1e12) == pytest.approx(0.0, abs=1e-12)
    p2 = frac_params(2, 0.25)
    want = p2.cns * 2.0 * np.pi * 4.0**-0.5 / 0.5
    assert tail_mass(p2, 4.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(p2.cns * 2.0 * np.pi, rel=1e-14)
    # cross-check against radial quadrature
    assert tail_mass(p2, 4.0) == pytest.approx(tail_mass_quad_2d(0.25, 4.0), rel=1e-9)
    with pytest.raises(NonPositiveRadius):
        tail_mass(p, 0.0)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constant_annihilation_1d(s):
    grid = build_grid(Domain.interval(-1, 1), 2.0**-5, 4.0)
    op = assemble(grid, s)
    ones = Field.from_values(grid, np.ones(grid.n_nodes))
    assert np.max(np.abs(apply_operator(op, ones, farfield=1.0))) <= 1e-12


def test_sign_pattern_and_symmetry(op_small):
    a_ii, a_ie = op_small.a_ii, op_small.a_ie
    off = a_ii - np.diag(np.diag(a_ii))
    assert np.all(np.diag(a_ii) > 0)
    assert np.all(off <= 0)
    assert np.all(a_ie <= 0)
    assert np.all(op_small.tail > 0)
    scale = np.max(np.abs(a_ii))
    assert np.max(np.abs(a_ii - a_ii.T)) <= 1e-12 * scale


def test_apply_getoor_profile(op_fine):
    # half-Laplacian of (1 - x^2)_+^(1/2) is identically 1 inside (-1, 1)
    grid = op_fine.grid
    u = sample_function(grid, lambda x: np.sqrt(max(0.0, 1.0 - x * x)), Region.ALL)
    vals = apply_operator(op_fine, u, farfield=0.0)
    xi = grid.interior_nodes.ravel()
    mask = np.abs(xi) <= 0.9
    assert np.max(np.abs(vals[mask] - 1.0)) < 0.05


def test_getoor_value_against_quadrature_oracle():
    # independent cross-check of the closed form at x = 0
    profile = lambda x: np.sqrt(max(0.0, 1.0 - x * x))
    assert fraclap_quad_1d(profile, 0.0, 0.5) == pytest.approx(1.0, rel=1e-6)


def test_gaussian_at_origin_vs_oracle(op_fine):
    grid = op_fine.grid
    u = sample_function(grid, lambda x: np.exp(-x * x), Region.ALL)
    vals = apply_operator(op_fine, u, farfield=0.0)
    i0 = int(np.argmin(np.abs(grid.interior_nodes.ravel())))
    oracle = fraclap_quad_1d(lambda x: np.exp(-x * x), 0.0, 0.5)
    assert vals[i0] == pytest.approx(oracle, rel=0.01)


def test_linearity(op_small):
    rng = np.random.default_rng(3)
    grid = op_small.grid
    u = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    v = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    alpha, beta = 0.7, -1.3
    combo = Field.from_values(grid, alpha * u.values + beta * v.values)
    lhs = apply_operator(op_small, combo)
    rhs = alpha * apply_operator(op_small, u) + beta * apply_operator(op_small, v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_refinement_consistency_smooth():
    # sup error against the adaptive-quadrature oracle decreases with h
    s = 0.25
    sups = []
    for p in (5, 6, 7, 8):
        grid = build_grid(Domain.interval(-1, 1), 2.0**-p, 8.0)
        op = assemble(grid, s)
        u = sample_function(grid, lambda x: np.exp(-x * x), Region.ALL)
        vals = apply_operator(op, u, farfield=0.0)
        oracle = np.array([fraclap_quad_1d(lambda x: np.exp(-x * x), float(x), s)
                           for x in grid.interior_nodes.ravel()])
        sups.append(float(np.max(np.abs(vals - oracle))))
    assert all(b < a for a, b in zip(sups, sups[1:])), sups


def test_sign_pattern_2d(grid_2d):
    op = assemble(grid_2d, 0.5)
    off = op.a_ii - np.diag(np.diag(op.a_ii))
    assert np.all(np.diag(op.a_ii) > 0)
    assert np.all(off <= 0)
    assert np.all(op.a_ie <= 0)
    assert np.max(np.abs(op.a_ii - op.a_ii.T)) <= 1e-12 * np.max(np.abs(op.a_ii))
    ones = Field.from_values(grid_2d, np.ones(grid_2d.n_nodes))
    assert np.max(np.abs(apply_operator(op, ones, farfield=1.0))) == 0.0


def test_grid_mismatch_rejected(op_small):
    other = build_grid(Domain.interval(-1, 1), 1.0 / 8, 3.0)
    u = Field.zeros(other)
    with pytest.raises(GridMismatch):
        apply_operator(op_small, u)


def test_operator_json_dump(op_small):
    doc = operator_to_json(op_small)
    assert doc["params"]["s"] == 0.5
    assert len(doc["a_ii"]) == op_small.grid.n_interior
    json.dumps(doc)  # must be JSON-compatible plain types


def _moved(grid, index, shift):
    nodes = grid.nodes.copy()
    nodes[index] += shift
    return dataclasses.replace(grid, nodes=nodes)


def test_off_lattice_grid_rejected(grid_2d):
    # the stencil indexes weights by integer offset, so every node must sit
    # on the h-lattice anchored at the domain center
    h = grid_2d.h
    g = int(grid_2d.interior_index[7])
    with pytest.raises(SingularOverlap, match="off the h-lattice"):
        assemble(_moved(grid_2d, g, np.array([h / 3, 0.0])), 0.5)
    moved = _moved(grid_2d, int(grid_2d.exterior_index[0]), np.array([0.0, h / 3]))
    with pytest.raises(SingularOverlap):
        neumann_derivative(moved, frac_params(2, 0.5), Field.zeros(moved),
                           grid_2d.exterior_index[-1:])
    with pytest.raises(SingularOverlap, match="share a lattice point"):
        assemble(_moved(grid_2d, g, np.array([h, 0.0])), 0.5)


# the three non-dyadic grids of the stencil refactor, the two 2D golden grids
# and the 1D reference operator (h=2^-8, R=8)
STENCIL_GRIDS = {
    "1d-h0.1": (Domain.interval(-1.0, 1.0), 0.1, 3.0, 0.3),
    "1d-offset": (Domain.interval(0.3, 1.3), 1.0 / 8, 2.0, 0.8),
    "2d-h0.1": (Domain.box((0.1, 0.2), (0.7, 0.5)), 0.1, 1.0, 0.7),
    "2d-box": (Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-3, 3.0, 0.5),
    "2d-rect": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0, 0.25),
    "1d-fine": (Domain.interval(-1.0, 1.0), 2.0**-8, 8.0, 0.5),
}


@pytest.fixture(scope="module", params=sorted(STENCIL_GRIDS))
def stencil_op(request):
    domain, h, R, s = STENCIL_GRIDS[request.param]
    return assemble(build_grid(domain, h, R), s)


@pytest.mark.parametrize("name", STENCIL_GRIDS)
def test_assembled_blocks_are_the_stencil_rows(name):
    # assembly gathers into the blocks without going through rows(); both
    # must still read the same weights, bit for bit, off the diagonal
    domain, h, R, s = STENCIL_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(grid, s)
    w, tail = _Stencil(grid, op.params).rows(grid.interior_index)
    off = ~np.eye(grid.n_interior, dtype=bool)
    assert (-op.a_ii)[off].tobytes() == w[:, grid.interior_index][off].tobytes()
    assert (-op.a_ie).tobytes() == w[:, grid.exterior_index].tobytes()
    assert op.tail.tobytes() == tail.tobytes()


def test_operator_too_large_raises_before_allocating():
    # (-1,1)^2 at h=2^-7, R=3: 65025 interior rows over 463k nodes, 224 GiB
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-7, 3.0)
    if grid.n_interior * grid.n_nodes * 8 <= _physical_memory():
        pytest.skip("this machine holds the dense blocks of the test grid")
    tracemalloc.start()
    try:
        with pytest.raises(OperatorTooLarge, match="GiB"):
            assemble(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interior_block_is_bitwise_symmetric(stencil_op):
    # the kernel is read at offsets that are exact negations of each other,
    # the singular-step masses are symmetric and boundary mass lands only in
    # a_ie; the solver copies a_ii through its transpose on that guarantee
    assert np.array_equal(stencil_op.a_ii, stencil_op.a_ii.T)


def row_dot_apply(op, u, farfield):
    """Reference: the operator applied one interior row at a time."""
    ui, ue = u.interior_values, u.exterior_values
    out = np.empty(op.grid.n_interior)
    for r in range(op.grid.n_interior):
        out[r] = (np.dot(-op.a_ii[r], ui[r] - ui)
                  + np.dot(-op.a_ie[r], ui[r] - ue)
                  + op.tail[r] * (ui[r] - farfield))
    return out


def test_apply_is_the_row_dots(stencil_op):
    grid = stencil_op.grid
    u = Field.from_values(grid, np.random.default_rng(11).standard_normal(grid.n_nodes))
    got = apply_operator(stencil_op, u, farfield=0.3)
    assert got.tobytes() == row_dot_apply(stencil_op, u, 0.3).tobytes()
    constant = Field.from_values(grid, np.full(grid.n_nodes, 1.7))
    assert np.all(apply_operator(stencil_op, constant, farfield=1.7) == 0.0)
