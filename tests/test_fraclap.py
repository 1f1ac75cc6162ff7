import dataclasses
import functools
import itertools
import re

import numpy as np
import pytest
import scipy.fft

from fracschrod import (
    Domain,
    Field,
    FracParams,
    Region,
    apply_operator,
    assemble,
    build_grid,
    cns,
    evaluate_at,
    sample_function,
    tail_mass,
)
from fracschrod import fraclap
from fracschrod.errors import (
    GridMismatch,
    NonPositiveRadius,
    OrderOutOfRange,
    SingularOverlap,
    Validation,
)
from fracschrod.cauchy import neumann_derivative
from fracschrod.fraclap import _blocks, _Stencil
from conftest import dense_exterior, dense_interior
from oracles import cell_mass_quad_2d, fraclap_gaussian, fraclap_quad_1d, tail_mass_quad_2d


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
    p = FracParams(1, 0.5)
    # (1/pi) * 2 * 2^-1 / (2 * 0.5) = 1/pi
    assert tail_mass(p, 2.0) == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert tail_mass(p, 1e12) == pytest.approx(0.0, abs=1e-12)
    p2 = FracParams(2, 0.25)
    want = p2.cns * 2.0 * np.pi * 4.0**-0.5 / 0.5
    assert tail_mass(p2, 4.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(p2.cns * 2.0 * np.pi, rel=1e-14)
    # cross-check against radial quadrature
    assert tail_mass(p2, 4.0) == pytest.approx(tail_mass_quad_2d(0.25, 4.0), rel=1e-9)
    with pytest.raises(NonPositiveRadius):
        tail_mass(p, 0.0)


ORDERS = (0.1, 0.25, 0.5, 0.75, 0.9)


def test_frac_params_computes_its_constant():
    for n, s in itertools.product((1, 2), ORDERS):
        assert FracParams(n, s).cns.hex() == cns(n, s).hex()
    with pytest.raises(TypeError):
        FracParams(1, 0.5, 1.0)  # the constant is not an argument
    with pytest.raises(OrderOutOfRange, match=r"s = 1\.5 must lie in \(0, 1\)"):
        FracParams(2, 1.5)
    for n in (0, 3):
        with pytest.raises(ValueError, match=r"only n in \{1, 2\} supported"):
            FracParams(n, 0.5)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", ORDERS)
def test_tail_mass_is_the_per_dimension_form_bit_for_bit(n, s):
    # the expressions of the per-dimension branches tail_mass replaced
    def per_dimension(p, r):
        if p.n == 1:
            return p.cns * 2.0 * r ** (-2 * p.s) / (2 * p.s)
        return p.cns * 2.0 * np.pi * r ** (-2 * p.s) / (2 * p.s)

    p, h = FracParams(n, s), 2.0**-8
    radii = np.concatenate([np.linspace(h / 2, 10.0, 997), h * np.arange(0.5, 40.0, 0.5),
                            np.geomspace(h / 2, 10.0, 101)])
    for r in radii.tolist():
        assert tail_mass(p, r).hex() == per_dimension(p, r).hex(), r


def test_square_cell_mass_closed_form():
    # the integral of 1/|z| over [-1/2, 1/2]^2 is 4 asinh(1)
    assert fraclap._square_cell_mass(0.5) == pytest.approx(4.0 * np.arcsinh(1.0),
                                                           rel=1e-15)
    for s in (0.1, 0.25, 0.75, 0.9):
        assert fraclap._square_cell_mass(s) == pytest.approx(cell_mass_quad_2d(s),
                                                             rel=1e-10)


@pytest.mark.parametrize("s, bound", [(0.5, 0.05), (0.75, 0.5)])
def test_gaussian_2d_vs_closed_form(s, bound):
    # exp(-|x|^2 / sigma^2) with sigma = 1/4 nearly vanishes at the boundary,
    # so the boundary attribution costs nothing and the error is the
    # interior scheme's and the far tail's (measured at h = 2^-5: 0.0321 at
    # s = 1/2 and 0.361 at s = 3/4; 0.171 and 1.68 with half the singular
    # cell's mass)
    grid = build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-5, 3.0)
    op = assemble(grid, s)
    u = sample_function(grid, lambda x, y: np.exp(-(x * x + y * y) / 0.0625))
    want = fraclap_gaussian(grid.interior_nodes, s, 0.25)
    assert np.max(np.abs(apply_operator(op, u) - want)) <= bound


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constant_annihilation_1d(s):
    grid = build_grid(Domain.interval(-1, 1), 2.0**-5, 4.0)
    op = assemble(grid, s)
    ones = Field.from_values(grid, np.ones(grid.n_nodes))
    assert np.max(np.abs(apply_operator(op, ones, farfield=1.0))) <= 1e-12


def test_sign_pattern_and_symmetry(op_small):
    a_ii, a_ie = dense_interior(op_small), dense_exterior(op_small)
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
    a_ii = dense_interior(op)
    off = a_ii - np.diag(np.diag(a_ii))
    assert np.all(np.diag(a_ii) > 0)
    assert np.all(off <= 0)
    assert np.all(dense_exterior(op) <= 0)
    assert np.max(np.abs(a_ii - a_ii.T)) <= 1e-12 * np.max(np.abs(a_ii))
    # the exterior product is a convolution: roundoff, within criterion 2
    ones = Field.from_values(grid_2d, np.ones(grid_2d.n_nodes))
    assert np.max(np.abs(apply_operator(op, ones, farfield=1.0))) <= 1e-12


def test_grid_mismatch_rejected(op_small):
    other = build_grid(Domain.interval(-1, 1), 1.0 / 8, 3.0)
    u = Field.zeros(other)
    with pytest.raises(GridMismatch):
        apply_operator(op_small, u)


def _moved(grid, index, shift):
    nodes = grid.nodes.copy()
    nodes[index] += shift
    return dataclasses.replace(grid, nodes=nodes)


def test_off_lattice_grid_rejected(grid_2d):
    # the stencil indexes weights by integer offset, so every node must sit
    # on the h-lattice anchored at the domain center
    h = grid_2d.h
    g = int(grid_2d.interior_index[7])
    off = _moved(grid_2d, g, np.array([h / 3, 0.0]))
    # the point as plain floats, with no numpy scalar reprs
    point = re.escape(f"point {tuple(off.nodes[g].tolist())} is off the h-lattice")
    with pytest.raises(SingularOverlap, match=point):
        assemble(off, 0.5)
    moved = _moved(grid_2d, int(grid_2d.exterior_index[0]), np.array([0.0, h / 3]))
    with pytest.raises(SingularOverlap):
        neumann_derivative(moved, FracParams(2, 0.5), Field.zeros(moved),
                           grid_2d.exterior_index[-1:])
    with pytest.raises(SingularOverlap, match="share a lattice point"):
        assemble(_moved(grid_2d, g, np.array([h, 0.0])), 0.5)
    # the blocks are convolutions over the interior box: an interior node
    # moved to a free lattice point beyond the ball leaves a hole in it
    corner = grid_2d.domain.center + grid_2d.R
    holed = _moved(grid_2d, g, corner - grid_2d.nodes[g])
    with pytest.raises(SingularOverlap, match="lattice box"):
        assemble(holed, 0.5)
    # the Neumann trace reads its kernel rows as boxes of the same interior
    with pytest.raises(SingularOverlap, match="lattice box"):
        neumann_derivative(holed, FracParams(2, 0.5), Field.zeros(holed),
                           grid_2d.exterior_index[:1])


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


# the non-dyadic grids, both 2D golden grids, and 1D h=2^-5 at three orders
FILL_GRIDS = {**STENCIL_GRIDS,
              **{f"1d-s{s}": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, s)
                 for s in (0.25, 0.5, 0.75)}}


@pytest.mark.parametrize("name", FILL_GRIDS)
def test_assembled_blocks_are_the_stencil_rows(name):
    # the interior fill reads a view of the kernel and the exterior columns
    # gather from the stencil without going through rows(); both, and the
    # tail, must read the same weights bit for bit.  The row sums are the
    # blocks' convolutions with ones, so they and the diagonal equal the
    # dense rows' sums to roundoff, within the products' bound
    domain, h, R, s = FILL_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(grid, s)
    w, tail = _Stencil(grid, op.params).rows(grid.interior_index)
    interior = -w[:, grid.interior_index]
    exterior = -w[:, grid.exterior_index]
    fill = dense_interior(op)
    off = ~np.eye(grid.n_interior, dtype=bool)
    assert fill[off].tobytes() == interior[off].tobytes()
    assert np.diag(fill).tobytes() == op.a_ii.diagonal.tobytes()
    assert dense_exterior(op).tobytes() == exterior.tobytes()
    assert op.tail.tobytes() == tail.tobytes()
    off_sums, row_sums = np.sum(interior, axis=1), np.sum(exterior, axis=1)
    bound = PRODUCT_EPS * np.finfo(float).eps * np.max(np.sum(np.abs(w), axis=1))
    for got, want in ((op.a_ii.off_sums, off_sums), (op.a_ie.row_sums, row_sums),
                      (op.a_ii.diagonal, -(off_sums + row_sums))):
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("name", STENCIL_GRIDS)
def test_rows_over_columns_are_columns_of_the_rows(name):
    # a column set selects columns of the full rows, corrections included,
    # bit for bit: interior targets over the exterior nodes (the exact
    # exterior block), and every fifth exterior node over a shuffled third
    # of all nodes
    domain, h, R, s = STENCIL_GRIDS[name]
    grid = build_grid(domain, h, R)
    stencil = _Stencil(grid, FracParams(grid.dim, s))
    some = np.random.default_rng(5).permutation(grid.n_nodes)[: grid.n_nodes // 3]
    for targets, cols in ((grid.interior_index, grid.exterior_index),
                          (grid.exterior_index[::5], some)):
        w, tail = stencil.rows(targets)
        got, got_tail = stencil.rows(targets, cols)
        assert got.tobytes() == w[:, cols].tobytes()
        assert got_tail.tobytes() == tail.tobytes()


def test_assembly_forms_no_row(monkeypatch):
    # both row sums are convolutions with ones, so assembly gathers no
    # stencil row and applies no sparse correction (rows is the only code
    # that applies them)
    def forbidden(*args, **kwargs):
        raise AssertionError("assemble formed stencil rows")

    monkeypatch.setattr(_Stencil, "midpoint", forbidden)
    monkeypatch.setattr(_Stencil, "rows", forbidden)
    for name in ("1d-offset", "2d-rect"):
        domain, h, R, s = FILL_GRIDS[name]
        op = assemble(build_grid(domain, h, R), s)
        assert np.all(op.a_ii.diagonal > 0)


@pytest.mark.parametrize("name", STENCIL_GRIDS)
def test_far_tails_are_the_per_node_form(name):
    # one array pass over the distances, one scalar power per node
    domain, h, R, s = STENCIL_GRIDS[name]
    grid = build_grid(domain, h, R)
    params = FracParams(grid.dim, s)
    center = grid.domain.center
    want = []
    for x in grid.nodes:
        if grid.dim == 1:
            dd = float(x[0] - center[0])
            want.append(0.5 * (tail_mass(params, max(R + dd, 0.5 * h))
                               + tail_mass(params, max(R - dd, 0.5 * h))))
        else:
            r_eff = max(R - float(np.linalg.norm(x - center)), 0.5 * h)
            want.append(tail_mass(params, r_eff))
    got = _Stencil(grid, params).far_tails(np.arange(grid.n_nodes))
    assert np.array(got).tobytes() == np.array(want).tobytes()


# 1D h=2^-5 at five orders, the two 2D golden grids and the golden box at
# s = 0.9; the orders near 0 and 1 put the most and the least of the
# kernel's weight past the near field
PRODUCT_GRIDS = {
    "1d-s0.1": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, 0.1),
    "1d-s0.25": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, 0.25),
    "1d-s0.5": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, 0.5),
    "1d-s0.75": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, 0.75),
    "1d-s0.9": (Domain.interval(-1.0, 1.0), 2.0**-5, 4.0, 0.9),
    "2d-box": STENCIL_GRIDS["2d-box"],
    "2d-box-s0.9": STENCIL_GRIDS["2d-box"][:3] + (0.9,),
    "2d-rect": STENCIL_GRIDS["2d-rect"],
}

# the exterior product's stated bound: 16 eps times the largest row of
# |a_ie| |g|; the convolution measured at most 9.4 eps on these grids
# (2d-box-s0.9; 9.7 on 2d-box with the near field at |k|_inf <= 8)
PRODUCT_EPS = 16


@pytest.mark.parametrize("name", sorted(PRODUCT_GRIDS))
def test_exterior_product_is_the_dense_block(name):
    domain, h, R, s = PRODUCT_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(grid, s)
    w, _ = _Stencil(grid, op.params).rows(grid.interior_index)
    dense = -w[:, grid.exterior_index]
    rng = np.random.default_rng(5)
    bump = sample_function(grid, lambda *x: np.exp(-np.sum(np.square(x))),
                           Region.EXTERIOR).exterior_values
    for g in (np.ones(grid.n_exterior), rng.standard_normal(grid.n_exterior), bump):
        scale = np.max(np.abs(dense) @ np.abs(g))
        err = np.max(np.abs(op.a_ie @ g - dense @ g))
        assert err <= PRODUCT_EPS * np.finfo(float).eps * scale


@pytest.mark.parametrize("name", sorted(PRODUCT_GRIDS))
def test_interior_product_is_the_dense_block(name):
    # the exterior product's bound; the interior one measured at most 2.2 eps
    domain, h, R, s = PRODUCT_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(grid, s)
    dense = dense_interior(op)
    rng = np.random.default_rng(6)
    bump = sample_function(grid, lambda *x: np.exp(-np.sum(np.square(x))),
                           Region.INTERIOR).interior_values
    for v in (np.ones(grid.n_interior), rng.standard_normal(grid.n_interior), bump):
        scale = np.max(np.abs(dense) @ np.abs(v))
        err = np.max(np.abs(op.a_ii @ v - dense @ v))
        assert err <= PRODUCT_EPS * np.finfo(float).eps * scale


# 1D h=2^-6; a 2D box whose 31-wide interior is wider than the 9-wide near
# window; the 2D golden rectangle, whose 15 x 7 interior is narrower than
# that window along its short axis
CONVOLUTION_GRIDS = {
    "1d-h2^-6": (Domain.interval(-1.0, 1.0), 2.0**-6, 4.0, 0.5),
    "2d-box-h2^-4": (Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-4, 3.0, 0.5),
    "2d-rect": STENCIL_GRIDS["2d-rect"],
}


def per_offset_kernel(stencil, low, span):
    """K(d) over the box [low, low + span) by one gather per offset of the
    flattened kernel table: the midpoint weight where |d|_inf <= reach, 0
    elsewhere, plus w_sing where |d|_1 = 1."""
    d = np.indices(span).reshape(len(span), -1).T + low
    kern = np.zeros(len(d))
    inside = np.all(np.abs(d) <= stencil.reach, axis=1)
    kern[inside] = stencil.kernel.ravel()[stencil.origin + d[inside] @ stencil.strides]
    kern[np.sum(np.abs(d), axis=1) == 1] += stencil.w_sing
    return kern.reshape(span)


@pytest.mark.parametrize("name", ["1d-h2^-6", "2d-rect"])
def test_offset_kernel_is_the_per_offset_gather(name):
    # per axis: across both ends of the reach, across its upper end, wholly
    # below and wholly above it, the offsets {0, 1} (+1 without -1) and
    # offsets inside the reach that leave out the unit offsets; in 2D every
    # pairing of them
    domain, h, R, s = CONVOLUTION_GRIDS[name]
    grid = build_grid(domain, h, R)
    stencil = _Stencil(grid, FracParams(grid.dim, s))
    reach = stencil.reach
    axis_boxes = [(-reach - 3, 2 * reach + 7), (reach - 2, 6), (-reach - 9, 4),
                  (reach + 1, 3), (0, 2), (2, 5)]
    for box in itertools.product(axis_boxes, repeat=grid.dim):
        low, span = (np.array(x) for x in zip(*box))
        want = per_offset_kernel(stencil, low, span)
        assert np.array_equal(fraclap._offset_kernel(stencil, low, span), want)


def reference_convolution(stencil, low, span, t_low, t_span, field):
    """(K * field) over the target box as the far part by FFT, then one
    total += weight * field[window] per near term, ascending weight with
    ties in row-major offset order."""
    d_span = t_span + span - 1
    d_low = t_low - (low + span - 1)
    kern = fraclap._offset_kernel(stencil, d_low, d_span)
    d = np.moveaxis(np.indices(d_span), 0, -1) + d_low
    near = np.all(np.abs(d) <= fraclap._NEAR, axis=-1)
    terms = sorted(((kern[tuple(i)], d[tuple(i)]) for i in np.argwhere(near)
                    if kern[tuple(i)] != 0.0), key=lambda term: term[0])
    size = [scipy.fft.next_fast_len(int(w), real=True) for w in d_span]
    far = scipy.fft.rfftn(np.where(near, 0.0, kern), size)
    valid = tuple(slice(s - 1, s - 1 + w) for s, w in zip(span, t_span))
    total = scipy.fft.irfftn(scipy.fft.rfftn(field, size) * far, size)[valid]
    for weight, offset in terms:
        window = tuple(slice(a, a + w) for a, w in zip(t_low - offset - low, t_span))
        total += weight * field[window]
    return total.reshape(-1)


WINDOWED_GRIDS = CONVOLUTION_GRIDS | PRODUCT_GRIDS


@pytest.mark.parametrize("name", sorted(WINDOWED_GRIDS))
def test_convolutions_are_the_windowed_sums(name):
    # both blocks' convolutions, on a random source field and on the field
    # each block's product forms, keep the bits of the windowed sums, whose
    # far part goes through scipy.fft: numpy.fft gives its bits
    domain, h, R, s = WINDOWED_GRIDS[name]
    grid = build_grid(domain, h, R)
    op = assemble(grid, s)
    stencil = _Stencil(grid, op.params)
    t_low, t_span = fraclap._interior_box(stencil)
    near = fraclap._NEAR
    low = stencil.coords.min(axis=0) - near
    boxes = {"a_ii": (op.a_ii, t_low - near, t_span + 2 * near),
             "a_ie": (op.a_ie, low, stencil.coords.max(axis=0) + near + 1 - low)}
    rng = np.random.default_rng(7)
    for block, low, span in boxes.values():
        assert block._conv.span == tuple(span)
        field = rng.standard_normal(span)
        want = reference_convolution(stencil, low, span, t_low, t_span, field)
        assert np.array_equal(block._conv(field), want)
    v = rng.standard_normal(grid.n_interior)
    field = np.zeros(op.a_ii._conv.span)
    field[tuple(slice(near, near + w) for w in t_span)] = v.reshape(t_span)
    want = -reference_convolution(stencil, t_low - near, t_span + 2 * near,
                                  t_low, t_span, field)
    assert np.array_equal(op.a_ii.off_diagonal(v), want)


def test_fast_len_is_scipys():
    got = [fraclap._fast_len(n) for n in range(1, 5001)]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 5001)]


@pytest.mark.parametrize("name", sorted(PRODUCT_GRIDS))
def test_circulant_half_spectrum_is_scipys(name, monkeypatch):
    # each block's far field is a circular convolution over its padded box,
    # a circulant whose first column is the far kernel zero-padded to that
    # box; its stored real FFT half against the same half of scipy's full
    # complex FFT: bit for bit in 1D, where both are one real transform,
    # and to roundoff in 2D
    domain, h, R, s = PRODUCT_GRIDS[name]
    calls, rfftn = [], np.fft.rfftn

    def spy(x, *args, **kwargs):
        out = rfftn(x, *args, **kwargs)
        calls.append((x, out))
        return out

    monkeypatch.setattr(np.fft, "rfftn", spy)
    op = assemble(build_grid(domain, h, R), s)
    for block in (op.a_ii, op.a_ie):
        conv = block._conv
        ((kern, spectrum),) = [c for c in calls if c[1] is conv._spectrum]
        size = conv._size
        column = np.zeros(size)
        column[tuple(slice(0, w) for w in kern.shape)] = kern
        want = scipy.fft.fftn(column)[..., : size[-1] // 2 + 1]
        assert spectrum.shape == want.shape
        if len(size) == 1:
            assert np.array_equal(spectrum, want)
        else:
            assert np.max(np.abs(spectrum - want)) <= 1e-15 * np.max(np.abs(want))


# DST-I extents: the degenerate 1 and 2, build_grid's odd boxes (2 (n + 1) a
# power of two; the interior boxes of PRODUCT_GRIDS among them) and an
# even_order box's 14 x 7
DST_BOXES = [(1,), (2,), (63,), (7, 7), (15, 15), (15, 7), (14, 7)]


@pytest.mark.parametrize("box", DST_BOXES, ids=lambda box: "x".join(map(str, box)))
def test_dst_is_the_sine_matrix(box):
    # the DST-I by real FFTs against the Kronecker product of the explicit
    # orthonormal sine matrices sqrt(2 / (n + 1)) sin(pi j a / (n + 1))
    # (measured: at most 5.3e-15 of the largest output, at n = 63, where the
    # matrix's own arguments round), and twice over it is the input
    x = np.random.default_rng(8).standard_normal(box)
    sines = []
    for n in box:
        a = np.arange(1, n + 1)
        sines.append(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * np.outer(a, a)))
    want = functools.reduce(np.kron, sines) @ x.ravel()
    got = fraclap._dst(x)
    assert got.shape == box
    assert np.max(np.abs(got.ravel() - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(fraclap._dst(got) - x)) <= 1e-14 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [1, 2, 7, 14, 63])
def test_tau_weights_are_the_direct_sum(n):
    # the closed form of each tau weight against its defining sum over the
    # orthonormal sine vectors (measured: at most 8.3e-15, at n = 63)
    q = np.sqrt(2.0 / (n + 1)) * np.sin(
        np.pi / (n + 1) * np.outer(np.arange(1, n + 1), np.arange(1, n + 1)))
    want = np.array([[q[j, : n - abs(d)] @ q[j, abs(d):] for d in range(1 - n, n)]
                     for j in range(n)])
    assert np.max(np.abs(fraclap._tau_weights(n) - want)) <= 1e-13
    assert np.allclose(fraclap._sine_squares(n), q**2, rtol=0.0, atol=1e-15)


def held_arrays(block):
    """The arrays a block holds, one level into its lists, tuples and helpers."""
    held = list(vars(block).values())
    held += [x for v in held if hasattr(v, "nbytes") and not isinstance(v, np.ndarray)
             for x in vars(v).values()]
    held += [x for v in held if isinstance(v, (list, tuple)) for x in v]
    return [v for v in held if isinstance(v, np.ndarray)]


def spanned_bytes(a: np.ndarray) -> int:
    """Bytes of memory an array reads, so a strided view counts its source."""
    low, high = np.lib.array_utils.byte_bounds(a)
    return high - low


def test_operator_holds_no_interior_by_exterior_array(stencil_op):
    op = stencil_op
    ni, ne = op.grid.n_interior, op.grid.n_exterior
    sizes = [v.size for v in held_arrays(op.a_ie)]
    assert op.a_ii.shape == (ni, ni) and op.tail.shape == (ni,)
    assert len(sizes) > 3 and max(sizes) < ni * ne


@pytest.mark.parametrize("name", sorted(PRODUCT_GRIDS))
def test_operator_holds_no_interior_by_interior_array(name):
    # on grids of a few dozen rows or more: below that the padded FFT box
    # can outgrow a dense block
    domain, h, R, s = PRODUCT_GRIDS[name]
    op = assemble(build_grid(domain, h, R), s)
    ni = op.grid.n_interior
    spans = [spanned_bytes(v) for v in held_arrays(op.a_ii)]
    assert len(spans) > 3 and max(spans) < ni * ni * 8 / 4
    # the benchmark's fraclap.operator_mb observer reads these three
    total = op.a_ii.nbytes + op.a_ie.nbytes + op.tail.nbytes
    assert isinstance(total, int) and op.a_ii.nbytes < ni * ni * 8 / 2


def test_interior_block_is_bitwise_symmetric(stencil_op):
    # the kernel is read at offsets that are exact negations of each other,
    # the singular-step masses are symmetric and boundary mass lands only in
    # a_ie; a Fortran-order fill is the C-order one on that guarantee
    dense = dense_interior(stencil_op)
    assert np.array_equal(dense, dense.T)


def row_dot_apply(op, u, farfield):
    """Reference: the operator applied one interior row at a time, over the
    dense blocks; also the scale of the two products, |a_ie| |u_e| +
    |rowsum| |u_i| + |a_ii| |w| with w = u_i - mean(u_i)."""
    ui, ue = u.interior_values, u.exterior_values
    a_ii, a_ie = dense_interior(op), dense_exterior(op)
    out = np.empty(op.grid.n_interior)
    for r in range(op.grid.n_interior):
        out[r] = (np.dot(-a_ii[r], ui[r] - ui)
                  + np.dot(-a_ie[r], ui[r] - ue)
                  + op.tail[r] * (ui[r] - farfield))
    w = ui - np.mean(ui)
    scale = (np.abs(a_ie) @ np.abs(ue) + np.abs(op.a_ie.row_sums * ui)
             + np.abs(a_ii) @ np.abs(w))
    return out, np.max(scale)


def test_apply_is_the_row_dots(stencil_op):
    # both products are convolutions: the reference's row dots differ by
    # the products' bounds plus the rounding of u_i * rowsum and w * off_sums
    grid = stencil_op.grid
    u = Field.from_values(grid, np.random.default_rng(11).standard_normal(grid.n_nodes))
    got = apply_operator(stencil_op, u, farfield=0.3)
    want, scale = row_dot_apply(stencil_op, u, 0.3)
    assert np.max(np.abs(got - want)) <= (PRODUCT_EPS + 2) * np.finfo(float).eps * scale
    constant = Field.from_values(grid, np.full(grid.n_nodes, 1.7))
    assert np.max(np.abs(apply_operator(stencil_op, constant, farfield=1.7))) <= 1e-12


def row_dot_evaluate(op, u, indices, farfield):
    """Reference: one np.dot per stencil row, node by node."""
    stencil = _Stencil(op.grid, op.params)
    out = np.empty(indices.size)
    for sl in _blocks(indices.size, op.grid.n_nodes):
        w, tail = stencil.rows(indices[sl])
        for r, g in enumerate(indices[sl]):
            v = u.values[g]
            out[sl.start + r] = np.dot(w[r], v - u.values) + tail[r] * (v - farfield)
    return out


def test_evaluate_at_is_the_row_dots(stencil_op):
    grid = stencil_op.grid
    u = Field.from_values(grid, np.random.default_rng(12).standard_normal(grid.n_nodes))
    got = evaluate_at(stencil_op, u, grid.exterior_index, farfield=0.3)
    want = row_dot_evaluate(stencil_op, u, grid.exterior_index, 0.3)
    assert got.tobytes() == want.tobytes()


def test_evaluate_at_annihilates_constants(stencil_op):
    grid = stencil_op.grid
    constant = Field.from_values(grid, np.full(grid.n_nodes, 1.7))
    got = evaluate_at(stencil_op, constant, grid.exterior_index, farfield=1.7)
    assert np.all(got == 0.0)


@pytest.mark.parametrize("make", [lambda grid: FracParams(True, 0.5),
                                  lambda grid: FracParams(1, "0.5"),
                                  lambda grid: assemble(grid, "0.5")])
def test_order_and_dimension_are_read(op_small, make):
    # n = True built a 1D constant, and a string order raised a bare TypeError
    with pytest.raises(Validation):
        make(op_small.grid)


@pytest.mark.parametrize("evaluate", [
    lambda op, u, far: apply_operator(op, u, farfield=far),
    lambda op, u, far: evaluate_at(op, u, op.grid.exterior_index[:3], farfield=far),
])
@pytest.mark.parametrize("farfield", [float("nan"), "0"])
def test_farfield_is_read(op_small, evaluate, farfield):
    # nan returned NaN values, and "0" raised a bare UFuncTypeError
    with pytest.raises(Validation, match="farfield"):
        evaluate(op_small, Field.zeros(op_small.grid), farfield)
