import json

import numpy as np
import pytest

from fracschrod import (
    Domain,
    Field,
    FracParams,
    LinearProblem,
    NewtonConfig,
    Window,
    annulus_window,
    assemble,
    bank_to_json,
    build_cauchy_bank,
    build_grid,
    catalogue,
    evaluate_at,
    exterior_identity_check,
    mass_m,
    neumann_derivative,
    solve_linear,
    solve_semilinear,
)
from fracschrod import cauchy
from fracschrod.errors import GridMismatch, Validation, WindowTouchesBoundary
from fracschrod.fraclap import _blocks, _Stencil
from conftest import GRIDS_2D, exterior_bump
from oracles import domain_mass_quad_1d, domain_mass_quad_2d


def exterior_index_at(grid, x):
    k = int(np.argmin(np.abs(grid.nodes.ravel() - x)))
    assert abs(grid.nodes.ravel()[k] - x) < 1e-12
    return k


def test_neumann_constant_field_is_zero(op_small):
    grid = op_small.grid
    u = Field.from_values(grid, np.full(grid.n_nodes, 3.7))
    window = annulus_window(grid, 0.5, 1.5)
    vals = neumann_derivative(grid, op_small.params, u, window.indices)
    assert np.max(np.abs(vals)) <= 1e-12


def test_neumann_indicator_value(op_fine):
    # u = 1 on the domain, 0 at x = 2:
    # N u(2) = -(1/pi) integral of (2-y)^-2 over (-1,1) = -(1/pi)(2/3)
    grid = op_fine.grid
    values = np.zeros(grid.n_nodes)
    values[grid.interior_index] = 1.0
    u = Field.from_values(grid, values)
    idx = exterior_index_at(grid, 2.0)
    val = neumann_derivative(grid, op_fine.params, u, np.array([idx]))[0]
    assert val == pytest.approx(-2.0 / (3.0 * np.pi), abs=2e-3)


def test_neumann_linearity(op_small):
    grid = op_small.grid
    rng = np.random.default_rng(4)
    u = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    v = Field.from_values(grid, rng.standard_normal(grid.n_nodes))
    combo = Field.from_values(grid, 0.3 * u.values - 1.7 * v.values)
    window = annulus_window(grid, 0.5, 1.5)
    nu = neumann_derivative(grid, op_small.params, u, window.indices)
    nv = neumann_derivative(grid, op_small.params, v, window.indices)
    nc = neumann_derivative(grid, op_small.params, combo, window.indices)
    err = np.max(np.abs(nc - (0.3 * nu - 1.7 * nv)))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(nc)))


def test_neumann_sign_for_nonnegative_solution(op_small):
    # where the data vanishes, N u(x) = -c int u(y) kernel <= 0 for u >= 0
    grid = op_small.grid
    g = exterior_bump(grid, -1.5, 0.25, 1.0)  # supported on the left only
    u = solve_linear(LinearProblem(op=op_small, a=np.zeros(grid.n_interior),
                                   f=np.zeros(grid.n_interior), g=g))
    right = annulus_window(grid, 0.5, 1.5)
    sel = right.indices[grid.nodes[right.indices, 0] > 0]
    vals = neumann_derivative(grid, op_small.params, u, sel)
    assert np.min(u.interior_values) >= -1e-12
    assert np.all(vals <= 1e-12)


def test_neumann_rejects_near_boundary():
    # boundary off the lattice: the first exterior node sits closer than h
    grid = build_grid(Domain.interval(-0.875, 0.875), 0.25, 2.0)
    params = FracParams(1, 0.5)
    u = Field.zeros(grid)
    near = exterior_index_at(grid, 1.0)  # distance 0.125 < h = 0.25
    with pytest.raises(WindowTouchesBoundary):
        neumann_derivative(grid, params, u, np.array([near]))
    with pytest.raises(WindowTouchesBoundary):
        mass_m(grid, params, np.array([near]))
    # one spacing away is allowed
    far = exterior_index_at(grid, 1.25)
    neumann_derivative(grid, params, u, np.array([far]))
    assert mass_m(grid, params, np.array([far]))[0] > 0


def test_mass_closed_form(op_fine):
    grid = op_fine.grid
    idx = np.array([exterior_index_at(grid, 2.0)])
    # antiderivative: integral of (2-y)^-2 over (-1,1) = 2/3
    assert mass_m(grid, op_fine.params, idx)[0] == pytest.approx(
        2.0 / (3.0 * np.pi), rel=1e-12)


def test_mass_monotone_decay(op_small):
    grid = op_small.grid
    idx = [exterior_index_at(grid, x) for x in (1.5, 2.0, 2.5)]
    vals = mass_m(grid, op_small.params, idx)
    assert vals[0] > vals[1] > vals[2] > 0


def test_mass_matches_adaptive_oracle():
    grid = build_grid(Domain.interval(-1, 1), 2.0**-4, 4.0)
    params = FracParams(1, 0.25)
    idx = np.array([exterior_index_at(grid, 3.0)])
    oracle = domain_mass_quad_1d(3.0, 0.25, -1.0, 1.0)
    assert abs(mass_m(grid, params, idx)[0] - oracle) <= 1e-6


def test_identity_zero_field(op_small):
    grid = op_small.grid
    z = Field.zeros(grid)
    window = annulus_window(grid, 0.5, 1.0)
    assert exterior_identity_check(op_small, z, z, window) == 0.0


def test_identity_getoor_extension(op_fine):
    # with zero exterior data the residual reduces to quadrature mismatch
    grid = op_fine.grid
    g = Field.zeros(grid)
    u = solve_linear(LinearProblem(op=op_fine, a=np.zeros(grid.n_interior),
                                   f=np.ones(grid.n_interior), g=g))
    window = annulus_window(grid, 0.5, 1.5)
    assert exterior_identity_check(op_fine, u, g, window) <= 1e-6


def test_identity_residual_halves_under_refinement():
    residuals = []
    for p in (6, 7):
        grid = build_grid(Domain.interval(-1, 1), 2.0**-p, 8.0)
        op = assemble(grid, 0.5)
        g = exterior_bump(grid, 2.0, 0.4, 1e-3, mirrored=True)
        u = solve_linear(LinearProblem(op=op, a=np.zeros(grid.n_interior),
                                       f=np.zeros(grid.n_interior), g=g))
        window = annulus_window(grid, 0.5, 1.5)
        residuals.append(exterior_identity_check(op, u, g, window))
    ratio = residuals[1] / residuals[0]
    assert 0.375 <= ratio <= 0.625


def test_identity_requires_matching_exterior(op_small):
    grid = op_small.grid
    g = exterior_bump(grid, 1.5, 0.25)
    window = annulus_window(grid, 0.5, 1.0)
    with pytest.raises(Validation):
        exterior_identity_check(op_small, Field.zeros(grid), g, window)


def test_cauchy_datum_zero_data(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    [datum] = build_cauchy_bank(op_small, catalogue("saturating-cubic", 1.0),
                                [("g", Field.zeros(grid))], window)
    assert np.all(datum.trace == 0.0)
    assert np.all(datum.neumann == 0.0)


def test_cauchy_datum_linear_composition(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    g = exterior_bump(grid, 1.5, 0.3, 0.7)
    [datum] = build_cauchy_bank(op_small, catalogue("zero"), [("g", g)], window)
    lin = solve_linear(LinearProblem(op=op_small, a=np.zeros(grid.n_interior),
                                     f=np.zeros(grid.n_interior), g=g))
    direct = neumann_derivative(grid, op_small.params, lin, window.indices)
    assert np.max(np.abs(datum.neumann - direct)) <= 1e-12
    assert np.array_equal(datum.trace, g.values[window.indices])


def test_cauchy_data_nonhomogeneous(op_medium):
    # the saturating nonlinearity breaks homogeneity: datum(2g) != 2 datum(g)
    grid = op_medium.grid
    nl = catalogue("saturating-cubic", 1.0)
    window = annulus_window(grid, 0.5, 1.0)
    cfg = NewtonConfig(residual_tol=1e-12)
    g1 = exterior_bump(grid, 1.5, 0.4, 1.0)
    g2 = exterior_bump(grid, 1.5, 0.4, 2.0)
    d1, d2 = build_cauchy_bank(op_medium, nl, [("g1", g1), ("g2", g2)], window, cfg)
    assert np.max(np.abs(d2.neumann - 2.0 * d1.neumann)) > 1e-6


def test_mass_2d_monotone_and_positive(grid_2d):
    params = FracParams(2, 0.5)
    nodes = grid_2d.nodes
    idx = [int(np.argmin(np.linalg.norm(nodes - np.array([x, 0.0]), axis=1)))
           for x in (1.5, 2.0, 2.5)]
    vals = mass_m(grid_2d, params, idx)
    assert vals[0] > vals[1] > vals[2] > 0


@pytest.mark.parametrize("name", sorted(GRIDS_2D))
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_mass_2d_matches_adaptive_oracle(name, s):
    # one step off a face, on a face's extension (that face is seen
    # edge-on, d = 0), one step off a corner, and far away
    dom, h, R, _ = GRIDS_2D[name]
    grid = build_grid(dom, h, R)
    (ax, ay), (bx, by) = dom.lower, dom.upper
    points = [(bx + h, 0.25), (bx, by + h), (ax - h, ay - h), (-2.0, -2.0)]
    idx = [int(np.flatnonzero(np.all(grid.nodes == p, axis=1))[0]) for p in points]
    vals = mass_m(grid, FracParams(2, s), idx)
    for x, val in zip(grid.nodes[idx], vals):
        oracle = domain_mass_quad_2d(x, s, dom.lower, dom.upper)
        assert val == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_identity_2d(grid_2d):
    from fracschrod import Window, assemble, sample_function
    from fracschrod.grid import Region

    op = assemble(grid_2d, 0.5)
    g = sample_function(
        grid_2d,
        lambda x, y: 1e-3 * max(0.0, 1 - ((x - 1.8) ** 2 + y**2) / 0.25) ** 4,
        Region.EXTERIOR)
    u = solve_linear(LinearProblem(op=op, a=np.zeros(grid_2d.n_interior),
                                   f=np.zeros(grid_2d.n_interior), g=g))
    # a handful of window nodes near the bump, clear of the domain
    d = grid_2d.domain.distance(grid_2d.exterior_nodes)
    near_bump = np.linalg.norm(grid_2d.exterior_nodes - np.array([1.8, 0.0]),
                               axis=1) < 0.3
    sel = grid_2d.exterior_index[(d >= 0.5) & near_bump][:5]
    window = Window(grid_2d, sel)
    residual = exterior_identity_check(op, u, g, window)
    assert residual <= 1e-4


def test_bank_json(op_small):
    grid = op_small.grid
    window = annulus_window(grid, 0.5, 1.0)
    probes = [("g-0", exterior_bump(grid, 1.5, 0.3, 0.5)),
              ("g-1", exterior_bump(grid, -1.5, 0.3, 0.5))]
    bank = build_cauchy_bank(op_small, catalogue("zero"), probes, window)
    doc = bank_to_json(bank)
    assert [d["g-id"] for d in doc["data"]] == ["g-0", "g-1"]
    assert len(doc["window"]) == window.size
    json.dumps(doc)


def test_bank_builds_one_stencil(grid_2d, monkeypatch):
    # the bank shares one stencil among its data, with the bytes of a solve
    # and a Neumann trace that builds its own
    op = assemble(grid_2d, 0.5)
    window = annulus_window(grid_2d, 0.5, 1.0)
    nl = catalogue("saturating-cubic", 1.0)
    probes = [("g-0", exterior_bump(grid_2d, (1.6, 0.3), 0.4)),
              ("g-1", exterior_bump(grid_2d, (-0.5, 1.6), 0.4, 0.5))]
    want = []
    for _, g in probes:
        u = solve_semilinear(op, nl, g).u
        want.append((u.values[window.indices],
                     neumann_derivative(grid_2d, op.params, u, window.indices)))
    built = []

    class Counted(_Stencil):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cauchy, "_Stencil", Counted)
    bank = build_cauchy_bank(op, nl, probes, window)
    assert len(built) == 1
    assert [d.provenance for d in bank] == ["g-0", "g-1"]
    for datum, (trace, neumann) in zip(bank, want, strict=True):
        assert datum.trace.tobytes() == trace.tobytes()
        assert datum.neumann.tobytes() == neumann.tobytes()


def midpoint_neumann(grid, params, u, indices):
    """Reference: each batch of kernel rows gathered by _Stencil.midpoint,
    reduced by the trace's einsum over the same batches."""
    stencil = _Stencil(grid, params)
    ui, ux = u.interior_values, u.values[indices]
    out = np.empty(indices.size)
    for sl in _blocks(indices.size, 8 * ui.size):
        kern = stencil.midpoint(indices[sl], grid.interior_index)
        out[sl] = np.einsum("kj,kj->k", kern, ux[sl, None] - ui[None, :])
    return out


@pytest.mark.parametrize("name", ["1d", *sorted(GRIDS_2D)])
def test_neumann_is_the_midpoint_rows(name):
    # windows from one spacing off the domain, several batches wide on 2D
    domain, h, R, s = GRIDS_2D.get(name, (Domain.interval(-1.0, 1.0), 2.0**-6, 4.0, 0.5))
    grid = build_grid(domain, h, R)
    params = FracParams(grid.dim, s)
    u = Field.from_values(grid, np.sin(np.arange(grid.n_nodes)))
    for inner, outer in ((grid.h, 1.5), (0.5, 1.0)):
        idx = annulus_window(grid, inner, outer).indices
        want = midpoint_neumann(grid, params, u, idx)
        assert np.array_equal(neumann_derivative(grid, params, u, idx), want)


def test_params_of_another_dimension_rejected():
    # 1D params on a 2D grid gave a NaN mass and a trace with the wrong
    # kernel power; 2D params on a 1D grid are rejected alike
    for domain, n in ((Domain.box((-1.0, -1.0), (1.0, 1.0)), 1),
                      (Domain.interval(-1.0, 1.0), 2)):
        grid = build_grid(domain, 0.25, 3.0)
        params = FracParams(n, 0.5)
        idx = annulus_window(grid, 0.5, 1.0).indices
        with pytest.raises(GridMismatch, match="dimension"):
            neumann_derivative(grid, params, Field.zeros(grid), idx)
        with pytest.raises(GridMismatch, match="dimension"):
            mass_m(grid, params, idx)


def test_bad_node_indices_rejected(op_small):
    # a float index was truncated to a node, -1 wrapped to the last node and
    # an index past the nodes raised a bare IndexError
    grid = op_small.grid
    u = Field.zeros(grid)
    far = exterior_index_at(grid, 2.0)
    calls = (lambda idx: neumann_derivative(grid, op_small.params, u, idx),
             lambda idx: mass_m(grid, op_small.params, idx),
             lambda idx: evaluate_at(op_small, u, idx))
    for call in calls:
        assert call(np.array([far])).shape == (1,)
        assert call([]).shape == (0,)
        for bad in ([0.5], [float(far)], [-1], [grid.n_nodes], [far, grid.n_nodes + 3]):
            with pytest.raises(Validation, match="node indices"):
                call(bad)
    # the trace and the mass are defined at exterior nodes only
    for call in calls[:2]:
        with pytest.raises(Validation, match="exterior nodes"):
            call(grid.interior_index[:1])
    # a window checks its indices the same way: -1 was accepted as the last
    # node, and 0.5 or n_nodes raised a bare IndexError
    assert Window(grid, np.array([far])).size == 1
    for bad in ([0.5], [float(far)], [-1], [grid.n_nodes], [far, grid.n_nodes + 3]):
        with pytest.raises(Validation, match="node indices"):
            Window(grid, np.array(bad))


def _foreign_windows(grid):
    """Windows of the grid with the same h and R + 1: one whose nodes are
    not exterior nodes of grid, one whose first two nodes happen to be."""
    other = build_grid(grid.domain, grid.h, grid.R + 1.0)
    return [annulus_window(other, 0.5, 1.0), Window(other, np.array([0, 1]))]


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("entry", ["datum", "bank", "identity"])
def test_cauchy_entry_points_reject_a_window_of_another_grid(op_small, entry, k):
    grid = op_small.grid
    window = _foreign_windows(grid)[k]
    nl = catalogue("zero")
    g = exterior_bump(grid, 1.5, 0.3)
    # a bank of one datum, and an empty bank: the window is checked before
    # any probe is solved, not per probe
    with pytest.raises(GridMismatch, match="window"):
        if entry == "datum":
            build_cauchy_bank(op_small, nl, [("g", g)], window)
        elif entry == "bank":
            build_cauchy_bank(op_small, nl, [], window)
        else:
            u = solve_linear(LinearProblem(op=op_small, a=np.zeros(grid.n_interior),
                                           f=np.zeros(grid.n_interior), g=g))
            exterior_identity_check(op_small, u, g, window)
