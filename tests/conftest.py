from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dtfttr

from fracschrod import Domain, Field, assemble, build_grid, c3_bump, sample_function
from fracschrod.cli import EXPERIMENTS, _environment, run
from fracschrod.fraclap import _Stencil
from fracschrod.grid import Region
from fracschrod.solver import _lapack


def pytest_report_header(config):
    """The run's environment record, as each manifest.json holds it, printed
    at the top of the log: the sha256 pins of test_golden.py hold at two
    and four OpenBLAS threads but not at one (tests/golden/README.md), and
    numpy and scipy each bring their own OpenBLAS.  The line ends with the
    file of the LAPACK wrappers the solver calls."""
    env = _environment()
    threads = ", ".join(f"{name}={'unset' if value is None else value}"
                        for name, value in env["thread_variables"].items())
    builds = ", ".join(f"{module} {blas['name']} {blas['version']}"
                       for module, blas in env["blas"].items())
    return (f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; "
            f"BLAS threads: {threads}; usable CPUs: {env['cpu_affinity']}; "
            f"BLAS builds: {builds}; LAPACK wrappers: {_lapack().__file__}")


def pytest_terminal_summary(terminalreporter):
    # -q, the tier-1 setting, drops the header, so the line closes the log
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(terminalreporter.config))


@pytest.fixture(scope="session")
def op_fine():
    """s=0.5 on (-1,1), h=2^-8, R=8: the high-resolution reference operator."""
    grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-8, 8.0)
    return assemble(grid, 0.5)


@pytest.fixture(scope="session")
def op_medium():
    """s=0.5 on (-1,1), h=2^-6, R=4: workhorse for solver and study tests."""
    grid = build_grid(Domain.interval(-1.0, 1.0), 2.0**-6, 4.0)
    return assemble(grid, 0.5)


@pytest.fixture(scope="session")
def op_small():
    """s=0.5 on (-1,1), h=1/16, R=3: cheap operator for randomized trials."""
    grid = build_grid(Domain.interval(-1.0, 1.0), 1.0 / 16, 3.0)
    return assemble(grid, 0.5)


@pytest.fixture(scope="session")
def op_quarter():
    """s=0.5 on (-1,1), h=1/4, R=2: 15 nodes, 7 interior, for argument checks."""
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.25, 2.0)
    return assemble(grid, 0.5)


@pytest.fixture(scope="session")
def op_coarse():
    """s=0.5 on (-1,1), h=1/8, R=4: the recovery-scale operator."""
    grid = build_grid(Domain.interval(-1.0, 1.0), 1.0 / 8, 4.0)
    return assemble(grid, 0.5)


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-3, 3.0)


def exterior_bump(grid, center, width, amplitude=1.0, mirrored=False) -> Field:
    """Sum of compactly supported bumps sampled on exterior nodes."""
    f = c3_bump(center, width, amplitude)
    field = sample_function(grid, f, Region.EXTERIOR)
    if mirrored:
        reflected = 2.0 * grid.domain.center - np.atleast_1d(center)
        f2 = c3_bump(reflected, width, amplitude)
        mirror = sample_function(grid, f2, Region.EXTERIOR)
        field = Field.from_values(grid, field.values + mirror.values)
    return field


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG_OF = {"solve": "getoor", "forward": "forward", "principles": "principles",
             "linearize": "linearize", "recover": "recover", "probe": "probe"}

# (-1,1)^2 at h=2^-3, s=0.5 and (-1,1)x(-0.5,0.5) at h=1/8, s=0.25; R=3
GRIDS_2D = {
    "box-s0.5": (Domain.box((-1.0, -1.0), (1.0, 1.0)), 2.0**-3, 3.0, 0.5),
    "rect-s0.25": (Domain.box((-1.0, -0.5), (1.0, 0.5)), 1.0 / 8, 3.0, 0.25),
}


def dense_interior(op):
    """The interior block as a dense array: the packed fill the solver
    factors (a zero shift leaves the positive diagonal's bits), unpacked
    with dtfttr and its lower triangle mirrored by assignment, which keeps
    every bit, negative zeros included."""
    ni = op.grid.n_interior
    packed = np.empty(ni * (ni + 1) // 2)
    op.a_ii.fill(packed, np.zeros(ni))
    dense, info = dtfttr(ni, packed, transr="N", uplo="L")
    assert info == 0
    upper = np.triu_indices(ni, 1)
    dense[upper] = dense.T[upper]
    return dense


def dense_exterior(op):
    """Every column of the exterior block, exactly: the stencil's rows at the
    interior nodes over the exterior nodes, negated."""
    grid = op.grid
    return -_Stencil(grid, op.params).rows(grid.interior_index, grid.exterior_index)[0]


def smooth_field(grid):
    return sample_function(grid, lambda x, y: np.cos(1.3 * x - 0.4) * np.exp(-y * y))


@pytest.fixture(scope="session")
def cli_outputs(tmp_path_factory):
    """Output directory of one run of every sample config, per experiment."""
    root = tmp_path_factory.mktemp("golden")
    for experiment in EXPERIMENTS:
        cfg = CONFIGS / f"{CONFIG_OF[experiment]}.json"
        assert run(experiment, str(cfg), str(root / experiment)) == 0
    return root


@pytest.fixture(scope="session")
def ops_2d():
    return {name: assemble(build_grid(dom, h, R), s)
            for name, (dom, h, R, s) in GRIDS_2D.items()}
