"""Numerical toolkit for the exterior-value fractional semilinear
Schrodinger problem: discretization of the integral fractional Laplacian,
forward and linearized solvers, order-principle checks, nonlocal Cauchy
data, and window-data recovery of the linearized potential."""

__version__ = "0.1.0"

from .calderon import (
    BankComparison,
    DnMatrix,
    LinearizationStudy,
    RecoveryResult,
    canonical_probes,
    compare_cauchy_banks,
    dn_map,
    linearization_study,
    recover_potential,
    solve_linearized,
    strong_uniqueness_probe,
)
from .cauchy import (
    CauchyDatum,
    bank_to_json,
    build_cauchy_bank,
    exterior_identity_check,
    make_cauchy_datum,
    mass_m,
    neumann_derivative,
)
from .fraclap import (
    ExteriorBlock,
    FracParams,
    InteriorBlock,
    NonlocalOperator,
    apply_operator,
    assemble,
    cns,
    evaluate_at,
    tail_mass,
)
from .grid import (
    Domain,
    Field,
    Grid,
    Region,
    Window,
    annulus_window,
    build_grid,
    c3_bump,
    sample_function,
)
from .nonlinearity import (
    ConditionReport,
    ConditionVerdict,
    Nonlinearity,
    catalogue,
    check_conditions,
    delta_window,
)
from .solver import (
    Barrier,
    LinearProblem,
    NewtonConfig,
    SemilinearSolution,
    build_barrier,
    check_comparison,
    check_linf_bound,
    solution_to_csv,
    solve_linear,
    solve_semilinear,
)
