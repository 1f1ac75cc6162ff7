"""Independent numerical oracles used to freeze expected values.

These stay deliberately separate from the library code paths they check:
adaptive quadrature of the defining singular integral, closed-form
antiderivatives worked by hand, and a damped fixed-point solver for the
semilinear problem.
"""

import numpy as np
from scipy.integrate import dblquad, quad
from scipy.special import gamma, hyp1f1

from fracschrod import LinearProblem, cns, solve_linear
from fracschrod.grid import Field


def fraclap_quad_1d(u, x: float, s: float) -> float:
    """Adaptive quadrature of the 1D singular-integral definition at x.

    Uses the symmetric second-difference form, integrable at the origin
    for twice-differentiable u.
    """
    c = cns(1, s)

    def integrand(y):
        return (2.0 * u(x) - u(x + y) - u(x - y)) / y ** (1.0 + 2.0 * s)

    inner, _ = quad(integrand, 0.0, 1.0, limit=300)
    outer, _ = quad(integrand, 1.0, np.inf, limit=300)
    return c * (inner + outer)


def domain_mass_quad_1d(x: float, s: float, lo: float, hi: float) -> float:
    """Adaptive quadrature of the kernel mass of (lo, hi) seen from x."""
    c = cns(1, s)
    val, _ = quad(lambda y: abs(x - y) ** (-1.0 - 2.0 * s), lo, hi, limit=300)
    return c * val


def domain_mass_quad_2d(x, s: float, lower, upper) -> float:
    """Adaptive quadrature of the kernel mass of the box [lower, upper] seen
    from x, the box split at its point nearest to x so that the integrand
    peaks at a corner of each piece."""
    c = cns(2, s)
    near = np.clip(x, lower, upper)
    total = 0.0
    for ax, bx in ((lower[0], near[0]), (near[0], upper[0])):
        for ay, by in ((lower[1], near[1]), (near[1], upper[1])):
            if bx > ax and by > ay:
                val, _ = dblquad(
                    lambda yy, yx: ((x[0] - yx) ** 2 + (x[1] - yy) ** 2) ** (-1.0 - s),
                    ax, bx, ay, by, epsabs=0.0, epsrel=1e-13)
                total += val
    return c * total


def cell_mass_quad_2d(s: float) -> float:
    """Adaptive quadrature of |z|^(-2s) over [-1/2, 1/2]^2, as four quarters
    that meet at the singular origin."""
    quarter, _ = dblquad(lambda y, x: (x * x + y * y) ** (-s), 0.0, 0.5, 0.0, 0.5,
                         epsabs=0.0, epsrel=1e-13)
    return 4.0 * quarter


def tail_mass_quad_2d(s: float, r_eff: float, r_outer: float = np.inf) -> float:
    """Radial quadrature of the 2D kernel mass beyond radius r_eff."""
    c = cns(2, s)
    val, _ = quad(lambda r: 2.0 * np.pi * r ** (-1.0 - 2.0 * s), r_eff, r_outer,
                  limit=300)
    return c * val


def fraclap_gaussian(x, s: float, sigma: float) -> np.ndarray:
    """(-Delta)^s exp(-|x|^2 / sigma^2) at the points x (..., n), in closed
    form: sigma^(-2s) 4^s Gamma(n/2 + s) / Gamma(n/2)
    1F1(n/2 + s; n/2; -|x|^2 / sigma^2)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    scale = sigma ** (-2 * s) * 4.0**s * gamma(n / 2 + s) / gamma(n / 2)
    return scale * hyp1f1(n / 2 + s, n / 2, -np.sum(x * x, axis=-1) / sigma**2)


def picard_semilinear(op, nl, g: Field, tol: float = 1e-10,
                      max_iters: int = 2000) -> np.ndarray:
    """Fixed-point iteration: u_{k+1} solves the linear problem with the
    previous nonlinear term moved to the source."""
    grid = op.grid
    ni = grid.n_interior
    xi = grid.interior_nodes
    u = np.zeros(ni)
    for _ in range(max_iters):
        source = -np.asarray(nl.q(xi, u))
        sol = solve_linear(LinearProblem(op=op, a=np.zeros(ni), f=source, g=g))
        u_new = sol.interior_values
        if np.max(np.abs(u_new - u)) < tol:
            return u_new
        u = u_new
    raise RuntimeError("fixed-point oracle did not converge")
