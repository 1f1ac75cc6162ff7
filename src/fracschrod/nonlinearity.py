"""Semilinear coupling terms q(x, t) and their structural conditions.

A Nonlinearity bundles q, its t-derivative, and the growth constants that
check_conditions verifies (no solver reads them): mu and delta bound the
growth of q, b0 and r control the superlinearity ratio q/t against dq for
|t| >= r, and m0 caps the derivative from above.  The conditions are
verified by dense sampling on compact boxes, never assumed; the checker
reports the worst violating sample per condition.

The catalogue is one table of models, _MODELS, with q written in the
coefficient values c = a(x):

* "zero":              q = 0
* "linear":            q = c t
* "saturating-cubic":  q = c t^3 / (1 + t^2)

Each has r = 1, delta = 2.5 and tight m0, mu and b0 (see catalogue);
dataclasses.replace(catalogue(...), delta=...) gives other constants.
Coefficients a may be finite nonnegative scalars or callables of the node
coordinates.  Evaluation functions are pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidRange, NegativeCoefficient, UnknownModel, Validation, _number
from .grid import Domain


@dataclass(frozen=True)
class Nonlinearity:
    """q(x, t), its t-derivative, and the structural constants.

    q and dq take coordinates of shape (N, dim) and values of shape (N,)
    and broadcast to (N,).
    """

    name: str
    q: Callable
    dq: Callable
    mu: float
    delta: float
    b0: float
    r: float
    m0: float


def _coefficient(a, a_sup):
    """Normalize the coefficient profile; returns (callable, sup bound).  A
    callable needs a_sup, and a scalar is read, by errors._number
    (Validation); a_sup must be >= 0 and a scalar >= 0 (NegativeCoefficient)."""
    if callable(a):
        return a, _number(a_sup, "a_sup of a callable coefficient", 0)
    a_val = _number(a, "coefficient a (or a callable)")
    if a_val < 0:
        raise NegativeCoefficient(f"a = {a_val}")
    return (lambda x: np.full(np.atleast_2d(x).shape[0], a_val)), a_val


def _zero(c, t):
    return np.zeros(np.broadcast(c, t).shape)


def _cubic_q(c, t):
    t = np.asarray(t, dtype=float)
    return c * t**3 / (1.0 + t**2)


def _cubic_dq(c, t):
    t = np.asarray(t, dtype=float)
    return c * (3.0 * t**2 + t**4) / (1.0 + t**2) ** 2


# name: (q(c, t) at the coefficient values c = a(x), its t-derivative, b0,
#        sup of dq per unit coefficient)
_MODELS = {
    "zero": (_zero, _zero, 0.5, 0.0),
    "linear": (lambda c, t: c * np.asarray(t),
               lambda c, t: c * np.ones_like(np.asarray(t, dtype=float)), 0.9, 1.0),
    "saturating-cubic": (_cubic_q, _cubic_dq, 101.0 / 103.0, 9.0 / 8.0),
}


def catalogue(name: str, a=1.0, *, a_sup: float | None = None) -> Nonlinearity:
    """Build a model of _MODELS with analytically tight constants.

    Every model has r = 1 and delta = 2.5.  With a_sup the sup of the
    coefficient (read as 1 when it is 0), m0 is a_sup times the sup of dq
    per unit coefficient and mu = max(a_sup, 1):

    * zero:             m0 = mu = 1 (nominal), b0 = 1/2
    * linear:           m0 = a_sup; no valid b0 < 1 exists, b0 = 0.9
                        documents that the superlinearity condition fails
                        for linear models
    * saturating-cubic: m0 = (9/8) a_sup (the derivative factor
                        (3t^2 + t^4)/(1+t^2)^2 peaks at t^2 = 3); the ratio
                        (q/t)/dq = (1+t^2)/(3+t^2) grows toward 1, so
                        b0 = 101/103 is tight for |t| <= 10

    dataclasses.replace(catalogue(...), delta=...) gives other constants.
    """
    if not isinstance(name, str) or name not in _MODELS:
        raise UnknownModel(f"{name!r}; available: {', '.join(_MODELS)}")
    q, dq, b0, dq_sup = _MODELS[name]
    coeff, sup = _coefficient(a, a_sup)
    scale = sup if sup > 0 else 1.0
    # the zero model's m0 and mu are nominal
    return Nonlinearity(name=name, q=lambda x, t: q(coeff(x), t),
                        dq=lambda x, t: dq(coeff(x), t),
                        mu=max(sup, 1.0) if dq_sup else 1.0, delta=2.5, b0=b0,
                        r=1.0, m0=dq_sup * scale if dq_sup else 1.0)


# check_conditions' tolerances
_SMALL_T = 1e-3         # |t| range for the vanishing-ratio check
_SMALL_T_BOUND = 1e-4   # admissible |q/t| on that range
_FD_STEP = 1e-5         # central-difference step for dq consistency
_FD_TOL = 1e-6          # admissible |cdiff - dq| / (1 + |dq|)
_MARGIN = 1e-9          # slack on non-strict inequalities


@dataclass(frozen=True)
class ConditionVerdict:
    status: str                  # "pass" | "fail" | "not-applicable"
    margin: float                # worst signed violation; <= 0 means pass
    worst_point: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ConditionReport:
    """Sampled verdicts for the structural conditions, reproducible by seed."""

    continuity: ConditionVerdict
    growth: ConditionVerdict
    small_t_limit: ConditionVerdict
    superlinearity: ConditionVerdict
    derivative_bounds: ConditionVerdict
    derivative_consistency: ConditionVerdict
    x_bounds: tuple
    t_max: float
    n_samples: int
    seed: int
    asymptotic_note: str | None = None

    @property
    def all_passed(self) -> bool:
        return all(v.status == "pass" for v in (
            self.continuity, self.growth, self.small_t_limit,
            self.superlinearity, self.derivative_bounds,
            self.derivative_consistency))


def _worst(points_x, points_t, violation) -> tuple[float, tuple | None]:
    k = int(np.argmax(violation))
    worst = float(violation[k])
    return worst, tuple(points_x[k].tolist()) + (float(points_t[k]),)


def _verdict(points_x, points_t, violation, margin) -> ConditionVerdict:
    worst, pt = _worst(points_x, points_t, violation)
    status = "pass" if worst <= margin else "fail"
    return ConditionVerdict(status=status, margin=worst, worst_point=pt)


def check_conditions(nl: Nonlinearity, x_box: Domain, t_max: float,
                     n_samples: int = 1000, seed: int = 0) -> ConditionReport:
    """Verify the structural conditions on sampled boxes.

    The superlinearity condition is a statement for all |t| >= r and can
    only be sampled on a compact range; it is checked on r <= |t| <= t_max.
    t_max, the integer n_samples and the integer seed >= 0 are read by
    errors._number (Validation); InvalidRange when t_max < r or n_samples < 100.
    An nl that is not a Nonlinearity, or an x_box that is not a Domain, is
    Validation.
    """
    if not isinstance(nl, Nonlinearity):
        raise Validation(f"nl must be a Nonlinearity, got {type(nl).__name__}")
    if not isinstance(x_box, Domain):
        raise Validation(f"x_box must be a Domain, got {type(x_box).__name__}")
    t_max = _number(t_max, "t_max")
    n_samples = _number(n_samples, "n_samples", integer=True)
    seed = _number(seed, "seed", 0, integer=True)
    if t_max < nl.r:
        raise InvalidRange(f"t_max = {t_max} must be >= r = {nl.r}")
    if n_samples < 100:
        raise InvalidRange(f"n_samples = {n_samples} must be >= 100")

    rng = np.random.default_rng(seed)
    lo = np.asarray(x_box.lower)
    hi = np.asarray(x_box.upper)

    def draw_x(m):
        return lo + (hi - lo) * rng.random((m, x_box.dim))

    # strata: general t, small t, superlinear range
    xg = draw_x(n_samples)
    tg = rng.uniform(-t_max, t_max, n_samples)
    xs = draw_x(n_samples)
    ts = rng.uniform(1e-8, _SMALL_T, n_samples) * rng.choice((-1.0, 1.0), n_samples)
    xr = draw_x(n_samples)
    tr = rng.uniform(nl.r, t_max, n_samples) * rng.choice((-1.0, 1.0), n_samples)

    x_all = np.vstack([xg, xs, xr])
    t_all = np.concatenate([tg, ts, tr])
    q_all = np.asarray(nl.q(x_all, t_all), dtype=float)
    dq_all = np.asarray(nl.dq(x_all, t_all), dtype=float)

    finite = np.isfinite(q_all) & np.isfinite(dq_all)
    continuity = _verdict(x_all, t_all, np.where(finite, -1.0, 1.0), 0.0)

    qg = q_all[:n_samples]
    growth = _verdict(xg, tg,
                      np.abs(qg) - nl.mu * (1.0 + np.abs(tg) ** (nl.delta - 1.0)),
                      _MARGIN)

    qs = q_all[n_samples:2 * n_samples]
    small_t = _verdict(xs, ts, np.abs(qs / ts) - _SMALL_T_BOUND, 0.0)

    qr = q_all[2 * n_samples:]
    dqr = dq_all[2 * n_samples:]
    ratio = qr / tr
    # both sides of 0 < q/t <= b0 dq; positivity is strict
    viol = np.maximum(np.where(ratio > 0, -ratio, 1.0), ratio - nl.b0 * dqr)
    superlinearity = _verdict(xr, tr, viol, _MARGIN)

    bounds_viol = np.maximum(-dq_all, dq_all - nl.m0)
    derivative_bounds = _verdict(x_all, t_all, bounds_viol, _MARGIN)

    m = min(n_samples, 500)
    xc, tc = x_all[:m], t_all[:m]
    cdiff = (np.asarray(nl.q(xc, tc + _FD_STEP))
             - np.asarray(nl.q(xc, tc - _FD_STEP))) / (2.0 * _FD_STEP)
    rel = np.abs(cdiff - dq_all[:m]) / (1.0 + np.abs(dq_all[:m]))
    consistency = _verdict(xc, tc, rel - _FD_TOL, 0.0)

    note = None
    if superlinearity.passed and np.isfinite(nl.m0):
        note = ("superlinearity verified only on r <= |t| <= t_max; for large |t| "
                "it forces growth faster than t^(1/b0), which the finite "
                "derivative bound m0 cannot sustain, so no uniform check exists")

    return ConditionReport(
        continuity=continuity, growth=growth, small_t_limit=small_t,
        superlinearity=superlinearity, derivative_bounds=derivative_bounds,
        derivative_consistency=consistency,
        x_bounds=(tuple(x_box.lower), tuple(x_box.upper)), t_max=t_max,
        n_samples=n_samples, seed=seed, asymptotic_note=note)


def delta_window(n: int, s: float) -> tuple[float, float]:
    """Admissible growth-exponent window (2, (2n - 2s) / (n - 2s)).

    Metadata only: it powers the variational existence argument and has no
    effect on the discrete solvers.  The upper end is +inf when n <= 2s.
    s and the integer n >= 1 are read by errors._number.
    """
    n, s = _number(n, "dimension n", 1, integer=True), _number(s, "order s")
    if n - 2 * s <= 0:
        return 2.0, float("inf")
    return 2.0, (2.0 * n - 2.0 * s) / (n - 2.0 * s)
