import numpy as np
import pytest
from scipy.integrate import quad

from fracschrod import (
    Domain,
    Nonlinearity,
    catalogue,
    check_conditions,
    delta_window,
)
from fracschrod.errors import (
    InvalidRange,
    NegativeCoefficient,
    UnknownModel,
    Validation,
)

BOX = Domain.interval(-1.0, 1.0)


def _at(nl, x, t):
    """(q, dq) at one point x and one value t, as floats."""
    pts, tv = np.array([x], dtype=float), np.array([t], dtype=float)
    return float(nl.q(pts, tv)[0]), float(nl.dq(pts, tv)[0])


def test_eval_saturating_cubic():
    nl = catalogue("saturating-cubic", 1.0)
    # d/dt [t^3/(1+t^2)] = (3t^2 + t^4)/(1+t^2)^2; at t=1 this is 4/4
    q, dq = _at(nl, (0.0,), 1.0)
    assert q == pytest.approx(0.5, rel=1e-14)
    assert dq == pytest.approx(1.0, rel=1e-14)


def test_eval_vanishes_at_zero():
    for name in ("zero", "linear", "saturating-cubic"):
        q, _ = _at(catalogue(name, 1.0), (0.3,), 0.0)
        assert q == 0.0


def test_eval_linear():
    nl = catalogue("linear", 2.0)
    assert _at(nl, (0.1,), 3.0) == (6.0, 2.0)


# the per-model expressions of the catalogue before it became one table
def _reference(name, coeff):
    if name == "zero":
        zero = lambda x, t: np.zeros(np.broadcast(np.atleast_2d(x)[:, 0], t).shape)
        return zero, zero
    if name == "linear":
        return (lambda x, t: coeff(x) * np.asarray(t),
                lambda x, t: coeff(x) * np.ones_like(np.asarray(t, dtype=float)))

    def q(x, t):
        t = np.asarray(t, dtype=float)
        return coeff(x) * t**3 / (1.0 + t**2)

    def dq(x, t):
        t = np.asarray(t, dtype=float)
        return coeff(x) * (3.0 * t**2 + t**4) / (1.0 + t**2) ** 2

    return q, dq


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["zero", "linear", "saturating-cubic"])
def test_catalogue_table_matches_per_model_expressions_bitwise(name, dim):
    rng = np.random.default_rng(17 + dim)
    x = rng.uniform(-3.0, 3.0, (400, dim))
    t = np.concatenate([rng.uniform(-50.0, 50.0, 396), [0.0, -0.0, 50.0, -50.0]])

    def profile(pts):
        return 0.3 + 0.2 * np.sin(np.atleast_2d(pts)[:, 0])

    scalar = lambda pts: np.full(np.atleast_2d(pts).shape[0], 0.7)
    for a, a_sup, coeff in ((0.7, None, scalar), (profile, 0.5, profile)):
        nl = catalogue(name, a, a_sup=a_sup)
        q_ref, dq_ref = _reference(name, coeff)
        for got, want in ((nl.q(x, t), q_ref(x, t)), (nl.dq(x, t), dq_ref(x, t))):
            assert got.shape == want.shape == (400,)
            assert got.tobytes() == want.tobytes()


def test_catalogue_constants():
    assert catalogue("linear", 1.0).m0 == 1.0
    # the derivative factor peaks at 9/8 (attained at t^2 = 3)
    assert catalogue("saturating-cubic", 2.0).m0 == pytest.approx(9.0 / 4.0)
    assert catalogue("saturating-cubic", 1.0).b0 == pytest.approx(101.0 / 103.0)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0])
def test_catalogue_constants_per_model(a):
    # (mu, delta, b0, r, m0) as the per-model branches set them
    scale = a if a > 0 else 1.0
    want = {"zero": (1.0, 2.5, 0.5, 1.0, 1.0),
            "linear": (max(a, 1.0), 2.5, 0.9, 1.0, scale),
            "saturating-cubic": (max(a, 1.0), 2.5, 101.0 / 103.0, 1.0,
                                 9.0 / 8.0 * scale)}
    for name, constants in want.items():
        nl = catalogue(name, a)
        assert (nl.mu, nl.delta, nl.b0, nl.r, nl.m0) == constants


def test_catalogue_errors():
    with pytest.raises(UnknownModel):
        catalogue("cubic")
    with pytest.raises(NegativeCoefficient):
        catalogue("linear", -1.0)
    with pytest.raises(Validation):
        catalogue("linear", lambda x: np.ones(len(np.atleast_2d(x))))
    with pytest.raises(UnknownModel):     # was a bare TypeError: unhashable
        catalogue(["linear"])


@pytest.mark.parametrize("a", [float("nan"), float("inf"), "0.5", True])
def test_catalogue_refuses_a_coefficient_that_is_not_a_finite_real(a):
    # nan built mu = nan and failed later as JacobianSingular, inf gave
    # m0 = inf, and "0.5" and True ran as numbers
    with pytest.raises(Validation, match="coefficient"):
        catalogue("linear", a)


def test_conditions_saturating_cubic_all_pass():
    nl = catalogue("saturating-cubic", 1.0)
    report = check_conditions(nl, BOX, t_max=10.0, n_samples=1000, seed=1)
    assert report.all_passed, report
    assert report.asymptotic_note is not None


def test_conditions_linear_superlinearity_fails():
    nl = catalogue("linear", 1.0)
    report = check_conditions(nl, BOX, t_max=10.0, n_samples=500, seed=2)
    assert report.superlinearity.status == "fail"
    # q/t = 1 > 0.9 * dq = 0.9 at every sample
    assert report.superlinearity.margin == pytest.approx(0.1, abs=1e-12)
    assert report.derivative_bounds.status == "pass"
    # the worst point in plain floats, so its repr names no numpy type
    point = report.superlinearity.worst_point
    assert len(point) == BOX.dim + 1 and all(type(v) is float for v in point)
    assert "np." not in repr(report)


def test_conditions_zero_model():
    nl = catalogue("zero")
    report = check_conditions(nl, BOX, t_max=10.0, n_samples=500, seed=3)
    assert report.superlinearity.status == "fail"  # 0 < q/t violated
    assert report.growth.status == "pass"
    assert report.small_t_limit.status == "pass"
    assert report.derivative_bounds.status == "pass"


def test_conditions_invalid_range():
    nl = catalogue("saturating-cubic", 1.0)
    with pytest.raises(InvalidRange):
        check_conditions(nl, BOX, t_max=0.5)
    with pytest.raises(InvalidRange):
        check_conditions(nl, BOX, t_max=10.0, n_samples=10)


def test_conditions_reproducible():
    nl = catalogue("saturating-cubic", 1.0)
    r1 = check_conditions(nl, BOX, t_max=10.0, n_samples=300, seed=7)
    r2 = check_conditions(nl, BOX, t_max=10.0, n_samples=300, seed=7)
    assert r1 == r2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_saturating_cubic_passes_for_bounded_coefficients(seed):
    # any smooth coefficient profile with values in [0, 1]
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.2, 1.0)
    freq = rng.uniform(0.5, 3.0)

    def a(x):
        pts = np.atleast_2d(x)
        return amp * 0.5 * (1.0 + np.cos(freq * pts[:, 0]))

    nl = catalogue("saturating-cubic", a, a_sup=amp)
    report = check_conditions(nl, BOX, t_max=10.0, n_samples=1000, seed=seed)
    assert report.all_passed, report


@pytest.mark.parametrize("name", ["zero", "linear", "saturating-cubic"])
def test_derivative_consistency_property(name):
    # central differences at step 1e-4 agree with dq up to 10 eps^2 M3
    nl = catalogue(name, 1.0)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, (1000, 1))
    t = rng.uniform(-10, 10, 1000)
    eps = 1e-4
    cdiff = (np.asarray(nl.q(x, t + eps)) - np.asarray(nl.q(x, t - eps))) / (2 * eps)
    third_derivative_bound = 10.0
    tol = 10.0 * eps**2 * third_derivative_bound + 1e-10
    assert np.max(np.abs(cdiff - np.asarray(nl.dq(x, t)))) <= tol


def test_monotone_derivative_nonnegative():
    for name in ("zero", "linear", "saturating-cubic"):
        nl = catalogue(name, 0.7)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (500, 1))
        t = rng.uniform(-50, 50, 500)
        assert np.min(np.asarray(nl.dq(x, t))) >= 0.0


def test_mean_derivative_integral_oracle():
    # matches the saturating-cubic worked integral used in the study module
    val, _ = quad(lambda t: (3 * t**2 + t**4) / (1 + t**2) ** 2, 0, 1)
    assert val == pytest.approx(0.5, rel=1e-12)  # q(1)/1 - q(0) = 0.5


def test_conditions_on_2d_box():
    nl = catalogue("saturating-cubic", 1.0)
    box = Domain.box((-1.0, -1.0), (1.0, 1.0))
    report = check_conditions(nl, box, t_max=10.0, n_samples=500, seed=4)
    assert report.all_passed
    assert report.x_bounds == ((-1.0, -1.0), (1.0, 1.0))


def test_conditions_nonfinite_fails_continuity():
    bad = Nonlinearity(name="custom", q=lambda x, t: np.asarray(t) / 0.0,
                       dq=lambda x, t: np.zeros_like(np.asarray(t, dtype=float)),
                       mu=1.0, delta=2.5, b0=0.5, r=1.0, m0=1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        report = check_conditions(bad, BOX, t_max=10.0, n_samples=200, seed=5)
    assert report.continuity.status == "fail" and report.continuity.margin == 1.0


def test_delta_window():
    lo, hi = delta_window(2, 0.5)
    assert (lo, hi) == (2.0, 3.0)
    assert delta_window(1, 0.75)[1] == float("inf")


@pytest.mark.parametrize("kwargs", [
    {"t_max": True}, {"t_max": float("nan")}, {"t_max": float("inf")},
    {"t_max": 10.0, "n_samples": 1000.5}, {"t_max": 10.0, "seed": -1},
    {"t_max": 10.0, "seed": 1.5},
])
def test_conditions_read_their_arguments(kwargs):
    # t_max = True ran as 1, nan or inf raised a bare OverflowError, and the
    # others a bare TypeError or ValueError from the generator
    with pytest.raises(Validation):
        check_conditions(catalogue("linear", 1.0), BOX, **kwargs)


@pytest.mark.parametrize("a_sup", ["2", float("nan"), -1.0])
def test_catalogue_reads_the_bound_of_a_callable_coefficient(a_sup):
    # "2" ran as 2.0, and nan or -1 built a model claiming m0 = 1.0
    with pytest.raises(Validation, match="a_sup"):
        catalogue("linear", lambda x: np.ones(len(np.atleast_2d(x))), a_sup=a_sup)


def test_delta_window_reads_its_order():
    # a string order raised a bare TypeError
    with pytest.raises(Validation, match="order s"):
        delta_window(2, "0.5")


def test_check_conditions_refuses_a_box_that_is_not_a_domain():
    # a bare AttributeError: 'list' object has no attribute 'lower'
    with pytest.raises(Validation, match="Domain"):
        check_conditions(catalogue("linear", 1.0), [(-1,), (1,)], 10.0)
    with pytest.raises(Validation, match="Nonlinearity"):
        check_conditions("linear", BOX, 10.0)
