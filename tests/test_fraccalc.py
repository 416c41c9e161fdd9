"""Unit tests for the fractional-calculus layer.

Expected values come from independent oracles computed in this file:
closed forms, scipy special functions, or plain quadrature. Nothing is
asserted against a number that was not derived here or in a pinned
identity.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcx, gamma

from fracobs import fraccalc as fc
from fracobs.errors import AccuracyError, DomainError, InputError

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# TimeGrid / SampledFunction


def test_uniform_grid_shape_and_weights():
    g = fc.TimeGrid.uniform(2.0, 9)
    assert len(g) == 9
    assert g.nodes[0] == 0.0
    assert g.horizon == 2.0
    # trapezoid weights integrate exactly to the horizon
    assert abs(g.weights.sum() - 2.0) < 1e-14


def test_grid_validation():
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.0, 0.5, 0.4]), np.ones(3))
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.1, 0.5]), np.ones(2))  # must start at 0
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.0, 1.0]), np.array([0.5, 0.0]))  # weight > 0
    with pytest.raises(InputError):
        fc.TimeGrid.uniform(1.0, 1)
    with pytest.raises(DomainError):
        fc.TimeGrid.uniform(-1.0, 5)


def test_sampled_function_shape_mismatch():
    g = fc.TimeGrid.uniform(1.0, 5)
    with pytest.raises(InputError):
        fc.SampledFunction(g, np.zeros(4))


# ---------------------------------------------------------------------------
# Mittag-Leffler


def test_mlf_domain_errors():
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(DomainError):
            fc.mlf(bad, -1.0)
    with pytest.raises(DomainError):
        fc.mlf(0.5, float("nan"))


def test_mlf_at_zero_is_one():
    for a in (0.3, 0.5, 0.84, 1.0):
        assert fc.mlf(a, 0.0).value == pytest.approx(1.0, abs=1e-14)


def test_mlf_half_at_minus_one():
    # E_{1/2}(-1) = e * erfc(1) = erfcx(1)
    rep = fc.mlf(0.5, -1.0)
    assert rep.value == pytest.approx(erfcx(1.0), rel=1e-12)
    assert rep.value == pytest.approx(0.42758357615580700, rel=1e-9)
    assert rep.regime == "series"
    assert rep.terms_used > 1
    assert rep.est_error <= 1e-12


def test_mlf_alpha_one_matches_exp():
    z = np.linspace(-50.0, 5.0, 331)
    vals = fc.mlf_values(1.0, z)
    assert np.max(np.abs(vals - np.exp(z)) / np.exp(z)) < 1e-10


def test_mlf_half_matches_erfcx_identity():
    # E_{1/2}(-x) = e^{x^2} erfc(x), over both the series and asym regimes
    x = np.concatenate([np.linspace(0.0, 5.0, 101), np.logspace(0.8, 4, 80)])
    vals = fc.mlf_values(0.5, -x)
    assert np.max(np.abs(vals - erfcx(x)) / erfcx(x)) < 1e-10


def test_mlf_positive_arguments():
    # no cancellation for z > 0; check against exp at alpha=1 and
    # against the quadratic-exponential identity at alpha=1/2:
    # E_{1/2}(x) = e^{x^2} erfc(-x) = e^{x^2} (2 - erfc(x))
    for z in (0.5, 2.0, 5.0):
        want = math.exp(z * z) * 2.0 - erfcx(z)
        assert fc.mlf(0.5, z).value == pytest.approx(want, rel=1e-10)


def test_mlf_est_error_inside_switch_radius():
    worst = 0.0
    for a in (0.3, 0.5, 0.77, 0.9, 1.0):
        for z in np.linspace(-2.0, 0.0, 21):
            worst = max(worst, fc.mlf(a, float(z)).est_error)
    assert worst <= 1e-12


def test_mlf_asymptotic_regime_label():
    rep = fc.mlf(0.84, -100.0)
    assert rep.regime == "asymptotic"
    rep = fc.mlf(0.84, -0.5)
    assert rep.regime == "series"


def test_mlf_complete_monotonicity_and_bound():
    # alpha = 1 is excluded: exp(-x) underflows to 0 before x = 1e4
    xs = np.concatenate([[0.0], np.logspace(-3, 4, 400)])
    for a in (0.3, 0.5, 0.84):
        v = fc.mlf_values(a, -xs)
        assert v.min() > 0.0
        assert np.all(np.diff(v) <= 1e-13)
        # algebraic decay bound E_alpha(-x) <= C/(1+x)
        if a in (0.5, 0.84):
            assert np.max(v * (1.0 + xs)) <= 10.0


def test_mlf_accuracy_error_carries_report():
    with pytest.raises(AccuracyError) as exc:
        fc.mlf(0.5, -1.0, tolerance=1e-30)
    assert exc.value.report is not None
    assert exc.value.report.value == pytest.approx(erfcx(1.0), rel=1e-12)


def _spectral_quad(alpha, x):
    """E_alpha(-x) = int_0^inf exp(-r x^(1/alpha)) K_alpha(r) dr by scipy quad.

    Integrated over u = log r. K_alpha peaks at r = 1 with width
    w ~ (1 - alpha) pi, hence breakpoints at u = 0, +-w, +-2w, +-4w, ...;
    its denominator r^(2 alpha) + 2 r^alpha cos(alpha pi) + 1 is written as
    (r^alpha - 1)^2 + 4 r^alpha sin^2(w / 2), which cancels nothing near
    alpha = 1.
    """
    s = x ** (1.0 / alpha)
    theta = (1.0 - alpha) * math.pi
    q = 4.0 * math.sin(0.5 * theta) ** 2

    def f(u):
        ra = math.exp(alpha * u)
        em = math.expm1(alpha * u)
        return math.exp(-math.exp(u) * s) * ra / (em * em + q * ra)

    hi = math.log(60.0 / s) + 5.0
    w = theta / alpha
    cuts = [0.0] + [sign * w * 2.0**k for k in range(40) for sign in (-1.0, 1.0)]
    edges = sorted({-800.0 / alpha, hi, *(c for c in cuts if -800.0 / alpha < c < hi)})
    total = sum(
        quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    return math.sin(theta) / math.pi * total


@pytest.mark.parametrize("alpha", [0.99, 0.999, 0.9999, 0.99999])
def test_mlf_near_classical_limit_matches_spectral_quad(alpha):
    # the kernel's peak narrows like 1 - alpha; the spectral rule must stay
    # accurate and its node count must not grow with 1 / (1 - alpha)
    xs = [0.5, 2.0, 6.0, 9.0, 15.0, 30.0, 100.0]
    want = np.array([_spectral_quad(alpha, x) for x in xs])
    batch = fc.mlf_values(alpha, -np.array(xs))
    assert np.max(np.abs(batch - want) / want) < 1e-9
    for x, w in zip(xs, want):
        rep = fc.mlf(alpha, -x)
        assert rep.value == pytest.approx(w, rel=1e-9)
        if rep.regime == "spectral":
            assert rep.terms_used <= 1000
        with pytest.raises(AccuracyError) as exc:
            fc.mlf(alpha, -x, tolerance=1e-30)
        assert exc.value.report is not None
        assert exc.value.report.value == pytest.approx(w, rel=1e-9)
    # the tangent bound exp(-x / Gamma(1 + alpha)) keeps x = 2 on the series
    assert fc.mlf(alpha, -2.0).regime == "series"
    assert [fc.mlf(alpha, -x).regime for x in (9.0, 15.0, 30.0)] == ["spectral"] * 3


def test_mlf_tiny_alpha_within_simon_bounds_or_refused():
    # 1/(1 + Gamma(1-a) x) <= E_a(-x) <= 1/(1 + x/Gamma(1+a)), a tight bracket
    # at a = 1e-4; where the spectral rule would need too many nodes, or
    # x^(1/a) overflows, the evaluation is refused rather than guessed
    a = 1e-4
    for x in (0.0, 0.5, 0.999, 0.99999, 2.5, 40.0):
        v = fc.mlf(a, -x).value
        assert 1.0 / (1.0 + gamma(1.0 - a) * x) <= v * (1.0 + 1e-12)
        assert v <= 1.0 / (1.0 + x / gamma(1.0 + a)) * (1.0 + 1e-12)
    for bad in (5e-5, 1e-5):
        with pytest.raises(AccuracyError) as exc:
            fc.mlf_values(bad, np.array([-0.5, -0.99999]))
        assert exc.value.report.regime == "spectral"
    with pytest.raises(AccuracyError):
        fc.mlf(4e-4, -1.5)


# property tests over random orders alpha in [0.05, 0.999], drawn away from
# the exp path at alpha = 1
ALPHAS = st.floats(0.05, 0.999)
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(ALPHAS, st.lists(st.floats(0.0, 1e3), min_size=2, max_size=30))
def test_mlf_negative_axis_in_unit_interval_and_nonincreasing(alpha, xs):
    x = np.sort(np.array(xs))
    v = fc.mlf_values(alpha, -x)
    assert np.all(v > 0.0) and np.all(v <= 1.0)
    assert np.all(v[1:] <= v[:-1] * (1.0 + 1e-11))


def _jump(alpha, x):
    v = fc.mlf_values(alpha, -np.array([x * (1.0 - 1e-13), x * (1.0 + 1e-13)]))
    return abs(v[1] - v[0]) / v[0]


def _asym_accepts(alpha, x):
    return bool(fc._asym_neg(alpha, np.array([x]))[3][0])


@PROPERTY
@given(ALPHAS)
def test_mlf_continuous_across_regime_seams(alpha):
    # the asymptotic switch
    assert _jump(alpha, fc._ASYM_SWITCH) <= 1e-11
    # the series/spectral boundary
    xb = brentq(
        lambda x: fc._series_digits(alpha, x) - fc._SERIES_DIGITS,
        0.0, 1e3, xtol=1e-15, rtol=1e-15,
    )
    assert _jump(alpha, xb) <= 1e-11
    # the asymptotic acceptance boundary, by bisection on the route's verdict
    if not _asym_accepts(alpha, fc._ASYM_SWITCH):
        lo, hi = fc._ASYM_SWITCH, 2.0 * fc._ASYM_SWITCH
        while not _asym_accepts(alpha, hi):
            lo, hi = hi, 2.0 * hi
        for _ in range(50):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if _asym_accepts(alpha, mid) else (mid, hi)
        assert fc.mlf(alpha, -lo).regime != "asymptotic"
        assert fc.mlf(alpha, -hi).regime == "asymptotic"
        v_lo, v_hi = fc.mlf_values(alpha, -np.array([lo, hi]))
        assert abs(v_hi - v_lo) / v_lo <= 1e-11


@PROPERTY
@given(st.lists(st.floats(0.0, 700.0), min_size=1, max_size=40))
def test_mlf_closed_forms_at_one_and_one_half(xs):
    x = np.array(xs)
    assert np.array_equal(fc.mlf_values(1.0, -x), np.exp(-x))
    v = fc.mlf_values(0.5, -x)
    assert np.max(np.abs(v - erfcx(x)) / erfcx(x)) <= 1e-11


# ---------------------------------------------------------------------------
# Caputo derivative


def test_caputo_linear_exact():
    # C-D^0.5 of u(t)=t at t=1 is t^{0.5}/Gamma(1.5) = 2/sqrt(pi);
    # the L1 rule telescopes exactly for linear data
    g = fc.TimeGrid.uniform(1.0, 257)
    u = fc.SampledFunction.from_callable(lambda t: t, g)
    val = fc.caputo_derivative(u, 0.5, 1.0)
    assert val == pytest.approx(2.0 / SQRT_PI, rel=1e-13)


def test_caputo_near_classical_limit():
    # exact value 2 t^{2-a}/Gamma(3-a); at a=0.999 that is ~1.12e-3 away
    # from the nominal 1.0 of the classical derivative
    a = 0.999
    g = fc.TimeGrid.uniform(1.0, 4097)
    u = fc.SampledFunction.from_callable(lambda t: t * t, g)
    val = fc.caputo_derivative(u, a, 0.5)
    exact = 2.0 * 0.5 ** (2.0 - a) / gamma(3.0 - a)
    assert val == pytest.approx(exact, abs=3e-4)
    assert abs(val - 1.0) <= 2e-3


def test_caputo_alpha_one_is_slope():
    g = fc.TimeGrid.uniform(1.0, 101)
    u = fc.SampledFunction.from_callable(lambda t: 3.0 * t + 1.0, g)
    assert fc.caputo_derivative(u, 1.0, 0.5) == pytest.approx(3.0, rel=1e-12)


def test_caputo_domain_errors():
    g = fc.TimeGrid.uniform(1.0, 33)
    u = fc.SampledFunction.from_callable(lambda t: t, g)
    with pytest.raises(DomainError):
        fc.caputo_derivative(u, 0.5, 0.0)
    with pytest.raises(DomainError):
        fc.caputo_derivative(u, 0.5, 1.5)


def test_caputo_values_agrees_with_scalar():
    g = fc.TimeGrid.uniform(2.0, 513)
    u = fc.SampledFunction.from_callable(lambda t: np.sin(t), g)
    taus = np.array([0.25, 0.8, 1.5, 2.0])
    batch = fc.caputo_values(u, 0.7, taus)
    for t, b in zip(taus, batch):
        assert b == pytest.approx(fc.caputo_derivative(u, 0.7, float(t)), rel=1e-12)


def test_caputo_first_cell_power_model():
    # data with a genuine t^alpha start layer: the power-cell model nails
    # the constant Caputo derivative where the chord model cannot
    a = 0.6
    g = fc.TimeGrid.uniform(1.0, 257)
    u = fc.SampledFunction.from_callable(lambda t: t**a, g)
    taus = np.array([g.nodes[1] * 0.5, g.nodes[1], 0.1, 0.5])
    vals = fc.caputo_values(u, a, taus, first_cell_power=True)
    want = gamma(1.0 + a)
    assert np.max(np.abs(vals - want)) < 5e-4
    plain = fc.caputo_values(u, a, taus[:1], first_cell_power=False)
    assert abs(plain[0] - want) > abs(vals[0] - want)


# ---------------------------------------------------------------------------
# right-sided Riemann-Liouville operators


def test_rl_integral_zero_function():
    g = fc.TimeGrid.uniform(1.0, 65)
    r = fc.SampledFunction(g, np.zeros(65))
    assert fc.rl_integral_right(r, 0.5, 0.25) == 0.0


def test_rl_integral_constant():
    # closed form (T-t)^a / Gamma(a+1); with t=0, T=1, a=1/2 -> 2/sqrt(pi)
    g = fc.TimeGrid.uniform(1.0, 129)
    r = fc.SampledFunction(g, np.ones(129))
    assert fc.rl_integral_right(r, 0.5, 0.0) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)
    assert fc.rl_integral_right(r, 0.5, 0.64) == pytest.approx(
        0.36**0.5 / gamma(1.5), rel=1e-12
    )


def test_rl_integral_identity_function_alpha_one():
    g = fc.TimeGrid.uniform(1.0, 101)
    r = fc.SampledFunction.from_callable(lambda t: t, g)
    assert fc.rl_integral_right(r, 1.0, 0.0) == pytest.approx(0.5, rel=1e-13)


def test_rl_integral_at_horizon_is_zero():
    g = fc.TimeGrid.uniform(1.0, 65)
    r = fc.SampledFunction.from_callable(lambda t: np.cos(t), g)
    assert fc.rl_integral_right(r, 0.5, 1.0) == 0.0


def test_rl_integral_alpha_one_is_plain_quadrature():
    g = fc.TimeGrid.uniform(1.0, 513)
    r = fc.SampledFunction.from_callable(lambda t: np.exp(-t), g)
    assert abs(fc.rl_integral_right(r, 1.0, 0.0) - r.integral()) < 1e-10


def test_rl_derivative_constant():
    # -(d/dt) I^{1-a} c = +c (T-t)^{-a} / Gamma(1-a)
    g = fc.TimeGrid.uniform(1.0, 2049)
    r = fc.SampledFunction(g, np.full(2049, 3.0))
    want = 3.0 * 0.5**-0.5 / gamma(0.5)
    assert want == pytest.approx(3.0 * 0.7978845608028654, rel=1e-12)
    assert fc.rl_derivative_right(r, 0.5, 0.5) == pytest.approx(want, abs=1e-4)


def test_rl_derivative_alpha_one_is_minus_slope():
    g = fc.TimeGrid.uniform(1.0, 4097)
    r = fc.SampledFunction.from_callable(lambda t: np.sin(t), g)
    assert fc.rl_derivative_right(r, 1.0, 0.3) == pytest.approx(
        -math.cos(0.3), abs=1e-6
    )


def test_rl_derivative_near_classical_limit():
    g = fc.TimeGrid.uniform(1.0, 4097)
    r = fc.SampledFunction.from_callable(lambda t: t * t, g)
    assert abs(fc.rl_derivative_right(r, 0.999, 0.5) - (-1.0)) <= 2e-3


def test_rl_derivative_near_horizon_accuracy_error():
    g = fc.TimeGrid.uniform(1.0, 65)
    r = fc.SampledFunction.from_callable(lambda t: t, g)
    with pytest.raises(AccuracyError):
        fc.rl_derivative_right(r, 0.5, 1.0 - 0.5 / 64)


# ---------------------------------------------------------------------------
# integration-by-parts residual


def test_ibp_smooth_pair():
    n = 2049
    tg = np.linspace(0.0, 1.0, n)
    resid = fc.check_fractional_ibp(np.sin(tg), np.cos(tg), 0.7, 1.0)
    assert resid < 1e-5


def test_ibp_alpha_one_identity_pair():
    # classical parts: int u'v = uv| - int uv'; for piecewise-linear u=v=t
    # both sides are exact, residual at roundoff
    n = 513
    tg = np.linspace(0.0, 1.0, n)
    resid = fc.check_fractional_ibp(tg, tg, 1.0, 1.0)
    assert resid < 1e-10


def test_ibp_refinement_decreases():
    t1 = np.linspace(0.0, 1.0, 512)
    t2 = np.linspace(0.0, 1.0, 1024)
    r1 = fc.check_fractional_ibp(t1**2, 1.0 - t1, 0.5, 1.0)
    r2 = fc.check_fractional_ibp(t2**2, 1.0 - t2, 0.5, 1.0)
    assert r2 <= r1 / 2.0 + 1e-12


def test_ibp_input_validation():
    with pytest.raises(InputError):
        fc.check_fractional_ibp(np.zeros(5), np.zeros(4), 0.5, 1.0)
    with pytest.raises(DomainError):
        fc.check_fractional_ibp(np.zeros(5), np.zeros(5), 1.5, 1.0)


# ---------------------------------------------------------------------------
# shared quadrature kit


def test_graded_panels_cover_horizon():
    edges = fc.graded_panel_edges(2.0, 64)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0)
    assert np.all(np.diff(edges) > 0)
    t, w = fc.gauss_panels(edges, 8)
    # integrates a polynomial exactly
    assert np.sum(w * t**3) == pytest.approx(2.0**4 / 4.0, rel=1e-12)


def test_ml_product_matrix_alpha_one_closed_form():
    lam = math.pi**2
    m = fc.ml_product_matrix([lam], 1.0, 1.0)
    want = (1.0 - math.exp(-2.0 * lam)) / (2.0 * lam)
    assert m[0, 0] == pytest.approx(want, rel=1e-12)
