"""Unit tests for the fractional-calculus layer.

Expected values come from independent oracles computed in this file:
closed forms, scipy special functions, or plain quadrature. Nothing is
asserted against a number that was not derived here or in a pinned
identity.
"""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid
from scipy.optimize import brentq
from scipy.special import betainc, erfcx, gamma, gammaln

from fracobs import fraccalc as fc
from fracobs.errors import AccuracyError, DomainError, InputError

SQRT_PI = math.sqrt(math.pi)
PI2 = math.pi**2


# ---------------------------------------------------------------------------
# TimeGrid


def test_uniform_grid_shape_and_weights():
    g = fc.TimeGrid.uniform(2.0, 9)
    assert len(g) == 9
    assert g.nodes[0] == 0.0
    assert g.horizon == 2.0
    # trapezoid weights integrate exactly to the horizon
    assert abs(g.weights.sum() - 2.0) < 1e-14


def test_grid_validation():
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(InputError):
        fc.TimeGrid.uniform(1.0, 1)
    with pytest.raises(DomainError):
        fc.TimeGrid.uniform(-1.0, 5)


def test_sampled_function_shape_mismatch():
    g = fc.TimeGrid.uniform(1.0, 5)
    with pytest.raises(InputError):
        fc.caputo_values(g, np.zeros(4), 0.5, [0.5])


# ---------------------------------------------------------------------------
# special functions

BETA_ALPHAS = (1e-3, 0.01, 0.3, 0.5, 0.84, 0.999)


@pytest.mark.parametrize("alpha", BETA_ALPHAS)
def test_incomplete_beta_matches_scipy(alpha):
    swap = (alpha + 1.0) / 3.0  # the continued fraction switches sides here
    x = np.concatenate((
        np.geomspace(1e-12, 0.5, 300),
        1.0 - np.geomspace(1e-6, 0.5, 300),
        np.linspace(1e-12, 1.0 - 1e-6, 401),
        [swap, np.nextafter(swap, 0.0), np.nextafter(swap, 1.0)],
    ))
    got = fc._beta_reflected(alpha, x)
    assert np.max(np.abs(got - betainc(alpha, 1.0 - alpha, x))) <= 1e-13
    ends = fc._beta_reflected(alpha, np.array([[0.0, 1.0]]))
    assert ends.shape == (1, 2) and ends.tolist() == [[0.0, 1.0]]


def test_incomplete_beta_half_matches_arcsine_law():
    # I_x(1/2, 1/2) = (2/pi) arcsin(sqrt(x)) = 1 - (2/pi) arcsin(sqrt(1 - x)),
    # each form taken where its argument is small. Near x = 1 scipy is no
    # oracle: its complement 1 - I_x is off by percents there.
    low = np.geomspace(1e-300, 0.4, 400)
    high = 1.0 - np.geomspace(1e-15, 0.5, 400)
    want_low = 2.0 / math.pi * np.arcsin(np.sqrt(low))
    want_high = 1.0 - 2.0 / math.pi * np.arcsin(np.sqrt(1.0 - high))
    # each side of the swap point x = 1/2 alone, then both in one call
    assert np.max(np.abs(fc._beta_reflected(0.5, low) - want_low)) <= 1e-13
    assert np.max(np.abs(fc._beta_reflected(0.5, high) - want_high)) <= 1e-13
    both = fc._beta_reflected(0.5, np.concatenate((low, high)))
    assert np.max(np.abs(both - np.concatenate((want_low, want_high)))) <= 1e-13
    assert fc._beta_reflected(0.5, np.array([])).shape == (0,)


def test_incomplete_beta_unconverged_point_raises(monkeypatch):
    monkeypatch.setattr(fc, "_BETA_TERMS", 2)
    with pytest.raises(AccuracyError, match="did not converge"):
        fc._beta_reflected(0.5, np.array([0.0, 0.3]))


def test_lgamma_matches_scipy():
    # the arguments of the E_alpha coefficient tables: k alpha and 1 + k alpha
    k = np.arange(0.0, 2001.0)
    x = np.concatenate([k[1:] * a for a in BETA_ALPHAS] + [1.0 + k * a for a in BETA_ALPHAS])
    ref = gammaln(x)
    # relative to max(|lgamma|, 1): lgamma crosses zero at 1 and 2, and the
    # tables exponentiate it, so its absolute error is what they feel there
    assert np.max(np.abs(fc._lgamma(x) - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-14


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
    z = np.linspace(-50.0, 0.0, 301)
    vals = fc.mlf_values(1.0, z)
    assert np.max(np.abs(vals - np.exp(z)) / np.exp(z)) < 1e-10


def test_mlf_half_matches_erfcx_identity():
    # E_{1/2}(-x) = e^{x^2} erfc(x), over both the series and asym regimes
    x = np.concatenate([np.linspace(0.0, 5.0, 101), np.logspace(0.8, 4, 80)])
    vals = fc.mlf_values(0.5, -x)
    assert np.max(np.abs(vals - erfcx(x)) / erfcx(x)) < 1e-10


MLF_REFUSED = "E_alpha arguments must be finite and <= 0"
NOT_NONPOSITIVE = (1e-300, 0.5, 2.0, 5.0, 20.0, 1000.0, math.inf, -math.inf, math.nan)


def test_mlf_positive_arguments():
    # every argument the package evaluates is -lam t^alpha <= 0; mlf
    # refuses anything else (positive, infinite or nan) at every alpha
    # including 1, with one message and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.3, 0.5, 1.0):
            for z in NOT_NONPOSITIVE:
                with pytest.raises(DomainError) as one:
                    fc.mlf(a, z)
                assert str(one.value) == MLF_REFUSED
            # the edge of the domain is still evaluated
            for zero in (0.0, -0.0):
                assert fc.mlf(a, zero).value == 1.0


def test_mlf_values_checks_positive_estimates():
    # mlf_values refuses a batch with any point outside z <= 0 exactly as
    # mlf refuses that point, mixed-sign batches included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.3, 0.5, 1.0):
            for z in NOT_NONPOSITIVE:
                with pytest.raises(DomainError) as one:
                    fc.mlf(a, z)
                with pytest.raises(DomainError) as many:
                    fc.mlf_values(a, [-1.0, z])
                assert str(many.value) == str(one.value) == MLF_REFUSED
            with pytest.raises(DomainError) as mixed:
                fc.mlf_values(a, np.linspace(-2.0, 2.0, 9))
            assert str(mixed.value) == MLF_REFUSED
            for zero in (0.0, -0.0):
                assert fc.mlf_values(a, [zero]).tolist() == [1.0]


def test_mlf_values_alpha_one_overflow_raises_like_mlf():
    # at alpha = 1 an argument whose exp would overflow is refused before
    # any exp runs: mlf_values raises mlf's message, with no numpy
    # overflow warning on the way
    for z in ([1000.0], [-2.0, 0.0, 710.0, 1000.0], [math.inf]):
        with pytest.raises(DomainError) as one:
            fc.mlf(1.0, [v for v in z if v > 709.0][0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as many:
                fc.mlf_values(1.0, z)
        assert str(many.value) == str(one.value) == MLF_REFUSED
    # on z <= 0 the alpha = 1 path is exp itself, down through underflow
    z = [-800.0, -745.0, -709.0, -2.0, 0.0]
    assert fc.mlf_values(1.0, z).tolist() == np.exp(z).tolist()


def test_mlf_values_mixed_signs_keep_each_value():
    # a call with a positive point is refused (see
    # test_mlf_values_checks_positive_estimates); on z <= 0 every point of
    # a batch is bitwise its own mlf value, in every regime
    z = np.concatenate([-np.logspace(-3, 3, 200), [0.0]])
    for a in (0.3, 0.5, 0.84):
        assert np.array_equal(fc.mlf_values(a, z), [fc.mlf(a, float(x)).value for x in z])


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


@PROPERTY
@given(ALPHAS, st.lists(st.floats(0.0, 1e3), min_size=2, max_size=30))
def test_mlf_values_do_not_depend_on_the_batch(alpha, xs):
    # decay_table appends columns to memoised tables and serves column
    # views of them, so a value must not depend on the points beside it
    x = -np.array(xs)
    batch = fc.mlf_values(alpha, x)
    alone = [fc.mlf(alpha, float(z)).value for z in x]
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch[::-1], fc.mlf_values(alpha, x[::-1]))


def test_spectral_values_do_not_depend_on_the_batch():
    # the spectral rule gives every point its own nodes; nodes that only a
    # neighbour needs would move the last bits of a few values
    rng = np.random.default_rng(3)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.84, 0.95, 0.99):
        x = np.concatenate([rng.uniform(0.5, 60.0, 300), 10.0 ** rng.uniform(-1.0, 2.5, 300)])
        x = x[fc._route_neg(alpha, x)[3] == 2]
        alone = [fc.mlf_values(alpha, -x[i : i + 1])[0] for i in range(x.size)]
        assert np.array_equal(fc.mlf_values(alpha, -x), alone)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.84, 0.95])
def test_series_and_asymptotic_values_match_oracles(alpha):
    # the Horner series and the recurrence-carried asymptotic expansion,
    # each on the points its regime serves, against scipy quad of the
    # spectral integral, and against erfcx at alpha = 1/2
    x = np.geomspace(0.01, 1000.0, 41)
    regime = fc._route_neg(alpha, x)[3]
    for code, route in ((0, fc._series_neg), (1, fc._asym_neg)):
        pts = x[regime == code]
        assert pts.size >= 10
        got = route(alpha, pts)[0]
        want = np.array([_spectral_quad(alpha, v) for v in pts])
        assert np.max(np.abs(got - want) / want) <= 1e-12
        if alpha == 0.5:
            assert np.max(np.abs(got - erfcx(pts)) / erfcx(pts)) <= 1e-12


def test_series_at_alpha_one_matches_exp():
    # mlf_values takes exp at alpha = 1; the series itself must agree
    x = np.linspace(0.0, 2.0, 41)
    vals, rel, used = fc._series_neg(1.0, x)
    assert np.max(np.abs(vals - np.exp(-x)) / np.exp(-x)) <= 1e-12
    assert np.all(rel <= 1e-13) and np.all(used == 57)


MB = 1 << 20


def _traced_peak(fn):
    """fn's result and the peak of traced allocations while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_series_work_is_a_few_batch_arrays(alpha):
    # Horner's rule holds two rows of work; a terms x points matrix of
    # 2^21 doubles was 100 batch arrays at these sizes
    x = np.linspace(0.0, 1.5, 40000)
    _, peak = _traced_peak(lambda: fc._series_neg(alpha, x))
    assert peak < 8 * x.nbytes


@pytest.mark.parametrize("alpha", [0.5, 0.84])
def test_spectral_work_matrix_is_cache_sized(alpha):
    # 6,000 gap points take 350-900 nodes each: a nodes x points matrix of
    # 16 MB when it held 2^21 doubles, at most 1 MB now, with every value
    # that of the point evaluated alone
    x = np.linspace(0.5, 40.0, 200000)
    x = x[fc._route_neg(alpha, x)[3] == 2]
    x = x[np.linspace(0, x.size - 1, 6000).astype(int)]
    assert np.unique(x).size == 6000
    (vals, rel, used), peak = _traced_peak(lambda: fc._spectral_neg(alpha, x))
    assert peak < 4 * MB
    assert np.all(rel <= 1e-12)
    for i in range(0, x.size, 397):
        assert fc._spectral_neg(alpha, x[i : i + 1])[0][0] == vals[i]


def test_series_steps_stay_bounded_at_small_alpha():
    # from 4096 terms on, the terms are split over more polynomials in a
    # higher power of x; the values stay those of the exact series
    x = np.array([0.3, 0.9])
    k = np.arange(0.0, 3000.0)
    for alpha in (0.01, 1e-3):
        want = [math.fsum((-v) ** k / gamma(1.0 + alpha * k)) for v in x]
        assert fc._series_neg(alpha, x)[0] == pytest.approx(want, rel=1e-13)


def test_route_regimes_are_pinned():
    # counts and index sums per regime on a seeded sample, recorded from
    # the router whose series and asymptotic terms were each one exp
    rng = np.random.default_rng(13)
    pinned = {
        0.3: ([2555, 7061, 384], [17781999, 30266823, 1946178]),
        0.5: ([2819, 6348, 833], [19074852, 27191007, 3729141]),
        0.84: ([3175, 3839, 2986], [20529697, 18651740, 10813563]),
        0.95: ([3278, 2019, 4703], [21208041, 12938794, 15848165]),
    }
    for alpha, (counts, sums) in pinned.items():
        x = np.concatenate([rng.uniform(0.0, 30.0, 5000), 10.0 ** rng.uniform(-2.0, 3.0, 5000)])
        regime = fc._route_neg(alpha, x)[3]
        assert np.bincount(regime, minlength=3).tolist() == counts
        assert [int(np.flatnonzero(regime == r).sum()) for r in range(3)] == sums


def _asym_neg_reference(alpha, x):
    """The asymptotic loop as it stood when its floor was the m-th-root bound."""
    k = np.arange(1.0, fc._ASYM_TERMS + 2.0)
    ka = k * alpha
    coef = np.sin(np.pi * ka) * (-1.0) ** (k + 1.0)
    lenv = np.array([math.lgamma(v) for v in ka]) - math.log(math.pi)
    dl = np.diff(lenv)
    ratio = np.exp(dl)
    vals = np.zeros_like(x)
    rel = np.full_like(x, np.inf)
    used = np.zeros(x.shape, dtype=int)
    accepted = np.zeros(x.shape, dtype=bool)
    act = np.arange(x.size)
    lx = np.log(x)
    env = np.exp(lenv[0] - lx)
    total = np.zeros_like(x)
    for j in range(fc._ASYM_TERMS):
        total += coef[j] * env
        env *= ratio[j]
        env /= x
        ok = env <= fc._ASYM_ACCEPT * np.abs(total)
        done = act[ok]
        vals[done] = total[ok]
        rel[done] = env[ok] / np.abs(total[ok])
        used[done] = j + 1
        accepted[done] = True
        keep = ~ok & (dl[j] <= lx)
        if not keep.any():
            break
        if not keep.all():
            act, x, lx, env, total = act[keep], x[keep], lx[keep], env[keep], total[keep]
    return vals, rel, used, accepted


def _asym_floor_reference(alpha):
    """The floor from |total_m| <= m env_1: 2.54 at alpha = 0.3, 4.93 at 0.5."""
    m = np.arange(1.0, fc._ASYM_TERMS + 1.0)
    log_need = gammaln((m + 1.0) * alpha) - np.log(m) - gammaln(alpha)
    return 0.99 * math.exp(np.min((log_need - math.log(fc._ASYM_ACCEPT)) / m))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.84, 0.95, 0.99])
def test_tightened_floor_leaves_the_route_as_it_was(alpha):
    # the points between the old floor and the new one ran the whole loop
    # and were never accepted; skipping them moves no value, estimate, term
    # count or regime, on seeded batches dense around both floors
    old, new = _asym_floor_reference(alpha), fc._asym_floor(alpha)
    assert new > old
    rng = np.random.default_rng(int(1000 * alpha))
    x = np.concatenate([
        rng.uniform(0.5 * old, old, 500),
        rng.uniform(old, new, 2000),
        new * (1.0 + rng.uniform(-1e-3, 1e-3, 500)),
        rng.uniform(new, 3.0 * new, 500),
        10.0 ** rng.uniform(-2.0, 3.0, 500),
    ])
    assert np.any((x >= old) & (x < new)) and np.any(x >= new)
    got = fc._route_neg(alpha, x)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fc, "_asym_floor", _asym_floor_reference)
        m.setattr(fc, "_asym_neg", _asym_neg_reference)
        want = fc._route_neg(alpha, x)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # the floor is within 1% of the smallest point the loop accepts
    accepted = x[got[3] == 1]
    assert new <= accepted.min() <= 1.01 * new


@PROPERTY
@given(ALPHAS, st.integers(0, 2**32 - 1))
def test_asymptotic_route_is_not_tried_below_its_floor(alpha, seed):
    # below the floor the expansion cannot meet its acceptance test, so
    # skipping it there changes no value, estimate, term count or regime
    floor = fc._asym_floor(alpha)
    x = np.random.default_rng(seed).uniform(0.0, floor, 400)
    assert not fc._asym_neg(alpha, x[x >= fc._ASYM_SWITCH])[3].any()
    x = np.concatenate([x, np.random.default_rng(seed).uniform(floor, 3.0 * floor, 100)])
    skipped = fc._route_neg(alpha, x)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fc, "_asym_floor", lambda alpha: 0.0)
        tried = fc._route_neg(alpha, x)
    for a, b in zip(skipped, tried):
        assert np.array_equal(a, b)


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
    # at alpha = 1 bitwise np.exp, underflow to 0 included, with no warning
    under = np.concatenate([x, [745.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(fc.mlf_values(1.0, -under), np.exp(-under))
    v = fc.mlf_values(0.5, -x)
    assert np.max(np.abs(v - erfcx(x)) / erfcx(x)) <= 1e-11


# ---------------------------------------------------------------------------
# Caputo derivative


def test_caputo_linear_exact():
    # C-D^0.5 of u(t)=t at t=1 is t^{0.5}/Gamma(1.5) = 2/sqrt(pi);
    # the L1 rule telescopes exactly for linear data
    g = fc.TimeGrid.uniform(1.0, 257)
    u = g.nodes
    val = fc.caputo_values(g, u, 0.5, [1.0])[0]
    assert val == pytest.approx(2.0 / SQRT_PI, rel=1e-13)


def test_caputo_near_classical_limit():
    # exact value 2 t^{2-a}/Gamma(3-a); at a=0.999 that is ~1.12e-3 away
    # from the nominal 1.0 of the classical derivative
    a = 0.999
    g = fc.TimeGrid.uniform(1.0, 4097)
    u = g.nodes**2
    val = fc.caputo_values(g, u, a, [0.5])[0]
    exact = 2.0 * 0.5 ** (2.0 - a) / gamma(3.0 - a)
    assert val == pytest.approx(exact, abs=3e-4)
    assert abs(val - 1.0) <= 2e-3


def test_caputo_alpha_one_is_slope():
    g = fc.TimeGrid.uniform(1.0, 101)
    u = 3.0 * g.nodes + 1.0
    assert fc.caputo_values(g, u, 1.0, [0.5])[0] == pytest.approx(3.0, rel=1e-12)


def test_caputo_domain_errors():
    g = fc.TimeGrid.uniform(1.0, 33)
    u = g.nodes
    with pytest.raises(DomainError):
        fc.caputo_values(g, u, 0.5, [0.0])
    with pytest.raises(DomainError):
        fc.caputo_values(g, u, 0.5, [1.5])


def _l1_decimal(nodes, values, alpha, t, digits=40):
    """The L1 rule at time t in `digits`-digit decimal arithmetic.

    Nodes and samples enter as the exact values of their doubles; only
    the final division by Gamma(2 - alpha) is done in floating point.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        p = Decimal(1) - Decimal(alpha)
        t = Decimal(t)
        nodes = [Decimal(x) for x in nodes]
        values = [Decimal(x) for x in values]
        # (t - node)^p for the nodes before t, 0 from t on
        powers = [((t - x).ln() * p).exp() for x in nodes if x < t]
        powers += [Decimal(0)] * (len(nodes) - len(powers))
        total = sum(
            (values[j + 1] - values[j]) / (nodes[j + 1] - nodes[j])
            * (powers[j] - powers[j + 1])
            for j in range(len(nodes) - 1)
        )
        return float(total) / math.gamma(2.0 - alpha)


def test_caputo_values_against_decimal_reference():
    # a grid graded over twelve decades: cells of 1e-12 next to t ~ 1 are
    # where differencing (t-a)^p and (t-b)^p cancels
    nodes = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 160)))
    g = fc.TimeGrid(nodes)
    u = np.sqrt(g.nodes) + np.sin(3.0 * g.nodes)
    taus = np.concatenate((nodes[1::8], [1.0], np.sqrt(nodes[1:-1:10] * nodes[2::10])))
    for a in (0.3, 0.5, 0.84, 0.99):
        got = fc.caputo_values(g, u, a, taus)
        want = np.array([_l1_decimal(nodes, u, a, t) for t in taus])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def _l1_loop(nodes, values, alpha, t, first_cell_power=False):
    """The L1 rule at time t, one cell at a time."""
    first = 1 if first_cell_power and alpha < 1.0 else 0
    p = 1.0 - alpha
    total = 0.0
    for j in range(first, len(nodes) - 1):
        a, b = nodes[j], nodes[j + 1]
        left = (t - a) ** p if t > a else 0.0
        right = (t - b) ** p if t > b else 0.0
        total += (values[j + 1] - values[j]) / (b - a) * (left - right)
    total /= math.gamma(2.0 - alpha)
    if first:
        # start cell u(0) + c s^alpha: int_0^min(t,t1) c alpha s^(alpha-1) (t-s)^(-alpha) ds
        t1 = nodes[1]
        c = (values[1] - values[0]) / t1**alpha
        if t <= t1:
            return total + c * math.gamma(1.0 + alpha)
        kernel = lambda s: c * alpha * (t - s) ** (-alpha) / math.gamma(1.0 - alpha)
        start, _ = quad(
            kernel, 0.0, t1, weight="alg", wvar=(alpha - 1.0, 0.0), epsabs=0.0, epsrel=1e-13
        )
        total += start
    return total


def test_caputo_values_block_split_edge_cases():
    g = fc.TimeGrid.uniform(2.0, 33)
    nodes = g.nodes
    u = np.cos(2.0 * g.nodes) + g.nodes * g.nodes
    rng = np.random.default_rng(5)
    # on every node (t = T included), repeated, and off the nodes, shuffled
    # across more than two row blocks
    taus = rng.permutation(np.concatenate((
        nodes[1:], nodes[1::3], nodes[-1:], rng.uniform(1e-3, 2.0, 700),
    )))
    for a in (0.3, 0.7, 1.0):
        got = fc.caputo_values(g, u, a, taus)
        want = [_l1_loop(nodes, u, a, t) for t in taus]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # alpha = 1 at a node is the slope of the cell that node ends
    slopes = np.diff(u) / np.diff(nodes)
    assert fc.caputo_values(g, u, 1.0, nodes[1:]) == pytest.approx(slopes, rel=1e-12)
    # t^alpha start cell, at and below t1 as well as after it
    t1 = nodes[1]
    taus = rng.permutation(np.concatenate((
        [t1, t1 / 3.0, t1, 2.0], nodes[2:], rng.uniform(2.0 * t1, 2.0, 40),
    )))
    for a in (0.3, 0.7):
        got = fc.caputo_values(g, u, a, taus, first_cell_power=True)
        want = [_l1_loop(nodes, u, a, t, first_cell_power=True) for t in taus]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_caputo_first_cell_power_model():
    # data with a genuine t^alpha start layer: the power-cell model nails
    # the constant Caputo derivative where the chord model cannot
    a = 0.6
    g = fc.TimeGrid.uniform(1.0, 257)
    u = g.nodes**a
    taus = np.array([g.nodes[1] * 0.5, g.nodes[1], 0.1, 0.5])
    vals = fc.caputo_values(g, u, a, taus, first_cell_power=True)
    want = gamma(1.0 + a)
    assert np.max(np.abs(vals - want)) < 5e-4
    plain = fc.caputo_values(g, u, a, taus[:1], first_cell_power=False)
    assert abs(plain[0] - want) > abs(vals[0] - want)


def test_caputo_values_channels_match_one_channel_calls():
    # one L1 pass over (nodes, channels) samples gives each channel's own
    # single-channel result, for both first-cell models
    g = fc.TimeGrid(np.r_[0.0, np.sort(np.random.default_rng(2).random(300))])
    cols = np.stack([np.cos(3.0 * g.nodes), g.nodes**0.4, np.exp(-g.nodes)], axis=1)
    taus = np.random.default_rng(4).uniform(1e-3, g.horizon, 600).reshape(20, 30)
    for a in (0.3, 0.84, 1.0):
        for fcp in (False, True):
            got = fc.caputo_values(g, cols, a, taus, first_cell_power=fcp)
            assert got.shape == taus.shape + (3,)
            for ch in range(3):
                one = fc.caputo_values(g, cols[:, ch], a, taus, fcp)
                assert np.max(np.abs(got[..., ch] - one)) <= 1e-13 * np.max(np.abs(one))
    with pytest.raises(InputError):
        fc.caputo_values(g, np.zeros((g.nodes.size, 2, 2)), 0.5, taus)


def test_caputo_values_work_buffer_is_capped():
    # 256 rows of 16,384 cells would be a 67 MB buffer: past 2,048 cells a
    # block takes fewer rows, so the buffer stays within 8 MB. The L1 rule
    # is exact on linear data, and the other record matches a cell loop
    g = fc.TimeGrid.uniform(1.0, 16385)
    taus = np.linspace(0.5, 1.0, 600)
    a = 0.6
    lin, peak = _traced_peak(lambda: fc.caputo_values(g, 2.0 * g.nodes + 1.0, a, taus))
    assert peak < 12 * MB
    want = 2.0 * taus ** (1.0 - a) / gamma(2.0 - a)
    assert np.max(np.abs(lin - want) / want) <= 1e-12
    u = np.sin(5.0 * g.nodes) + g.nodes**2
    got = fc.caputo_values(g, u, a, taus)
    for i in range(0, taus.size, 97):
        assert got[i] == pytest.approx(_l1_loop(g.nodes, u, a, taus[i]), rel=1e-12, abs=1e-12)


def test_caputo_values_of_no_times_is_empty():
    # shape times.shape + channels, for both first-cell models
    g = fc.TimeGrid.uniform(1.0, 33)
    for samples in (np.sin(g.nodes), np.stack([g.nodes, g.nodes**2, np.cos(g.nodes)], 1)):
        u = samples
        for a in (0.5, 1.0):
            for fcp in (False, True):
                for times in ([], np.empty((0, 4))):
                    got = fc.caputo_values(g, u, a, times, first_cell_power=fcp)
                    assert got.shape == np.shape(times) + samples.shape[1:]


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


def test_ibp_row_blocks_match_one_block(monkeypatch):
    # one block spanning every node reads every cell: the full (node, cell)
    # sums. Smaller blocks skip the cells that end before their first node,
    # whose terms are exactly zero, so only the summation order changes.
    t = np.linspace(0.0, 1.0, 601)
    cases = [(np.sin(t), np.cos(t), 0.7), (t * t, 1.0 - t, 0.5), (t, t, 1.0),
             (np.exp(t), t**3, 0.3)]
    monkeypatch.setattr(fc, "_CAPUTO_ROWS", t.size)
    ref = np.array([fc.check_fractional_ibp(u, v, a, 1.0) for u, v, a in cases])
    for rows in (256, 7, 1):
        monkeypatch.setattr(fc, "_CAPUTO_ROWS", rows)
        got = np.array([fc.check_fractional_ibp(u, v, a, 1.0) for u, v, a in cases])
        assert np.max(np.abs(got - ref)) <= 1e-13, rows


def test_ibp_memory_is_linear_in_the_samples():
    # each node x cell sum is a correlation with a 1-d offset kernel, so
    # memory grows as the samples do: about 1.3 MB at 8,193 samples
    t = np.linspace(0.0, 1.0, 8193)
    tracemalloc.start()
    try:
        resid = fc.check_fractional_ibp(np.sin(t), np.cos(t), 0.7, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    assert resid < 1e-6


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


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = fc.gauss_legendre(12)
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = fc.gauss_legendre(12)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert fc.gauss_legendre.cache_info().maxsize == 16


def _counting_mlf(monkeypatch):
    """Empty the decay-table memo and count the points mlf_values receives."""
    monkeypatch.setattr(fc, "_DECAY_MEMO", {})
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    return points, real


def test_decay_table_prefix_views_and_appends(monkeypatch):
    points, mlf_values = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 1.0, 33)
    lams = PI2 * np.arange(1.0, 9.0) ** 2
    small = fc.decay_table(0.7, lams[:3], t)
    assert not small.flags.writeable
    with pytest.raises(ValueError):
        small[0, 0] = 2.0
    full = fc.decay_table(0.7, lams, t)
    assert points == [33 * 3, 33 * 5]
    assert np.array_equal(full, mlf_values(0.7, -np.outer(t**0.7, lams)))
    assert np.array_equal(full[:, :3], small)
    view = fc.decay_table(0.7, lams[:4], t)
    assert np.array_equal(view, full[:, :4]) and not view.flags.writeable
    assert points == [33 * 3, 33 * 5]
    # eigenvalues that do not extend the stored ones replace the table
    other = fc.decay_table(0.7, lams[1:], t)
    assert points[-1] == 33 * 7
    assert np.array_equal(other, full[:, 1:])
    assert fc.decay_table(1.0, lams, t) == pytest.approx(np.exp(-np.outer(t, lams)), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_table_row_blocks_match_one_shot(monkeypatch, alpha):
    # the table is filled in row blocks of about _BATCH_BLOCK points; each
    # value depends on its own argument, so blocks change no bit
    points, mlf_values = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 2.0, 2001)
    lams = PI2 * np.arange(1.0, 71.0) ** 2
    first = fc.decay_table(alpha, lams[:30], t)
    rows = fc._BATCH_BLOCK // 30
    assert points == [rows * 30, (t.size - rows) * 30]
    assert np.array_equal(first, mlf_values(alpha, -np.outer(t**alpha, lams[:30])))
    # the appended columns come in blocks of their own width
    points.clear()
    full = fc.decay_table(alpha, lams, t)
    rows = fc._BATCH_BLOCK // 40
    assert points == [rows * 40] * (t.size // rows) + [t.size % rows * 40]
    assert np.array_equal(full, mlf_values(alpha, -np.outer(t**alpha, lams)))
    assert not full.flags.writeable


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_apply_matches_table_product(monkeypatch, alpha):
    # the row blocks of decay_table, each multiplied into the result and
    # dropped: the memo is neither read nor written
    points, _ = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 2.0, 2001)
    lams = PI2 * np.arange(1.0, 71.0) ** 2
    W = np.random.default_rng(2).standard_normal((70, 3))
    got = fc.decay_apply(alpha, lams, t, W)
    rows = fc._BATCH_BLOCK // 70
    assert points == [rows * 70] * (t.size // rows) + [t.size % rows * 70]
    assert fc._DECAY_MEMO == {}
    E = fc.decay_table(alpha, lams, t)
    assert got.shape == (t.size, 3)
    assert np.all(np.abs(got - E @ W) <= 1e-14 * (np.abs(E) @ np.abs(W)))
    vector = fc.decay_apply(alpha, lams, t, W[:, 1])
    assert vector.shape == (t.size,)
    assert np.all(np.abs(vector - E @ W[:, 1]) <= 1e-14 * (np.abs(E) @ np.abs(W[:, 1])))
    with pytest.raises(InputError):
        fc.decay_apply(alpha, lams, t, W[:-1])


def test_decay_apply_skips_modes_with_zero_weight(monkeypatch):
    # a 200-mode poly_sq state weights only its 100 odd modes: their columns
    # alone are evaluated, and the product is the full one
    points, _ = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 1.0, 1024)
    k = np.arange(1.0, 201.0)
    lams = PI2 * k**2
    kp = math.pi * k
    state = np.where(k % 2 == 1, 4.0 * math.sqrt(2.0) * (12.0 - kp**2) / kp**5, 0.0)
    P = math.sqrt(2.0) * np.sin(np.outer(kp, [0.3, 0.55]))
    W = state[:, None] * P
    got = fc.decay_apply(0.84, lams, t, W)
    assert sum(points) == 1024 * 100
    full = fc.decay_table(0.84, lams, t) @ W
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))
    # no weight at all: nothing is evaluated and the result is zero
    points.clear()
    assert np.array_equal(fc.decay_apply(0.84, lams, t, np.zeros(200)), np.zeros(1024))
    assert sum(points) == 0


def test_decay_table_memo_holds_four_grids_least_recent_out(monkeypatch):
    points, _ = _counting_mlf(monkeypatch)
    grids = [np.linspace(0.0, 1.0, 9 + g) for g in range(6)]
    for t in grids[:4]:
        fc.decay_table(0.5, [PI2], t)
    fc.decay_table(0.5, [PI2], grids[0])
    assert len(points) == 4
    for t in grids[4:]:
        fc.decay_table(0.5, [PI2], t)
    assert len(fc._DECAY_MEMO) == 4
    kept = [(0.5, t.tobytes()) in fc._DECAY_MEMO for t in grids]
    assert kept == [True, False, False, True, True, True]


def test_ml_product_matrix_alpha_one_closed_form():
    m = fc.ml_product_matrix([PI2], 1.0, 1.0)
    want = (1.0 - math.exp(-2.0 * PI2)) / (2.0 * PI2)
    assert m[0, 0] == pytest.approx(want, rel=1e-12)


def test_ml_product_matrix_half_alpha_vs_trapezoid_oracle():
    # E_{1/2}(-x) = erfcx(x); substituting t = s^2 removes the sqrt(t)
    # kink at the origin, without which a trapezoid rule stalls near
    # 3.5e-7 regardless of the node count.
    s = np.linspace(0.0, 1.0, 100001)
    oracle = trapezoid(erfcx(PI2 * s) * erfcx(4.0 * PI2 * s) * 2.0 * s, s)
    assert oracle == pytest.approx(0.004878557671845788, abs=5e-10)
    got = fc.ml_product_matrix([PI2, 4.0 * PI2], 0.5, 1.0)[0, 1]
    assert got == pytest.approx(oracle, abs=1e-8)


def test_ml_product_matrix_positivity_and_validation():
    for alpha in (0.3, 0.5, 0.84, 1.0):
        assert fc.ml_product_matrix([4.0 * PI2], alpha, 2.0)[0, 0] > 0.0
    with pytest.raises(InputError):
        fc.ml_product_matrix([PI2, 0.0], 0.5, 1.0)
