"""Unit tests for the fractional-calculus layer.

Expected values come from independent oracles computed in this file:
closed forms, scipy special functions, or plain quadrature. Nothing is
asserted against a number that was not derived here or in a pinned
identity.
"""

import functools
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid
from scipy.special import betainc, erfcx, gamma

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
    assert abs(g.weights_on(slice(None)).sum() - 2.0) < 1e-14


@pytest.mark.parametrize("grid", [fc.TimeGrid.uniform(2.0, 9), fc.TimeGrid.graded(1.0, 64)])
def test_row_range_weights_join_to_the_whole_grid(grid):
    # the trapezoid rule is written once: weights_on over any partition of
    # the rows, blocks of one row and a ragged last block among them, joins
    # bit for bit to weights, and weights is the whole-grid rule
    n = len(grid)
    h = np.diff(grid.nodes)
    whole = np.zeros(n)
    whole[:-1] += 0.5 * h
    whole[1:] += 0.5 * h
    assert grid.weights_on(slice(None)).tobytes() == whole.tobytes()
    for rows in (1, 2, 3, 5, n - 1, n, n + 4):
        blocks = [grid.weights_on(slice(lo, lo + rows)) for lo in range(0, n, rows)]
        joined = np.concatenate(blocks)
        assert joined.tobytes() == whole.tobytes(), rows
    assert grid.weights_on(slice(n - 1, None)).tobytes() == whole[-1:].tobytes()


def test_grid_validation():
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(InputError):
        fc.TimeGrid(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(InputError):
        fc.TimeGrid.uniform(1.0, 1)
    with pytest.raises(DomainError):
        fc.TimeGrid.uniform(-1.0, 5)


def test_grid_refuses_non_finite_nodes():
    # strictly increasing, from 0, yet no horizon
    with pytest.raises(InputError, match="finite"):
        fc.TimeGrid(np.array([0.0, 1.0, np.inf]))


@pytest.mark.parametrize("samples", [3, 2, 0, -5])
def test_graded_grid_names_too_few_samples(samples):
    # the refusal names the samples, not the panels they make
    with pytest.raises(InputError, match=f"at least 4 samples, got {samples}$"):
        fc.TimeGrid.graded(1.0, samples)
    assert len(fc.TimeGrid.graded(1.0, 4)) == 4


def test_uniform_grid_refuses_an_infinite_horizon():
    with pytest.raises(DomainError, match="horizon must be finite and positive"):
        fc.TimeGrid.uniform(np.inf, 4)


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


# ---------------------------------------------------------------------------
# Mittag-Leffler


def _rule(alpha, x, split=None):
    """Values and relative estimates of E_alpha(-x), x >= 0, from _contour_blocks.

    split None takes alpha's own rule; True or False forces the split or the
    contour at any order below 1. No tolerance is applied.
    """
    with pytest.MonkeyPatch.context() as m:
        if split is not None:
            m.setattr(fc, "_SPLIT_FROM", 0.0 if split else 2.0)
        z = -np.asarray(x, dtype=float)
        blocks = [(v.copy(), r.copy()) for _, v, r in fc._contour_blocks(alpha, z)]
    vals, rel = (np.concatenate(b) for b in zip(*blocks))
    return vals, rel


def _counting_rules(monkeypatch):
    """The (alpha, arguments) of every call mlf_values makes to _contour_blocks."""
    rules = fc._contour_blocks
    taken = []

    def counted(a, z):
        taken.append((a, z.copy()))
        return rules(a, z)

    monkeypatch.setattr(fc, "_contour_blocks", counted)
    return taken


def test_mlf_domain_errors():
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(DomainError):
            fc.mlf_values(bad, -1.0)
    with pytest.raises(DomainError):
        fc.mlf_values(0.5, float("nan"))


def test_mlf_at_zero_is_one():
    for a in (0.3, 0.5, 0.84, 1.0):
        assert float(fc.mlf_values(a, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_mlf_half_at_minus_one():
    # E_{1/2}(-1) = e * erfc(1) = erfcx(1), on the contour, with a small estimate
    value = float(fc.mlf_values(0.5, -1.0))
    assert value == pytest.approx(erfcx(1.0), rel=1e-12)
    assert value == pytest.approx(0.42758357615580700, rel=1e-9)
    vals, rel = _rule(0.5, [1.0])
    assert vals.tolist() == [value] == _rule(0.5, [1.0], split=False)[0].tolist()
    assert rel[0] <= 1e-12


def test_mlf_alpha_one_matches_exp():
    z = np.linspace(-50.0, 0.0, 301)
    vals = fc.mlf_values(1.0, z)
    assert np.max(np.abs(vals - np.exp(z)) / np.exp(z)) < 1e-10


def test_mlf_reports_the_exp_pass_at_alpha_one(monkeypatch):
    # alpha = 1 runs np.exp alone and takes no contour rule; other orders
    # take theirs once
    taken = _counting_rules(monkeypatch)
    assert float(fc.mlf_values(1.0, -2.0)) == math.exp(-2.0)
    assert taken == []
    assert float(fc.mlf_values(0.5, -1.0)) == pytest.approx(erfcx(1.0), rel=1e-12)
    assert [a for a, _ in taken] == [0.5]


def test_mlf_values_at_one_is_exp_bit_for_bit():
    # the points below _EXP_ZERO take no exp and are +0.0, as exp gives
    # past its underflow edge, -745.1332; above it, through exp's subnormal
    # band, every value is exp's own, with no warning, on a sorted grid and
    # on a shuffled one whose skipped points are scattered
    assert fc._EXP_ZERO <= -746.0 and np.exp(fc._EXP_ZERO) == 0.0
    edge = -745.1332
    z = np.concatenate([
        np.linspace(-800.0, 0.0, 200001),
        np.linspace(edge - 1e-3, edge + 1e-3, 2001),
        np.nextafter(fc._EXP_ZERO, [-np.inf, 0.0]),
        [fc._EXP_ZERO, -745.13321910194122, -745.1332191019411, -708.3964185322641],
    ])
    shuffled = np.random.default_rng(5).permutation(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (z, shuffled, shuffled.reshape(-1, 8)):
            got = fc.mlf_values(1.0, grid)
            assert got.shape == grid.shape
            assert got.tobytes() == np.exp(grid).tobytes()
    subnormal = (got > 0.0) & (got < np.finfo(float).tiny)
    assert np.count_nonzero(subnormal) > 5000
    assert np.count_nonzero(got == 0.0) > 10000


def test_mlf_half_matches_erfcx_identity():
    # E_{1/2}(-x) = e^{x^2} erfc(x), from x = 0 to 1e4
    x = np.concatenate([np.linspace(0.0, 5.0, 101), np.logspace(0.8, 4, 80)])
    vals = fc.mlf_values(0.5, -x)
    assert np.max(np.abs(vals - erfcx(x)) / erfcx(x)) < 1e-10


MLF_REFUSED = "E_alpha arguments must be finite and <= 0"
NOT_NONPOSITIVE = (1e-300, 0.5, 2.0, 5.0, 20.0, 1000.0, math.inf, -math.inf, math.nan)


def test_mlf_positive_arguments():
    # every argument the package evaluates is -lam t^alpha <= 0; a one-point
    # call refuses anything else (positive, infinite or nan) at every alpha
    # including 1, with one message and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.3, 0.5, 1.0):
            for z in NOT_NONPOSITIVE:
                with pytest.raises(DomainError) as one:
                    fc.mlf_values(a, z)
                assert str(one.value) == MLF_REFUSED
            # the edge of the domain is still evaluated
            for zero in (0.0, -0.0):
                assert fc.mlf_values(a, zero).tolist() == 1.0


def test_mlf_values_checks_positive_estimates():
    # a batch with any point outside z <= 0 is refused exactly as that
    # point alone is, mixed-sign batches included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0.3, 0.5, 1.0):
            for z in NOT_NONPOSITIVE:
                with pytest.raises(DomainError) as one:
                    fc.mlf_values(a, z)
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
    # any exp runs: a batch raises the message of that point alone, with no
    # numpy overflow warning on the way
    for z in ([1000.0], [-2.0, 0.0, 710.0, 1000.0], [math.inf]):
        with pytest.raises(DomainError) as one:
            fc.mlf_values(1.0, [v for v in z if v > 709.0][0])
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
    # a batch is bitwise its own one-point value, in every regime
    z = np.concatenate([-np.logspace(-3, 3, 200), [0.0]])
    for a in (0.3, 0.5, 0.84, 0.999):
        assert np.array_equal(fc.mlf_values(a, z), [fc.mlf_values(a, x) for x in z])


def test_mlf_est_error_inside_switch_radius():
    # alpha = 1 is exp and takes no estimate; 0.999 takes the split
    worst = max(
        float(_rule(a, np.linspace(0.0, 2.0, 21))[1].max())
        for a in (0.3, 0.5, 0.77, 0.9, 0.999)
    )
    assert worst <= 1e-12


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


def test_mlf_values_accuracy_error_names_the_first_failing_point(monkeypatch):
    # the first point, in argument order, whose estimate exceeds _VALUES_TOL
    # is named with its estimate, not the worst one; the error carries
    # nothing beyond its message
    x = np.array([0.5, 5.0, 20.0])
    _, rel = _rule(0.5, x)
    assert rel[0] < rel[1] < rel[2]
    monkeypatch.setattr(fc, "_VALUES_TOL", rel[0])
    with pytest.raises(AccuracyError) as exc:
        fc.mlf_values(0.5, -x)
    assert str(exc.value) == (
        f"E_alpha(0.5, -5.0) estimate {rel[1]:.2e} exceeds tolerance {rel[0]:.2e}"
    )
    assert vars(exc.value) == {}
    assert fc.mlf_values(0.5, -x[:1]).tolist() == _rule(0.5, x[:1])[0].tolist()
    # alpha = 1 is exp, which no tolerance refuses
    monkeypatch.setattr(fc, "_VALUES_TOL", 1e-300)
    assert fc.mlf_values(1.0, -x).tolist() == np.exp(-x).tolist()


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
def test_mlf_near_classical_limit_matches_spectral_quad(alpha, monkeypatch):
    # the kernel's peak narrows like 1 - alpha; the split must stay
    # accurate on the contour's 16 node pairs however close alpha is to 1
    xs = [0.5, 2.0, 6.0, 9.0, 15.0, 30.0, 100.0]
    want = np.array([_spectral_quad(alpha, x) for x in xs])
    batch = fc.mlf_values(alpha, -np.array(xs))
    assert np.max(np.abs(batch - want) / want) < 1e-9
    for x, w in zip(xs, want):
        assert float(fc.mlf_values(alpha, -x)) == pytest.approx(w, rel=1e-9)
    # every point takes the split from alpha = _SPLIT_FROM = 0.99 on
    assert np.array_equal(batch, _rule(alpha, xs, split=True)[0])
    # and a tolerance below its estimate refuses each point by name
    monkeypatch.setattr(fc, "_VALUES_TOL", 1e-30)
    for x in xs:
        with pytest.raises(AccuracyError, match=f"^{re.escape(f'E_alpha({alpha}, {-x}) estimate ')}"):
            fc.mlf_values(alpha, -x)


@pytest.mark.parametrize("alpha", [0.99, 0.995, 0.999, 1.0 - 1e-9])
def test_mlf_near_classical_limit_matches_laplace_transform(alpha):
    # an oracle that shares nothing with the contour: int_0^inf e^(-pt)
    # E_a(-lam t^a) dt = p^(a-1) / (p^a + lam), by scipy quad over panels
    # that break at the scales 1 / lam and 1 / p, up to where e^(-pt) is
    # e^(-80); at every one of these orders each point takes the split
    for lam in (1.0, 10.0, 100.0):
        for p in (0.5, 2.0, 10.0):
            f = lambda t: math.exp(-p * t) * float(fc.mlf_values(alpha, -lam * t**alpha))
            edges = sorted({0.0, 1.0 / lam, 10.0 / lam, 1.0 / p, 10.0 / p, 80.0 / p})
            got = sum(
                quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            want = p ** (alpha - 1.0) / (p**alpha + lam)
            assert abs(got - want) <= 1e-11 * want, (lam, p)


def test_mlf_tiny_alpha_within_simon_bounds_or_refused():
    # 1/(1 + Gamma(1-a) x) <= E_a(-x) <= 1/(1 + x/Gamma(1+a)), a bracket of
    # width about 0.58 a relative: the contour evaluates inside it at every
    # order
    x = np.array([0.0, 0.5, 0.999, 0.99999, 1.5, 2.5, 40.0, 1e3])
    for a in (1e-4, 4e-4, 1e-5, 1e-7):
        v = fc.mlf_values(a, -x)
        assert np.all(1.0 / (1.0 + gamma(1.0 - a) * x) <= v * (1.0 + 1e-12))
        assert np.all(v <= 1.0 / (1.0 + x / gamma(1.0 + a)) * (1.0 + 1e-12))
        assert np.array_equal(v, _rule(a, x, split=False)[0])


def test_mlf_far_arguments_scale_from_the_clamp():
    # past x = 1e150 both rules return E_a(-X) X / x, X = 1e150, and x E_a(-x)
    # tends to 1 / Gamma(1 - a) with a next term of order 1 / x; no
    # finite argument overflows or is refused, on the contour or, at
    # a = 0.999, on the split
    x = np.array([1e100, 1e150, 1e200, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e-7, 0.3, 0.5, 0.9, 0.999):
            v = fc.mlf_values(a, -x)
            assert np.max(np.abs(v[:4] * x[:4] * gamma(1.0 - a) - 1.0)) <= 1e-11
            assert v[4] > 0.0
            assert v.tolist() == [float(fc.mlf_values(a, -t)) for t in x]
            assert np.array_equal(v, _rule(a, x, split=a == 0.999)[0])


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
    # decay_blocks evaluates a table in row blocks whose partition depends
    # on the call, so a value must not depend on the points beside it
    x = -np.array(xs)
    batch = fc.mlf_values(alpha, x)
    alone = [fc.mlf_values(alpha, z) for z in x]
    assert np.array_equal(batch, alone)
    assert np.array_equal(batch[::-1], fc.mlf_values(alpha, x[::-1]))


def test_split_values_do_not_depend_on_the_batch():
    # the split runs in blocks of 4096 points: a value must be its point's
    # alone, wherever the blocks fall
    rng = np.random.default_rng(3)
    for alpha in (0.995, 0.999, 1.0 - 1e-9):
        x = np.concatenate([rng.uniform(0.5, 60.0, 4000), 10.0 ** rng.uniform(-1.0, 2.5, 4000)])
        vals = _rule(alpha, x)[0]
        assert np.array_equal(vals, _rule(alpha, x, split=True)[0])
        assert x.size > 4096  # more than one block
        assert np.array_equal(_rule(alpha, x[::-1])[0], vals[::-1])
        for i in range(0, x.size, 97):
            assert fc.mlf_values(alpha, -x[i]) == vals[i]


@pytest.mark.parametrize("alpha", [0.5, 0.995, 0.999, 1.0 - 1e-9])
def test_each_point_takes_its_orders_rule_once(alpha, monkeypatch):
    # mlf_values hands every point of a call to its order's rule once, in
    # argument order, in a batch and in a one-point call alike; the values
    # agree point by point
    taken = _counting_rules(monkeypatch)
    z = -np.linspace(10.0, 300.0, 10000)
    vals = fc.mlf_values(alpha, z)
    assert [a for a, _ in taken] == [alpha]
    assert np.array_equal(taken[0][1], z)
    for i in range(0, z.size, 97):
        taken.clear()
        assert fc.mlf_values(alpha, z[i]) == vals[i]
        assert [(a, v.tolist()) for a, v in taken] == [(alpha, [z[i]])]


ORACLE_ALPHAS = (0.3, 0.5, 0.84, 0.95)
ORACLE_X = np.geomspace(0.01, 1000.0, 41)


@functools.lru_cache(maxsize=None)
def _oracle(alpha):
    return np.array([_spectral_quad(alpha, v) for v in ORACLE_X])


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_contour_values_match_oracles(alpha):
    # the contour rule on every point of the grid against scipy quad of the
    # spectral integral, and against erfcx at alpha = 1/2
    got = _rule(alpha, ORACLE_X, split=False)[0]
    assert np.array_equal(got, fc.mlf_values(alpha, -ORACLE_X))
    assert np.max(np.abs(got - _oracle(alpha)) / _oracle(alpha)) <= 1e-12
    if alpha == 0.5:
        x = np.concatenate([[0.0], ORACLE_X, np.geomspace(1e3, 1e6, 40)])
        want = erfcx(x)
        got = _rule(alpha, x, split=False)[0]
        assert np.array_equal(got, fc.mlf_values(alpha, -x))
        assert np.max(np.abs(got - want) / want) <= 1e-13


def _excess(rounding):
    """Largest contour error on the oracle grids over max(estimate, 1e-13)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fc, "_CONTOUR_ROUNDING", rounding)
        return max(
            np.max(np.abs(got - _oracle(a)) / _oracle(a) / np.maximum(rel, 1e-13))
            for a in ORACLE_ALPHAS
            for got, rel in [_rule(a, ORACLE_X)]
        )


def test_contour_estimate_is_honest():
    # each point's error is within its own estimate, or 1e-13; an estimate
    # forced to zero leaves points above that floor, so the check bites
    assert _excess(fc._CONTOUR_ROUNDING) <= 1.0
    assert _excess(0.0) > 1.0


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
def test_contour_work_is_a_few_batch_arrays(alpha):
    # the result and the contour's one work buffer of 1 MB, 0.66 batch
    # arrays: a complex pairs x points matrix would be 32 of them, and an
    # estimate or a term count per point of the call one more
    z = -np.linspace(0.0, 1.5, 200000)
    _, peak = _traced_peak(lambda: fc.mlf_values(alpha, z))
    assert peak < 2.5 * z.nbytes


@pytest.mark.parametrize("alpha", [0.999, 1.0 - 1e-9])
def test_split_work_is_cache_sized(alpha):
    # 200,000 points on the split alone: its work is the contour's one
    # buffer of 1 MB and a few block-sized arrays, where a pairs x points
    # matrix would be 26 MB and one array of the call 1.6 MB; every
    # estimate stays far inside the contour's acceptance
    z = -np.linspace(10.0, 300.0, 200000)
    split = lambda: [(v.copy(), r.copy()) for _, v, r in fc._contour_blocks(alpha, z)]
    blocks, peak = _traced_peak(split)
    assert peak - sum(v.nbytes + r.nbytes for v, r in blocks) < 1.25 * MB
    vals, rel = (np.concatenate(b) for b in zip(*blocks))
    assert np.all(rel <= 1e-12)
    for i in range(0, z.size, 3971):
        assert fc.mlf_values(alpha, z[i]) == vals[i]


def test_route_regimes_are_pinned(monkeypatch):
    # the order alone picks the regime: the contour below _SPLIT_FROM = 0.99,
    # the split from there up to 1, exp at 1; every point of a seeded
    # sample takes its order's bit for bit, and the other rule differs
    rng = np.random.default_rng(13)
    below = float(np.nextafter(fc._SPLIT_FROM, 0.0))
    pinned = {
        0.3: "contour", 0.5: "contour", 0.84: "contour", 0.95: "contour", 0.98: "contour",
        below: "contour", 0.99: "split", 0.995: "split", 0.999: "split",
        1.0 - 1e-9: "split", 1.0: "exp",
    }
    assert fc._SPLIT_FROM == 0.99
    x = np.concatenate([rng.uniform(0.0, 30.0, 50), 10.0 ** rng.uniform(-2.0, 3.0, 50)])
    taken = _counting_rules(monkeypatch)
    for alpha, regime in pinned.items():
        taken.clear()
        got = fc.mlf_values(alpha, -x)
        if regime == "exp":
            assert got.tobytes() == np.exp(-x).tobytes() and taken == []
            continue
        ours = _rule(alpha, x, split=regime == "split")[0]
        other = _rule(alpha, x, split=regime == "contour")[0]
        assert np.array_equal(got, ours), alpha
        assert np.count_nonzero(got != other) > x.size // 2, alpha


SCAN_X = np.concatenate([[0.0], np.logspace(-10.0, 160.0, 1701)])


def test_split_from_is_the_contours_limit():
    # the contour's estimate stays inside 1e-11 on the scan just below the
    # switch, and the split's inside 1.51e-13 (1.503e-13 at most) from the
    # switch up to 1; the contour's passes 1e-11 at 0.991, so a switch
    # raised to 0.995 fails here
    below = float(np.nextafter(fc._SPLIT_FROM, 0.0))
    vals, rel = _rule(below, SCAN_X)
    assert np.array_equal(vals, _rule(below, SCAN_X, split=False)[0])
    assert rel.max() <= 1e-11
    orders = np.concatenate([np.linspace(fc._SPLIT_FROM, 0.999, 10), 1.0 - np.logspace(-4, -12, 9)])
    for alpha in orders:
        vals, rel = _rule(alpha, SCAN_X)
        assert np.array_equal(vals, _rule(alpha, SCAN_X, split=True)[0]), alpha
        assert rel.max() <= 1.51e-13, alpha


@PROPERTY
@given(st.lists(st.floats(0.0, 1e160), min_size=1, max_size=40))
@example([0.0, 1e-10, 1.0, 9.0, 30.0, 1e4, 1e150, 1e160])
def test_mlf_continuous_across_regime_seams(xs):
    # the one seam below alpha = 1 is the switch of order from the contour
    # to the split: the values on its two sides, an ulp of alpha apart,
    # differ by at most 1e-11
    below = _rule(np.nextafter(fc._SPLIT_FROM, 0.0), xs)[0]
    above = _rule(fc._SPLIT_FROM, xs)[0]
    assert np.array_equal(below, _rule(np.nextafter(fc._SPLIT_FROM, 0.0), xs, split=False)[0])
    assert np.array_equal(above, _rule(fc._SPLIT_FROM, xs, split=True)[0])
    assert np.all(np.abs(above - below) <= 1e-11 * below)


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


def test_caputo_refuses_a_nan_time():
    g = fc.TimeGrid.uniform(1.0, 33)
    with pytest.raises(DomainError, match=r"\(0, T\]"):
        fc.caputo_values(g, g.nodes, 0.5, [0.3, np.nan])


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


@pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.84, 0.99, 0.999])
@pytest.mark.parametrize("ratio", [1.0, 1e-8, 1e-16])
def test_exponential_sum_matches_the_power_kernel(alpha, ratio):
    # the far cells' kernel: sum_j w_j exp(-sigma_j x) is x^(-alpha) within
    # 1e-14 relative over [delta, T], with increasing exponents
    horizon = 2.0
    sigma, weights = fc._exponential_sum(alpha, ratio * horizon, horizon)
    assert np.all(np.diff(sigma) > 0.0) and np.all(weights > 0.0)
    x = np.geomspace(ratio * horizon, horizon, 3001)
    approx = np.exp(-np.outer(x, sigma)) @ weights
    assert np.max(np.abs(approx * x**alpha - 1.0)) <= 1e-14


def test_caputo_values_far_cells_match_a_cell_loop():
    # 2,048 graded cells: most times take their far cells through the
    # exponential sum, in many history steps; shuffled times on and off the
    # nodes, three channels, both first-cell models. The channels are smooth:
    # on a rough one the loop's own differences of (t-a)^p and (t-b)^p over
    # the 1e-12 cells would cancel past this tolerance
    nodes = fc.merge_nodes(fc.graded_panel_edges(2.0, 1024, 1e-12), np.linspace(0.0, 2.0, 1026), 2.0)
    g = fc.TimeGrid(nodes)
    assert len(g) == 2049
    cols = np.stack([np.cos(3.0 * nodes) + nodes, np.sin(2.0 * nodes) + 1.0, np.exp(-nodes)], axis=1)
    rng = np.random.default_rng(8)
    taus = rng.permutation(np.concatenate((
        rng.choice(nodes[1:], 30), nodes[-1:], rng.uniform(1e-9, 2.0, 30), np.geomspace(1e-11, 2.0, 20)
    )))
    for a in (0.3, 0.84):
        for fcp in (False, True):
            got = fc.caputo_values(g, cols, a, taus, first_cell_power=fcp)
            for ch in range(3):
                want = [_l1_loop(nodes, cols[:, ch], a, t, first_cell_power=fcp) for t in taus]
                assert got[:, ch] == pytest.approx(want, rel=1e-12, abs=1e-12), (a, fcp, ch)
    # alpha = 1 at a node is still the slope of the cell that node ends
    slopes = np.diff(cols, axis=0) / np.diff(nodes)[:, None]
    assert fc.caputo_values(g, cols, 1.0, nodes[1:]) == pytest.approx(slopes, rel=1e-12)


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


def _ibp_by_double_sums(u, v, alpha, horizon):
    """check_fractional_ibp with its node x cell sums written out in full.

    Every node s is paired with every cell [a, b] through the exact cell
    integrals of (t-s)_+^p and (t-s)_+^p (t-a), p = 1 - alpha, held as
    dense (node, cell) matrices; the terms without such a sum follow the
    package's formulas.
    """
    def pw(x, q):  # x**q on x > 0, else 0 (0**0 too)
        x = np.maximum(x, 0.0)
        return np.where(x > 0.0, np.power(x, q), 0.0)

    n = u.size
    tg = np.linspace(0.0, horizon, n)
    a, b, h = tg[:-1], tg[1:], tg[1] - tg[0]
    du, dv = np.diff(u) / h, np.diff(v) / h
    p = 1.0 - alpha
    s = tg[:, None]
    start = np.maximum(a, s) - s  # where each cell's support begins, seen from s
    j0 = (pw(b - s, p + 1.0) - pw(start, p + 1.0)) / (p + 1.0)
    j1 = (pw(b - s, p + 2.0) - pw(start, p + 2.0)) / (p + 2.0) + (s - a) * j0
    d0, d1 = j0[:-1] - j0[1:], j1[:-1] - j1[1:]
    lhs = du @ np.sum(v[:-1] * d0 + dv * d1, axis=1) / math.gamma(2.0 - alpha)
    rdi = np.sum(dv * (pw(b - s, p) - pw(start, p)), axis=1) / math.gamma(2.0 - alpha)
    if alpha == 1.0:
        rdi[-1] = dv[-1]
    q0, q1 = rdi[:-1], rdi[1:]
    main = -np.sum(h / 6.0 * (2 * u[:-1] * q0 + u[:-1] * q1 + u[1:] * q0 + 2 * u[1:] * q1))
    if alpha == 1.0:
        return abs(lhs - (main + u[-1] * v[-1] - u[0] * v[0]))
    i0 = (pw(horizon - a, p) - pw(horizon - b, p)) / p
    i1 = (horizon - a) * i0 - (pw(horizon - a, p + 1.0) - pw(horizon - b, p + 1.0)) / (p + 1.0)
    sing = v[-1] / math.gamma(p) * np.sum(u[:-1] * i0 + du * i1)
    i0 = (pw(b, p) - pw(a, p)) / p
    i1 = (pw(b, p + 1.0) - pw(a, p + 1.0)) / (p + 1.0) - a * i0
    iv0 = np.sum(v[:-1] * i0 + dv * i1) / math.gamma(p)
    return abs(lhs - (main + sing - u[0] * iv0))


def test_ibp_matches_direct_double_sums():
    # the package forms each node x cell sum as a correlation with an
    # offset kernel; the same sums written out cell by cell must agree
    t = np.linspace(0.0, 1.0, 601)
    cases = [(np.sin(t), np.cos(t), 0.7), (t * t, 1.0 - t, 0.5), (t, t, 1.0),
             (np.exp(t), t**3, 0.3)]
    for u, v, a in cases:
        got = fc.check_fractional_ibp(u, v, a, 1.0)
        assert abs(got - _ibp_by_double_sums(u, v, a, 1.0)) <= 1e-13, a


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


@pytest.mark.parametrize("horizon", [np.nan, np.inf])
def test_ibp_refuses_a_non_finite_horizon(horizon):
    # refused before any arithmetic, so no RuntimeWarning either
    u = np.linspace(0.0, 1.0, 9) ** 2
    with pytest.raises(DomainError, match="horizon must be finite and positive"):
        fc.check_fractional_ibp(u, u, 0.5, horizon)


# ---------------------------------------------------------------------------
# shared quadrature kit


def test_graded_panels_cover_horizon():
    edges = fc.graded_panel_edges(2.0, 64, 1e-16)
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0)
    assert np.all(np.diff(edges) > 0)
    t, w = fc.gauss_panels(edges, 8)
    # integrates a polynomial exactly
    assert np.sum(w * t**3) == pytest.approx(2.0**4 / 4.0, rel=1e-12)


def test_graded_panels_refuse_a_nan_horizon():
    with pytest.raises(DomainError, match="horizon must be finite and positive"):
        fc.graded_panel_edges(np.nan, 4, 1e-3)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = fc.gauss_legendre(12)
    again = fc.gauss_legendre(12)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert fc.gauss_legendre.cache_info().maxsize == 16


def _legendre_oracle(n: int) -> tuple[list[Decimal], list[Decimal]]:
    """Ascending Gauss-Legendre nodes and weights to 40 digits.

    Newton on the three-term recurrence from x = cos(pi (4i - 1) / (4n + 2));
    w = 2 / ((1 - x^2) P_n'(x)^2), P_n' = n (x P_n - P_(n-1)) / (x^2 - 1).
    """
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40

        def values(x):
            prev, p = Decimal(1), x
            for k in range(2, n + 1):
                prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
            return p, n * (x * p - prev) / (x * x - 1)

        for i in range(n, 0, -1):
            x = Decimal(math.cos(math.pi * (4 * i - 1) / (4 * n + 2)))
            for _ in range(50):
                p, dp = values(x)
                x -= p / dp
                if abs(p / dp) < Decimal("1e-38"):
                    break
            p, dp = values(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def test_gauss_legendre_matches_a_40_digit_oracle():
    # nodes to 3e-16 absolute and weights to 1e-13 relative, with exact
    # symmetry and exact moments; leggauss's weights miss the 1e-13 at n = 96
    for n in [*range(1, 25), 32, 64, 96, 128]:
        x, w = fc.gauss_legendre(n)
        ref_x, ref_w = _legendre_oracle(n)
        assert max(abs(Decimal(a) - b) for a, b in zip(x.tolist(), ref_x)) < Decimal("3e-16"), n
        assert max(abs(Decimal(a) / b - 1) for a, b in zip(w.tolist(), ref_w)) < Decimal("1e-13"), n
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
        # sum_i w_i P_k(x_i) = 2 delta_k0 for every k <= 2n - 1
        prev, p = np.ones(n), x
        moments = [w.sum() - 2.0, w @ x]
        for k in range(2, 2 * n):
            prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
            moments.append(w @ p)
        assert np.max(np.abs(moments)) < 1e-14, n


@pytest.mark.parametrize("order", [0, -3, 2.7, 8.0, "8", None])
def test_gauss_legendre_refuses_an_order_that_is_not_a_positive_integer(order):
    with pytest.raises(InputError, match=f"order must be an integer >= 1, got {order!r}"):
        fc.gauss_legendre(order)


def test_gauss_panels_refuse_a_fractional_order():
    # the order reaches gauss_legendre as given: 2.7 is not truncated to 2
    with pytest.raises(InputError, match="got 2.7"):
        fc.gauss_panels([0.0, 0.5, 1.0], 2.7)


def _counting_mlf(monkeypatch):
    """Count the points mlf_values receives."""
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    return points, real


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_blocks_with_fixed_rows(alpha):
    # a fixed row count partitions the times alike for any eigenvalues, and
    # the blocks hold the one-shot table's values bit for bit
    t = np.linspace(0.0, 2.0, 2001)
    lams = PI2 * np.arange(1.0, 71.0) ** 2
    table = fc.mlf_values(alpha, -np.outer(t**alpha, lams))
    for count in (1, 30, 70):
        blocks = list(fc.decay_blocks(alpha, lams[:count], t, 500))
        assert [rows.start for rows, _ in blocks] == [0, 500, 1000, 1500, 2000]
        assert [block.shape for _, block in blocks] == [(500, count)] * 4 + [(1, count)]
        assert np.array_equal(np.concatenate([block for _, block in blocks]), table[:, :count])


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_table_row_blocks_match_one_shot(monkeypatch, alpha):
    # without a row count the table is evaluated in row blocks of about
    # _BATCH_BLOCK points; each value depends on its own argument, so the
    # blocks change no bit of the one-shot table
    points, mlf_values = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 2.0, 2001)
    lams = PI2 * np.arange(1.0, 71.0) ** 2
    table = mlf_values(alpha, -np.outer(t**alpha, lams))
    for count in (30, 40):
        points.clear()
        height = fc._BATCH_BLOCK // count
        blocks = list(fc.decay_blocks(alpha, lams[:count], t))
        assert points == [height * count] * (t.size // height) + [t.size % height * count]
        assert [rows.start for rows, _ in blocks] == list(range(0, t.size, height))
        want = [(height, count)] * (t.size // height) + [(t.size % height, count)]
        assert [block.shape for _, block in blocks] == want
        assert np.array_equal(np.concatenate([block for _, block in blocks]), table[:, :count])


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_apply_matches_table_product(monkeypatch, alpha):
    # the row blocks of decay_blocks, each multiplied into the result and
    # dropped
    points, _ = _counting_mlf(monkeypatch)
    t = np.linspace(0.0, 2.0, 2001)
    lams = PI2 * np.arange(1.0, 71.0) ** 2
    W = np.random.default_rng(2).standard_normal((70, 3))
    got = fc.decay_apply(alpha, lams, t, W)
    rows = fc._BATCH_BLOCK // 70
    assert points == [rows * 70] * (t.size // rows) + [t.size % rows * 70]
    E = fc.mlf_values(alpha, -np.outer(t**alpha, lams))
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
    full = fc.mlf_values(0.84, -np.outer(t**0.84, lams)) @ W
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))
    # no weight at all: nothing is evaluated and the result is zero
    points.clear()
    assert np.array_equal(fc.decay_apply(0.84, lams, t, np.zeros(200)), np.zeros(1024))
    assert sum(points) == 0


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
