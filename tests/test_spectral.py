"""Tests for the spatial eigenbasis layer.

Brute-force oracles (dense quadrature of the defining integrals) are
computed inline; closed forms are asserted against them, never the other
way around.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from fracobs import fraccalc as fc
from fracobs import spectral as sp
from fracobs.errors import InputError

PI = math.pi


def test_domain_validation():
    assert sp.eigenpairs(1, 3).shape == (3, 1)
    assert sp.eigenpairs(2, 3).shape == (3, 2)
    assert sp.Region.full(1).dimension == 1
    for dimension in (0, 3):
        with pytest.raises(InputError, match=f"dimension must be 1 or 2, got {dimension}"):
            sp.eigenpairs(dimension, 3)
        with pytest.raises(InputError):
            sp.Region.full(dimension)


def test_region_validation():
    r = sp.Region((0.25,), (0.75,))
    assert r.dimension == 1
    assert (r.lower, r.upper) == ((0.25,), (0.75,))
    with pytest.raises(InputError):
        sp.Region((0.5,), (0.5,))
    with pytest.raises(InputError):
        sp.Region((-0.1,), (0.5,))
    with pytest.raises(InputError):
        sp.Region((0.0, 0.0), (1.0,))
    full = sp.Region.full(2)
    assert (full.lower, full.upper) == ((0.0, 0.0), (1.0, 1.0))


def test_quadrature_order_is_checked_by_gauss_legendre():
    region = sp.Region((0.25,), (0.75,))
    for order in (0, 2.5):
        with pytest.raises(InputError, match=f"Gauss-Legendre order must be an integer >= 1, got {order}"):
            sp.region_rule(region, order)


def test_eigenpairs_interval():
    modes = sp.eigenpairs(1, 3)
    lams = sp.eigenvalues(modes).tolist()
    assert lams == pytest.approx([PI**2, 4 * PI**2, 9 * PI**2], rel=1e-15)
    assert modes.tolist() == [[1], [2], [3]]
    assert modes.dtype.kind == "i"


def test_eigenpairs_square_ordering():
    modes = sp.eigenpairs(2, 4)
    assert modes.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert sp.eigenvalues(modes).tolist() == pytest.approx(
        [2 * PI**2, 5 * PI**2, 5 * PI**2, 8 * PI**2], rel=1e-15
    )
    single = sp.eigenpairs(2, 1)
    assert single.tolist() == [[1, 1]]
    (lam,) = sp.eigenvalues(single)
    assert lam == pytest.approx(2 * PI**2, rel=1e-15)
    assert lam == pytest.approx(19.739, abs=5e-4)


def test_eigenpairs_square_is_globally_sorted():
    modes = sp.eigenpairs(2, 60)
    lams = sp.eigenvalues(modes)
    assert np.all(np.diff(lams) >= -1e-12)
    # spot-check against an oversampled candidate pool
    pool = sorted(
        (i * i + j * j) * PI**2 for i in range(1, 30) for j in range(1, 30)
    )
    assert lams == pytest.approx(pool[:60], rel=1e-14)


def _square_modes_by_full_sort(count):
    """The earlier enumeration, as an oracle: sort every pair of [1, count + 1]^2."""
    top = count + 1
    idx = [(i, j) for i in range(1, top + 1) for j in range(1, top + 1)]
    idx.sort(key=lambda ij: (ij[0] * ij[0] + ij[1] * ij[1], ij))
    return [list(ij) for ij in idx[:count]]


def test_eigenpairs_square_matches_full_sort_oracle():
    # the oracle returns the count smallest pairs by (key, index), so past
    # count 60 its result is the prefix of its result at 400
    reference = _square_modes_by_full_sort(400)
    for count in range(1, 401):
        want = _square_modes_by_full_sort(count) if count <= 60 else reference[:count]
        assert sp.eigenpairs(2, count).tolist() == want, count


def test_eigenpairs_square_memory_is_bounded():
    # sorting all (count + 1)^2 index pairs as tuples peaked at 63 MB here
    tracemalloc.start()
    try:
        modes = sp.eigenpairs(2, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) == 600
    assert peak < 4 << 20


def test_eigenvalue_groups_are_exact():
    modes = sp.eigenpairs(2, 6)
    groups = sp.eigenvalue_groups(modes)
    # keys i^2 + j^2: 2, 5, 5, 8, 10, 10 -> groups {0}, {1,2}, {3}, {4,5}
    assert groups == [[0], [1, 2], [3], [4, 5]]


def _value(mode, point, axis=None):
    """phi, or its partial along `axis`, of one mode at one point, by mode_table."""
    return float(sp.mode_table([mode], tuple(point), axis)[0])


def test_eval_eigfun_values():
    sq = (1, 1)
    assert _value(sq, (0.5, 0.5)) == pytest.approx(2.0, rel=1e-15)
    assert _value(sq, (0.0, 0.7)) == 0.0
    assert _value(sq, (0.3, 1.0)) == pytest.approx(0.0, abs=1e-15)
    line = (2,)
    assert _value(line, (0.25,)) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_eval_eigfun_grad_values():
    sq = (1, 1)
    g = [_value(sq, (0.5, 0.5), d) for d in range(2)]
    assert np.allclose(g, [0.0, 0.0], atol=1e-12)
    line = (1,)
    assert _value(line, (0.0,), 0) == pytest.approx(math.sqrt(2.0) * PI, rel=1e-15)
    m12 = (1, 2)
    assert _value(m12, (0.5, 0.25), 1) == pytest.approx(0.0, abs=1e-12)


def test_eval_eigfun_grad_matches_finite_difference():
    m = (2, 3)
    p = np.array([0.37, 0.61])
    h = 1e-6
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = h
        fd = (_value(m, p + shift) - _value(m, p - shift)) / (2 * h)
        assert _value(m, p, d) == pytest.approx(fd, rel=1e-8)


def _closed_form(index, point, axis):
    out = math.sqrt(2.0) ** len(index)
    for d, (i, x) in enumerate(zip(index, point)):
        w = i * PI
        out *= w * math.cos(w * x) if d == axis else math.sin(w * x)
    return out


def test_mode_table_matches_closed_form_and_shape_contract():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        modes = np.vstack((rng.integers(1, 31, (12, n)), [(30,) * n]))
        pts = rng.random((40, n))
        for axis in (None, *range(n)):
            table = sp.mode_table(modes, tuple(pts.T), axis)
            assert table.shape == (40, len(modes))
            for p, row in zip(pts, table):
                for m, got in zip(modes, row):
                    want = _closed_form(m, p, axis)
                    scale = 2.0 ** (n / 2) * (1.0 if axis is None else PI * m[axis])
                    assert abs(got - want) <= 1e-13 * scale
    # shapes: points.shape + (M,), for scalars, vectors, meshgrids and broadcasts
    line = sp.eigenpairs(1, 5)
    square = sp.eigenpairs(2, 6)
    assert sp.mode_table(line, (0.3,)).shape == (5,)
    assert sp.mode_table(square, (0.3, 0.6), 1).shape == (6,)
    x, y = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 4)
    assert sp.mode_table(line, (x,), 0).shape == (7, 5)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    grid = sp.mode_table(square, (xg, yg))
    assert grid.shape == (7, 4, 6)
    assert np.array_equal(grid, sp.mode_table(square, (x[:, None], y[None, :])))
    assert np.array_equal(grid[..., 2], sp.mode_table(square[2:3], (xg, yg))[..., 0])
    with pytest.raises(InputError):
        sp.mode_table(square, (x,))
    with pytest.raises(InputError):
        sp.mode_table(line, (x,), 1)


def _region_pairing(f, g, region):
    """int_region f g by a tensor rule of order 32 per axis, region_rule."""
    pts, w = sp.region_rule(region, 32)
    return float(np.sum(w * f(*pts) * g(*pts)))


def _mode(index, axis=None):
    """phi, or its partial along `axis`, of one mode as a field, by mode_table."""
    return lambda *coords: sp.mode_table([index], coords, axis)[..., 0]


def test_region_inner_product_orthonormality_pair():
    full = sp.Region.full(1)
    p1 = _mode((1,))
    p2 = _mode((2,))
    assert _region_pairing(p1, p1, full) == pytest.approx(1.0, abs=1e-12)
    assert _region_pairing(p1, p2, full) == pytest.approx(0.0, abs=1e-12)


def test_region_inner_product_gradient_pairing():
    # oracle: dense trapezoid of 2*pi*int_0^1 cos(pi y) sin(2 pi y) dy
    y = np.linspace(0.0, 1.0, 200001)
    oracle = 2.0 * PI * trapezoid(np.cos(PI * y) * np.sin(2 * PI * y), y)
    assert oracle == pytest.approx(8.0 / 3.0, abs=1e-9)
    full = sp.Region.full(1)
    got = _region_pairing(_mode((1,), 0), _mode((2,)), full)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_region_inner_product_subregion_against_quad():
    from scipy.integrate import quad

    reg = sp.Region((0.35,), (0.65,))
    f = _mode((3,))
    g = _mode((5,))
    oracle, _ = quad(lambda x: f(x) * g(x), 0.35, 0.65, epsabs=1e-13)
    assert _region_pairing(f, g, reg) == pytest.approx(oracle, abs=1e-12)


def test_grad_coupling_examples():
    q1, q2, q3 = (1,), (2,), (3,)
    assert sp.grad_coupling(q1, 0, q2) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert sp.grad_coupling(q1, 0, q3) == 0.0
    assert sp.grad_coupling(q2, 0, q2) == 0.0


def test_grad_coupling_2d_factorization():
    a, b, c = (1, 2), (2, 2), (2, 3)
    assert sp.grad_coupling(a, 0, b) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert sp.grad_coupling(a, 0, c) == 0.0  # Kronecker delta on axis 1
    assert sp.grad_coupling(a, 1, b) == 0.0


def _basis_gram_1d(modes, axis=None, order=96):
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    vals = sp.mode_table(modes, (x,), axis)
    return vals.T @ (vals * w[:, None])


def _basis_gram_2d(modes, axis=None, order=96):
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xg, yg = np.meshgrid(x, x, indexing="ij")
    w2 = np.outer(w, w)
    vals = sp.mode_table(modes, (xg, yg), axis)
    return np.einsum("ija,ijb,ij->ab", vals, vals, w2)


def test_orthonormality_invariant_m25():
    for n in (1, 2):
        modes = sp.eigenpairs(n, 25)
        gram = _basis_gram_1d(modes) if n == 1 else _basis_gram_2d(modes)
        assert np.max(np.abs(gram - np.eye(25))) < 1e-10


def test_gradient_eigen_relation():
    # int grad(phi_q) . grad(phi_k) = lam_q delta_qk
    for n in (1, 2):
        modes = sp.eigenpairs(n, 12)
        gram = np.zeros((12, 12))
        for d in range(n):
            gram += _basis_gram_1d(modes, d) if n == 1 else _basis_gram_2d(modes, d)
        want = np.diag(sp.eigenvalues(modes))
        assert np.max(np.abs(gram - want)) < 1e-8


def test_grad_coupling_antisymmetry_closed_form():
    modes = sp.eigenpairs(2, 10)
    for q in modes:
        for k in modes:
            for d in range(2):
                assert sp.grad_coupling(q, d, k) == -sp.grad_coupling(k, d, q)


def test_grad_coupling_matches_brute_quadrature_m25():
    order = 96
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    # 1D: all 25x25 pairs
    modes1 = sp.eigenpairs(1, 25)
    dv = sp.mode_table(modes1, (x,), 0).T
    pv = sp.mode_table(modes1, (x,)).T
    brute = dv @ (pv * w).T
    closed = np.array(
        [[sp.grad_coupling(q, 0, k) for k in modes1] for q in modes1]
    )
    assert np.max(np.abs(brute - closed)) < 1e-10
    # 2D: all pairs among the first 25 square modes, both axes
    modes2 = sp.eigenpairs(2, 25)
    xg, yg = np.meshgrid(x, x, indexing="ij")
    w2 = np.outer(w, w)
    pv2 = sp.mode_table(modes2, (xg, yg))
    for d in range(2):
        dv2 = sp.mode_table(modes2, (xg, yg), d)
        brute2 = np.einsum("ija,ijb,ij->ab", dv2, pv2, w2)
        closed2 = np.array(
            [[sp.grad_coupling(q, d, k) for k in modes2] for q in modes2]
        )
        assert np.max(np.abs(brute2 - closed2)) < 1e-10


def test_mode_validation():
    for count in (0, 2.5, -1, "3", True):
        with pytest.raises(InputError, match=f"count must be an integer >= 1, got {count!r}"):
            sp.eigenpairs(1, count)
    with pytest.raises(InputError, match="dimension must be 1 or 2, got 3"):
        sp.eigenpairs(3, 4)
    with pytest.raises(InputError, match="modes live on different domains"):
        sp.grad_coupling((1,), 0, (1, 2))
    with pytest.raises(InputError, match="axis 1 out of range for dimension 1"):
        sp.grad_coupling((1,), 1, (2,))


def test_eigenpairs_are_read_only_integer_rows():
    for n in (1, 2):
        modes = sp.eigenpairs(n, 5)
        assert modes.shape == (5, n) and modes.dtype.kind == "i"
        with pytest.raises(ValueError):
            modes[0, 0] = 7
    assert sp.eigenpairs(2, 5).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2], [1, 3]]


def test_eigenvalues_are_pi_squared_times_the_integer_sum_of_squares():
    pi2 = PI * PI
    for n in (1, 2):
        for count in range(1, 401):
            modes = sp.eigenpairs(n, count)
            want = np.array([sum(i * i for i in row) * pi2 for row in modes.tolist()])
            assert sp.eigenvalues(modes).tobytes() == want.tobytes(), (n, count)


def _tensor_rule(region, order):
    """The rule's points and weights, one point at a time from the reference rule."""
    x, w = fc.gauss_legendre(order)
    axes = []
    for a, b in zip(region.lower, region.upper):
        half = 0.5 * (b - a)
        axes.append([(a + half * (xi + 1.0), half * wi) for xi, wi in zip(x, w)])
    points, weights = [], []
    for combo in itertools.product(*axes):
        points.append([p for p, _ in combo])
        weight = combo[0][1]
        for _, wi in combo[1:]:
            weight = weight * wi
        weights.append(weight)
    return np.array(points).T, np.array(weights)


def test_region_rule_is_the_tensor_gauss_legendre_rule():
    for region, order in ((sp.Region((0.35,), (0.65,)), 7), (sp.Region((0.1, 0.25), (0.6, 1.0)), 5)):
        pts, w = sp.region_rule(region, order)
        want_pts, want_w = _tensor_rule(region, order)
        assert len(pts) == region.dimension
        for got, want in zip(pts, want_pts):
            assert got.tobytes() == want.tobytes()
        assert w.tobytes() == want_w.tobytes()
