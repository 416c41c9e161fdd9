"""Tests for the spatial eigenbasis layer.

Brute-force oracles (dense quadrature of the defining integrals) are
computed inline; closed forms are asserted against them, never the other
way around.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from fracobs import spectral as sp
from fracobs.errors import InputError

PI = math.pi


def test_domain_validation():
    assert sp.SpatialDomain(1).dimension == 1
    assert sp.SpatialDomain(2).dimension == 2
    with pytest.raises(InputError):
        sp.SpatialDomain(3)


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
    full = sp.Region.full(sp.SpatialDomain(2))
    assert (full.lower, full.upper) == ((0.0, 0.0), (1.0, 1.0))


def test_quadrature_order_is_checked_by_gauss_legendre():
    region = sp.Region((0.25,), (0.75,))
    for order in (0, 2.5):
        with pytest.raises(InputError, match=f"Gauss-Legendre order must be an integer >= 1, got {order}"):
            sp.SpatialQuadrature.for_region(region, order)


def test_eigenpairs_interval():
    modes = sp.eigenpairs(sp.SpatialDomain(1), 3)
    lams = [m.lam for m in modes]
    assert lams == pytest.approx([PI**2, 4 * PI**2, 9 * PI**2], rel=1e-15)
    assert [m.index for m in modes] == [(1,), (2,), (3,)]


def test_eigenpairs_square_ordering():
    modes = sp.eigenpairs(sp.SpatialDomain(2), 4)
    assert [m.index for m in modes] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [m.lam for m in modes] == pytest.approx(
        [2 * PI**2, 5 * PI**2, 5 * PI**2, 8 * PI**2], rel=1e-15
    )
    single = sp.eigenpairs(sp.SpatialDomain(2), 1)
    assert single[0].index == (1, 1)
    assert single[0].lam == pytest.approx(2 * PI**2, rel=1e-15)
    assert single[0].lam == pytest.approx(19.739, abs=5e-4)


def test_eigenpairs_square_is_globally_sorted():
    modes = sp.eigenpairs(sp.SpatialDomain(2), 60)
    lams = np.array([m.lam for m in modes])
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
    return [sp.EigenMode.from_index(ij) for ij in idx[:count]]


def test_eigenpairs_square_matches_full_sort_oracle():
    # the oracle returns the count smallest pairs by (key, index), so past
    # count 60 its result is the prefix of its result at 400
    reference = _square_modes_by_full_sort(400)
    for count in range(1, 401):
        want = _square_modes_by_full_sort(count) if count <= 60 else reference[:count]
        assert sp.eigenpairs(sp.SpatialDomain(2), count) == want, count


def test_eigenpairs_square_memory_is_bounded():
    # sorting all (count + 1)^2 index pairs as tuples peaked at 63 MB here
    tracemalloc.start()
    try:
        modes = sp.eigenpairs(sp.SpatialDomain(2), 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(modes) == 600
    assert peak < 4 << 20


def test_eigenvalue_groups_are_exact():
    modes = sp.eigenpairs(sp.SpatialDomain(2), 6)
    groups = sp.eigenvalue_groups(modes)
    # freq_sq keys: 2, 5, 5, 8, 10, 10 -> groups {0}, {1,2}, {3}, {4,5}
    assert groups == [[0], [1, 2], [3], [4, 5]]


def _value(mode, point, axis=None):
    """phi, or its partial along `axis`, of one mode at one point, by mode_table."""
    return float(sp.mode_table((mode,), tuple(point), axis)[0])


def test_eval_eigfun_values():
    sq = sp.EigenMode.from_index((1, 1))
    assert _value(sq, (0.5, 0.5)) == pytest.approx(2.0, rel=1e-15)
    assert _value(sq, (0.0, 0.7)) == 0.0
    assert _value(sq, (0.3, 1.0)) == pytest.approx(0.0, abs=1e-15)
    line = sp.EigenMode.from_index((2,))
    assert _value(line, (0.25,)) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_eval_eigfun_grad_values():
    sq = sp.EigenMode.from_index((1, 1))
    g = [_value(sq, (0.5, 0.5), d) for d in range(2)]
    assert np.allclose(g, [0.0, 0.0], atol=1e-12)
    line = sp.EigenMode.from_index((1,))
    assert _value(line, (0.0,), 0) == pytest.approx(math.sqrt(2.0) * PI, rel=1e-15)
    m12 = sp.EigenMode.from_index((1, 2))
    assert _value(m12, (0.5, 0.25), 1) == pytest.approx(0.0, abs=1e-12)


def test_eval_eigfun_grad_matches_finite_difference():
    m = sp.EigenMode.from_index((2, 3))
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
        modes = [sp.EigenMode.from_index(rng.integers(1, 31, n)) for _ in range(12)]
        modes.append(sp.EigenMode.from_index((30,) * n))
        pts = rng.random((40, n))
        for axis in (None, *range(n)):
            table = sp.mode_table(modes, tuple(pts.T), axis)
            assert table.shape == (40, len(modes))
            for p, row in zip(pts, table):
                for m, got in zip(modes, row):
                    want = _closed_form(m.index, p, axis)
                    scale = 2.0 ** (n / 2) * (1.0 if axis is None else PI * m.index[axis])
                    assert abs(got - want) <= 1e-13 * scale
    # shapes: points.shape + (M,), for scalars, vectors, meshgrids and broadcasts
    line = sp.eigenpairs(sp.SpatialDomain(1), 5)
    square = sp.eigenpairs(sp.SpatialDomain(2), 6)
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
    """int_region f g by a tensor rule of order 32 per axis, SpatialQuadrature.flat()."""
    pts, w = sp.SpatialQuadrature.for_region(region, 32).flat()
    return float(np.sum(w * f(*pts) * g(*pts)))


def _mode(index, axis=None):
    """phi, or its partial along `axis`, of one mode as a field, by mode_table."""
    mode = sp.EigenMode.from_index(index)
    return lambda *coords: sp.mode_table((mode,), coords, axis)[..., 0]


def test_region_inner_product_orthonormality_pair():
    dom = sp.SpatialDomain(1)
    full = sp.Region.full(dom)
    p1 = _mode((1,))
    p2 = _mode((2,))
    assert _region_pairing(p1, p1, full) == pytest.approx(1.0, abs=1e-12)
    assert _region_pairing(p1, p2, full) == pytest.approx(0.0, abs=1e-12)


def test_region_inner_product_gradient_pairing():
    # oracle: dense trapezoid of 2*pi*int_0^1 cos(pi y) sin(2 pi y) dy
    y = np.linspace(0.0, 1.0, 200001)
    oracle = 2.0 * PI * trapezoid(np.cos(PI * y) * np.sin(2 * PI * y), y)
    assert oracle == pytest.approx(8.0 / 3.0, abs=1e-9)
    dom = sp.SpatialDomain(1)
    full = sp.Region.full(dom)
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
    q1 = sp.EigenMode.from_index((1,))
    q2 = sp.EigenMode.from_index((2,))
    q3 = sp.EigenMode.from_index((3,))
    assert sp.grad_coupling(q1, 0, q2) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert sp.grad_coupling(q1, 0, q3) == 0.0
    assert sp.grad_coupling(q2, 0, q2) == 0.0


def test_grad_coupling_2d_factorization():
    a = sp.EigenMode.from_index((1, 2))
    b = sp.EigenMode.from_index((2, 2))
    c = sp.EigenMode.from_index((2, 3))
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
    for dom in (sp.SpatialDomain(1), sp.SpatialDomain(2)):
        modes = sp.eigenpairs(dom, 25)
        gram = _basis_gram_1d(modes) if dom.dimension == 1 else _basis_gram_2d(modes)
        assert np.max(np.abs(gram - np.eye(25))) < 1e-10


def test_gradient_eigen_relation():
    # int grad(phi_q) . grad(phi_k) = lam_q delta_qk
    for dom in (sp.SpatialDomain(1), sp.SpatialDomain(2)):
        modes = sp.eigenpairs(dom, 12)
        n = dom.dimension
        gram = np.zeros((12, 12))
        for d in range(n):
            gram += _basis_gram_1d(modes, d) if n == 1 else _basis_gram_2d(modes, d)
        want = np.diag([m.lam for m in modes])
        assert np.max(np.abs(gram - want)) < 1e-8


def test_grad_coupling_antisymmetry_closed_form():
    modes = sp.eigenpairs(sp.SpatialDomain(2), 10)
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
    modes1 = sp.eigenpairs(sp.SpatialDomain(1), 25)
    dv = sp.mode_table(modes1, (x,), 0).T
    pv = sp.mode_table(modes1, (x,)).T
    brute = dv @ (pv * w).T
    closed = np.array(
        [[sp.grad_coupling(q, 0, k) for k in modes1] for q in modes1]
    )
    assert np.max(np.abs(brute - closed)) < 1e-10
    # 2D: all pairs among the first 25 square modes, both axes
    modes2 = sp.eigenpairs(sp.SpatialDomain(2), 25)
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
    with pytest.raises(InputError):
        sp.EigenMode((0,), 1.0)
    with pytest.raises(InputError):
        sp.EigenMode((1,), -4.0)
    with pytest.raises(InputError):
        sp.eigenpairs(sp.SpatialDomain(1), 0)
