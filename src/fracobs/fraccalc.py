"""Fractional calculus on sampled time grids.

Mittag-Leffler evaluation E_alpha(z) for alpha in (0, 1] and z <= 0
through one entry point, mlf_values, by one rule per order: one fixed
Bromwich contour, its exponential split off from alpha = 0.99, and exp at
alpha = 1; the one row-block evaluator of decay tables
E_alpha(-lam t^alpha) and its table-free product with a weight matrix,
Caputo derivatives of sampled data, and a residual check for the
fractional integration-by-parts identity.

Every grid operator is a product-integration rule: the kernel factor is
integrated in closed form against the piecewise-linear interpolant of
the samples, so results are exact whenever the sampled function is
itself piecewise linear. alpha = 1 reduces to the classical operators
everywhere, with the convention 1/Gamma(0) = 0 for the vanishing
singular terms.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .errors import AccuracyError, DomainError, InputError

__all__ = [
    "TimeGrid",
    "mlf_values",
    "decay_blocks",
    "decay_apply",
    "caputo_values",
    "check_fractional_ibp",
    "graded_panel_edges",
    "merge_nodes",
    "gauss_legendre",
    "gauss_panels",
    "product_rule",
    "ml_product_matrix",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _check_horizon(horizon: float) -> float:
    horizon = float(horizon)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise DomainError(f"horizon must be finite and positive, got {horizon}")
    return horizon


# ---------------------------------------------------------------------------
# work memory
#
# The blocked kernels size their work arrays in float64 entries. An E_alpha
# work buffer (two node pairs x points matrices, for the contour and the
# split alike) stays within _SCRATCH_DOUBLES, 1 MB, which a core's L2 cache
# holds; both rules are pointwise, so the blocking moves no value.
# The L1 pass of caputo_values holds one buffer of about that size too.

_SCRATCH_DOUBLES = 1 << 17


# ---------------------------------------------------------------------------
# time grids


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sampling nodes on [0, T].

    nodes[0] is 0 and nodes[-1] is the horizon. The trapezoid weights
    integrate a sampled function over [0, T].
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InputError("a time grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise InputError("time grid nodes must be finite")
        if nodes[0] != 0.0:
            raise InputError("time grids start at t = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise InputError("time grid nodes must increase strictly")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon: float, samples: int) -> "TimeGrid":
        """Uniform grid with `samples` nodes (including t = 0) on [0, horizon]."""
        horizon = _check_horizon(horizon)
        if samples < 2:
            raise InputError("need at least two samples")
        return cls(np.linspace(0.0, horizon, int(samples)))

    @classmethod
    def graded(cls, horizon: float, samples: int) -> "TimeGrid":
        """`samples` (>= 4) rounded down to even nodes on [0, horizon].

        A geometric half, graded down to horizon * 1e-12, resolves the fast
        modal transients a uniform half cannot; the halves share 0 and T.
        """
        if samples < 4:
            raise InputError(f"a graded grid needs at least 4 samples, got {samples}")
        half = samples // 2
        edges = graded_panel_edges(horizon, half, 1e-12)
        return cls(merge_nodes(edges, np.linspace(0.0, horizon, half + 1), horizon))

    def weights_on(self, rows: slice) -> np.ndarray:
        """The trapezoid weights of the nodes in `rows`, a slice of step 1.

        Node i weighs half of each cell it bounds, (h[i-1] + h[i]) / 2, with
        no cell before node 0 or after the horizon. Only the cells next to
        the rows are formed, so a caller that walks the grid in row blocks
        holds no array of grid length, and the weights of a block are
        bitwise those of `weights_on(slice(None))` on the same rows.
        """
        n = self.nodes.size
        lo, hi, _ = rows.indices(n)
        # half-steps of cells lo - 1 .. hi - 1; the cells past either end are empty
        half = np.concatenate((
            [0.0] if lo == 0 else [],
            0.5 * np.diff(self.nodes[max(lo - 1, 0) : hi + 1]),
            [0.0] if hi == n else [],
        ))
        return half[:-1] + half[1:]

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return int(self.nodes.size)


def _powv(x: np.ndarray, p: float) -> np.ndarray:
    """x**p clipped to the support x > 0, with 0**0 taken as 0.

    The memory kernels below only ever see nonnegative gaps; the gap-zero
    value must vanish so that empty cells drop out of the sums even when
    the exponent is 0 (alpha = 1).
    """
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    r = np.power(x, p)
    return np.where(x > 0.0, r, 0.0)


# ---------------------------------------------------------------------------
# special functions
#
# Gamma values are scalars (math.gamma; every Gamma(1 - alpha) is taken
# with alpha < 1, away from its pole). Beyond them the package needs one
# regularized incomplete beta, below.

_BETA_TERMS = 100    # continued-fraction steps before a point counts as failed
_BETA_TOL = 1e-15    # a point leaves once a step changes its value by less


def _beta_fraction(a: float, y: np.ndarray) -> np.ndarray:
    """Continued fraction of I_y(a, 1 - a), for y <= (a + 1) / 3.

    I_y(a, b) = y^a (1-y)^b / (a B(a, b)) * 1 / (1 + d_1 / (1 + d_2 / ...)),
    evaluated by Lentz's method. With b = 1 - a every d_m is negative, and
    below the swap point d_1 is at most 1/3 in size and the others at most
    2/9, so Lentz's factors stay within [1/2, 2] and need no guard against
    zero. A point leaves the loop once a step changes it by less than
    _BETA_TOL; raises AccuracyError if one is left after _BETA_TERMS steps.
    """
    out = np.empty_like(y)
    act = np.arange(y.size)
    c = np.ones_like(y)
    d = 1.0 / (1.0 - y / (a + 1.0))
    h = d.copy()
    m = 0
    while y.size:
        m += 1
        if m > _BETA_TERMS:
            raise AccuracyError(
                f"incomplete beta I_y({a}, {1.0 - a}) did not converge in "
                f"{_BETA_TERMS} steps at y = {float(y[0])}"
            )
        for coef in (
            m * (1.0 - a - m) / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (1.0 + m) / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            dm = coef * y
            d = 1.0 / (1.0 + dm * d)
            c = 1.0 + dm / c
            step = d * c
            h *= step
        done = np.abs(step - 1.0) <= _BETA_TOL
        if done.any():
            out[act[done]] = h[done]
            keep = ~done
            act, y, c, d, h = act[keep], y[keep], c[keep], d[keep], h[keep]
    return out


def _beta_reflected(alpha: float, x) -> np.ndarray:
    """Regularized incomplete beta I_x(alpha, 1 - alpha) for x in [0, 1].

    B(alpha, 1 - alpha) = pi / sin(pi alpha). Below x = (alpha + 1) / 3
    the continued fraction converges fast; at and above it the symmetry
    I_x(a, b) = 1 - I_(1-x)(b, a) brings the point below it.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(divide="ignore"):
        front = np.exp(alpha * np.log(flat) + (1.0 - alpha) * np.log1p(-flat))
    front *= math.sin(math.pi * alpha) / math.pi
    out = np.empty_like(flat)
    swap = flat >= (alpha + 1.0) / 3.0
    low = ~swap
    out[low] = front[low] * _beta_fraction(alpha, flat[low]) / alpha
    out[swap] = 1.0 - front[swap] * _beta_fraction(
        1.0 - alpha, 1.0 - flat[swap]
    ) / (1.0 - alpha)
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Mittag-Leffler evaluation
#
# E_alpha(-x), x >= 0, is the Bromwich integral
#     E_alpha(-x) = (1 / 2 pi i) int e^s s^(alpha-1) / (s^alpha + x) ds,
# the inverse Laplace transform of s^(alpha-1) / (s^alpha + x) at t = 1. For
# alpha < 1 its integrand has no pole on the principal sheet, only the cut
# s <= 0, so every point takes one fixed contour around the cut (_contour).
# Close to alpha = 1, E_alpha(-x) falls like exp(-x) while the contour's
# terms fall like 1 / x, and they cancel, so orders from _SPLIT_FROM on take
# the split: the same nodes with the alpha = 1 integrand subtracted and its
# exact value exp(-x) added back, whose terms shrink with 1 - alpha. The
# contour's estimate passes 1e-11 only from 0.991 on, and the split costs
# twice the contour per point. Both take their transcendentals once per node
# and order, none per point. mlf_values is the one entry point: the order
# picks the rule, and each point takes it once.

_CONTOUR_NODES = 32      # midpoint nodes on the parabola, in conjugate pairs
_CONTOUR_ROUNDING = 8.0  # the estimate is this many eps of the terms' sum
_SPLIT_FROM = 0.99       # orders from this up to 1 take the split, the contour below
_X_FAR = 1e150           # x past which E_alpha(-x) is E_alpha(-X) X / x, X this
_VALUES_TOL = 1e-9       # mlf_values raises when an estimate exceeds this
_BATCH_BLOCK = 40000     # points per row block of a decay table
_EXP_ZERO = -746.0       # exp(z) is +0.0 below this: exp underflows past -745.1332


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Column sums of a 2-d array, added row after row.

    np.add.reduce adds the rows of a wide array in order, but sums a single
    column pairwise; that column is accumulated instead (overwriting it),
    so that every column's sum depends on that column alone.
    """
    if a.shape[1] > 1 or not len(a):
        return np.add.reduce(a, axis=0)
    np.add.accumulate(a, axis=0, out=a)
    return a[-1]


@functools.lru_cache(maxsize=16)
def _contour(alpha: float) -> tuple[np.ndarray, ...]:
    """The coefficients of the contour and the split at this alpha, a row per node pair.

    The parabola s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta),
    N = _CONTOUR_NODES, with the midpoint rule in theta on (-pi, pi), is
    the one Weideman & Trefethen (Math. Comp. 76 (2007) 1341) balance for
    t = 1; its discretization error falls like exp(-pi N / 3), and the
    contour does not depend on x. The integrand at conj(s) is the
    conjugate of that at s, so the nodes pair up and
        E_alpha(-x) = sum_j Re c_j / (d_j + x)
    over the pairs, theta_j > 0 increasing, with
        c_j = e^(s_j) s_j^(alpha-1) s'(theta_j) 2 / (i N),   d_j = s_j^alpha.
    Since Re c / (d + x) = (Re c (Re d + x) + Im c Im d) / ((Re d + x)^2
    + (Im d)^2), the first columns returned are Re d, (Im d)^2, Re c and
    Im c Im d.

    The split subtracts the same rule at alpha = 1, whose coefficients are
    c1_j = e^(s_j) s'(theta_j) 2 / (i N) and whose sum is exp(-x). A pair's
    two terms differ by exactly x a_j / ((d_j + x)(s_j + x)), with
    a_j = c1_j expm1((alpha - 1) log s_j), which does not cancel, so
        E_alpha(-x) = exp(-x) + x sum_j Re a_j / ((d_j + x)(s_j + x)).
    Re[a conj((d + x)(s + x))] is k2 x^2 + k1 x + k0, with k2 = Re a,
    k1 = Re[a conj(d + s)] and k0 = Re[a conj(d s)], so the last columns
    are Re s, (Im s)^2, k2, k1 and k0. Each column is read-only of shape
    (pairs, 1). Computed once per alpha.
    """
    n = _CONTOUR_NODES
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    s = n * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    ds = n * (-0.2388 * theta + 0.25j)
    c = np.exp(s) * s ** (alpha - 1.0) * ds * (2.0 / (1j * n))
    d = s**alpha
    a = np.exp(s) * ds * (2.0 / (1j * n)) * np.expm1((alpha - 1.0) * np.log(s))
    columns = np.stack((
        d.real, d.imag**2, c.real, c.imag * d.imag,
        s.real, s.imag**2, a.real, (a * np.conj(d + s)).real, (a * np.conj(d * s)).real,
    ))[:, :, None]
    columns.flags.writeable = False
    return tuple(columns)


def _contour_blocks(alpha: float, z: np.ndarray):
    """Yield (rows, values, relative estimates) of E_alpha(z), z <= 0, by alpha's rule.

    The contour rule of _contour below _SPLIT_FROM and the split from
    there on, in blocks of points whose two pairs x points work matrices
    are carved from one buffer of _SCRATCH_DOUBLES, allocated once per
    call; a block's arrays are valid until the next is asked for.
    Every point takes the same terms, formed in real arithmetic and added
    in node order by _ordered_sum, so its value depends on its own point
    alone. The estimate is _CONTOUR_ROUNDING eps times the sum of the
    terms' magnitudes (exp(-x) among the split's) over the value's. The
    contour's is small where nothing cancels and large as alpha nears 1 and
    -z grows; the split's terms shrink with 1 - alpha, so its estimate stays
    small there. Past -z = _X_FAR = X, where (Re d - z)^2 would soon
    overflow, and the split's numerator with it, the value is
    E_alpha(-X) X / -z with X's estimate: the expansion of E_alpha(-x) in
    powers of 1 / x makes that exact within 1 / X relative. z = 0 gives
    exactly 1.
    """
    dr, di2, cr, cidi, sr, si2, k2, k1, k0 = _contour(alpha)
    split = alpha >= _SPLIT_FROM
    step = _SCRATCH_DOUBLES // (2 * dr.size)
    work = np.empty((2, dr.size, min(step, z.size)))
    for lo in range(0, z.size, step):
        zs = z[lo : lo + step]
        beyond = zs < -_X_FAR
        x = -np.maximum(zs, -_X_FAR)
        terms, size = work[:, :, : zs.size]
        with np.errstate(divide="ignore", invalid="ignore"):
            if split:
                np.multiply(k2, x, out=terms)
                terms += k1
                terms *= x
                terms += k0
                for re, im2 in ((sr, si2), (dr, di2)):
                    np.add(re, x, out=size)
                    np.multiply(size, size, out=size)
                    size += im2
                    terms /= size
                terms *= x
            else:
                np.add(dr, x, out=terms)
                np.multiply(terms, terms, out=size)
                size += di2
                terms *= cr
                terms += cidi
                terms /= size
            np.abs(terms, out=size)
            rel = _ordered_sum(size)
            vals = _ordered_sum(terms)
            if split:
                head = np.exp(-x)
                rel += head
                vals += head
            rel /= np.abs(vals)
        rel *= _CONTOUR_ROUNDING * np.finfo(float).eps
        vals[zs == 0.0] = 1.0
        vals[beyond] *= _X_FAR / -zs[beyond]
        yield slice(lo, lo + step), vals, rel


def mlf_values(alpha: float, z) -> np.ndarray:
    """E_alpha(z) over an array of arguments z <= 0, by the rule of this order.

    The package's one evaluator of E_alpha. Raises DomainError unless alpha
    lies in (0, 1] and every z is finite and <= 0, the arguments
    -lam t^alpha the package evaluates; a max and a min reduction decide
    it with no temporary array, and nan fails both comparisons.
    The order alone picks the rule. At alpha = 1 the value is exp(z), the
    package's one exp pass. exp takes about 15 times as long on an argument
    that underflows, so when some z lies below _EXP_ZERO, those points take
    no exp and are +0.0. Below alpha = 1 every point takes _contour_blocks
    once, in argument order, straight into the result, so work memory is
    one buffer of _SCRATCH_DOUBLES whatever the call's size, and nothing
    is kept per point. Each value depends on its own argument alone, which
    decay_blocks() relies on. Raises AccuracyError at the first point, in
    argument order, whose estimate exceeds _VALUES_TOL; the contour's stay
    below 1e-11 and the split's below 1.51e-13. Returns the values in z's
    shape.
    """
    alpha = _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    low = z.min(initial=0.0)
    if not (z.max(initial=0.0) <= 0.0 and low > -math.inf):
        raise DomainError("E_alpha arguments must be finite and <= 0")
    flat = z.ravel()
    out = np.empty_like(flat)
    if alpha == 1.0:
        if low < _EXP_ZERO:
            out.fill(0.0)
            np.exp(flat, out=out, where=flat >= _EXP_ZERO)
        else:
            np.exp(flat, out=out)
        return out.reshape(z.shape)
    for rows, vals, rel in _contour_blocks(alpha, flat):
        out[rows] = vals
        over = np.flatnonzero(~(rel <= _VALUES_TOL))
        if over.size:
            j = over[0]
            raise AccuracyError(
                f"E_alpha({alpha}, {flat[rows.start + j]}) estimate {rel[j]:.2e} "
                f"exceeds tolerance {_VALUES_TOL:.2e}"
            )
    return out.reshape(z.shape)


def decay_blocks(alpha: float, lams: np.ndarray, times: np.ndarray, rows: int | None = None):
    """Yield (row slice, E_alpha(-lam t^alpha) on those rows) over times x lams.

    The one evaluator of decay tables, which keeps none of them between
    calls; lams and times are 1-d float arrays.
    A block holds `rows` rows (the last may hold fewer), or about _BATCH_BLOCK
    points when `rows` is None. Each block raises its own times to alpha,
    so no array of the times' length or of the table's size is ever
    built; each value depends on its own argument alone, so the blocking
    leaves every entry bitwise unchanged. A caller that sums over the rows
    block by block passes a fixed `rows`, so its partition of the rows
    does not depend on the eigenvalues it asks for.
    """
    neg = -lams
    if rows is None:
        rows = max(1, _BATCH_BLOCK // max(neg.size, 1))
    for lo in range(0, times.size, rows):
        powers = times[lo : lo + rows] ** alpha
        yield slice(lo, lo + rows), mlf_values(alpha, np.outer(powers, neg))


def decay_apply(alpha: float, lams, times, weights) -> np.ndarray:
    """E_alpha(-lam t^alpha) over times x lams, times weights, without the table.

    Each row block of decay_blocks is multiplied into the result and
    dropped, so work memory is one block plus the result.
    weights has one row per eigenvalue; the result has one row per time.
    Eigenvalues whose weight row is all zero are dropped first, so only
    the columns that carry weight are evaluated.
    """
    alpha = _check_alpha(alpha)
    lams = np.asarray(lams, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[0] != lams.size:
        raise InputError(
            f"weights of shape {weights.shape} do not match {lams.size} eigenvalues"
        )
    live = np.flatnonzero(weights.reshape(lams.size, -1).any(axis=1))
    lams, weights = lams[live], weights[live]
    out = np.empty((times.size,) + weights.shape[1:])
    for rows, block in decay_blocks(alpha, lams, times):
        out[rows] = block @ weights
    return out


# ---------------------------------------------------------------------------
# Caputo derivative of sampled data
#
# The L1 memory term of a time t is a sum over the cells before t of
# du_cell p int_cell (t - s)^(-alpha) ds, p = 1 - alpha. Its far cells go
# through a sum of exponentials, (t - s)^(-alpha) ~ sum_j w_j e^(-sigma_j (t - s))
# (Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21 (2017) 650; Baffet
# & Hesthaven, SIAM J. Numer. Anal. 55 (2017) 496), so the far cells of every
# time share one history value per exponential, advanced a step of
# _CAPUTO_CELLS cells at a time.

_CAPUTO_CELLS = 32   # cells per history step
_SOE_JACOBI = 12     # Gauss-Jacobi nodes of the sum on [0, 1 / T]
_SOE_PANEL = 3.0     # width of its Gauss-Legendre panels in log sigma
_SOE_ORDER = 20      # nodes per panel
_SOE_CUT = 40.0      # sigma x past which a term is dropped: e^(-40) < 5e-18


def _jacobi_rule(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of int_0^1 f(u) u^b du, b > -1, by Golub-Welsch.

    The Jacobi matrix of the weight (1 + x)^b on [-1, 1], mapped to
    u = (1 + x) / 2; the weights carry the total mass 1 / (b + 1).
    """
    k = np.arange(1, n)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt(s * s - 1.0))
    x, v = eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), v[0] ** 2 / (b + 1.0)


def _exponential_sum(alpha: float, delta: float, horizon: float):
    """Increasing exponents sigma and weights w with x^(-alpha) ~ sum w e^(-sigma x).

    A quadrature of x^(-alpha) = (1 / Gamma(alpha)) int_0^inf e^(-sigma x)
    sigma^(alpha-1) dsigma, alpha in (0, 1): Gauss-Jacobi for the weight
    sigma^(alpha-1) on [0, 1 / horizon], where sigma x <= 1, then
    Gauss-Legendre panels in log sigma up to log(_SOE_CUT / delta), past
    which e^(-sigma x) < e^(-_SOE_CUT). The relative error is within 1e-14
    on [delta, horizon], 0 < delta <= horizon; about 6 nodes per unit of
    log(horizon / delta).
    """
    u, wu = _jacobi_rule(_SOE_JACOBI, alpha - 1.0)
    lo, hi = -math.log(horizon), math.log(_SOE_CUT / delta)
    v, wv = gauss_panels(np.linspace(lo, hi, math.ceil((hi - lo) / _SOE_PANEL) + 1), _SOE_ORDER)
    sigma = np.concatenate((u / horizon, np.exp(v)))
    weights = np.concatenate((wu * horizon**-alpha, wv * np.exp(alpha * v)))
    return sigma, weights / math.gamma(alpha)


def caputo_values(
    grid: TimeGrid, samples, alpha: float, times, first_cell_power: bool = False
) -> np.ndarray:
    """Caputo derivative of the samples on the grid at many times.

    `samples` holds one value per node, or one row of channel values per
    node (shape nodes x channels); the result has shape times.shape + the
    channel shape, every channel from one L1 pass.

    L1-type product integration: the kernel (t-s)^(-alpha) is integrated
    exactly against the piecewise-linear interpolant, so the rule is
    exact for piecewise-linear u. At alpha = 1 it returns the interpolant
    slope at t (left cell slope when t is a node).

    With first_cell_power=True the first cell is modeled as
    u(0) + c*t^alpha (c fixed by the first sample step) instead of a
    chord; its memory contribution is exact through the regularized
    incomplete beta function. That is the right model for measured
    outputs of the evolution, which start with a t^alpha layer.

    The cells are taken in steps of _CAPUTO_CELLS. A time's near cells,
    from the start of the step before the one that holds it, are summed
    exactly: a cell [a, b] with b < t contributes (t-a)^p - (t-b)^p,
    p = 1 - alpha, formed as (t-b)^p expm1(p log1p((b-a)/(t-b))), which
    does not cancel however small the cell is against t-b; the cell
    holding t contributes (t-a)^p. A time on a node belongs to the cell
    that node ends, so alpha = 1 gives the left cell slope. The far cells
    before the near ones are at least delta, a whole step, away from t:
    for alpha < 1 they go through _exponential_sum on [delta, T], whose
    relative error of 1e-14 bounds their part's error by 1e-14 times the
    sum of its terms' magnitudes. One history value per exponential holds
    the far cells of every time in a step, and is advanced a step at a
    time, so the work is O((times + cells) x exponentials + times x cells
    per step), not O(times x cells). A time drops the exponentials that
    have decayed past e^(-_SOE_CUT) over its gap. Work memory is the
    history and one buffer of about _SCRATCH_DOUBLES, allocated once per
    call, that holds a block of times against their near cells and their
    exponentials.
    """
    alpha = _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    tg = grid.nodes
    if samples.ndim not in (1, 2) or samples.shape[0] != tg.size:
        raise InputError("sample count does not match the grid")
    times = np.asarray(times, dtype=float)
    if not np.all((times > 0.0) & (times <= tg[-1] * (1.0 + 1e-12))):
        raise DomainError("evaluation times must lie in (0, T]")
    p = 1.0 - alpha
    vals = samples.reshape(tg.size, -1)  # one column per channel

    if first_cell_power and alpha < 1.0:
        t1 = tg[1]
        c = (vals[1] - vals[0]) / t1**alpha
        start = c * math.gamma(1.0 + alpha) * _beta_reflected(
            alpha, np.minimum(t1 / times, 1.0)
        )[..., None]
        edges, vals = tg[1:], vals[1:]
    else:
        start = 0.0
        edges = tg
    a, b = edges[:-1], edges[1:]
    h = np.diff(edges)
    du = np.diff(vals, axis=0) / h[:, None]

    flat = times.ravel()
    order = np.argsort(flat, kind="stable")
    ts = flat[order]
    done = np.searchsorted(b, ts, side="left")  # cells with b < t
    step = _CAPUTO_CELLS
    near = np.maximum(done // step - 1, 0) * step  # a time's first near cell
    sigma = np.empty(0)
    far = near > 0
    if alpha < 1.0 and far.any():
        delta = np.min(ts[far] - edges[near[far]])
        sigma, weights = _exponential_sum(alpha, delta, ts[-1] - edges[0])
        # the history holds p w_j int_cell e^(-sigma_j (edge - s)) ds du_cell
        # summed over the far cells, about the edge where they end
        coef = -p * weights / sigma
        grow = np.empty((2, sigma.size, step))
    history = np.zeros((sigma.size, du.shape[1]))
    held = 0  # cells in the history
    rows = max(1, _SCRATCH_DOUBLES // (4 * step + sigma.size))
    work = np.empty(min(rows, ts.size) * (4 * step + sigma.size))
    memory = np.empty((ts.size, du.shape[1]))
    groups = np.flatnonzero(np.diff(near, prepend=-1))  # the first time of each
    for g_lo, g_hi in zip(groups, np.r_[groups[1:], ts.size]):
        first = int(near[g_lo])
        while sigma.size and held < first:
            cells, end = slice(held, held + step), edges[held + step]
            lost, decay = grow
            np.multiply.outer(sigma, -h[cells], out=lost)
            np.expm1(lost, out=lost)
            np.multiply.outer(sigma, b[cells] - end, out=decay)
            np.exp(decay, out=decay)
            lost *= decay
            lost *= coef[:, None]
            history *= np.exp(sigma * (edges[held] - end))[:, None]
            history += lost @ du[cells]
            held += step
        for lo in range(g_lo, g_hi, rows):
            tt = ts[lo : min(lo + rows, g_hi)]
            k = done[lo : lo + tt.size]
            inner, cols = k[0] - first, k[-1]  # cells before k[0] end before every time
            size = tt.size * (cols - first)
            gap = work[:size].reshape(tt.size, cols - first)
            w = work[size : 2 * size].reshape(gap.shape)
            np.subtract(tt[:, None], b[None, first:cols], out=gap)
            tail = gap[:, inner:]
            whole = tail > 0.0
            tail[~whole] = 1.0
            np.divide(h[first:cols], gap, out=w)
            np.log1p(w, out=w)
            w *= p
            np.expm1(w, out=w)
            w *= np.power(gap, p, out=gap)
            w[:, inner:][~whole] = 0.0
            row = w @ du[first:cols]
            inside = k < a.size  # false only for times past the last node
            j = k[inside]
            row[inside] += _powv(tt[inside] - a[j], p)[:, None] * du[j]
            live = np.searchsorted(sigma, _SOE_CUT / (tt[0] - edges[first])) if first else 0
            if live:
                decay = work[2 * size : 2 * size + tt.size * live].reshape(tt.size, live)
                np.multiply.outer(edges[first] - tt, sigma[:live], out=decay)
                np.exp(decay, out=decay)
                row += decay @ history[:live]
            memory[lo : lo + tt.size] = row
    out = np.empty_like(memory)
    out[order] = memory / math.gamma(2.0 - alpha)
    out = out.reshape(times.shape + du.shape[1:]) + start
    return out.reshape(times.shape + samples.shape[1:])


# ---------------------------------------------------------------------------
# integration-by-parts residual


def _ahead(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """sum_m x[i + m] kernel[m] over m >= 0, for every i: a correlation."""
    return np.correlate(x, kernel, "full")[kernel.size - 1 :]


def check_fractional_ibp(u, v, alpha: float, horizon: float) -> float:
    """Residual |LHS - RHS| of the fractional integration-by-parts identity.

    LHS = int_0^T (Caputo^alpha u) v dt, RHS = int_0^T u (RL-right^alpha v) dt
    + u(T) lim_{t->T} I^(1-alpha) v(t) - u(0) I^(1-alpha) v(0). The samples
    u, v live on the uniform grid over [0, horizon]; both sides are
    evaluated exactly for the piecewise-linear interpolants, so the
    residual decays at the interpolation rate for smooth data and is at
    roundoff when the interpolants satisfy the identity exactly.
    """
    alpha = _check_alpha(alpha)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size < 3:
        raise InputError("u and v must be equal-length 1-d sample arrays (>= 3)")
    horizon = _check_horizon(horizon)
    n = u.size
    tg = np.linspace(0.0, horizon, n)
    a = tg[:-1]
    b = tg[1:]
    h = tg[1] - tg[0]
    du = np.diff(u) / h
    dv = np.diff(v) / h
    p = 1.0 - alpha

    # Both sums below pair nodes i with cells j. A cell that ends at or
    # before the node contributes exactly zero, and on the uniform grid a
    # later cell's weight depends on its offset m = j - i alone, so each
    # sum is a correlation with a kernel over the offsets: O(n) memory.
    e = np.arange(n) * h  # the offsets m*h of the cell starts

    # left side: (1/G(2-a)) sum_j du_j int v^(t) [(t-a_j)_+^p - (t-b_j)_+^p] dt,
    # from the exact cell integrals of (t-s)_+^p and (t-s)_+^p (t-a) at
    # s = node i (j0, j1) less those at node i + 1 (one offset later)
    j0 = np.diff(_powv(e, p + 1.0)) / (p + 1.0)
    j1 = np.diff(_powv(e, p + 2.0)) / (p + 2.0) - e[:-1] * j0
    d0, d1 = np.diff(j0, prepend=0.0), np.diff(j1, prepend=0.0)
    lhs = du @ (_ahead(v[:-1], d0) + _ahead(dv, d1)) / math.gamma(2.0 - alpha)

    # I_{T-}^{1-alpha}[v'] at the nodes, exact for the piecewise-constant v'
    rdi = np.zeros(n)
    rdi[:-1] = _ahead(dv, np.diff(_powv(e, p))) / math.gamma(2.0 - alpha)
    if alpha == 1.0:
        rdi[-1] = dv[-1]  # empty tail sum loses the left-limit slope

    # int u * (-rdi) with both factors piecewise linear: exact cell rule
    q0 = rdi[:-1]
    q1 = rdi[1:]
    main = -np.sum(
        h / 6.0 * (2 * u[:-1] * q0 + u[:-1] * q1 + u[1:] * q0 + 2 * u[1:] * q1)
    )

    # singular part v(T)/G(1-a) int u(t) (T-t)^(-a) dt, exact per cell
    if alpha < 1.0:
        ta = _powv(horizon - a, 1.0 - alpha)
        tb = _powv(horizon - b, 1.0 - alpha)
        i0 = (ta - tb) / (1.0 - alpha)
        i1 = (horizon - a) * i0 - (
            _powv(horizon - a, 2.0 - alpha) - _powv(horizon - b, 2.0 - alpha)
        ) / (2.0 - alpha)
        sing = v[-1] / math.gamma(1.0 - alpha) * np.sum(u[:-1] * i0 + du * i1)
    else:
        sing = 0.0

    # boundary terms
    if alpha == 1.0:
        lim_t = v[-1]
        iv0 = v[0]
    else:
        lim_t = 0.0  # (T-t)^(1-alpha) -> 0 kills the limit for alpha < 1
        q = -alpha
        i0 = (_powv(b, q + 1.0) - _powv(a, q + 1.0)) / (q + 1.0)
        i1 = (_powv(b, q + 2.0) - _powv(a, q + 2.0)) / (q + 2.0) - a * i0
        iv0 = np.sum(v[:-1] * i0 + dv * i1) / math.gamma(1.0 - alpha)
    boundary = u[-1] * lim_t - u[0] * iv0

    return float(abs(lhs - (main + sing + boundary)))


# ---------------------------------------------------------------------------
# graded Gauss panels and E-product integrals (shared time-quadrature kit)


def graded_panel_edges(horizon: float, panels: int, floor: float):
    """Panel edges geometrically graded toward t = 0.

    The memory kernels and E_alpha(-lambda t^alpha) all have their
    roughness at the origin; geometric grading down to horizon*floor
    resolves it with a fixed panel budget.
    """
    horizon = _check_horizon(horizon)
    if panels < 2:
        raise InputError("need at least two panels")
    expo = 1.0 - np.arange(panels) / (panels - 1.0)
    return np.concatenate(([0.0], horizon * floor**expo))


def merge_nodes(first, second, horizon: float) -> np.ndarray:
    """The sorted union of two node sets on [0, horizon].

    A node in both sets leaves a gap of at most 1e-15 * horizon, which is
    dropped, so a shared node appears once.
    """
    nodes = np.sort(np.concatenate((first, second)))
    keep = np.concatenate(([True], np.diff(nodes) > 1e-15 * horizon))
    return nodes[keep]


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], cached per order.

    Nodes ascend, the negative half mirrors the positive half exactly, and
    an odd order has the node 0.0. The roots x = cos(theta) come from the
    cosine series P_n(cos t) = sum_k a_k a_(n-k) cos((n - 2k) t), with
    a_k = binom(2k, k) / 4^k (Szego, Orthogonal Polynomials, 4.9), whose
    coefficients are rounded once from exact integers. Three Newton steps
    in theta (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652) start
    from theta_i = phi_i + cot(phi_i) / (8 n^2), phi_i = pi (4i - 1) /
    (4n + 2); each takes one cos and one sin table over the positive half.
    The weights are 2 / (dP_n/dtheta)^2. Against a 40-digit oracle the
    nodes are within 3e-16 and the weights within 1e-13 relative up to
    order 128 (tests/test_fraccalc.py). Raises InputError unless the order
    is an integer >= 1.
    """
    if not isinstance(order, numbers.Integral) or order < 1:
        raise InputError(f"Gauss-Legendre order must be an integer >= 1, got {order!r}")
    n = int(order)
    half = n // 2
    # the series folded onto frequencies n, n - 2, ... >= 0
    freq = np.arange(n, -1, -2, dtype=float)
    coef = np.array([
        (2 if 2 * k < n else 1) * math.comb(2 * k, k) * math.comb(2 * (n - k), n - k) / 4**n
        for k in range(half + 1)
    ])
    slope = freq * coef
    phi = np.pi * np.arange(3, 4 * (n - half), 4) / (4 * n + 2)
    theta = phi + 1.0 / (8.0 * n * n * np.tan(phi))
    for _ in range(3):
        arg = np.multiply.outer(theta, freq)
        theta += (np.cos(arg) @ coef) / (np.sin(arg) @ slope)
    w = 2.0 / (np.sin(np.multiply.outer(theta, freq)) @ slope) ** 2
    x = np.cos(theta[:half])
    x = np.concatenate((-x, [0.0] * (n % 2), x[::-1]))
    w = np.concatenate((w, w[:half][::-1]))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panels(edges, order: int):
    """Composite Gauss-Legendre nodes and weights over the given edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# the Gram's time rule: PRODUCT_PANELS panels graded down to
# horizon * PRODUCT_FLOOR, each with a Gauss rule of order PRODUCT_ORDER
PRODUCT_PANELS = 96
PRODUCT_ORDER = 16
PRODUCT_FLOOR = 1e-18


def product_rule(horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gram's Gauss nodes and weights on [0, horizon], graded toward 0."""
    edges = graded_panel_edges(horizon, PRODUCT_PANELS, PRODUCT_FLOOR)
    return gauss_panels(edges, PRODUCT_ORDER)


def ml_product_matrix(lams, alpha: float, horizon: float):
    """Matrix of int_0^T E_alpha(-l_i t^a) E_alpha(-l_j t^a) dt.

    Evaluated by product_rule: its (modes x nodes) decay table is filled
    from the row blocks of decay_blocks and dropped once the matrix is
    formed. Raises InputError when an eigenvalue is not positive.
    """
    alpha = _check_alpha(alpha)
    lams = np.asarray(lams, dtype=float).ravel()
    if not np.all(lams > 0.0):
        raise InputError("eigenvalues must be positive")
    t, w = product_rule(horizon)
    e = np.empty((lams.size, t.size))
    for rows, block in decay_blocks(alpha, lams, t):
        e[:, rows] = block.T
    return (e * w) @ e.T
