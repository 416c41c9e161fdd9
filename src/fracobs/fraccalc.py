"""Fractional calculus on sampled time grids.

Mittag-Leffler evaluation E_alpha(z) for alpha in (0, 1] and z <= 0, the
one evaluator of decay tables E_alpha(-lam t^alpha) with its memo and its
table-free product with a weight matrix, Caputo derivatives of sampled
data, and a residual check for the fractional integration-by-parts
identity.

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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError, InputError

__all__ = [
    "TimeGrid",
    "MlfEvalReport",
    "mlf",
    "mlf_values",
    "decay_table",
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


# ---------------------------------------------------------------------------
# work memory
#
# The blocked kernels size their work arrays in float64 entries. An E_alpha
# work matrix (the series' Horner rows, the spectral rule's nodes x points)
# stays within _SCRATCH_DOUBLES, 1 MB, which a core's L2 cache holds; both
# rules are pointwise, so the blocking moves no value. The L1 pass of
# caputo_values holds one buffer of at most _CAPUTO_DOUBLES, 8 MB.

_SCRATCH_DOUBLES = 1 << 17
_CAPUTO_DOUBLES = 1 << 20


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
        if nodes[0] != 0.0:
            raise InputError("time grids start at t = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise InputError("time grid nodes must increase strictly")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon: float, samples: int) -> "TimeGrid":
        """Uniform grid with `samples` nodes (including t = 0) on [0, horizon]."""
        if horizon <= 0.0:
            raise DomainError("horizon must be positive")
        if samples < 2:
            raise InputError("need at least two samples")
        return cls(np.linspace(0.0, float(horizon), int(samples)))

    @classmethod
    def graded(cls, horizon: float, samples: int) -> "TimeGrid":
        """`samples` (>= 4) rounded down to even nodes on [0, horizon].

        A geometric half, graded down to horizon * 1e-12, resolves the fast
        modal transients a uniform half cannot; the halves share 0 and T.
        """
        half = samples // 2
        edges = graded_panel_edges(horizon, half, 1e-12)
        return cls(merge_nodes(edges, np.linspace(0.0, horizon, half + 1), horizon))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        h = np.diff(self.nodes)
        weights = np.zeros_like(self.nodes)
        weights[:-1] += 0.5 * h
        weights[1:] += 0.5 * h
        return weights

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
# with alpha < 1, away from its pole). Beyond them the package needs log
# Gamma over arrays and one regularized incomplete beta, both below.

_BETA_TERMS = 100    # continued-fraction steps before a point counts as failed
_BETA_TOL = 1e-15    # a point leaves once a step changes its value by less


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log|Gamma(x)| over a 1-d array, one math.lgamma call per entry."""
    return np.array([math.lgamma(v) for v in x.tolist()])


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
# Each value of E_alpha(-x), x >= 0, comes from exactly one regime:
#   asymptotic  x >= _ASYM_SWITCH, x at or past the floor below which the
#               route cannot succeed (_asym_floor), and the expansion meets
#               _ASYM_ACCEPT before its terms start to grow (the loop drops
#               a point as soon as they do); each term's envelope is the
#               last one times a per-term ratio over x;
#   series      the float power series, where it loses at most
#               _SERIES_DIGITS decimal digits to cancellation; its even and
#               odd terms are two polynomials in x^2 (more, in a higher power
#               of x, below alpha = 0.014), summed by Horner's rule;
#   spectral    the cancellation gap between them: a trapezoid rule on the
#               positive spectral integral, where nothing cancels.
# Transcendentals are taken once per coefficient or node and once per point,
# never once per term of a point.

_ASYM_SWITCH = 2.0     # x below which the asymptotic route is never tried
_ASYM_ACCEPT = 5e-13   # relative truncation estimate the route must beat
_ASYM_TERMS = 180
_SERIES_DIGITS = 3.6   # worst-case cancellation the float series tolerates
_SERIES_SPAN = 56.0    # alpha*k past which the series' terms are negligible
_GAMMA_MIN = 0.8856    # Gamma on [1, inf) stays above this
_GAP_STEPS = 10.0      # trapezoid steps per half-width of the analytic strip
_GAP_TAIL = 1e-17      # relative mass the truncated u-range may leave out
_GAP_CUT = 60.0        # nodes end where x^(1/alpha) e^u exceeds this
_GAP_NODES = 1 << 22   # node cap; reached only for alpha below about 6e-5
_GAP_CHUNK = 1 << 16   # nodes built at a time
_LOG_S_MAX = 700.0     # log of the largest x^(1/alpha) the rule takes
_VALUES_TOL = 1e-9     # mlf_values raises when an estimate exceeds this
_BATCH_BLOCK = 40000   # points per mlf_values chunk
_REGIMES = ("series", "asymptotic", "spectral")


@dataclass(frozen=True)
class MlfEvalReport:
    """Outcome of one E_alpha evaluation.

    regime is one of three routes:
      "series"      the power series in float arithmetic, used where it
                    loses at most _SERIES_DIGITS decimal digits to
                    cancellation; its even and odd terms are summed by
                    Horner's rule in z^2; terms_used counts its terms;
      "asymptotic"  the large-argument expansion, tried from
                    |z| = max(2, _asym_floor(alpha)) on and summed term
                    by term, each envelope carried from the last by
                    recurrence, until the envelope of the first omitted
                    term is within 5e-13 of the sum; terms_used counts its
                    terms;
      "spectral"    the cancellation gap between the two: a trapezoid rule
                    on the positive spectral integral
                    E_alpha(-x) = int_0^inf exp(-r x^(1/alpha)) K_alpha(r) dr,
                    in a variable that flattens the kernel's peak at r = 1
                    (see _spectral_neg); terms_used counts its nodes.
    est_error is a relative truncation/rounding estimate, not a guaranteed
    bound. For "spectral" it is the relative gap between the rules of step
    h and 2h (every other node), which is the 2h rule's error and so
    overstates that of the h rule returned.
    """

    value: float
    regime: str
    terms_used: int
    est_error: float


def _asym_neg(alpha: float, x: np.ndarray):
    """Asymptotic series of E_alpha(-x) for x >= 2, summed term by term.

    E_alpha(-x) ~ sum_{k>=1} (-1)^{k+1} x^{-k} / Gamma(1 - k*alpha); the
    reciprocal Gamma is evaluated through the reflection formula
    sin(pi k alpha) Gamma(k alpha) / pi, which has no poles. So term k is
    (-1)^(k+1) sin(pi k alpha) env_k, with the envelope
    env_k = Gamma(k alpha) x^-k / pi carried by recurrence: env_(k+1) is
    env_k times the per-term ratio Gamma((k+1) alpha) / Gamma(k alpha),
    over x. The estimate after k terms is env_(k+1), the envelope of the
    first omitted term: near alpha = 1 the factor sin(pi k alpha) makes a
    run of terms small without shrinking the exponentially small
    remainder, so the terms themselves would understate it. A point is
    accepted, and leaves the loop, once the estimate is within
    _ASYM_ACCEPT of its partial sum. The series diverges and the envelope
    is log-convex in k, so a point whose envelope grows before that is
    rejected; the points that stay have non-increasing envelopes, so the
    recurrence cannot overflow. Returns (values, relative estimates, terms
    used, accepted).
    """
    k = np.arange(1.0, _ASYM_TERMS + 2.0)
    ka = k * alpha
    coef = np.sin(np.pi * ka) * (-1.0) ** (k + 1.0)
    lenv = _lgamma(ka) - math.log(math.pi)
    dl = np.diff(lenv)  # log(env_(k+1) x / env_k)
    ratio = np.exp(dl)
    vals = np.zeros_like(x)
    rel = np.full_like(x, np.inf)
    used = np.zeros(x.shape, dtype=int)
    accepted = np.zeros(x.shape, dtype=bool)
    act = np.arange(x.size)
    lx = np.log(x)
    env = np.exp(lenv[0] - lx)
    total = np.zeros_like(x)
    for j in range(_ASYM_TERMS):
        total += coef[j] * env
        env *= ratio[j]
        env /= x
        ok = env <= _ASYM_ACCEPT * np.abs(total)
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


def _log_lower(alpha: float, x: np.ndarray) -> np.ndarray:
    """Lower bound on log E_alpha(-x), x >= 0.

    The larger of Simon's bound 1 / (1 + Gamma(1 - alpha) x) and the tangent
    bound exp(-x / Gamma(1 + alpha)): E_alpha(-x) is completely monotone,
    hence log-convex, so its logarithm lies above its tangent at x = 0.
    Near alpha = 1, where Gamma(1 - alpha) grows like 1 / (1 - alpha), the
    tangent bound is the tight one.
    """
    return -np.minimum(
        np.log1p(math.gamma(1.0 - alpha) * x), x / math.gamma(1.0 + alpha)
    )


def _series_digits(alpha: float, x: np.ndarray) -> np.ndarray:
    """Decimal digits the power series of E_alpha(-x) loses to cancellation.

    Its terms add up in magnitude to E_alpha(x), which is at most
    exp(x^(1/alpha)) / alpha and, for x < 1, at most 1 / (_GAMMA_MIN (1 - x));
    _log_lower bounds E_alpha(-x) from below. So rounding costs at most the
    log10 of their ratio.
    """
    x = np.asarray(x, dtype=float)
    # at very small alpha x^(1/alpha) overflows to inf: no series then
    with np.errstate(over="ignore"):
        s = x ** (1.0 / alpha)
    labs = np.minimum(
        s - math.log(alpha),
        -np.log(_GAMMA_MIN * np.maximum(1.0 - x, 1e-300)),
    )
    return (labs - _log_lower(alpha, x)) / math.log(10.0)


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


def _series_neg(alpha: float, x: np.ndarray):
    """Float power series sum_k (-x)^k / Gamma(1 + k alpha), by Horner's rule.

    Used only where _series_digits stays small, so x^(1/alpha) <= 8.3 and
    the terms past alpha*k = _SERIES_SPAN are below 1e-22. With
    c_k = 1 / Gamma(1 + k alpha), taken once per call, the even and the
    odd terms are two polynomials in y = x^2 with positive coefficients,
        even = sum_m c_2m y^m,    odd = x sum_m c_(2m+1) y^m,
    evaluated side by side by Horner's rule; the value is even - odd.
    Below alpha = 0.014 (from 4096 terms on) the terms are split into more
    interleaved polynomials, `stride` of them in x^stride, so that the
    Horner steps stay below about 16 sqrt(K) however many terms K there
    are; term class r is scaled by x^r and added into the even or the odd
    sum. Every point takes the same terms and the rule is pointwise, so a
    value does not depend on the other points, and the work is 2 * stride
    rows of the batch's size, within _SCRATCH_DOUBLES. The estimate is the
    rounding of the sum, eps * (even + odd) / |value|. Returns (values,
    relative estimates, terms used).
    """
    k = np.arange(0.0, math.ceil(_SERIES_SPAN / alpha) + 1.0)
    stride = 2 * max(1, math.isqrt(k.size) // 32)
    # c_(stride m + r), r along a row, from the highest m down; zeros pad
    coef = np.zeros(-(-k.size // stride) * stride)
    coef[: k.size] = np.exp(-_lgamma(1.0 + alpha * k))
    rows = coef.reshape(-1, stride)[::-1, :, None]
    vals = np.empty_like(x)
    rel = np.empty_like(x)
    step = max(1, _SCRATCH_DOUBLES // (2 * stride))
    for lo in range(0, x.size, step):
        xs = x[lo : lo + step]
        power = np.empty((stride, xs.size))  # x^1 .. x^stride
        power[...] = xs
        np.multiply.accumulate(power, axis=0, out=power)
        acc = np.empty((stride, xs.size))
        acc[...] = rows[0]
        for c in rows[1:]:
            acc *= power[-1]
            acc += c
        acc[1:] *= power[:-1]
        even, odd = acc[0], acc[1]
        for r in range(2, stride):
            acc[r % 2] += acc[r]
        np.subtract(even, odd, out=vals[lo : lo + step])
        even += odd
        np.divide(even, np.abs(vals[lo : lo + step], out=odd), out=rel[lo : lo + step])
    rel *= np.finfo(float).eps
    return vals, rel, np.full(x.shape, k.size)


def _spectral_neg(alpha: float, x: np.ndarray):
    """E_alpha(-x) by the trapezoid rule on its positive spectral integral.

    With s = x^(1/alpha), theta = (1 - alpha) pi and u = log r,
        E_alpha(-x) = (sin theta / pi) int exp(-s e^u) du
                      / (4 (sinh^2(alpha u / 2) + sin^2(theta / 2))).
    The kernel is a peak of width ~ theta at u = 0, so a uniform step in u
    would have to shrink with 1 - alpha. The substitution
    sinh(alpha u / 2) = sin(theta / 2) sinh(v) flattens the peak:
        E_alpha(-x) = (cos(theta / 2) / (alpha pi)) int exp(-s e^u) dv
                      / (cosh v sqrt(1 + sin^2(theta / 2) sinh^2 v)),
    which cancels nothing for any alpha. In v the integrand is positive and
    analytic in the strip |Im v| < alpha pi / 4 (where |Im u| < pi / 2 keeps
    the exponential bounded; the kernel's poles sit at Im v = pi / 2), so the
    rule with step h = (alpha pi / 4) / _GAP_STEPS converges like
    exp(-2 pi _GAP_STEPS). Nodes lie on the lattice h*Z, from where the
    kernel's tail, at most 2 (sin theta / pi) e^(alpha u) in u, integrates
    to _GAP_TAIL of the lower bound on the value, to where s e^u reaches
    _GAP_CUT. The node count is about (20 / pi) times the u-range plus
    (80 / (alpha pi)) log(1 / sin(theta / 2)): it grows only logarithmically
    as alpha tends to 1, and like 1 / alpha as alpha tends to 0.

    Each point takes a node range that depends on its own s alone: the
    range it needs, widened outward to multiples of `grain` nodes, so
    nearby points share one range. The nodes a widening adds carry less
    than _GAP_TAIL of the value below and next to nothing past the cut.
    Points with equal ranges are one group and take exactly the same
    nodes, so no term is ever masked out. The nodes are built once for all
    groups, in chunks aligned on multiples of _GAP_CHUNK; each group reads
    its slice of a chunk, and its points run in blocks, so one work matrix
    stays within _SCRATCH_DOUBLES. A point's
    terms are summed by _ordered_sum, the even and the odd nodes apart
    (the even ones alone give the 2h rule), so its value does not depend
    on the other points. Raises AccuracyError when a point would need more
    than _GAP_NODES nodes or s overflows, which happens only for alpha
    below about 5e-4.
    Returns (values, relative estimates, nodes used).
    """
    theta = (1.0 - alpha) * math.pi
    sig = math.sin(0.5 * theta)
    amp = math.cos(0.5 * theta) / (alpha * math.pi)
    h = 0.25 * alpha * math.pi / _GAP_STEPS
    c = math.sin(theta) / math.pi
    log_s = np.log(x) / alpha
    grain = 32  # a point's range needs 350-900 nodes at alpha in [0.3, 0.99]

    def lattice(u):  # position of u = log r on the lattice in v, in steps
        return np.arcsinh(np.sinh(0.5 * alpha * u) / sig) / h

    tail = math.log(_GAP_TAIL * alpha / (2.0 * c)) + _log_lower(alpha, x)
    first = np.floor(lattice(tail / alpha) / grain) * grain
    stop = np.ceil((lattice(math.log(_GAP_CUT) - log_s) + 1.0) / grain) * grain
    used = stop - first
    if log_s.max() > _LOG_S_MAX or used.max() > _GAP_NODES:
        raise AccuracyError(
            f"E_alpha({alpha}, {-float(x.max())}): the spectral rule needs "
            f"{used.max():.0f} nodes and x^(1/alpha) = exp({log_s.max():.4g}); "
            f"the limits are {_GAP_NODES} and exp({_LOG_S_MAX})",
            MlfEvalReport(math.nan, "spectral", int(used.max()), math.inf),
        )
    first, stop, used = first.astype(int), stop.astype(int), used.astype(int)
    s = x ** (1.0 / alpha)
    rules = np.zeros((2, x.size))
    order = np.lexsort((stop, first))
    change = (np.diff(first[order]) != 0) | (np.diff(stop[order]) != 0)
    groups = np.split(order, np.flatnonzero(change) + 1)
    j_lo, j_hi = int(first.min()), int(stop.max())
    for base in range(j_lo - j_lo % _GAP_CHUNK, j_hi, _GAP_CHUNK):
        c_lo, c_hi = max(base, j_lo), min(base + _GAP_CHUNK, j_hi)
        v = h * np.arange(c_lo, c_hi)
        sv = sig * np.sinh(v)
        w = h * amp / np.cosh(v) / np.hypot(1.0, sv)
        rate = np.exp((2.0 / alpha) * np.arcsinh(sv))
        for group in groups:
            g_lo, g_hi = max(int(first[group[0]]), c_lo), min(int(stop[group[0]]), c_hi)
            if g_lo >= g_hi:
                continue
            nodes = slice(g_lo - c_lo, g_hi - c_lo)
            step = max(1, _SCRATCH_DOUBLES // (g_hi - g_lo))
            for lo in range(0, group.size, step):
                pts = group[lo : lo + step]
                decay = np.multiply.outer(rate[nodes], -s[pts])
                np.exp(decay, out=decay)
                decay *= w[nodes, None]
                even, odd = (_ordered_sum(decay[p::2]) for p in (g_lo % 2, 1 - g_lo % 2))
                rules[0, pts] += even + odd
                rules[1, pts] += 2.0 * even
    rel = np.abs(rules[0] - rules[1]) / rules[0] + np.finfo(float).eps
    return rules[0], rel, used


@functools.lru_cache(maxsize=16)
def _asym_floor(alpha: float) -> float:
    """An x below which _asym_neg accepts no point at this alpha.

    The loop carries a point into step m only while its envelopes have not
    grown, so after m terms its partial sum is at most
    S_m = sum_(k<=m) |sin(pi k alpha)| env_k, and acceptance needs
    env_(m+1) <= _ASYM_ACCEPT S_m for an m no later than the step where
    the envelope first grows. Each ratio
        S_m / env_(m+1) = sum_(k<=m) |sin(pi k alpha)| Gamma(k alpha)
                          x^(m+1-k) / Gamma((m+1) alpha)
    grows with x, and so does the range of m, so the x from which some m
    passes is found by bisection; no alpha passes at x = 1, where no
    envelope falls by 12 decades within _ASYM_TERMS terms. The floor is
    that x less 1e-6 relative for rounding, which the loop's own rounding
    (about 1e-12) cannot cross: 2.70 at alpha = 0.3, 5.35 at 0.5, 17.87 at
    0.84, within 0.5% of the smallest x the loop accepts at each. It is
    computed once per alpha, in about a millisecond.
    """
    k = np.arange(1.0, _ASYM_TERMS + 2.0)
    lenv = _lgamma(k * alpha)  # log(pi x^k env_k)
    dl = np.diff(lenv)  # increasing in k: Gamma is log-convex
    size = np.abs(np.sin(np.pi * k * alpha))

    def passes(x: float) -> bool:
        lx = math.log(x)
        # steps a point at x can take: up to the first whose envelope grows
        m = min(int(np.searchsorted(dl, lx, side="right")) + 1, _ASYM_TERMS)
        env = np.exp(lenv[: m + 1] - lenv[0] - (k[: m + 1] - 1.0) * lx)  # env_k / env_1
        return bool(np.any(env[1:] <= _ASYM_ACCEPT * np.cumsum(size[:m] * env[:m])))

    lo, hi = 1.0, 2.0
    while not passes(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-7 * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return (1.0 - 1e-6) * lo


def _route_neg(alpha: float, x: np.ndarray):
    """E_alpha(-x) for x >= 0, each point evaluated by one regime.

    Returns (values, relative estimates, terms used, regime indices into
    _REGIMES).
    """
    vals = np.empty_like(x)
    rel = np.empty_like(x)
    used = np.empty(x.shape, dtype=int)
    regime = np.zeros(x.shape, dtype=int)
    rest = np.ones(x.shape, dtype=bool)
    big = np.flatnonzero(x >= max(_ASYM_SWITCH, _asym_floor(alpha)))
    if big.size:
        v, e, t, ok = _asym_neg(alpha, x[big])
        won = big[ok]
        vals[won], rel[won], used[won] = v[ok], e[ok], t[ok]
        regime[won] = 1
        rest[won] = False
    rest = np.flatnonzero(rest)
    ser = _series_digits(alpha, x[rest]) <= _SERIES_DIGITS
    for idx, route, code in (
        (rest[ser], _series_neg, 0),
        (rest[~ser], _spectral_neg, 2),
    ):
        if idx.size:
            vals[idx], rel[idx], used[idx] = route(alpha, x[idx])
            regime[idx] = code
    return vals, rel, used, regime


def _accepted(alpha: float, z: np.ndarray, tolerance: float):
    """E_alpha(z) for z <= 0, each point by one regime, every estimate checked.

    exp(z) at alpha = 1, else the router. Raises AccuracyError with the
    first failing point's report unless every estimate is within
    `tolerance`. Returns as _route_neg does.
    """
    if alpha == 1.0:
        used = np.ones(z.shape, dtype=int)
        vals, rel, regime = np.exp(z), np.full_like(z, np.finfo(float).eps), np.zeros_like(used)
    else:
        vals, rel, used, regime = _route_neg(alpha, -z)
    bad = np.flatnonzero(~(rel <= tolerance))
    if bad.size:
        i = bad[0]
        raise AccuracyError(
            f"E_alpha({alpha}, {z[i]}) estimate {rel[i]:.2e} exceeds "
            f"tolerance {tolerance:.2e}",
            MlfEvalReport(float(vals[i]), _REGIMES[regime[i]], int(used[i]), float(rel[i])),
        )
    return vals, rel, used, regime


def _check_arguments(z) -> np.ndarray:
    """z as a float array; DomainError unless every entry is finite and <= 0.

    The package evaluates E_alpha only at -lam t^alpha with lam > 0 and
    t >= 0. A max and a min reduction decide it with no temporary array:
    nan fails both comparisons.
    """
    z = np.asarray(z, dtype=float)
    if not (z.max(initial=0.0) <= 0.0 and z.min(initial=0.0) > -math.inf):
        raise DomainError("E_alpha arguments must be finite and <= 0")
    return z


def mlf_values(alpha: float, z) -> np.ndarray:
    """E_alpha(z) over an array of arguments z <= 0 (no per-point reports).

    Fast path for the forward maps: one exp pass at alpha = 1, otherwise
    the same router as mlf(). Each value depends on its own argument alone,
    not on the other points of the call, which decay_table() relies on.
    Work is chunked to bound peak memory. Raises DomainError as mlf() does,
    and AccuracyError like mlf(), with the first failing point's report, if
    an estimate exceeds 1e-9.
    """
    alpha = _check_alpha(alpha)
    z = _check_arguments(z)
    flat = z.ravel()
    out = np.empty_like(flat)
    if alpha == 1.0:
        np.exp(flat, out=out)
    else:
        for lo in range(0, flat.size, _BATCH_BLOCK):
            out[lo : lo + _BATCH_BLOCK] = _accepted(alpha, flat[lo : lo + _BATCH_BLOCK], _VALUES_TOL)[0]
    return out.reshape(z.shape)


def mlf(alpha: float, z: float, tolerance: float = 1e-9) -> MlfEvalReport:
    """Evaluate E_alpha(z) and report how the value was obtained.

    A one-point call of the router behind mlf_values(). Raises DomainError
    for alpha outside (0, 1] or z not finite and <= 0, and AccuracyError
    (with the report attached) if the relative error estimate exceeds
    `tolerance`.
    """
    alpha = _check_alpha(alpha)
    vals, rel, used, regime = _accepted(alpha, _check_arguments([float(z)]), tolerance)
    return MlfEvalReport(float(vals[0]), _REGIMES[regime[0]], int(used[0]), float(rel[0]))


_DECAY_GRIDS = 4  # time grids the decay-table memo holds at once
# (alpha, time grid bytes) -> (eigenvalues, read-only table), oldest first
_DECAY_MEMO: dict[tuple[float, bytes], tuple[np.ndarray, np.ndarray]] = {}


def _decay_blocks(alpha: float, lams: np.ndarray, times: np.ndarray):
    """Yield (row slice, E_alpha(-lam t^alpha) on those rows) over times x lams.

    The one evaluator of decay tables. A block holds about _BATCH_BLOCK
    points, so no table-sized argument or value array is ever built; each
    value depends on its own argument alone, so the blocking leaves every
    entry bitwise unchanged.
    """
    neg = -lams
    powers = times**alpha
    rows = max(1, _BATCH_BLOCK // max(neg.size, 1))
    for lo in range(0, times.size, rows):
        yield slice(lo, lo + rows), mlf_values(alpha, np.outer(powers[lo : lo + rows], neg))


def decay_table(alpha: float, lams, times) -> np.ndarray:
    """E_alpha(-lam t^alpha) over times x lams, as a read-only array.

    Every decay table the package keeps is built here. Tables are memoised
    per (alpha, times), least recently used first out, for at most
    _DECAY_GRIDS time grids. A request whose eigenvalues are a prefix of
    the stored ones gets a column view of the stored table; one that
    extends them evaluates only the new columns and appends them; any
    other request builds a fresh table in place of the stored one.
    eigenpairs() is prefix-stable, so an escalating reconstruction
    evaluates each (lam, t) pair once.

    New columns are filled into one preallocated table in the row blocks
    of _decay_blocks, so nothing table-sized is held beside it.
    """
    alpha = _check_alpha(alpha)
    lams = np.asarray(lams, dtype=float).ravel()
    times = np.asarray(times, dtype=float).ravel()
    key = (alpha, times.tobytes())
    empty = (lams[:0], np.empty((times.size, 0)))
    have, table = _DECAY_MEMO.pop(key, empty)
    shared = min(have.size, lams.size)
    if not np.array_equal(have[:shared], lams[:shared]):
        have, table = empty
    if lams.size > have.size:
        grown = np.empty((times.size, lams.size))
        grown[:, : have.size] = table
        for rows, block in _decay_blocks(alpha, lams[have.size :], times):
            grown[rows, have.size :] = block
        have, table = lams.copy(), grown
    table.flags.writeable = False
    _DECAY_MEMO[key] = (have, table)
    while len(_DECAY_MEMO) > _DECAY_GRIDS:
        del _DECAY_MEMO[next(iter(_DECAY_MEMO))]
    return table[:, : lams.size]


def decay_apply(alpha: float, lams, times, weights) -> np.ndarray:
    """decay_table(alpha, lams, times) @ weights, without holding the table.

    Each row block of _decay_blocks is multiplied into the result and
    dropped, so work memory is one block plus the result. The memo is
    neither read nor written: a table applied once is not worth keeping.
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
    for rows, block in _decay_blocks(alpha, lams, times):
        out[rows] = block @ weights
    return out


# ---------------------------------------------------------------------------
# Caputo derivative of sampled data


_CAPUTO_ROWS = 256  # evaluation times per causal block


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

    The rule is causal: the times are sorted once and walked in blocks
    of _CAPUTO_ROWS rows, and a block reads only the cells that start
    before its last time, never the cells after it. Where _CAPUTO_ROWS
    rows of the record's cells would not fit _CAPUTO_DOUBLES, a block
    takes fewer rows; the partition moves values in their last bits only.
    A cell [a, b] with b < t contributes (t-a)^p - (t-b)^p, p = 1 - alpha,
    formed as (t-b)^p expm1(p log1p((b-a)/(t-b))), which does not cancel
    however small the cell is against t-b; the cell holding t contributes
    (t-a)^p. A time on a node belongs to the cell that node ends, so
    alpha = 1 gives the left cell slope. The cells before a block's first
    time end before all of its times, so only the later cells are masked.
    Work memory is two matrices of a block's rows times the cell count, one
    buffer of at most _CAPUTO_DOUBLES reused by every block.
    """
    alpha = _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float)
    tg = grid.nodes
    if samples.ndim not in (1, 2) or samples.shape[0] != tg.size:
        raise InputError("sample count does not match the grid")
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0.0) or np.any(times > tg[-1] * (1.0 + 1e-12)):
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
    memory = np.empty((ts.size, du.shape[1]))
    # every block's two work matrices are carved from one buffer: blocks
    # allocated and freed in turn would fault their pages in again and again
    cells = int(done[-1]) if ts.size else 0
    rows = max(1, min(_CAPUTO_ROWS, _CAPUTO_DOUBLES // max(2 * cells, 1)))
    work = np.empty(2 * min(rows, ts.size) * cells)
    for lo in range(0, ts.size, rows):
        tt = ts[lo : lo + rows]
        k = done[lo : lo + rows]
        inner, cols = k[0], k[-1]  # cells before k[0] end before every time
        size = tt.size * cols
        gap = work[:size].reshape(tt.size, cols)
        w = work[size : 2 * size].reshape(tt.size, cols)
        np.subtract(tt[:, None], b[None, :cols], out=gap)
        tail = gap[:, inner:]
        whole = tail > 0.0
        tail[~whole] = 1.0
        np.divide(h[:cols], gap, out=w)
        np.log1p(w, out=w)
        w *= p
        np.expm1(w, out=w)
        w *= np.power(gap, p, out=gap)
        w[:, inner:][~whole] = 0.0
        row = w @ du[:cols]
        inside = k < a.size  # false only for times past the last node
        j = k[inside]
        row[inside] += _powv(tt[inside] - a[j], p)[:, None] * du[j]
        memory[lo : lo + rows] = row
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
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    n = u.size
    tg = np.linspace(0.0, float(horizon), n)
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


def graded_panel_edges(horizon: float, panels: int = 64, floor: float = 1e-16):
    """Panel edges geometrically graded toward t = 0.

    The memory kernels and E_alpha(-lambda t^alpha) all have their
    roughness at the origin; geometric grading down to horizon*floor
    resolves it with a fixed panel budget.
    """
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
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

    leggauss solves an eigenproblem on every call; the time panels, the
    moment nodes and the spatial rules reuse a handful of orders.
    """
    x, w = leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panels(edges, order: int = 16):
    """Composite Gauss-Legendre nodes and weights over the given edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(int(order))
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

    Evaluated by product_rule, with the decay table on its nodes from
    decay_table(). Raises InputError when an eigenvalue is not positive.
    """
    alpha = _check_alpha(alpha)
    lams = np.asarray(lams, dtype=float)
    if not np.all(lams > 0.0):
        raise InputError("eigenvalues must be positive")
    t, w = product_rule(horizon)
    e = np.ascontiguousarray(decay_table(alpha, lams, t).T)
    return (e * w) @ e.T
