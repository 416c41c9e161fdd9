"""Dirichlet eigenbases of the Laplacian on the unit interval and unit square.

Provides the spatial side of the solver: axis-aligned regions, the modes
of a truncation as one integer array of index rows, their eigenvalues,
one evaluator of the basis and its partials on any point set
(mode_table), tensor Gauss-Legendre rules over regions as flat points and
product weights (region_rule), and the closed-form coupling integrals
between eigenfunction partial derivatives and eigenfunctions.

Mode (i,) of the interval is sqrt(2) sin(i pi x) and mode (i, j) of the
square is 2 sin(i pi x) sin(j pi y), with eigenvalue pi^2 times the sum of
the squared indices, so an index row is the whole mode.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .fraccalc import gauss_legendre

__all__ = [
    "Region",
    "eigenpairs",
    "eigenvalues",
    "eigenvalue_groups",
    "mode_table",
    "region_rule",
    "grad_coupling",
]

PI2 = math.pi * math.pi


@dataclass(frozen=True)
class Region:
    """Axis-aligned box contained in the closed unit domain."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(a) for a in self.lower)
        hi = tuple(float(b) for b in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or len(lo) not in (1, 2):
            raise InputError("region bounds must both have length 1 or 2")
        for a, b in zip(lo, hi):
            if not (a < b):
                raise InputError(f"degenerate region axis [{a}, {b}]")
            if a < 0.0 or b > 1.0:
                raise InputError(f"region axis [{a}, {b}] leaves the unit domain")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @classmethod
    def full(cls, dimension: int) -> "Region":
        return cls((0.0,) * dimension, (1.0,) * dimension)


def eigenpairs(dimension: int, count: int) -> np.ndarray:
    """The `count` modes of smallest eigenvalue, as read-only index rows.

    The result is an integer array of shape (count, dimension), sorted
    ascending by eigenvalue; equal eigenvalues (possible only on the
    square) are ordered lexicographically by index, so count 4 on the
    square gives the rows (1,1),(1,2),(2,1),(2,2). Raises InputError for a
    dimension other than 1 or 2 and for a count that is not an integer >= 1.
    """
    if dimension not in (1, 2):
        raise InputError(f"dimension must be 1 or 2, got {dimension}")
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise InputError(f"count must be an integer >= 1, got {count!r}")
    if dimension == 1:
        modes = np.arange(1, count + 1)[:, None]
        modes.flags.writeable = False
        return modes
    # a mode outside the box [1, top]^2 has key i^2 + j^2 > (top + 1)^2, so
    # once the box's count-th key is at most that, no outside mode comes
    # before it, and the box's sort is the global one
    top = math.isqrt(count - 1) + 1  # the box holds at least count modes
    while True:
        i, j = np.indices((top, top)).reshape(2, -1) + 1
        key = i * i + j * j
        order = np.lexsort((j, i, key))[:count]
        if key[order[-1]] <= (top + 1) ** 2:
            modes = np.column_stack((i[order], j[order]))
            modes.flags.writeable = False
            return modes
        top *= 2


def _freq_sq(modes: np.ndarray) -> np.ndarray:
    """Integer sum of squared indices per mode; lambda = freq_sq * pi^2 exactly."""
    modes = np.asarray(modes)
    return (modes * modes).sum(axis=1)


def eigenvalues(modes: np.ndarray) -> np.ndarray:
    """lambda = pi^2 (i^2 + j^2) of each index row, the eigenvalue of -A.

    The integer sum of squares is formed first and scaled by pi^2 once:
    this is the one place an eigenvalue is formed.
    """
    return _freq_sq(modes) * PI2


def eigenvalue_groups(modes: np.ndarray) -> list[list[int]]:
    """Positions of `modes` grouped by equal eigenvalue, ascending.

    Grouping compares the integer sums of squared indices, so ties are
    exact rather than float-fuzzy.
    """
    buckets: dict[int, list[int]] = {}
    for pos, key in enumerate(_freq_sq(modes).tolist()):
        buckets.setdefault(key, []).append(pos)
    return [buckets[k] for k in sorted(buckets)]


def mode_table(modes: np.ndarray, coords: Sequence, axis: int | None = None) -> np.ndarray:
    """phi_k, or its partial along `axis`, at broadcast points, one column per mode.

    `modes` holds one index row per mode. `coords` holds one coordinate
    array (or scalar) per axis; the result has shape
    broadcast(*coords).shape + (len(modes),). Axis d contributes the factor
    sin(i_d pi x_d), or i_d pi cos(i_d pi x_d) along `axis`, for every mode
    at once, and the factors multiply the scale sqrt(2)^n in axis order.
    This is the one place the basis is evaluated.
    """
    freqs = math.pi * np.asarray(modes, dtype=float)
    n = freqs.shape[1]
    if len(coords) != n:
        raise InputError(f"expected {n} coordinate arrays, got {len(coords)}")
    if axis is not None and not 0 <= axis < n:
        raise InputError(f"axis {axis} out of range for dimension {n}")
    out = np.full(len(freqs), math.sqrt(2.0**n))
    if axis is not None:
        out = out * freqs[:, axis]
    for d, x in enumerate(coords):
        arg = np.asarray(x, dtype=float)[..., None] * freqs[:, d]
        out = out * (np.cos(arg) if d == axis else np.sin(arg))
    return out


def region_rule(region: Region, order: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Tensor Gauss-Legendre rule over a region: flat points per axis, product weights.

    Points run in meshgrid(indexing="ij") order, the first axis slowest.
    Exact per axis for polynomials of degree 2*order - 1; for the
    trigonometric integrands here the error decays spectrally once the
    order passes roughly the mode frequency times the axis length.
    """
    ref_x, ref_w = gauss_legendre(order)
    half = [0.5 * (b - a) for a, b in zip(region.lower, region.upper)]
    nodes = [a + h * (ref_x + 1.0) for a, h in zip(region.lower, half)]
    points = np.meshgrid(*nodes, indexing="ij")
    weights = np.prod(np.meshgrid(*(h * ref_w for h in half), indexing="ij"), axis=0)
    return tuple(p.ravel() for p in points), weights.ravel()


def _coupling_1d(q: int, k: int) -> float:
    # <d/dx phi_q, phi_k> on (0,1) with orthonormal sine modes:
    # 4qk/(k^2 - q^2) when q+k is odd, else 0 (including q=k)
    if (q + k) % 2 == 0:
        return 0.0
    return 4.0 * q * k / float(k * k - q * q)


def grad_coupling(q: Sequence[int], axis: int, k: Sequence[int]) -> float:
    """Closed-form <d_axis phi_q, phi_k> over the full domain, for index rows q and k."""
    n = len(q)
    if len(k) != n:
        raise InputError("modes live on different domains")
    if not 0 <= axis < n:
        raise InputError(f"axis {axis} out of range for dimension {n}")
    if n == 1:
        return _coupling_1d(q[0], k[0])
    other = 1 - axis
    if q[other] != k[other]:
        return 0.0
    return _coupling_1d(q[axis], k[axis])
