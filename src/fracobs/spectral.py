"""Dirichlet eigenbases of the Laplacian on the unit interval and unit square.

Provides the spatial side of the solver: domains, axis-aligned regions,
eigenmodes with their frequencies, one evaluator of the basis and its
partials on any point set (mode_table), tensor Gauss-Legendre rules over
regions with their flattened points, and the closed-form coupling
integrals between eigenfunction partial derivatives and eigenfunctions.

All basis functions use the orthonormal scaling: sqrt(2)*sin(i*pi*x) per
axis, so the 2D functions are 2*sin(i*pi*x)*sin(j*pi*y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .fraccalc import gauss_legendre

__all__ = [
    "SpatialDomain",
    "Region",
    "EigenMode",
    "SpatialQuadrature",
    "eigenpairs",
    "eigenvalue_groups",
    "mode_table",
    "grad_coupling",
]

PI2 = math.pi * math.pi


@dataclass(frozen=True)
class SpatialDomain:
    """The unit interval (n=1) or the unit square (n=2)."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise InputError(f"dimension must be 1 or 2, got {self.dimension}")


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
    def full(cls, domain: SpatialDomain) -> "Region":
        n = domain.dimension
        return cls((0.0,) * n, (1.0,) * n)


@dataclass(frozen=True)
class EigenMode:
    """One Dirichlet-Laplacian mode: index tuple and eigenvalue of -A."""

    index: tuple[int, ...]
    lam: float

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.index)
        object.__setattr__(self, "index", idx)
        if len(idx) not in (1, 2) or any(i < 1 for i in idx):
            raise InputError(f"mode index must be positive integers, got {idx}")
        if not self.lam > 0.0:
            raise InputError(f"eigenvalue must be positive, got {self.lam}")

    @property
    def dimension(self) -> int:
        return len(self.index)

    @property
    def freq_sq(self) -> int:
        """Integer sum of squared indices; lam = freq_sq * pi^2 exactly."""
        return sum(i * i for i in self.index)

    @classmethod
    def from_index(cls, index: Sequence[int]) -> "EigenMode":
        idx = tuple(int(i) for i in index)
        return cls(idx, sum(i * i for i in idx) * PI2)


def eigenpairs(domain: SpatialDomain, count: int) -> list[EigenMode]:
    """The `count` modes of smallest eigenvalue.

    Sorted ascending by eigenvalue; equal eigenvalues (possible only on
    the square) are ordered lexicographically by index, so M=4 on the
    square yields (1,1),(1,2),(2,1),(2,2).
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if domain.dimension == 1:
        return [EigenMode.from_index((i,)) for i in range(1, count + 1)]
    # a mode outside the box [1, top]^2 has key i^2 + j^2 > (top + 1)^2, so
    # once the box's count-th key is at most that, no outside mode comes
    # before it, and the box's sort is the global one
    top = math.isqrt(count - 1) + 1  # the box holds at least count modes
    while True:
        i, j = np.indices((top, top)).reshape(2, -1) + 1
        key = i * i + j * j
        order = np.lexsort((j, i, key))[:count]
        if key[order[-1]] <= (top + 1) ** 2:
            pairs = zip(i[order].tolist(), j[order].tolist())
            return [EigenMode.from_index(ij) for ij in pairs]
        top *= 2


def eigenvalue_groups(modes: Sequence[EigenMode]) -> list[list[int]]:
    """Positions of `modes` grouped by equal eigenvalue, ascending.

    Grouping compares the integer sums of squared indices, so ties are
    exact rather than float-fuzzy.
    """
    buckets: dict[int, list[int]] = {}
    for pos, m in enumerate(modes):
        buckets.setdefault(m.freq_sq, []).append(pos)
    return [buckets[k] for k in sorted(buckets)]


def mode_table(
    modes: Sequence[EigenMode], coords: Sequence, axis: int | None = None
) -> np.ndarray:
    """phi_k, or its partial along `axis`, at broadcast points, one column per mode.

    `coords` holds one coordinate array (or scalar) per axis; the result
    has shape broadcast(*coords).shape + (len(modes),). Axis d contributes
    the factor sin(i_d pi x_d), or i_d pi cos(i_d pi x_d) along `axis`, for
    every mode at once, and the factors multiply the scale sqrt(2)^n in
    axis order. This is the one place the basis is evaluated.
    """
    index = np.array([m.index for m in modes], dtype=float)
    n = index.shape[1]
    if len(coords) != n:
        raise InputError(f"expected {n} coordinate arrays, got {len(coords)}")
    if axis is not None and not 0 <= axis < n:
        raise InputError(f"axis {axis} out of range for dimension {n}")
    freqs = math.pi * index
    out = np.full(len(modes), math.sqrt(2.0**n))
    if axis is not None:
        out = out * freqs[:, axis]
    for d, x in enumerate(coords):
        arg = np.asarray(x, dtype=float)[..., None] * freqs[:, d]
        out = out * (np.cos(arg) if d == axis else np.sin(arg))
    return out


@dataclass(frozen=True)
class SpatialQuadrature:
    """Tensor Gauss-Legendre rule over a region, one node set per axis.

    Exact per axis for polynomials of degree 2*order - 1; for the
    trigonometric integrands here the error decays spectrally once the
    order passes roughly the mode frequency times the axis length.
    """

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]

    @classmethod
    def for_region(cls, region: Region, order: int) -> "SpatialQuadrature":
        ref_x, ref_w = gauss_legendre(order)
        nodes = []
        weights = []
        for a, b in zip(region.lower, region.upper):
            half = 0.5 * (b - a)
            nodes.append(a + half * (ref_x + 1.0))
            weights.append(half * ref_w)
        return cls(tuple(nodes), tuple(weights))

    def flat(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Tensor points as one flat coordinate array per axis, with product weights.

        Points run in meshgrid(indexing="ij") order, the first axis slowest.
        """
        grids = np.meshgrid(*self.nodes, indexing="ij")
        weights = self.weights[0]
        for w in self.weights[1:]:
            weights = np.multiply.outer(weights, w)
        return tuple(g.ravel() for g in grids), weights.ravel()


def _coupling_1d(q: int, k: int) -> float:
    # <d/dx phi_q, phi_k> on (0,1) with orthonormal sine modes:
    # 4qk/(k^2 - q^2) when q+k is odd, else 0 (including q=k)
    if (q + k) % 2 == 0:
        return 0.0
    return 4.0 * q * k / float(k * k - q * q)


def grad_coupling(q: EigenMode, axis: int, k: EigenMode) -> float:
    """Closed-form <d_axis phi_q, phi_k> over the full domain (axis 0-based)."""
    if q.dimension != k.dimension:
        raise InputError("modes live on different domains")
    if not 0 <= axis < q.dimension:
        raise InputError(f"axis {axis} out of range for dimension {q.dimension}")
    if q.dimension == 1:
        return _coupling_1d(q.index[0], k.index[0])
    other = 1 - axis
    if q.index[other] != k.index[other]:
        return 0.0
    return _coupling_1d(q.index[axis], k.index[axis])
