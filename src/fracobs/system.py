"""Forward model: time-fractional diffusion, sensors, and synthetic data.

The state is kept modal throughout. With u0 expanded in the Dirichlet
eigenbasis, the mild solution scales coefficient k by E_alpha(-lam_k t^alpha),
so no time stepping is ever performed; sensor outputs and the adjoint of the
observation map are evaluated spectrally on top of that.

Eigenvalues are stored positive (eigenvalues of -A) and the decay factor is
always evaluated at the negated argument.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InputError
from .fraccalc import TimeGrid, mlf_values
from .spectral import (
    EigenMode,
    Region,
    SpatialDomain,
    SpatialQuadrature,
    eigenfunction,
    eigenpairs,
    eval_eigfun,
    region_inner_product,
)

__all__ = [
    "FractionalDiffusion",
    "Sensor",
    "ModalState",
    "MeasurementRecord",
    "project_initial_state",
    "mild_solution",
    "apply_output",
    "output_matrix",
    "generate_measurements",
    "kalpha_adjoint_modal",
]


@dataclass(frozen=True)
class FractionalDiffusion:
    """Caputo-diffusion model data: order, domain, horizon, truncated basis."""

    alpha: float
    domain: SpatialDomain
    horizon: float
    basis: tuple[EigenMode, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.horizon > 0.0:
            raise InputError(f"horizon must be positive, got {self.horizon}")
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise InputError("basis must contain at least one mode")
        lams = [m.lam for m in basis]
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise InputError("basis eigenvalues must be ascending")
        if any(m.dimension != self.domain.dimension for m in basis):
            raise InputError("basis modes do not match the domain dimension")

    @classmethod
    def create(
        cls, alpha: float, domain: SpatialDomain, horizon: float, mode_count: int
    ) -> "FractionalDiffusion":
        return cls(alpha, domain, horizon, tuple(eigenpairs(domain, mode_count)))

    @property
    def mode_count(self) -> int:
        return len(self.basis)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([m.lam for m in self.basis])


@dataclass(frozen=True)
class Sensor:
    """A zonal sensor (support region, weight) or a pointwise one (location)."""

    kind: str
    location: tuple[float, ...] | None = None
    support: Region | None = None
    weight: Callable[..., np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind == "pointwise":
            if self.location is None or self.support is not None:
                raise InputError("pointwise sensor takes a location and nothing else")
            loc = tuple(float(x) for x in self.location)
            object.__setattr__(self, "location", loc)
            if any(not 0.0 < x < 1.0 for x in loc):
                raise InputError(f"pointwise location {loc} must be strictly interior")
        elif self.kind == "zonal":
            if self.support is None or self.weight is None or self.location is not None:
                raise InputError("zonal sensor takes a support region and a weight")
        else:
            raise InputError(f"unknown sensor kind {self.kind!r}")

    @classmethod
    def pointwise(cls, location: Sequence[float]) -> "Sensor":
        return cls("pointwise", location=tuple(location))

    @classmethod
    def zonal(cls, support: Region, weight: Callable[..., np.ndarray]) -> "Sensor":
        return cls("zonal", support=support, weight=weight)


@dataclass(frozen=True)
class ModalState:
    """Coefficients <u, phi_k> against the model basis."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise InputError("coefficients must be a nonempty vector")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled sensor outputs: one row per time node, one column per sensor."""

    grid: TimeGrid
    samples: np.ndarray
    noise_sigma: float = 0.0
    provenance: str = ""

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        object.__setattr__(self, "samples", s)
        if s.shape[0] != len(self.grid) or s.shape[1] < 1:
            raise InputError(
                f"samples shape {s.shape} does not match grid of {len(self.grid)} nodes"
            )
        if not np.all(np.isfinite(s)):
            raise InputError("samples must be finite (found nan or inf)")
        if self.noise_sigma < 0.0:
            raise InputError("noise_sigma must be >= 0")

    @property
    def channel_count(self) -> int:
        return self.samples.shape[1]

    def to_csv(self, path: str) -> None:
        p = self.channel_count
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"z{ch + 1}" for ch in range(p)])
            for t, row in zip(self.grid.nodes, self.samples):
                writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])

    @classmethod
    def from_csv(
        cls, path: str, noise_sigma: float = 0.0, provenance: str | None = None
    ) -> "MeasurementRecord":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not header or header[0] != "t":
                raise InputError(f"{path}: expected a 't,z1,...' header")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise InputError(
                        f"{path}:{reader.line_num}: a field is not a number: {row!r}"
                    ) from None
        if not rows:
            raise InputError(f"{path}: no sample rows")
        data = np.asarray(rows)
        grid = TimeGrid.from_nodes(data[:, 0])
        tag = provenance if provenance is not None else f"loaded:{path}"
        return cls(grid, data[:, 1:], noise_sigma, tag)


def _full_quadrature(domain: SpatialDomain, order: int) -> SpatialQuadrature:
    return SpatialQuadrature.for_region(Region.full(domain), order)


def project_initial_state(
    sys: FractionalDiffusion,
    u0: Callable[..., np.ndarray],
    order: int | None = None,
) -> ModalState:
    """Expand a spatial field over the model basis by full-domain quadrature."""
    if order is None:
        # resolve the fastest basis oscillation with margin
        top = max(max(m.index) for m in sys.basis)
        order = max(64, 2 * top + 16)
    quad = _full_quadrature(sys.domain, order)
    coeffs = np.empty(sys.mode_count)
    if sys.domain.dimension == 1:
        x = quad.nodes[0]
        wu = quad.weights[0] * np.asarray(u0(x), dtype=float)
        for k, m in enumerate(sys.basis):
            coeffs[k] = float(np.sum(wu * eigenfunction(m)(x)))
    else:
        xg, yg = np.meshgrid(quad.nodes[0], quad.nodes[1], indexing="ij")
        wu = np.outer(quad.weights[0], quad.weights[1]) * np.asarray(
            u0(xg, yg), dtype=float
        )
        for k, m in enumerate(sys.basis):
            coeffs[k] = float(np.sum(wu * eigenfunction(m)(xg, yg)))
    return ModalState(coeffs)


def mild_solution(sys: FractionalDiffusion, state: ModalState, t: float) -> ModalState:
    if not 0.0 <= t <= sys.horizon:
        raise DomainError(f"time {t} outside [0, {sys.horizon}]")
    if len(state) != sys.mode_count:
        raise InputError("state length does not match the basis")
    factors = mlf_values(sys.alpha, -sys.eigenvalues * t**sys.alpha)
    return ModalState(state.coefficients * factors)


def _sensor_functional(
    sensor: Sensor, basis: Sequence[EigenMode], order: int = 32
) -> np.ndarray:
    """The vector (C phi_k)_k for one sensor."""
    out = np.empty(len(basis))
    if sensor.kind == "pointwise":
        for k, m in enumerate(basis):
            out[k] = eval_eigfun(m, sensor.location)
        return out
    quad = SpatialQuadrature.for_region(sensor.support, order)
    for k, m in enumerate(basis):
        out[k] = region_inner_product(
            eigenfunction(m), sensor.weight, sensor.support, quad
        )
    return out


def output_matrix(
    sensors: Sequence[Sensor], basis: Sequence[EigenMode], order: int = 32
) -> np.ndarray:
    """Stacked output functionals, shape (p, M): row ch is (C_ch phi_k)_k."""
    if not sensors:
        raise InputError("at least one sensor is required")
    return np.array([_sensor_functional(s, basis, order) for s in sensors])


def apply_output(sensor: Sensor, state: ModalState, basis: Sequence[EigenMode]) -> float:
    """One sensor reading of a modal state: zonal <u, f>_{L2(D)} or u(b)."""
    if len(state) != len(basis):
        raise InputError("state length does not match the basis")
    return float(_sensor_functional(sensor, basis) @ state.coefficients)


def _decay_table(sys: FractionalDiffusion, times: np.ndarray) -> np.ndarray:
    """E_alpha(-lam_k t^alpha) on the node grid, shape (n_times, M)."""
    targ = -np.outer(times**sys.alpha, sys.eigenvalues)
    return mlf_values(sys.alpha, targ.ravel()).reshape(targ.shape)


def generate_measurements(
    sys: FractionalDiffusion,
    true_u0: Callable[..., np.ndarray] | ModalState,
    sensors: Sequence[Sensor],
    grid: TimeGrid,
    noise_sigma: float = 0.0,
    seed: int = 0,
    provenance: str | None = None,
) -> MeasurementRecord:
    """Sample every sensor on the grid, optionally perturbed by Gaussian noise."""
    if noise_sigma < 0.0:
        raise InputError("noise_sigma must be >= 0")
    state = (
        true_u0
        if isinstance(true_u0, ModalState)
        else project_initial_state(sys, true_u0)
    )
    if len(state) != sys.mode_count:
        raise InputError("state length does not match the basis")
    P = output_matrix(sensors, sys.basis)
    decay = _decay_table(sys, grid.nodes)
    samples = (decay * state.coefficients) @ P.T
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        samples = samples + rng.normal(0.0, noise_sigma, samples.shape)
    tag = (
        provenance
        if provenance is not None
        else f"synthetic alpha={sys.alpha} M={sys.mode_count} seed={seed}"
    )
    return MeasurementRecord(grid, samples, noise_sigma, tag)


def kalpha_adjoint_modal(
    sys: FractionalDiffusion, record: MeasurementRecord, sensors: Sequence[Sensor]
) -> ModalState:
    """Adjoint of the observation map, evaluated spectrally.

    Coefficient k is sum over channels of (C_ch phi_k) times the time
    integral of E_alpha(-lam_k t^alpha) z_ch(t), using the record's own
    quadrature weights.
    """
    if len(sensors) != record.channel_count:
        raise InputError("sensor count does not match the record channels")
    P = output_matrix(sensors, sys.basis)
    decay = _decay_table(sys, record.grid.nodes)
    wz = record.samples * record.grid.weights[:, None]
    # (M,) <- sum_ch P[ch,k] * sum_t decay[t,k] wz[t,ch]
    coeffs = np.einsum("ck,tk,tc->k", P, decay, wz)
    return ModalState(coeffs)
