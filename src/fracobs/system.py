"""Forward model: time-fractional diffusion, sensors, and synthetic data.

The state is kept modal throughout. With u0 expanded in the Dirichlet
eigenbasis, the mild solution scales coefficient k by E_alpha(-lam_k t^alpha),
so no time stepping is ever performed; sensor outputs and the adjoint of the
observation map are evaluated spectrally on top of that.

Eigenvalues are stored positive (eigenvalues of -A) and the decay factor is
always evaluated at the negated argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import IO, Callable, NoReturn, Sequence

import numpy as np

from .errors import DomainError, InputError
from .fraccalc import TimeGrid, _decay_blocks, decay_apply, mlf_values
from .spectral import (
    EigenMode,
    Region,
    SpatialDomain,
    SpatialQuadrature,
    eigenpairs,
    mode_table,
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

# Gauss-Legendre order per axis of a zonal sensor's support integral
SENSOR_ORDER = 32
# table rows formatted per `%` operation when a CSV body is written, and
# lines parsed per block when a rejected record is searched for its bad line
CSV_ROWS = 4096


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


def _check_noise_sigma(noise_sigma: float) -> None:
    # written so that nan fails too: a nan sigma would pass `sigma < 0`
    # and `sigma > 0` alike and leave the record silently noiseless
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise InputError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


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
        _check_noise_sigma(self.noise_sigma)

    @property
    def channel_count(self) -> int:
        return self.samples.shape[1]

    def to_csv(self, path: str) -> None:
        """Write a `t,z1,...,zp` header and one row per node, CRLF-terminated.

        Every value carries 17 significant digits, so `from_csv` reads back
        the same doubles. The body is written by `write_rows`.
        """
        p = self.channel_count
        header = ",".join(["t"] + [f"z{ch + 1}" for ch in range(p)])
        with open(path, "w", newline="") as fh:
            fh.write(header + "\r\n")
            write_rows(fh, (self.grid.nodes, self.samples), "\r\n")

    @classmethod
    def from_csv(
        cls, path: str, noise_sigma: float = 0.0, provenance: str | None = None
    ) -> "MeasurementRecord":
        """Read a record written by `to_csv`.

        CRLF, LF and CR line ends are accepted and blank lines are skipped.
        Fields are plain numbers as numpy's text reader parses them: a
        quoted field or Python literal syntax such as `1_0` is not a number.
        The body is parsed by one np.loadtxt pass over the open file, which
        creates no Python object per field; only a file it rejects is
        searched for its first bad line, in blocks and then line by line
        within the first block that fails.
        """
        with open(path) as fh:  # universal newlines: every line end reads as \n
            header = fh.readline().rstrip("\n").split(",")
            if header[0] != "t":
                raise InputError(f"{path}: expected a 't,z1,...' header")
            width = len(header)
            # loadtxt warns on a body with no rows: find the first row first
            first = fh.readline()
            while first == "\n":
                first = fh.readline()
            if not first:
                raise InputError(f"{path}: no sample rows")
            try:
                data = _read_rows(chain((first,), fh))
            except ValueError:
                data = None
        if data is None or data.shape[1] != width:
            _raise_first_bad_row(path, width)
        grid = TimeGrid.from_nodes(data[:, 0])
        tag = provenance if provenance is not None else f"loaded:{path}"
        return cls(grid, data[:, 1:], noise_sigma, tag)


def write_rows(fh: IO[str], columns: Sequence[np.ndarray], end: str) -> None:
    """Write the columns side by side as `%.17g` fields, one line per row.

    One `%` operation formats each block of CSV_ROWS rows, so memory stays
    at one block of values and text whatever the table's length.
    """
    for lo in range(0, len(columns[0]), CSV_ROWS):
        block = np.column_stack([c[lo : lo + CSV_ROWS] for c in columns])
        row = ",".join(["%.17g"] * block.shape[1]) + end
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _read_rows(lines) -> np.ndarray:
    """Parse comma-separated lines of plain numbers into a 2-d float array.

    A line iterator or an open text file is read as it streams; no module
    is loaded, as numpy would for a path. Blank lines are skipped.
    """
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _raise_first_bad_row(path: str, width: int) -> NoReturn:
    """Raise InputError for the first malformed body line, by physical line number.

    The body is checked in blocks of CSV_ROWS lines: a block passes when
    the reader `from_csv` uses parses its nonblank lines into one row of
    `width` fields each. Only a block that does not pass is walked line by
    line, each line parsed on its own by the same reader, so the walk
    rejects exactly the fields the bulk read rejects.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    for lo in range(1, len(lines), CSV_ROWS):
        block = lines[lo : lo + CSV_ROWS]
        nonblank = [line for line in block if line]
        try:
            if not nonblank or _read_rows(nonblank).shape == (len(nonblank), width):
                continue
        except ValueError:
            pass
        for n, line in enumerate(block, start=lo + 1):
            if not line:
                continue
            row = line.split(",")
            if len(row) != width:
                raise InputError(f"{path}:{n}: expected {width} fields, got {len(row)}")
            try:
                _read_rows([line])
            except ValueError:
                raise InputError(f"{path}:{n}: a field is not a number: {row!r}") from None
    raise InputError(f"{path}: not a table of {width} numeric columns")


def project_initial_state(
    sys: FractionalDiffusion, u0: Callable[..., np.ndarray]
) -> ModalState:
    """Expand a spatial field over the model basis by full-domain quadrature."""
    # resolve the fastest basis oscillation with margin
    top = max(max(m.index) for m in sys.basis)
    order = max(64, 2 * top + 16)
    pts, w = SpatialQuadrature.for_region(Region.full(sys.domain), order).flat()
    wu = w * np.asarray(u0(*pts), dtype=float)
    return ModalState(wu @ mode_table(sys.basis, pts))


def mild_solution(sys: FractionalDiffusion, state: ModalState, t: float) -> ModalState:
    if not 0.0 <= t <= sys.horizon:
        raise DomainError(f"time {t} outside [0, {sys.horizon}]")
    if len(state) != sys.mode_count:
        raise InputError("state length does not match the basis")
    factors = mlf_values(sys.alpha, -sys.eigenvalues * t**sys.alpha)
    return ModalState(state.coefficients * factors)


def _sensor_functional(
    sensor: Sensor, basis: Sequence[EigenMode], axis: int | None = None
) -> np.ndarray:
    """The vector (C phi_k)_k for one sensor, or (C d_axis phi_k)_k."""
    if sensor.kind == "pointwise":
        return mode_table(basis, sensor.location, axis)
    pts, w = SpatialQuadrature.for_region(sensor.support, SENSOR_ORDER).flat()
    weighted = w * np.asarray(sensor.weight(*pts), dtype=float)
    return weighted @ mode_table(basis, pts, axis)


def output_matrix(sensors: Sequence[Sensor], basis: Sequence[EigenMode]) -> np.ndarray:
    """Stacked output functionals, shape (p, M): row ch is (C_ch phi_k)_k."""
    if not sensors:
        raise InputError("at least one sensor is required")
    return np.array([_sensor_functional(s, basis) for s in sensors])


def apply_output(sensor: Sensor, state: ModalState, basis: Sequence[EigenMode]) -> float:
    """One sensor reading of a modal state: zonal <u, f>_{L2(D)} or u(b)."""
    if len(state) != len(basis):
        raise InputError("state length does not match the basis")
    return float(_sensor_functional(sensor, basis) @ state.coefficients)


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
    _check_noise_sigma(noise_sigma)
    state = (
        true_u0
        if isinstance(true_u0, ModalState)
        else project_initial_state(sys, true_u0)
    )
    if len(state) != sys.mode_count:
        raise InputError("state length does not match the basis")
    P = output_matrix(sensors, sys.basis)
    # the decay table is applied block by block, never held whole
    samples = decay_apply(
        sys.alpha, sys.eigenvalues, grid.nodes, state.coefficients[:, None] * P.T
    )
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
    quadrature weights. The decay table is contracted block by block, the
    transpose of decay_apply: it is never held whole nor memoised.
    """
    if len(sensors) != record.channel_count:
        raise InputError("sensor count does not match the record channels")
    P = output_matrix(sensors, sys.basis)
    wz = record.samples * record.grid.weights[:, None]
    # moments[k, ch] = sum_t E[t, k] wz[t, ch], one row block of E at a time
    moments = np.zeros((sys.mode_count, record.channel_count))
    for rows, block in _decay_blocks(sys.alpha, sys.eigenvalues, record.grid.nodes):
        moments += block.T @ wz[rows]
    return ModalState(np.einsum("ck,kc->k", P, moments))
