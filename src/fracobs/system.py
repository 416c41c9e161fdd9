"""Forward model: time-fractional diffusion, sensors, catalogs, and synthetic data.

The state is kept modal throughout: a state is its float vector of
coefficients <u0, phi_k>, and the mild solution scales coefficient k by
E_alpha(-lam_k t^alpha), so no time stepping is ever performed; sensor
outputs are evaluated spectrally on top of that.

Eigenvalues are stored positive (eigenvalues of -A) and the decay factor is
always evaluated at the negated argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import IO, Callable, NoReturn, Sequence

import numpy as np

from .errors import InputError
from .fraccalc import TimeGrid, decay_apply
from .spectral import Region, eigenpairs, eigenvalues, mode_table, region_rule

__all__ = [
    "SENSOR_KINDS",
    "ZONAL_WEIGHTS",
    "Sensor",
    "STATE_KINDS",
    "InitialState",
    "MeasurementRecord",
    "project_initial_state",
    "output_matrix",
    "measurement_noise",
    "generate_measurements",
]

# Gauss-Legendre order per axis of a zonal sensor's support integral
SENSOR_ORDER = 32
# table rows formatted per block of numpy passes when a CSV body is written,
# and lines parsed per block when a rejected record is searched for its bad line.
# It bounds the text writer's work arrays, six uint64 words and 17 digit planes
# per field: a block of 1,024 rows and four columns peaks at 0.93 MB (traced)
CSV_ROWS = 1024


# sensor kinds: a point reading at a location, or a weighted mean over a support
SENSOR_KINDS = ("pointwise", "zonal")


def _trig_product(scale: float, support: Region) -> Callable[..., np.ndarray]:
    if support.dimension != 2:
        raise InputError(f"trig_product weighs the square, got dimension {support.dimension}")
    return lambda x, y: (
        scale
        * np.cos(math.sqrt(3.0) * math.pi * np.asarray(x, dtype=float))
        * np.sin(math.sqrt(2.0) * math.pi * np.asarray(y, dtype=float))
    )


# zonal weights by name, each a factory of a scale and the support it weighs;
# the fixed incommensurate frequencies of trig_product keep it nonzero on any box
ZONAL_WEIGHTS: dict[str, Callable[[float, Region], Callable[..., np.ndarray]]] = {
    "constant": lambda scale, _: lambda *xs: scale * np.ones_like(np.asarray(xs[0], dtype=float)),
    "trig_product": _trig_product,
}


@dataclass(frozen=True)
class Sensor:
    """A zonal sensor (support region, weight) or a pointwise one (location)."""

    kind: str
    location: tuple[float, ...] | None = None
    support: Region | None = None
    weight: Callable[..., np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_KINDS:
            raise InputError(f"unknown sensor kind {self.kind!r}")
        if self.kind == "pointwise":
            if self.location is None or self.support is not None:
                raise InputError("pointwise sensor takes a location and nothing else")
            loc = tuple(float(x) for x in self.location)
            object.__setattr__(self, "location", loc)
            if any(not 0.0 < x < 1.0 for x in loc):
                raise InputError(f"pointwise location {loc} must be strictly interior")
        elif self.support is None or self.weight is None or self.location is not None:
            raise InputError("zonal sensor takes a support region and a weight")

    @classmethod
    def pointwise(cls, location: Sequence[float]) -> "Sensor":
        return cls("pointwise", location=tuple(location))

    @classmethod
    def zonal(cls, support: Region, weight: Callable[..., np.ndarray]) -> "Sensor":
        return cls("zonal", support=support, weight=weight)

    @property
    def dimension(self) -> int:
        return len(self.location) if self.kind == "pointwise" else self.support.dimension

    def moved(self, position: float) -> "Sensor":
        """This 1-d sensor moved: the point itself, or the left edge keeping width and weight."""
        if self.kind == "pointwise":
            return Sensor.pointwise((position,))
        width = self.support.upper[0] - self.support.lower[0]
        return Sensor.zonal(Region((position,), (position + width,)), self.weight)


# the catalog states of the interval, (x (1 - x))^2 and (cos(pi x) sin(pi x))^2:
# kind -> (coefficient of an odd mode k, gradient), both in closed form
_CATALOG = {
    "poly_sq": (
        lambda k: 4.0 * math.sqrt(2.0) * (12.0 - (math.pi * k) ** 2) / (math.pi * k) ** 5,
        lambda x: 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x),
    ),
    "trig_sq": (
        lambda k: 4.0 * math.sqrt(2.0) / (math.pi * k * (16.0 - k * k)),
        lambda x: 0.5 * np.pi * np.sin(4.0 * np.pi * x),
    ),
}
STATE_KINDS = ("zero", *_CATALOG, "coefficients")


@dataclass(frozen=True)
class InitialState:
    """A state of STATE_KINDS over the first `depth` modes of the unit box: the
    zero field, its own modal `coefficients`, or a closed-form catalog state."""

    kind: str
    dimension: int
    depth: int
    coefficients: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in STATE_KINDS:
            raise InputError(f"unknown state kind {self.kind!r}")
        depth = self.depth
        if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 1:
            raise InputError(f"depth must be an integer >= 1, got {depth!r}")
        if self.kind in _CATALOG and self.dimension != 1:
            raise InputError(f"{self.kind} lives on the interval, got dimension {self.dimension}")
        if self.kind != "coefficients" and self.coefficients:
            raise InputError(f"a {self.kind} state takes no coefficients")
        if self.kind == "coefficients" and len(self.coefficients) != self.depth:
            raise InputError(f"{len(self.coefficients)} coefficients for depth {self.depth}")

    def modal(self) -> tuple[np.ndarray, np.ndarray]:
        """The modes and the state's coefficients <u, phi_k> over them, a float vector."""
        modes = eigenpairs(self.dimension, self.depth)
        if self.kind in _CATALOG:
            return modes, project_initial_state(modes, self.kind)
        return modes, np.asarray(self.coefficients or np.zeros(self.depth), dtype=float)

    def gradient(self) -> tuple[Callable[..., np.ndarray], ...]:
        """The state's gradient, one function per axis."""
        if self.kind in _CATALOG:
            return (_CATALOG[self.kind][1],)
        if self.kind == "zero":
            return (lambda *xs: np.zeros_like(np.asarray(xs[0], dtype=float)),) * self.dimension
        modes, coefficients = self.modal()
        return tuple(
            (lambda *xs, _d=axis: mode_table(modes, xs, _d) @ coefficients)
            for axis in range(self.dimension)
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled sensor outputs: one row per time node, one column per sensor."""

    grid: TimeGrid
    samples: np.ndarray

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
    def from_csv(cls, path: str) -> "MeasurementRecord":
        """Read a record written by `to_csv`.

        CRLF, LF and CR line ends are accepted and blank lines are skipped.
        Fields are plain numbers as numpy's text reader parses them: a
        quoted field or Python literal syntax such as `1_0` is not a number.
        The body is parsed by one np.loadtxt pass over the open file, which
        creates no Python object per field; only a file it rejects is
        searched for its first bad line, in blocks and then line by line
        within the first block that fails.
        """
        try:
            # universal newlines: every line end reads as \n
            with open(path, encoding="utf-8") as fh:
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
                except ValueError:  # a decoding error too: the search meets it again
                    data = None
            if data is None or data.shape[1] != width:
                _raise_first_bad_row(path, width)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return cls(TimeGrid(data[:, 0]), data[:, 1:])


def write_rows(fh: IO[str], columns: Sequence[np.ndarray], end: str) -> None:
    """Write the columns side by side as `%.17g` fields, one line per row.

    The text is byte for byte what `format(v, ".17g")` gives, built by
    `_fields_text` in numpy passes over blocks of CSV_ROWS rows, so memory
    stays at one block of values and text whatever the table's length.
    `end` is the line end, of at most two characters.
    """
    for lo in range(0, len(columns[0]), CSV_ROWS):
        block = np.column_stack([c[lo : lo + CSV_ROWS] for c in columns])
        fh.write(_fields_text(block, end))


# Decimal exponents E (|v| = d.ddd... x 10**E) that `_decimal17` handles;
# Python formats a value outside them. In this range every Dekker split
# and partial product below stays a finite normal double.
_EXP_MIN, _EXP_MAX = -280, 280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_POW10_K0 = 16 - (_EXP_MAX + 2)  # the smallest scale 10**k, k = 16 - E


def _pow10_pairs() -> np.ndarray:
    """10**k for k = 16 - E over the exponents, as exact double-doubles.

    Column k - _POW10_K0 is (hi, hi's 26-bit head, hi's tail, lo), with
    hi + lo = 10**k to 2**-106 relative; E runs two past each end, for
    log10's miss and the carry. Python ints give every part: int/int
    division and float(int) round correctly.
    """
    pairs = []
    for k in range(_POW10_K0, 16 - (_EXP_MIN - 2) + 1):
        n = 10 ** abs(k)
        if k >= 0:
            hi = float(n)
            lo = float(n - int(hi))
        else:
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            lo = (den - num * n) / (den * n)
        pairs.append((hi, lo))
    hi, lo = np.array(pairs).T
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    return np.array([hi, head, hi - head, lo])


_POW10 = _pow10_pairs()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as a double-double (p, t): Dekker's exact product."""
    hi, head, tail, lo = _POW10[:, 16 - e - _POW10_K0]
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi
    t = ((a1 * head - p) + a1 * tail + a2 * head) + a2 * tail
    return p, t + a * lo


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each |value|: (D, E, undecided).

    a = D x 10**(E - 16), rounded to nearest, with 10**16 <= D < 10**17.
    `undecided` marks a value outside the exponent range, nan or inf, or
    one whose scaled fraction lies within 1e-9 of one half: an exact
    decimal tie such as 1 + 2**-17 may round either way, so Python decides
    it. Zero gives D = E = 0.
    """
    regular = (a >= 10.0**_EXP_MIN) & (a < 10.0 ** (_EXP_MAX + 1))
    safe = np.where(regular, a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    p, t = _scaled(safe, e)
    # log10 can miss by one next to a power of ten. Compare the whole
    # double-double: 1e-12 scales to p = 1e16 with t = -0.2
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], t[fix] = _scaled(safe[fix], e[fix])
    # p >= 1e16 is an integer; t holds the rest
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    zero = a == 0.0
    d[zero] = 0
    e[zero] = 0
    return d, e, ~(regular | zero) | (np.abs(frac - 0.5) < 1e-9)


def _words(texts: Sequence[str]) -> np.ndarray:
    """Each text of at most 8 ASCII bytes as one little-endian uint64."""
    return np.array([s.encode() for s in texts], "S8").view("<u8")


# A field is built in six uint64 words (48 bytes); its zero bytes are
# dropped when the block is joined:
#   word 0      sign, then "0." and up to three zeros (fixed notation, E < 0)
#   words 1-4   digits 0..15 as 16-bit pairs: the digit, then "." or nothing
#   word 5      digit 16, "e", the exponent's sign and 3 digits, separator
_HEAD = _words([s + z for s in ("", "-") for z in ("", "0.", "0.0", "0.00", "0.000")])
_TAIL_E0 = _EXP_MIN - 4
_TAIL = _words(
    ["\0e" + (f"{e:+04d}" if abs(e) >= 100 else f"{e:+03d}"[0] + "\0" + f"{abs(e):02d}")
     for e in range(_TAIL_E0, _EXP_MAX + 5)]
    + [""]  # fixed notation: no exponent
)
_DIGIT = np.arange(17)[:, None]


def _fields_text(block: np.ndarray, end: str) -> str:
    """A 2-d block as `%.17g` fields: "," between columns, `end` after rows.

    Python's %g rules: 17 significant digits; fixed notation when the
    rounded value's exponent E has -4 <= E < 17, else d.ddde+XX with at
    least two exponent digits; trailing zeros and a bare "." cut off.
    The values that `_decimal17` leaves undecided, nan and inf among
    them, call `format`.
    """
    if len(end) > 2:
        raise ValueError(f"line end {end!r} is longer than two characters")
    x = block.ravel()
    n = x.size
    d, e, undecided = _decimal17(np.abs(x))
    fixed = (e >= -4) & (e < 17)
    # digits i <= E of fixed notation stay, and those up to the last nonzero
    digits = np.empty((17, n), "<u2")
    kept = _DIGIT <= np.where(fixed, e, 0)
    seen = np.zeros(n, dtype=bool)
    for i in range(16, -1, -1):
        q = d // 10
        digits[i] = d - q * 10
        d = q
        seen |= digits[i] != 0
        kept[i] |= seen
    digits += ord("0")
    digits *= kept
    # the "." after digit E of fixed notation, or digit 0 of exponent
    # notation, when a digit after it stays
    dot = np.where(fixed, e, 0)
    at = np.flatnonzero((dot >= 0) & (dot < 16))
    at = at[kept[dot[at] + 1, at]]
    digits[dot[at], at] |= ord(".") << 8

    out = np.zeros((n, 6), "<u8")
    head = np.where(fixed & (e < 0), -e, 0) + 5 * np.signbit(x)
    out[:, 0] = _HEAD[head]
    out.view("<u2")[:, 4:20] = digits[:16].T
    out[:, 5] = _TAIL[np.where(fixed, len(_TAIL) - 1, e - _TAIL_E0)] | digits[16]
    seps = _words([","] * (block.shape[1] - 1) + [end]) << np.uint64(48)
    out.reshape(-1, block.shape[1], 6)[:, :, 5] |= seps
    text = out.view(np.uint8)
    for i in np.flatnonzero(undecided):
        field = format(float(x[i]), ".17g").encode()
        text[i, :-2] = 0  # all but the separator
        text[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


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
    with open(path, encoding="utf-8") as fh:
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


def project_initial_state(modes: np.ndarray, kind: str) -> np.ndarray:
    """The exact coefficients of a catalog state over modes of the interval.

    `modes` holds one index row per mode, of dimension 1: a catalog state
    lives on the interval, and modes of the square raise InputError. Both
    catalog states are symmetric about x = 1/2, so against
    sqrt(2) sin(k pi x) every even k gives exactly 0; an odd k gives
    4 sqrt(2) (12 - (k pi)^2) / (k pi)^5 for `poly_sq` and
    4 sqrt(2) / (pi k (16 - k^2)) for `trig_sq`.
    """
    if kind not in _CATALOG:
        raise InputError(f"no closed-form {kind!r} state")
    if modes.shape[1] != 1:
        raise InputError(f"{kind} lives on the interval, got modes of dimension {modes.shape[1]}")
    k = modes[:, 0].astype(float)
    odd = k % 2.0 == 1.0
    coefficients = np.zeros(k.size)
    coefficients[odd] = _CATALOG[kind][0](k[odd])
    return coefficients


def _sensor_functional(
    sensor: Sensor, basis: np.ndarray, axis: int | None
) -> np.ndarray:
    """The vector (C phi_k)_k for one sensor, or (C d_axis phi_k)_k."""
    if sensor.kind == "pointwise":
        return mode_table(basis, sensor.location, axis)
    pts, w = region_rule(sensor.support, SENSOR_ORDER)
    weighted = w * np.asarray(sensor.weight(*pts), dtype=float)
    return weighted @ mode_table(basis, pts, axis)


def output_matrix(
    sensors: Sequence[Sensor], basis: np.ndarray, axis: int | None = None
) -> np.ndarray:
    """Stacked output functionals, shape (p, M): row ch is (C_ch phi_k)_k.

    With an axis, row ch is (C_ch d_axis phi_k)_k: the sensed partials.
    """
    if not sensors:
        raise InputError("at least one sensor is required")
    return np.array([_sensor_functional(s, basis, axis) for s in sensors])


def generate_measurements(
    alpha: float,
    modes: np.ndarray,
    coefficients: np.ndarray,
    sensors: Sequence[Sensor],
    grid: TimeGrid,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> MeasurementRecord:
    """Sample every sensor on the grid, optionally perturbed by Gaussian noise.

    Mode k of the state's `coefficients` decays as E_alpha(-lam_k t^alpha);
    alpha outside (0, 1] raises DomainError; measurement_noise checks noise_sigma.
    The samples are the only array of the grid's length held besides a
    noise draw: fraccalc.decay_apply sums the decay table block by block,
    and the draw is added into that sum in place. A noiseless record adds
    0.0 too, which turns a -0.0 sample into the 0 that `to_csv` writes.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (len(modes),):
        raise InputError("state length does not match the basis")
    P = output_matrix(sensors, modes)
    samples = decay_apply(alpha, eigenvalues(modes), grid.nodes, coefficients[:, None] * P.T)
    samples += measurement_noise(noise_sigma, seed, samples.shape)
    return MeasurementRecord(grid, samples)


def measurement_noise(sigma: float, seed: int, shape: tuple[int, ...]) -> np.ndarray | float:
    """The Gaussian draw a record of this shape and seed gets; 0.0 when sigma is 0."""
    # written so that nan fails too: a nan sigma would pass `sigma < 0`
    # and `sigma > 0` alike and leave the record silently noiseless
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise InputError(f"noise_sigma must be finite and >= 0, got {sigma}")
    return np.random.default_rng(seed).normal(0.0, sigma, shape) if sigma > 0.0 else 0.0
