"""Command-line driver for the reconstruction pipeline.

Four subcommands cover the full workflow on the unit interval or square:
``simulate`` samples sensor outputs of a diffusion run into a CSV record,
``reconstruct`` runs the variational gradient solver on such a record,
``check-strategic`` rank-tests a sensor layout, and ``sweep-sensor`` tabulates
reconstruction quality while a single sensor moves across the domain.

Runs are described by a flat text config of ``key = value`` lines with dotted
section keys (``sensor.kind``, ``omega.lo``, ...). Initial states and zonal
weights come from a small named catalog instead of an expression parser, so
every experiment file states its provenance explicitly. The full schema is
listed in the README; unknown or malformed fields abort with a usage error
naming the offender.

Exit codes: 0 success (or a strategic verdict), 1 non-strategic verdict,
2 usage or config error, 3 convergence cap hit, 4 singular normal equations,
5 internal accuracy failure, 6 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    ConvergenceError,
    FracobsError,
    InputError,
    SolvabilityError,
)
from .fraccalc import TimeGrid, graded_panel_edges, merge_nodes
from .hum import MOMENT_ORDER, HumProblem, Regularization, reconstruct, sweep_channels
from .observability import test_gradient_strategic as strategic_verdict
from .spectral import EigenMode, Region, SpatialDomain, eigenpairs, mode_table
from .system import (
    MeasurementRecord,
    ModalState,
    Sensor,
    generate_measurements,
    project_initial_state,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_NON_STRATEGIC = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_SOLVABILITY = 4
EXIT_ACCURACY = 5
EXIT_INCONCLUSIVE = 6

_VERDICT_EXITS = {
    "strategic": EXIT_OK,
    "non_strategic": EXIT_NON_STRATEGIC,
    "inconclusive": EXIT_INCONCLUSIVE,
}

_SENSOR_PREFIX = re.compile(r"^sensor(\d*)\.")
# a sweep grid lists at most this many sensor positions
_MAX_SWEEP_POSITIONS = 10_001
# positions x moment nodes per sweep chunk: the chunk's Caputo values stay
# within 8 MB, and its record within 1 MB
_SWEEP_BLOCK = 1 << 20


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"config field {key}: {raw!r} is not a number") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"config field {key}: {raw!r} is not an integer") from None


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip(), key) for part in raw.split(","))


def _require(ok: bool, key: str, rule: str, value: object) -> None:
    if not ok:
        raise InputError(f"config field {key}: must be {rule}, got {value}")


def _parse_choice(raw: str, key: str, allowed: Sequence[str]) -> str:
    if raw not in allowed:
        raise InputError(f"config field {key}: {raw!r} not one of {sorted(allowed)}")
    return raw


def _point(raw: str, key: str, dim: int) -> tuple[float, ...]:
    values = _parse_floats(raw, key)
    if len(values) != dim:
        raise InputError(f"config field {key}: expected {dim} coordinates, got {len(values)}")
    return values


def _constant_weight(scale: float) -> Callable[..., np.ndarray]:
    return lambda *xs: scale * np.ones_like(np.asarray(xs[0], dtype=float))


def _trig_product_weight(scale: float) -> Callable[..., np.ndarray]:
    # fixed incommensurate frequencies keep the weight nonzero on any box
    return lambda x, y: (
        scale
        * np.cos(math.sqrt(3.0) * math.pi * np.asarray(x, dtype=float))
        * np.sin(math.sqrt(2.0) * math.pi * np.asarray(y, dtype=float))
    )


def _read_items(path: str) -> list[tuple[str, str]]:
    if not os.path.isfile(path):
        raise InputError(f"config file {path!r} does not exist")
    items: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise InputError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
            key, value = (part.strip() for part in body.split("=", 1))
            if not key or not value:
                raise InputError(f"{path}:{lineno}: empty key or value")
            if key in seen:
                raise InputError(f"{path}:{lineno}: duplicate config field {key}")
            seen.add(key)
            items.append((key, value))
    return items


def _pop_sensor(fields: dict[str, str], prefix: str, dim: int) -> Sensor:
    kind = _parse_choice(
        fields.pop(f"{prefix}.kind"), f"{prefix}.kind", ("pointwise", "zonal")
    )
    if kind == "pointwise":
        raw = fields.pop(f"{prefix}.location", None)
        if raw is None:
            raise InputError(f"config field {prefix}.location is required for a pointwise sensor")
        return Sensor.pointwise(_point(raw, f"{prefix}.location", dim))
    lo = fields.pop(f"{prefix}.support.lo", None)
    hi = fields.pop(f"{prefix}.support.hi", None)
    if lo is None or hi is None:
        raise InputError(f"config fields {prefix}.support.lo/.hi are required for a zonal sensor")
    weight_kind = _parse_choice(
        fields.pop(f"{prefix}.weight.kind", "constant"),
        f"{prefix}.weight.kind",
        ("constant", "trig_product"),
    )
    if weight_kind == "trig_product" and dim != 2:
        raise InputError(f"config field {prefix}.weight.kind: trig_product needs domain.dim = 2")
    scale_key = f"{prefix}.weight.scale"
    scale = _parse_float(fields.pop(scale_key, "1.0"), scale_key)
    _require(math.isfinite(scale), scale_key, "finite", scale)
    support = Region(
        _point(lo, f"{prefix}.support.lo", dim), _point(hi, f"{prefix}.support.hi", dim)
    )
    weight = (_constant_weight if weight_kind == "constant" else _trig_product_weight)(scale)
    return Sensor.zonal(support, weight)


def _moved(sensor: Sensor, position: float) -> Sensor:
    """A 1D sensor moved: the point itself, or the left edge keeping width and weight."""
    if sensor.kind == "pointwise":
        return Sensor.pointwise((position,))
    width = sensor.support.upper[0] - sensor.support.lower[0]
    return Sensor.zonal(Region((position,), (position + width,)), sensor.weight)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run description parsed from a flat key/value file.

    `problem` holds the order, horizon, truncation, omega, sensors and solve
    policy; the other fields describe the initial state, the time grid, the
    noise and the output directory.
    """

    problem: HumProblem
    state_kind: str
    state_coefficients: tuple[float, ...]
    state_depth: int
    time_samples: int
    time_grading: str
    noise_sigma: float
    seed: int
    out_dir: str
    raw: tuple[tuple[str, str], ...]

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        items = _read_items(path)
        fields = dict(items)

        dim = _parse_int(fields.pop("domain.dim", "1"), "domain.dim")
        if dim not in (1, 2):
            raise InputError(f"config field domain.dim: must be 1 or 2, got {dim}")
        if "alpha" not in fields:
            raise InputError("config field alpha is required")
        if "horizon" not in fields:
            raise InputError("config field horizon is required")
        alpha = _parse_float(fields.pop("alpha"), "alpha")
        _require(0.0 < alpha <= 1.0, "alpha", "in (0, 1]", alpha)
        horizon = _parse_float(fields.pop("horizon"), "horizon")
        positive = "finite and positive"
        _require(math.isfinite(horizon) and horizon > 0.0, "horizon", positive, horizon)
        modes = _parse_int(fields.pop("modes", "8"), "modes")
        _require(modes >= 1, "modes", ">= 1", modes)
        epsilon = _parse_float(fields.pop("epsilon", "1e-6"), "epsilon")
        _require(math.isfinite(epsilon) and epsilon > 0.0, "epsilon", positive, epsilon)

        lo = fields.pop("omega.lo", ",".join(["0.0"] * dim))
        hi = fields.pop("omega.hi", ",".join(["1.0"] * dim))
        omega = Region(_point(lo, "omega.lo", dim), _point(hi, "omega.hi", dim))

        prefixes: list[str] = []
        for key, _ in items:
            match = _SENSOR_PREFIX.match(key)
            if match:
                prefix = f"sensor{match.group(1)}"
                if prefix not in prefixes:
                    prefixes.append(prefix)
        if not prefixes:
            raise InputError("config field sensor.kind is required (no sensor defined)")
        sensors = tuple(_pop_sensor(fields, prefix, dim) for prefix in prefixes)

        state_kind = _parse_choice(
            fields.pop("state.kind", "zero"),
            "state.kind",
            ("zero", "poly_sq", "trig_sq", "coefficients"),
        )
        coeff_raw = fields.pop("state.coefficients", None)
        if state_kind == "coefficients":
            if coeff_raw is None:
                raise InputError("config field state.coefficients is required for that state.kind")
            coefficients = _parse_floats(coeff_raw, "state.coefficients")
            _require(
                all(math.isfinite(c) for c in coefficients),
                "state.coefficients", "finite", coeff_raw,
            )
        else:
            if coeff_raw is not None:
                raise InputError("config field state.coefficients only applies to kind=coefficients")
            coefficients = ()
        if state_kind in ("poly_sq", "trig_sq"):
            if dim != 1:
                raise InputError(f"config field state.kind: {state_kind} needs domain.dim = 1")
            state_depth = _parse_int(fields.pop("state.modes", "200"), "state.modes")
            _require(state_depth >= 1, "state.modes", ">= 1", state_depth)
        elif "state.modes" in fields:
            raise InputError("config field state.modes only applies to kind=poly_sq or trig_sq")
        else:
            # a zero state is expanded over the solve's modes
            state_depth = len(coefficients) if state_kind == "coefficients" else modes

        samples = _parse_int(fields.pop("time.samples", "512"), "time.samples")
        _require(samples >= 2, "time.samples", ">= 2", samples)
        grading = _parse_choice(
            fields.pop("time.grading", "uniform"), "time.grading", ("uniform", "graded")
        )
        # the graded half of the grid needs at least two panels
        if grading == "graded":
            _require(samples >= 4, "time.samples", ">= 4 with time.grading = graded", samples)
        noise_sigma = _parse_float(fields.pop("noise.sigma", "0.0"), "noise.sigma")
        _require(
            math.isfinite(noise_sigma) and noise_sigma >= 0.0,
            "noise.sigma", "finite and >= 0", noise_sigma,
        )
        seed = _parse_int(fields.pop("seed", "0"), "seed")
        _require(seed >= 0, "seed", ">= 0", seed)

        solver_kind = _parse_choice(
            fields.pop("solver.kind", "tikhonov"),
            "solver.kind",
            ("none", "tikhonov", "truncated_svd", "spectral_tikhonov"),
        )
        value_raw = fields.pop("solver.value", None)
        solver_value = None if value_raw is None else _parse_float(value_raw, "solver.value")
        regularization = Regularization(solver_kind, solver_value)

        step = _parse_int(fields.pop("escalation.step", "4"), "escalation.step")
        _require(step >= 0, "escalation.step", ">= 0", step)
        cap = _parse_int(fields.pop("escalation.max_iterations", "5"), "escalation.max_iterations")
        _require(cap >= 1, "escalation.max_iterations", ">= 1", cap)
        out_dir = fields.pop("output.dir", ".")

        if fields:
            unknown = ", ".join(sorted(fields))
            raise InputError(f"unknown config fields: {unknown}")

        problem = HumProblem(
            mode_count=modes,
            omega=omega,
            sensors=sensors,
            alpha=alpha,
            horizon=horizon,
            regularization=regularization,
            epsilon=epsilon,
            escalation_step=step,
            max_iterations=cap,
        )
        return cls(
            problem=problem,
            state_kind=state_kind,
            state_coefficients=coefficients,
            state_depth=state_depth,
            time_samples=samples,
            time_grading=grading,
            noise_sigma=noise_sigma,
            seed=seed,
            out_dir=out_dir,
            raw=tuple(items),
        )

    def fingerprint(self) -> str:
        canon = "\n".join(f"{key} = {value}" for key, value in sorted(self.raw))
        return hashlib.sha256(canon.encode()).hexdigest()

    def time_grid(self) -> TimeGrid:
        horizon = self.problem.horizon
        if self.time_grading == "uniform":
            return TimeGrid.uniform(horizon, self.time_samples)
        # geometric refinement toward t=0 resolves fast modal transients the
        # uniform half cannot; the two sets share only 0 and the horizon, so
        # the merge keeps time.samples rounded down to even
        half = self.time_samples // 2
        edges = graded_panel_edges(horizon, half, 1e-12)
        uniform = np.linspace(0.0, horizon, half + 1)
        return TimeGrid(merge_nodes(edges, uniform, horizon))

    def initial_state(self) -> tuple[list[EigenMode], ModalState]:
        """The configured initial state with the modes it is expanded over."""
        modes = eigenpairs(SpatialDomain(self.problem.dimension), self.state_depth)
        if self.state_kind == "zero":
            return modes, ModalState(np.zeros(self.state_depth))
        if self.state_kind == "coefficients":
            return modes, ModalState(np.asarray(self.state_coefficients))
        return modes, project_initial_state(modes, self.state_kind)

    def truth_gradient(self) -> tuple[Callable[..., np.ndarray], ...]:
        """Closed-form (or modal) gradient of the configured initial state."""
        if self.state_kind == "poly_sq":
            return (lambda x: 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x),)
        if self.state_kind == "trig_sq":
            return (lambda x: 0.5 * np.pi * np.sin(4.0 * np.pi * x),)
        n = self.problem.dimension
        if self.state_kind == "coefficients":
            modes = eigenpairs(SpatialDomain(n), len(self.state_coefficients))
            coeffs = np.asarray(self.state_coefficients)
            return tuple(
                (lambda *xs, _d=axis: mode_table(modes, xs, _d) @ coeffs)
                for axis in range(n)
            )
        zero = lambda *xs: np.zeros_like(np.asarray(xs[0], dtype=float))
        return (zero,) * n


def _sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def cmd_simulate(config: RunConfig, out_dir: str) -> int:
    modes, state = config.initial_state()
    record = generate_measurements(
        config.problem.alpha,
        modes,
        state,
        config.problem.sensors,
        config.time_grid(),
        noise_sigma=config.noise_sigma,
        seed=config.seed,
    )
    path = os.path.join(out_dir, "measurements.csv")
    record.to_csv(path)
    print(f"config sha256 {config.fingerprint()}")
    rows, channels = record.samples.shape
    print(f"wrote {path} rows={rows} channels={channels} sha256 {_sha256_of(path)}")
    return EXIT_OK


def cmd_reconstruct(config: RunConfig, measurements: str, out_dir: str) -> int:
    if not os.path.isfile(measurements):
        raise InputError(f"measurements file {measurements!r} does not exist")
    record = MeasurementRecord.from_csv(measurements)
    truth = config.truth_gradient()
    path = os.path.join(out_dir, "field.csv")
    try:
        result = reconstruct(config.problem, record, truth=truth)
    except ConvergenceError as exc:
        history = ", ".join(f"{r:.3g}" for r in exc.residual_history)
        print(f"convergence cap hit; residual history: {history}", file=sys.stderr)
        exc.best.write_csv(path, truth=truth)
        print(f"wrote {path} (best iterate) sha256 {_sha256_of(path)}")
        return EXIT_CONVERGENCE
    result.write_csv(path, truth=truth)
    print(f"config sha256 {config.fingerprint()}")
    print("summary " + json.dumps(result.summary, sort_keys=True))
    print(f"wrote {path} sha256 {_sha256_of(path)}")
    return EXIT_OK


def cmd_check_strategic(config: RunConfig, out_dir: str) -> int:
    report = strategic_verdict(config.problem.sensors, config.problem.mode_count)
    path = os.path.join(out_dir, "strategic.csv")
    report.to_csv(path)
    offending = ",".join(str(j) for j in report.offending) or "-"
    print(f"verdict {report.verdict} offending_groups {offending}")
    print(f"wrote {path} sha256 {_sha256_of(path)}")
    return _VERDICT_EXITS[report.verdict]


def _parse_sweep_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"sweep grid {spec!r} must look like lo:hi:step")
    lo = _parse_float(parts[0], "sweep grid lo")
    hi = _parse_float(parts[1], "sweep grid hi")
    step = _parse_float(parts[2], "sweep grid step")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise InputError(f"sweep grid {spec!r} needs finite lo, hi and step")
    if step <= 0.0 or not 0.0 <= lo <= hi <= 1.0:
        raise InputError(f"sweep grid {spec!r} needs step > 0 and 0 <= lo <= hi <= 1")
    # compared as a float first: a tiny step makes the quotient huge or inf
    steps = (hi - lo) / step + 1e-9
    if steps >= _MAX_SWEEP_POSITIONS:
        raise InputError(
            f"sweep grid {spec!r} has more than {_MAX_SWEEP_POSITIONS} positions"
        )
    return [lo + i * step for i in range(int(math.floor(steps)) + 1)]


def cmd_sweep_sensor(config: RunConfig, grid_spec: str, out_dir: str) -> int:
    problem = config.problem
    if problem.dimension != 1:
        raise InputError("sensor sweeps need domain.dim = 1")
    if len(problem.sensors) != 1:
        raise InputError("sensor sweeps need exactly one configured sensor")
    (sensor,) = problem.sensors
    positions = _parse_sweep_grid(grid_spec)
    # every moved sensor is checked before sweep.csv is opened: a point on
    # the domain's edge, or a support pushed past it, is a usage error
    try:
        sensors = tuple(_moved(sensor, b) for b in positions)
    except InputError as exc:
        raise InputError(f"sweep grid {grid_spec!r}: {exc}") from None

    modes, state = config.initial_state()
    grid = config.time_grid()
    truth = config.truth_gradient()
    # every position sees the draw a one-sensor record of this seed gets
    noise = 0.0
    if config.noise_sigma > 0.0:
        rng = np.random.default_rng(config.seed)
        noise = rng.normal(0.0, config.noise_sigma, (len(grid), 1))
    chunk = max(1, _SWEEP_BLOCK // (len(grid) * MOMENT_ORDER))
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("location,error,residual,lambda_min\n")
        fh.flush()
        for lo in range(0, len(positions), chunk):
            # one record for the chunk, a channel per position
            batch = positions[lo : lo + chunk]
            moved = sensors[lo : lo + chunk]
            samples = generate_measurements(problem.alpha, modes, state, moved, grid).samples
            record = MeasurementRecord(grid, samples + noise)
            rows = sweep_channels(replace(problem, sensors=moved), record, truth)
            for position, (error, residual, lam_min) in zip(batch, rows):
                fh.write(f"{position:.17g},{error:.17g},{residual:.17g},{lam_min:.17g}\n")
                fh.flush()
    print(f"config sha256 {config.fingerprint()}")
    print(f"wrote {path} rows={len(positions)} sha256 {_sha256_of(path)}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracobs",
        description="Simulate, reconstruct, and study sensor placements for "
        "time-fractional diffusion on the unit interval or square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key=value run config")
        p.add_argument("--out", default=None, help="output directory (default: config output.dir or '.')")

    common(sub.add_parser("simulate", help="sample sensor outputs into measurements.csv"))
    p_rec = sub.add_parser("reconstruct", help="solve the gradient from a measurement record")
    common(p_rec)
    p_rec.add_argument("--measurements", required=True, help="CSV written by simulate")
    common(sub.add_parser("check-strategic", help="rank-test the configured sensor layout"))
    p_sweep = sub.add_parser("sweep-sensor", help="tabulate error while one sensor moves")
    common(p_sweep)
    p_sweep.add_argument("--sweep-grid", required=True, help="positions as lo:hi:step")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        config = RunConfig.load(args.config)
        out_dir = args.out if args.out is not None else config.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir)
        if args.command == "reconstruct":
            return cmd_reconstruct(config, args.measurements, out_dir)
        if args.command == "check-strategic":
            return cmd_check_strategic(config, out_dir)
        return cmd_sweep_sensor(config, args.sweep_grid, out_dir)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolvabilityError as exc:
        print(f"solvability error: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except FracobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
