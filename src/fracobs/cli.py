"""Command-line driver for the reconstruction pipeline.

Four subcommands cover the full workflow on the unit interval or square:
``simulate`` samples sensor outputs of a diffusion run into a CSV record,
``reconstruct`` runs the variational gradient solver on such a record,
``check-strategic`` rank-tests a sensor layout, and ``sweep-sensor`` tabulates
reconstruction quality while a single sensor moves across the domain.

Runs are described by a flat text config of ``key = value`` lines with dotted
section keys (``sensor.kind``, ``omega.lo``, ...). Initial states and zonal
weights come from the small named catalogs of ``system`` instead of an
expression parser, so every experiment file states its provenance
explicitly. The full schema is listed in the README; unknown, malformed
or refused fields abort with a usage error naming the key. This module
only parses the config, dispatches the command and writes its rows.

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

from .errors import (
    AccuracyError,
    ConvergenceError,
    FracobsError,
    InputError,
    SolvabilityError,
)
from .fraccalc import TimeGrid
from .hum import (
    PROBLEM_RANGES,
    REG_KINDS,
    HumProblem,
    Regularization,
    reconstruct,
    sweep_channels,
    sweep_chunk,
)
from .observability import test_gradient_strategic as strategic_verdict
from .spectral import Region
from .system import (
    SENSOR_KINDS,
    STATE_KINDS,
    ZONAL_WEIGHTS,
    InitialState,
    MeasurementRecord,
    Sensor,
    generate_measurements,
    measurement_noise,
)

# argparse's gettext imports locale when a process builds its first parser,
# which is inside main(); loading it with this module puts that cost in the
# start-up, with every other import, and leaves a command's run none
__import__("locale")

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

_SENSOR_PREFIX = re.compile(r"^(sensor\d*)\.")
# a sweep grid lists at most this many sensor positions
_MAX_SWEEP_POSITIONS = 10_001
# bytes read at a time when an output file is hashed
_HASH_CHUNK = 1 << 16


def _parse(raw: str, key: str, kind: type = float) -> float:
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"config field {key}: {raw!r} is not {noun}") from None


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_parse(part.strip(), key) for part in raw.split(","))


def _pop_required(fields: dict[str, str], key: str, why: str = "") -> str:
    raw = fields.pop(key, None)
    if raw is None:
        raise InputError(f"config field {key} is required{why}")
    return raw


def _require(ok: bool, key: str, rule: str, value: object) -> None:
    if not ok:
        raise InputError(f"config field {key}: must be {rule}, got {value}")


def _in_range(field: str, key: str, value: float) -> None:
    """Check a config value against the range of the HumProblem field it sets."""
    rule, ok = PROBLEM_RANGES[field]
    _require(ok(value), key, rule, value)


def _named(label: str, make: Callable):
    """make(), its InputError prefixed with the label of what it was built from."""
    try:
        return make()
    except InputError as exc:
        raise InputError(f"{label}: {exc}") from None


def _parse_choice(raw: str, key: str, allowed: Sequence[str]) -> str:
    if raw not in allowed:
        raise InputError(f"config field {key}: {raw!r} not one of {sorted(allowed)}")
    return raw


def _point(raw: str, key: str, dim: int) -> tuple[float, ...]:
    values = _parse_floats(raw, key)
    if len(values) != dim:
        raise InputError(f"config field {key}: expected {dim} coordinates, got {len(values)}")
    return values


def _read_items(path: str) -> list[tuple[str, str]]:
    if not os.path.isfile(path):
        raise InputError(f"config file {path!r} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path!r} is not UTF-8 text ({exc.reason})") from None
    items: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, 1):
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
    key = f"{prefix}.kind"
    raw = _pop_required(fields, key, f" (other {prefix}.* fields are set)")
    if _parse_choice(raw, key, SENSOR_KINDS) == "pointwise":
        key = f"{prefix}.location"
        location = _point(_pop_required(fields, key, " for a pointwise sensor"), key, dim)
        return _named(f"config field {key}", lambda: Sensor.pointwise(location))
    lo = fields.pop(f"{prefix}.support.lo", None)
    hi = fields.pop(f"{prefix}.support.hi", None)
    if lo is None or hi is None:
        raise InputError(f"config fields {prefix}.support.lo/.hi are required for a zonal sensor")
    lower, upper = _point(lo, f"{prefix}.support.lo", dim), _point(hi, f"{prefix}.support.hi", dim)
    support = _named(f"config field {prefix}.support.lo/.hi", lambda: Region(lower, upper))
    key = f"{prefix}.weight.kind"
    weight_kind = _parse_choice(fields.pop(key, "constant"), key, ZONAL_WEIGHTS)
    scale_key = f"{prefix}.weight.scale"
    scale = _parse(fields.pop(scale_key, "1.0"), scale_key)
    _require(math.isfinite(scale), scale_key, "finite", scale)
    weight = _named(f"config field {key}", lambda: ZONAL_WEIGHTS[weight_kind](scale, support))
    return Sensor.zonal(support, weight)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run description parsed from a flat key/value file.

    `problem` holds the order, horizon, truncation, omega, sensors and solve
    policy; the other fields describe the initial state, the time grid, the
    noise and the output directory.
    """

    problem: HumProblem
    state: InitialState
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

        dim = _parse(fields.pop("domain.dim", "1"), "domain.dim", int)
        _require(dim in (1, 2), "domain.dim", "1 or 2", dim)
        alpha_raw = _pop_required(fields, "alpha")
        horizon_raw = _pop_required(fields, "horizon")
        alpha = _parse(alpha_raw, "alpha")
        _in_range("alpha", "alpha", alpha)
        horizon = _parse(horizon_raw, "horizon")
        _in_range("horizon", "horizon", horizon)
        modes = _parse(fields.pop("modes", "8"), "modes", int)
        _in_range("mode_count", "modes", modes)
        epsilon = _parse(fields.pop("epsilon", "1e-6"), "epsilon")
        _in_range("epsilon", "epsilon", epsilon)

        lo = _point(fields.pop("omega.lo", ",".join(["0.0"] * dim)), "omega.lo", dim)
        hi = _point(fields.pop("omega.hi", ",".join(["1.0"] * dim)), "omega.hi", dim)
        omega = _named("config field omega.lo/.hi", lambda: Region(lo, hi))

        matches = (_SENSOR_PREFIX.match(key) for key, _ in items)
        prefixes = list(dict.fromkeys(m.group(1) for m in matches if m))
        if not prefixes:
            raise InputError("config field sensor.kind is required (no sensor defined)")
        sensors = tuple(_pop_sensor(fields, prefix, dim) for prefix in prefixes)

        state_kind = _parse_choice(fields.pop("state.kind", "zero"), "state.kind", STATE_KINDS)
        coefficients: tuple[float, ...] = ()
        if state_kind == "coefficients":
            coeff_raw = _pop_required(fields, "state.coefficients", " for that state.kind")
            coefficients = _parse_floats(coeff_raw, "state.coefficients")
            _require(
                all(math.isfinite(c) for c in coefficients),
                "state.coefficients", "finite", coeff_raw,
            )
            depth = len(coefficients)
        elif "state.coefficients" in fields:
            raise InputError("config field state.coefficients only applies to kind=coefficients")
        elif state_kind == "zero":
            # a zero state is expanded over the solve's modes
            depth = modes
        else:
            depth = _parse(fields.pop("state.modes", "200"), "state.modes", int)
            _require(depth >= 1, "state.modes", ">= 1", depth)
        if "state.modes" in fields:
            raise InputError("config field state.modes only applies to kind=poly_sq or trig_sq")
        state = _named(
            "config field state.kind", lambda: InitialState(state_kind, dim, depth, coefficients)
        )

        samples = _parse(fields.pop("time.samples", "512"), "time.samples", int)
        _require(samples >= 2, "time.samples", ">= 2", samples)
        grading = _parse_choice(
            fields.pop("time.grading", "uniform"), "time.grading", ("uniform", "graded")
        )
        # the graded half of the grid needs at least two panels
        if grading == "graded":
            _require(samples >= 4, "time.samples", ">= 4 with time.grading = graded", samples)
        noise_sigma = _parse(fields.pop("noise.sigma", "0.0"), "noise.sigma")
        _require(
            math.isfinite(noise_sigma) and noise_sigma >= 0.0,
            "noise.sigma", "finite and >= 0", noise_sigma,
        )
        seed = _parse(fields.pop("seed", "0"), "seed", int)
        _require(seed >= 0, "seed", ">= 0", seed)

        kind = _parse_choice(fields.pop("solver.kind", "tikhonov"), "solver.kind", REG_KINDS)
        raw = fields.pop("solver.value", None)
        value = None if raw is None else _parse(raw, "solver.value")
        solver = _named("config field solver.value", lambda: Regularization(kind, value))

        step = _parse(fields.pop("escalation.step", "4"), "escalation.step", int)
        _in_range("escalation_step", "escalation.step", step)
        cap = _parse(fields.pop("escalation.max_iterations", "5"), "escalation.max_iterations", int)
        _in_range("max_iterations", "escalation.max_iterations", cap)
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
            regularization=solver,
            epsilon=epsilon,
            escalation_step=step,
            max_iterations=cap,
        )
        return cls(
            problem=problem,
            state=state,
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

    def truth(self) -> tuple[Callable, ...] | None:
        """The state's gradient, or None when the config sets no state.kind.

        A record alone carries no truth: without a configured state there
        is nothing to hold a reconstruction against, and `state`, which
        simulate takes, is only the zero default.
        """
        return self.state.gradient() if "state.kind" in dict(self.raw) else None

    def time_grid(self) -> TimeGrid:
        grid = TimeGrid.uniform if self.time_grading == "uniform" else TimeGrid.graded
        return grid(self.problem.horizon, self.time_samples)


def _sha256_of(path: str) -> str:
    """The file's sha256, read in chunks of _HASH_CHUNK bytes, never whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_simulate(config: RunConfig, out_dir: str) -> int:
    modes, state = config.state.modal()
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
    truth = config.truth()
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
    lo = _parse(parts[0], "sweep grid lo")
    hi = _parse(parts[1], "sweep grid hi")
    step = _parse(parts[2], "sweep grid step")
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
    truth = config.truth()
    if truth is None:
        raise InputError(
            "config field state.kind is required: sweep-sensor ranks positions by the error"
            " against the state"
        )
    positions = _parse_sweep_grid(grid_spec)
    # every moved sensor is checked before sweep.csv is opened: a point on
    # the domain's edge, or a support pushed past it, is a usage error
    sensors = _named(f"sweep grid {grid_spec!r}", lambda: tuple(map(sensor.moved, positions)))

    modes, state = config.state.modal()
    grid = config.time_grid()
    # every position sees the draw a one-sensor record of this seed gets
    noise = measurement_noise(config.noise_sigma, config.seed, (len(grid), 1))
    chunk = sweep_chunk(len(grid))
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
