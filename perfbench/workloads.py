"""The three benchmark workloads: configs, command sequences and output checks.

Every workload is noiseless, so the seed only lands in the config's
``seed`` field (and its fingerprint); the records and results do not
depend on it. Why each workload exists, which layers it loads and which
metrics it should leave flat is written up in perfbench/README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

# The README's example config.
README_ZONAL = """\
alpha = 0.5
horizon = 2.0
modes = 8
epsilon = 1e-4
omega.lo = 0.35
omega.hi = 0.65
sensor.kind = zonal
sensor.support.lo = 0.9
sensor.support.hi = 1.0
state.kind = poly_sq
time.samples = 1024
time.grading = graded
solver.kind = tikhonov
solver.value = 1e-7
"""

# SWEEP_CONFIG of tests/test_acceptance.py.
SWEEP_POINT = """\
alpha = 0.84
horizon = 1.0
modes = 8
omega.lo = 0.0
omega.hi = 0.25
sensor.kind = pointwise
sensor.location = 0.2
state.kind = trig_sq
time.samples = 512
solver.kind = none
"""

# Three points of the acceptance sweep's 0.05:0.95:0.05. Measured on 2
# cores at the commit that added this benchmark, the first position costs
# 19-25 s (kernel set-up at alpha = 0.84) and each further one 2.5-3.5 s,
# so all 19 positions (65-90 s) would not fit the benchmark's time budget
# next to readme-zonal. b = 0.20 (blind to mode 5, the acceptance test's
# pinned optimum) and b = 0.50 (blind to modes 2, 4, 6, 8) take the failure
# path; b = 0.35 is solvable. Every position rebuilds the record against
# the same time grid.
SWEEP_GRID = "0.20:0.50:0.15"

INTERVAL_ALPHA1 = """\
alpha = 1
horizon = 1
modes = 4
epsilon = 3e-5
omega.lo = 0
omega.hi = 0.25
sensor1.kind = pointwise
sensor1.location = 0.2
sensor2.kind = pointwise
sensor2.location = 0.55
sensor3.kind = zonal
sensor3.support.lo = 0.9
sensor3.support.hi = 1.0
state.kind = poly_sq
time.samples = 65536
time.grading = graded
solver.kind = tikhonov
solver.value = 1e-7
escalation.step = 2
"""

# Frozen bound of test_reconstruct_zonal_profile_end_to_end.
README_ERROR_BOUND = 1e-4
# omega_error of interval-alpha1 at the parent of this benchmark, and the
# relative margin it must stay within: wide enough for reordered floating
# point sums, narrow enough to catch a changed reconstruction.
INTERVAL_ERROR_SEED = 7.738816729560354e-05
INTERVAL_ERROR_MARGIN = 1e-2
# sweep-sensor solves with solver.kind = none at this truncation
SWEEP_MODES = 8


@dataclass
class Outcome:
    """One finished CLI command."""

    command: str
    exit: int | None  # None when the process was stopped at the deadline
    stdout: str
    out_dir: str


@dataclass
class Op:
    """One checked operation: a CLI command or one sweep position."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # CLI argument lists; {config} and {out} are filled in per sequence
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[Outcome]], tuple[list[Op], float | None]]
    # spans that must record at least one call in a traced run
    spans: frozenset[str]


def _summary(stdout: str) -> dict | None:
    for line in stdout.splitlines():
        if line.startswith("summary "):
            return json.loads(line[len("summary "):])
    return None


def _exit_op(outcome: Outcome) -> Op | None:
    if outcome.exit != 0:
        return Op(outcome.command, False, f"exit {outcome.exit}, expected 0")
    return None


def _check_simulate(outcome: Outcome) -> Op:
    bad = _exit_op(outcome)
    if bad:
        return bad
    ok = os.path.isfile(os.path.join(outcome.out_dir, "measurements.csv"))
    return Op("simulate", ok, "" if ok else "measurements.csv missing")


def _check_reconstruct(outcome: Outcome, iterations: int, error_ok) -> tuple[Op, float | None]:
    bad = _exit_op(outcome)
    if bad:
        return bad, None
    summary = _summary(outcome.stdout)
    if summary is None:
        return Op("reconstruct", False, "no summary line"), None
    error = summary["error_vs_truth"]
    problems = []
    if summary["iterations"] != iterations:
        problems.append(f"iterations {summary['iterations']} != {iterations}")
    if error is None or not error_ok(error):
        problems.append(f"omega_error {error} out of range")
    return Op("reconstruct", not problems, "; ".join(problems)), error


def check_readme_zonal(outcomes: list[Outcome]) -> tuple[list[Op], float | None]:
    simulate, reconstruct = outcomes
    op, error = _check_reconstruct(reconstruct, 1, lambda e: e <= README_ERROR_BOUND)
    return [_check_simulate(simulate), op], error


def check_interval_alpha1(outcomes: list[Outcome]) -> tuple[list[Op], float | None]:
    strategic, simulate, reconstruct = outcomes
    verdict = _exit_op(strategic) or Op(
        "check-strategic",
        "verdict strategic " in strategic.stdout,
        "" if "verdict strategic " in strategic.stdout else "verdict is not strategic",
    )
    op, error = _check_reconstruct(
        reconstruct, 3,
        lambda e: abs(e - INTERVAL_ERROR_SEED) <= INTERVAL_ERROR_MARGIN * INTERVAL_ERROR_SEED,
    )
    return [verdict, _check_simulate(simulate), op], error


def sweep_positions() -> list[float]:
    lo, hi, step = (float(part) for part in SWEEP_GRID.split(":"))
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def is_blind(b: float) -> bool:
    """A point sensor at b reads mode k through sin(k pi b)."""
    return any(abs(math.sin(k * math.pi * b)) < 1e-9 for k in range(1, SWEEP_MODES + 1))


def check_sweep_point(outcomes: list[Outcome]) -> tuple[list[Op], float | None]:
    (sweep,) = outcomes
    positions = sweep_positions()
    names = [f"sweep b={b:.2f}" for b in positions]
    bad = _exit_op(sweep)
    if bad:
        return [Op(name, False, bad.detail) for name in names], None
    with open(os.path.join(sweep.out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(positions):
        return [Op(name, False, f"{len(rows)} rows, expected {len(positions)}") for name in names], None
    ops, finite = [], []
    for name, b, row in zip(names, positions, rows):
        location, error = float(row[0]), float(row[1])
        blind = is_blind(b)
        ok = abs(location - b) < 1e-12 and math.isnan(error) == blind
        if not blind and math.isfinite(error):
            finite.append(error)
        ops.append(Op(name, ok, "" if ok else f"row {row} (blind spot: {blind})"))
    return ops, statistics.median(finite) if finite else None


_SIMULATE = ("simulate", "--config", "{config}", "--out", "{out}")
_RECONSTRUCT = ("reconstruct", "--config", "{config}", "--measurements",
                "{out}/measurements.csv", "--out", "{out}")
_COMMON_SPANS = {
    "fraccalc.mlf_values", "fraccalc.ml_product_matrix", "spectral.eigenpairs",
    "spectral.grad_coupling", "system.generate_measurements", "system.output_matrix",
    "hum.assemble_gram", "hum.assemble_rhs", "hum.solve_reconstruction", "hum.eigh",
    "hum.omega_error",
}
_RECORD_SPANS = {
    "cli.simulate", "cli.reconstruct", "hum.reconstruct",
    "system.MeasurementRecord.to_csv", "system.MeasurementRecord.from_csv",
    "hum.ReconstructionResult.write_csv",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme-zonal", README_ZONAL, (_SIMULATE, _RECONSTRUCT), check_readme_zonal,
            frozenset(_COMMON_SPANS | _RECORD_SPANS | {"fraccalc.caputo_values"}),
        ),
        Workload(
            "sweep-point", SWEEP_POINT,
            (("sweep-sensor", "--config", "{config}", "--sweep-grid", SWEEP_GRID,
              "--out", "{out}"),),
            check_sweep_point,
            frozenset(_COMMON_SPANS | {"cli.sweep-sensor", "fraccalc.caputo_values",
                                       "hum.residual_against"}),
        ),
        Workload(
            "interval-alpha1", INTERVAL_ALPHA1,
            (("check-strategic", "--config", "{config}", "--out", "{out}"),
             _SIMULATE, _RECONSTRUCT),
            check_interval_alpha1,
            frozenset(_COMMON_SPANS | _RECORD_SPANS
                      | {"cli.check-strategic", "observability.test_gradient_strategic"}),
        ),
    )
}
