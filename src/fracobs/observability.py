"""Observability diagnostics for the gradient of the state.

Three questions are answered at a finite truncation M:

* do the sensors see every eigenvalue group of the gradient (the
  strategic test, a rank condition per group of equal eigenvalues),
* is the Gram of the observation map positive definite, judged from the
  eigenvalues of the one decomposition each solve makes,
* and the worked two-dimensional example where a gradient is invisible
  from the whole domain yet visible from a subregion.

Rank decisions are singular-value decisions with a relative tolerance;
anything within a factor 10 of the cut is reported as inconclusive
rather than silently rounded to a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError
from .fraccalc import decay_apply
from .spectral import Region, eigenpairs, eigenvalue_groups, eigenvalues, mode_table, region_rule
from .system import Sensor, output_matrix, write_rows

__all__ = [
    "StrategicReport",
    "GramDiagnostic",
    "test_gradient_strategic",
    "counterexample_check",
]

# the rank cut, relative to the largest singular value over all groups
RANK_TOLERANCE = 1e-10
GRAY_ZONE_FACTOR = 10.0
# a Gram is positive definite when its smallest eigenvalue exceeds this
# share of its largest
DEFINITE_CUT = 1e-10
# modes per axis summed by the worked counterexample
COUNTEREXAMPLE_DEPTH = 40


@dataclass(frozen=True)
class StrategicReport:
    """Outcome of the per-group rank test.

    group_svals holds, for each eigenvalue group, the decision singular
    value of the stacked block: the (n*r_j)-th largest one, which is zero
    whenever the stack has fewer than n*r_j rows. offending lists 1-based
    group indices that failed (for non_strategic) or sat inside the gray
    zone (for inconclusive).
    """

    verdict: str
    group_sizes: tuple[int, ...]
    group_svals: tuple[float, ...]
    offending: tuple[int, ...]

    def to_csv(self, path: str) -> None:
        """A header and one `%.17g` row per group, CRLF-terminated."""
        columns = (
            np.arange(1.0, len(self.group_sizes) + 1),
            np.array(self.group_sizes, dtype=float),
            np.array(self.group_svals, dtype=float),
        )
        with open(path, "w", newline="") as fh:
            fh.write("group,r,smallest_singular_value\r\n")
            write_rows(fh, columns, "\r\n")


@dataclass(frozen=True)
class GramDiagnostic:
    """Spectrum summary of a symmetric Gram: positive definite when ev_min >
    DEFINITE_CUT * ev_max > 0, condition ev_max / ev_min (inf if ev_min <= 0)."""

    smallest_eigenvalue: float
    largest_eigenvalue: float
    positive_definite: bool
    condition_number: float

    @classmethod
    def from_eigenvalues(cls, evals: np.ndarray) -> "GramDiagnostic":
        """Summary of a Gram from its eigenvalues in ascending order."""
        ev_min, ev_max = float(evals[0]), float(evals[-1])
        pd = ev_min > DEFINITE_CUT * ev_max and ev_max > 0.0
        cond = ev_max / ev_min if ev_min > 0.0 else math.inf
        return cls(ev_min, ev_max, pd, cond)


def test_gradient_strategic(sensors: Sequence[Sensor], M: int) -> StrategicReport:
    """Rank test of the stacked per-group blocks [B_j^1 ... B_j^n].

    The sensors see the gradient of every state at truncation M exactly
    when each stacked block has trivial kernel, i.e. rank n*r_j. Groups
    whose decision singular value lands within GRAY_ZONE_FACTOR of the
    cut produce an inconclusive verdict instead of a guess.
    """
    if not sensors:
        raise InputError("at least one sensor is required")
    if M < 1:
        raise InputError(f"M must be >= 1, got {M}")
    dims = {s.dimension for s in sensors}
    if len(dims) != 1:
        raise InputError(f"sensors mix domain dimensions {sorted(dims)}")
    (n,) = dims
    modes = eigenpairs(n, M)
    # the axis-th partial of each mode, as seen by each sensor: the value at
    # its location, or the weighted integral over its support
    per_axis = [output_matrix(sensors, modes, d) for d in range(n)]
    groups = eigenvalue_groups(modes)
    p = len(sensors)

    # the cut is relative to the largest singular value across all groups;
    # a per-group scale would make a singleton group always look full rank
    stacks = [np.hstack([full[:, g] for full in per_axis]) for g in groups]
    spectra = [np.linalg.svd(s, compute_uv=False) for s in stacks]
    scale = max((float(s[0]) for s in spectra if s.size), default=0.0)
    cut = RANK_TOLERANCE * scale

    sizes: list[int] = []
    svals: list[float] = []
    failed: list[int] = []
    gray: list[int] = []
    for j, g in enumerate(groups, 1):
        nr = n * len(g)
        sizes.append(len(g))
        if p < nr:
            svals.append(0.0)
            failed.append(j)
            continue
        smin = float(spectra[j - 1][nr - 1])
        svals.append(smin)
        if scale == 0.0 or smin <= cut:
            failed.append(j)
        elif smin <= GRAY_ZONE_FACTOR * cut:
            gray.append(j)

    if failed:
        verdict, offending = "non_strategic", failed
    elif gray:
        verdict, offending = "inconclusive", gray
    else:
        verdict, offending = "strategic", []
    return StrategicReport(verdict, tuple(sizes), tuple(svals), tuple(offending))


def counterexample_check(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The worked example of a gradient invisible globally, visible locally.

    On the unit square with order 1/2 dynamics, the line sensor
    D = {1/2} x (0,1) with weight sin(2 pi y2) observes nothing of a
    particular gradient field over the whole domain, yet observes
    -(sqrt(2)/(24 pi)) E_{1/2}(-5 pi^2 sqrt(t)) of its restriction to
    omega = (0,1) x (1/8, 5/8). Returns (global, restricted) output
    values at the requested times, each a sum over the first
    COUNTEREXAMPLE_DEPTH modes per axis with quadrature-evaluated
    coefficient factors.
    """
    t = np.atleast_1d(np.asarray(samples, dtype=float))
    if t.size == 0:
        raise InputError("at least one time sample is required")
    if np.any(t < 0.0) or np.any(t > 2.0):
        raise DomainError("time samples must lie in [0, 2]")
    modes = eigenpairs(1, COUNTEREXAMPLE_DEPTH)

    def sines(y) -> np.ndarray:  # sin(j pi y), j = 1..COUNTEREXAMPLE_DEPTH
        return mode_table(modes, (y,)) / math.sqrt(2.0)

    def pairings(weight_freq: int, a: float, b: float) -> np.ndarray:
        (y,), w = region_rule(Region((a,), (b,)), 96)
        table = sines(y)
        return (w * table[:, weight_freq - 1]) @ table

    f1 = pairings(1, 0.0, 1.0)  # ~ delta_{i,1}/2
    f4 = pairings(2, 0.0, 1.0)  # ~ delta_{j,2}/2
    f2_global = pairings(4, 0.0, 1.0)  # ~ delta_{j,4}/2
    f2_window = pairings(4, 0.125, 0.625)
    s3 = sines(0.5)

    row = f1 * s3
    col_global = f2_global * f4
    col_window = f2_window * f4
    coef_global = np.outer(row, col_global)
    coef_window = np.outer(row, col_window)

    # every mode (i, j) of [1, COUNTEREXAMPLE_DEPTH]^2, i slowest
    lams = eigenvalues(np.indices((COUNTEREXAMPLE_DEPTH,) * 2).reshape(2, -1).T + 1)
    outputs = decay_apply(0.5, lams, t, np.stack((coef_global.ravel(), coef_window.ravel()), 1))
    return outputs[:, 0], outputs[:, 1]
