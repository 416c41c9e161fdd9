"""Reconstruction of the initial gradient from sensor records.

The sought object is expanded over the vector basis of eigenfunction
components, phi_q along axis d, flattened as i = n*(q-1) + d. The normal
equations use the Gram of the sensed evolution of those basis fields,

    Lambda = B (T .* P'P) B',

with B the divergence couplings <div* basis_i, phi_k> (closed form over
the full domain), T the decay-product integrals int E_k E_l dt, and P the
sensor functionals. The right-hand side pairs the same evolutions against
the data after applying the time-fractional derivative to it, which is
what makes noiseless in-span data reproduce Lambda times the true
coefficients exactly. For alpha < 1 the L1 Caputo rule is applied to the
samples on Gauss moment nodes, once per reconstruction: the nodes do not
depend on the truncation, so every escalation step pairs the same
weighted derivative with the decay profiles of its modes. fraccalc.caputo_values
sums each node's near cells exactly and its far cells through a sum of
exponentials, so that pass is linear in the record length. At alpha = 1 the
derivative of the piecewise linear record is its slope per cell, and its
pairing with exp(-lam t) is done in closed form on each cell. Either way
a mode's moments depend on that mode alone, so an escalation step pairs
only the modes it adds: reconstruct keeps the moments as one array and
extends it at each step with the rows of the step's new modes.

A HumProblem owns the operators of its truncation: the modes, their
eigenvalues, B, P and T are cached properties, each built once on first
use and read-only. The Gram, both right-hand sides and the residual read
them from the problem; replace() gives a new truncation an empty cache,
and a sensor sweep primes each position's cache with the parent's
operators.

Each solve decomposes the Gram once; the coefficients, the condition
number and the smallest eigenvalue all come from that one eigh. The
top-level driver escalates the truncation (and, late in the loop, the
regularization) until the output residual passes the requested threshold.

No decay table E_alpha(-lam_k t^alpha) outlives the call that builds
it. T fills its table on the Gram's Gauss nodes and drops it once the
matrix is formed. Every pairing of a decay profile with data, the
moments on either route and the residual, streams fraccalc.decay_blocks
in blocks of _RECORD_ROWS rows, so nothing of record length times modes
is held. The forward record and the exact route's state side go through
fraccalc.decay_apply. A sensor sweep builds one record, one set of
record_moments and one residual pass per chunk of positions
(sweep_chunk), a channel each.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import eigh

from .errors import ConvergenceError, InputError, SolvabilityError
from .fraccalc import (
    TimeGrid,
    caputo_values,
    decay_apply,
    decay_blocks,
    gauss_panels,
    graded_panel_edges,
    merge_nodes,
    ml_product_matrix,
    product_rule,
)
from .observability import GramDiagnostic
from .spectral import Region, eigenpairs, eigenvalues, grad_coupling, mode_table, region_rule
from .system import (
    MeasurementRecord,
    ModalState,
    Sensor,
    generate_measurements,
    output_matrix,
    write_rows,
)

__all__ = [
    "REG_KINDS",
    "PROBLEM_RANGES",
    "Regularization",
    "HumProblem",
    "GradientField",
    "ReconstructionResult",
    "assemble_gram",
    "record_moments",
    "assemble_rhs",
    "assemble_rhs_from_state",
    "solve_reconstruction",
    "residual_against",
    "reconstruct",
    "sweep_channels",
    "sweep_chunk",
    "omega_error",
]

REG_KINDS = ("none", "tikhonov", "truncated_svd", "spectral_tikhonov")
# the valid range of each HumProblem field, as (rule, test): HumProblem checks
# every field against it, and the CLI checks each config key as it parses it
PROBLEM_RANGES: dict[str, tuple[str, Callable[[float], bool]]] = {
    "mode_count": (">= 1", lambda v: v >= 1),
    "alpha": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "horizon": ("finite and positive", lambda v: math.isfinite(v) and v > 0.0),
    "epsilon": ("finite and positive", lambda v: math.isfinite(v) and v > 0.0),
    "escalation_step": (">= 0", lambda v: v >= 0),
    "max_iterations": (">= 1", lambda v: v >= 1),
}

# Gauss rule in time for the moment nodes of the right-hand side, alpha < 1
MOMENT_PANELS = 64
MOMENT_ORDER = 8
# rows per block of a record pairing, whatever the number of modes: at 8
# modes each of a block's arrays takes 256 KB
_RECORD_ROWS = 4096
# positions x moment nodes per sweep chunk: the result of the chunk's L1
# pass stays within 8 MB and its record within 1 MB; the pass's own work
# arrays grow with the moment nodes alone (62.4 MB on 524,736 nodes, for
# one channel as for two) and are not bounded by it
_SWEEP_BLOCK = 1 << 20
# Gauss-Legendre order per axis of the error metric over omega
OMEGA_ORDER = 96
# points per axis of field.csv's table over the full domain
FIELD_SAMPLES = 201


@dataclass(frozen=True)
class Regularization:
    """Solve policy for the normal equations; value is finite and positive.

    none, tikhonov and truncated_svd are filter factors on the solve's one
    eigendecomposition: tikhonov shifts every eigenvalue by an absolute mu
    (None picks 1e-10 * trace / size at solve time); truncated_svd drops
    the directions whose eigenvalue is at most rcond times the largest.
    spectral_tikhonov shifts row (q, d) by mu * ev_max * (lam_q / lam_M)^2,
    damping the weakly sensed high modes harder; that shift is diagonal in
    the mode basis, so it takes ev_max from the decomposition and solves
    the shifted system directly.
    """

    kind: str = "tikhonov"
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in REG_KINDS:
            raise InputError(f"unknown regularization {self.kind!r}")
        if self.kind == "none" and self.value is not None:
            raise InputError("regularization 'none' takes no value")
        if self.kind in ("truncated_svd", "spectral_tikhonov") and self.value is None:
            raise InputError(f"regularization {self.kind!r} requires a value")
        if self.value is not None and not (math.isfinite(self.value) and self.value > 0.0):
            raise InputError(
                f"regularization value must be finite and positive, got {self.value}"
            )


@dataclass(frozen=True)
class HumProblem:
    """Everything a reconstruction needs besides the record itself."""

    mode_count: int
    omega: Region
    sensors: tuple[Sensor, ...]
    alpha: float
    horizon: float
    regularization: Regularization = Regularization()
    epsilon: float = 1e-6
    escalation_step: int = 4
    max_iterations: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if not isinstance(self.mode_count, numbers.Integral):
            raise InputError(f"mode_count must be an integer >= 1, got {self.mode_count!r}")
        for name, (rule, ok) in PROBLEM_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise InputError(f"{name} must be {rule}, got {value}")
        if any(s.dimension != self.dimension for s in self.sensors):
            raise InputError(f"every sensor must have omega's dimension {self.dimension}")

    @property
    def dimension(self) -> int:
        return self.omega.dimension

    @cached_property
    def modes(self) -> np.ndarray:
        """The truncation's read-only index rows, shape (mode_count, dimension)."""
        return eigenpairs(self.dimension, self.mode_count)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _read_only(eigenvalues(self.modes))

    @cached_property
    def coupling(self) -> np.ndarray:
        """B[i, k] = <div* basis_i, phi_k> = -grad_coupling(q_i, d_i, k)."""
        n, modes = self.dimension, self.modes.tolist()
        B = np.empty((n * len(modes), len(modes)))
        for qi, q in enumerate(modes):
            for d in range(n):
                for ki, k in enumerate(modes):
                    B[n * qi + d, ki] = -grad_coupling(q, d, k)
        return _read_only(B)

    @cached_property
    def outputs(self) -> np.ndarray:
        """P[ch, k] = C_ch phi_k, shape (p, M)."""
        return _read_only(output_matrix(self.sensors, self.modes))

    @cached_property
    def products(self) -> np.ndarray:
        """T[k, l] = int_0^T E_alpha(-lam_k t^alpha) E_alpha(-lam_l t^alpha) dt."""
        return _read_only(ml_product_matrix(self.eigenvalues, self.alpha, self.horizon))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GradientField:
    """Vector field spanned by eigenfunction components.

    `modes` holds one index row per mode, as `spectral.eigenpairs` gives
    them. Component d (0-based) is sum_q coefficients[n*(q-1)+d] * phi_q;
    the 1-based pair (q, d) maps to flat index n*(q-1)+d as in the assembly.
    """

    coefficients: np.ndarray
    modes: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        modes = np.asarray(self.modes)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "modes", modes)
        if modes.ndim != 2 or len(modes) == 0:
            raise InputError(f"modes must be a nonempty array of index rows, got {modes.shape}")
        if c.shape != (modes.size,):
            raise InputError(f"expected {modes.size} coefficients, got {c.shape}")

    @property
    def dimension(self) -> int:
        return self.modes.shape[1]

    def component(self, axis: int) -> Callable[..., np.ndarray]:
        n = self.dimension
        if not 0 <= axis < n:
            raise InputError(f"axis {axis} out of range for dimension {n}")
        weights = self.coefficients[axis::n]
        return lambda *coords: mode_table(self.modes, coords) @ weights


@dataclass(frozen=True)
class ReconstructionResult:
    field: GradientField
    residual: float
    gram_condition: float
    iterations: int
    error_vs_truth: float | None
    residual_history: tuple[float, ...]

    @property
    def summary(self) -> dict[str, float | int | None]:
        """The scalars of the result, as field.csv's footer reports them."""
        keys = ("residual", "error_vs_truth", "gram_condition", "iterations")
        return {key: getattr(self, key) for key in keys}

    def write_csv(
        self, path: str, truth: Sequence[Callable[..., np.ndarray]] | None = None
    ) -> None:
        """Reporting table over the full domain plus a summary footer."""
        n = self.field.dimension
        truth_fns = _truth_components(truth, n) if truth is not None else None
        ax = np.linspace(0.0, 1.0, FIELD_SAMPLES)
        pts = tuple(g.ravel() for g in np.meshgrid(*[ax] * n, indexing="ij"))
        cols = list(pts)
        header = ["x", "y"][:n]
        for d in range(n):
            if truth_fns is None:
                cols.append(np.full(cols[0].size, np.nan))
            else:
                cols.append(np.asarray(truth_fns[d](*pts), dtype=float))
            cols.append(np.asarray(self.field.component(d)(*pts), dtype=float))
            header.extend([f"d{d + 1}_true", f"d{d + 1}_rec"])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            write_rows(fh, cols, "\n")
            fh.write("# " + json.dumps(self.summary) + "\n")


def assemble_gram(problem: HumProblem) -> np.ndarray:
    """The Gram Lambda = B (T .* P'P) B', size nM x nM.

    B holds the couplings over the whole domain; omega enters through the
    error metric only.
    """
    B, P = problem.coupling, problem.outputs
    return B @ (problem.products * (P.T @ P)) @ B.T


def _moment_nodes(problem: HumProblem, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points on panels whose edges include every record node (alpha < 1).

    The data enters through piecewise operations between its samples, so
    aligning panel edges with the sample nodes keeps each Gauss point
    inside a single data cell; the graded edges resolve the layer at 0.
    """
    graded = graded_panel_edges(problem.horizon, MOMENT_PANELS, 1e-16)
    return gauss_panels(merge_nodes(graded, grid.nodes, problem.horizon), MOMENT_ORDER)


def record_moments(problem: HumProblem, record: MeasurementRecord) -> np.ndarray:
    """Moments of the record's derivative against each decay profile, (M, channels).

    The record is pushed through the time-fractional derivative (sign
    flipped), then integrated against each mode's decay profile; every
    channel comes from the same pass. For alpha < 1 the L1 Caputo rule is
    applied on Gauss moment nodes aligned with the record cells, and each
    mode's decay profile on those nodes is paired with it. At alpha = 1
    the derivative of the piecewise linear interpolant is its slope,
    constant on each cell, so the pairing is exact per cell:
    int_cell slope_j e^(-lam t) dt = dz_j E_j expm1(-lam h_j) / (-lam h_j),
    with E_j = e^(-lam t_j) at the cell's start, expm1 keeping the cell
    weight accurate for any lam h. Every sum is taken by _pair_decay, so
    no record-length table is held and the moments of M modes are, bit
    for bit, the first M rows of a larger truncation's. They depend on the
    truncation and the time rule only, not on the sensors; the record
    must still hold one channel per sensor and span the problem's horizon.
    """
    return _pair_decay(problem.alpha, problem.eigenvalues, *_record_pairing(problem, record))


def _record_pairing(
    problem: HumProblem, record: MeasurementRecord
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The (times, data, cells) whose _pair_decay sums are the record's moments.

    The record must hold one channel per sensor, then span the problem's
    horizon. The weighted derivative on the moment nodes depends on the
    record, alpha and the horizon, not on the modes, so its L1 pass is
    made here once and the pairing serves every truncation.
    """
    p = len(problem.sensors)
    if record.channel_count != p:
        raise InputError(f"record has {record.channel_count} channels for {p} sensors")
    if abs(record.grid.horizon - problem.horizon) > 1e-9 * problem.horizon:
        raise InputError(
            f"record horizon {record.grid.horizon} != problem horizon {problem.horizon}"
        )
    alpha = problem.alpha
    if alpha == 1.0:
        return record.grid.nodes, record.samples, True
    tq, wq = _moment_nodes(problem, record.grid)
    weighted = wq[:, None] * -caputo_values(
        record.grid, record.samples, alpha, tq, first_cell_power=True
    )
    return tq, weighted, False


def _pair_decay(
    alpha: float, lams: np.ndarray, times: np.ndarray, data: np.ndarray, cells: bool
) -> np.ndarray:
    """sum_t E_alpha(-lam t^alpha) data[t, c] over the times, as (modes, channels).

    The sums run over fixed blocks of _RECORD_ROWS rows, each straight from
    fraccalc.decay_blocks and dropped once summed. A block's products for
    one channel are laid out one mode per row and each row is summed on
    its own, so every sum reads its own mode's column alone, and the row
    blocks do not depend on the modes: the sums of a set of modes are
    bitwise the same rows of a larger set's. A BLAS product would not
    promise that. The blocks' sums are added in order.

    With `cells` (alpha = 1), times and data are a record's nodes and
    samples, and row j is its cell j: the decay at the cell's start takes
    the cell factor expm1(-lam h_j) / (lam h_j) and pairs with the step
    dz_j, both formed per block, so no record-length difference is held.
    """
    total = 0.0
    for rows, block in decay_blocks(alpha, lams, times[:-1] if cells else times, _RECORD_ROWS):
        if cells:
            span = slice(rows.start, rows.stop + 1)
            x = np.outer(np.diff(times[span]), lams)
            weight = np.expm1(-x)
            weight /= x
            block *= weight
            part = np.diff(data[span], axis=0)
        else:
            part = data[rows]
        prod = np.empty(block.T.shape)
        sums = np.empty((block.shape[1], part.shape[1]))
        for c in range(part.shape[1]):
            np.multiply(block.T, part[:, c], out=prod)
            np.add.reduce(prod, axis=1, out=sums[:, c])
        total = total + sums
    return total


def assemble_rhs(problem: HumProblem, moments: np.ndarray) -> np.ndarray:
    """Data-side vector pairing the record with each sensed basis evolution.

    `moments` are the record's `record_moments`, one column per sensor of
    the problem; each sensor's functional weights the moments of its own
    channel. A sensor sweep takes the moments of all its positions in one
    pass and pairs each column with its position.
    """
    p = len(problem.sensors)
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (problem.mode_count, p):
        raise InputError(
            f"moments of shape {moments.shape} for {problem.mode_count} modes, {p} sensors"
        )
    return problem.coupling @ np.einsum("ck,kc->k", problem.outputs, moments)


def assemble_rhs_from_state(problem: HumProblem, state: ModalState) -> np.ndarray:
    """Exact data-side vector for a known modal initial state, with no sampling."""
    pairing = _state_pairing(replace(problem, mode_count=len(state)), state)
    return assemble_rhs(problem, _pair_decay(problem.alpha, problem.eigenvalues, *pairing))


def _state_pairing(deep: HumProblem, state: ModalState) -> tuple[np.ndarray, np.ndarray, bool]:
    """The (times, data, cells) whose _pair_decay sums are the state's moments.

    `deep` is the problem truncated at the state's depth. The negated
    derivative of channel c, sum_l P_cl lam_l a_l E_l(t), is evaluated once
    on the Gram's Gauss rule, over the modes with a nonzero coefficient;
    it is paired through _pair_decay as on the data route, so the moments
    of M modes are bitwise the first M rows of a larger truncation's.
    """
    t, w = product_rule(deep.horizon)
    weights = (deep.eigenvalues * state.coefficients)[:, None] * deep.outputs.T
    weighted = w[:, None] * decay_apply(deep.alpha, deep.eigenvalues, t, weights)
    return t, weighted, False


def solve_reconstruction(
    problem: HumProblem, gram: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, GramDiagnostic]:
    """Solve Lambda c = rhs; return c and the spectrum of one eigh, V diag(ev) V'.

    none, tikhonov and truncated_svd filter it: c = V (V' rhs / denom) with
    denom = ev, ev + mu, or ev set to inf (a zero factor) where dropped.
    The spectral_tikhonov shift is diagonal in the mode basis, not in V, so
    that kind reads ev_max from the spectrum and solves the shifted system.
    """
    gram, rhs = np.asarray(gram, dtype=float), np.asarray(rhs, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] != rhs.size:
        raise InputError("gram/rhs shapes do not match")
    scale = np.max(np.abs(gram))
    if scale > 0.0 and np.max(np.abs(gram - gram.T)) > 1e-8 * scale:
        raise InputError("gram matrix is not symmetric")

    reg = problem.regularization
    size = gram.shape[0]
    evals, vecs = eigh(gram)
    spectrum = GramDiagnostic.from_eigenvalues(evals)
    ev_max = max(spectrum.largest_eigenvalue, 0.0)
    if reg.kind == "spectral_tikhonov":
        n = problem.dimension
        if size != n * problem.mode_count:
            raise InputError(f"gram size {size} does not match {problem.mode_count} modes")
        lams = np.repeat(problem.eigenvalues, n)
        shift = reg.value * ev_max * (lams / lams[-1]) ** 2
        return np.linalg.solve(gram + np.diag(shift), rhs), spectrum
    if reg.kind == "none":
        ev_min = spectrum.smallest_eigenvalue
        if not spectrum.positive_definite:
            raise SolvabilityError(
                f"gram not positive definite (smallest eigenvalue {ev_min:.3e})",
                smallest_eigenvalue=ev_min,
            )
        denom = evals
    elif reg.kind == "tikhonov":
        mu = reg.value if reg.value is not None else max(1e-10 * np.trace(gram) / size, 1e-300)
        denom = evals + mu
    else:  # truncated_svd
        denom = np.where(evals > reg.value * ev_max, evals, np.inf)
    return vecs @ ((vecs.T @ rhs) / denom), spectrum


def residual_against(
    problem: HumProblem, record: MeasurementRecord, fields: Sequence[GradientField | None]
) -> list[float]:
    """L2(0,T) misfits of solved fields' forward outputs against the record.

    A field's candidate initial state is the potential of its gradient:
    u_k = (B' c)_k / lam_k, on the problem's truncation, the field's own.
    One field was solved on every sensor of the problem, and its misfit is
    taken over every channel. One field per channel is a sensor sweep's:
    field ch was solved on sensor ch alone and is held against channel ch,
    and a channel whose field is None (a blind spot) gets nan. The
    trapezoid-weighted squared misfits are summed in blocks of
    _RECORD_ROWS record rows, each predicted from its block of
    fraccalc.decay_blocks and weighted by the block's own trapezoid
    weights (TimeGrid.weights_on), so no predicted record, difference,
    weight vector or decay table of record length is held, and every
    field reads the same blocks: one pass serves them all. A misfit is
    formed from its own field and channels alone, so it is bitwise the
    same whatever else the call holds.
    """
    lams, outputs, samples = problem.eigenvalues, problem.outputs, record.samples
    if len(fields) == 1:
        channels = [slice(None)]
    elif len(fields) == len(outputs) == record.channel_count:
        channels = [slice(ch, ch + 1) for ch in range(len(fields))]
    else:
        raise InputError(f"{len(fields)} fields for {len(outputs)} sensors")
    fits = [
        (ch, ((problem.coupling.T @ field.coefficients) / lams)[:, None] * outputs[ch].T)
        for ch, field in zip(channels, fields)
        if field is not None
    ]
    totals = [0.0] * len(fits)
    for rows, decay in decay_blocks(problem.alpha, lams, record.grid.nodes, _RECORD_ROWS):
        w = record.grid.weights_on(rows)[:, None]
        for i, (ch, weights) in enumerate(fits):
            diff = samples[rows, ch] - decay @ weights
            totals[i] += float(np.sum(w * diff * diff))
    misfits = iter(totals)
    return [math.nan if field is None else math.sqrt(next(misfits)) for field in fields]


def _solve_step(
    problem: HumProblem, moments: np.ndarray,
    truth: Sequence[Callable[..., np.ndarray]] | GradientField | None,
) -> tuple[GradientField, float | None, GramDiagnostic]:
    """One HUM solve on the problem's truncation, from the record's moments.

    Gram, right-hand side, solve, then the omega error (None without a
    truth). Raises SolvabilityError when an unregularized Gram is singular.
    """
    gram = assemble_gram(problem)
    rhs = assemble_rhs(problem, moments)
    coeffs, spectrum = solve_reconstruction(problem, gram, rhs)
    field = GradientField(coeffs, problem.modes)
    err = omega_error(field, truth, problem.omega) if truth is not None else None
    return field, err, spectrum


def reconstruct(
    problem: HumProblem,
    record: MeasurementRecord | ModalState,
    truth: Sequence[Callable[..., np.ndarray]] | GradientField | None = None,
) -> ReconstructionResult:
    """Escalating solve loop: grow the truncation until the residual passes.

    The source is either a sampled record (data route: the fractional
    derivative is applied to the samples) or a modal initial state
    standing for its noiseless record (exact route: the pairing is done
    in closed modal algebra, and the residual is taken against the
    state's own sampled output).

    The route's pairing (times, data, cells) is built once. The moments
    are one array, and a step appends the _pair_decay rows of only the
    modes it adds; each mode's rows depend on that mode alone, so they are
    bitwise those of pairing the step's whole truncation.

    Iteration i uses mode_count + escalation_step*(i-1) modes; from the
    third iteration a regularization of 'none' is relaxed to the default
    shift, and a singular unregularized solve counts as an infinite
    residual rather than a failure. Raises ConvergenceError (carrying the
    best iterate and the residual history) when the cap is reached with
    the residual still above epsilon, and the last step's SolvabilityError
    when no step was solvable.
    """
    if isinstance(record, ModalState):
        # the state side of the exact route is fixed: build it once
        deep = replace(problem, mode_count=len(record))
        pairing = _state_pairing(deep, record)
        grid = TimeGrid.uniform(problem.horizon, 513)
        record = generate_measurements(problem.alpha, deep.modes, record, problem.sensors, grid)
    else:
        # the data side's L1 pass serves every truncation: make it once
        pairing = _record_pairing(problem, record)
    # the moments of the modes paired so far; a step pairs only those it adds
    moments = np.empty((0, len(problem.sensors)))
    history: list[float] = []
    best: ReconstructionResult | None = None
    for it in range(1, problem.max_iterations + 1):
        M_i = problem.mode_count + problem.escalation_step * (it - 1)
        reg_i = problem.regularization
        if it >= 3 and reg_i.kind == "none":
            reg_i = Regularization()
        prob_i = replace(problem, mode_count=M_i, regularization=reg_i)
        added = prob_i.eigenvalues[len(moments) :]
        if added.size:
            moments = np.concatenate((moments, _pair_decay(problem.alpha, added, *pairing)))
        try:
            field, err, spectrum = _solve_step(prob_i, moments, truth)
        except SolvabilityError as exc:
            singular = exc
            history.append(float("inf"))
            continue
        (residual,) = residual_against(prob_i, record, [field])
        history.append(residual)
        cond = spectrum.condition_number
        candidate = ReconstructionResult(field, residual, cond, it, err, tuple(history))
        if best is None or residual < best.residual:
            best = candidate
        if residual <= problem.epsilon:
            return candidate
    if best is None:
        raise singular
    raise ConvergenceError(
        f"residual {history[-1]:.3e} above epsilon {problem.epsilon:.3e} "
        f"after {problem.max_iterations} iterations",
        best=best,
        residual_history=tuple(history),
    )


def sweep_channels(
    problem: HumProblem,
    record: MeasurementRecord,
    truth: Sequence[Callable[..., np.ndarray]] | GradientField,
) -> list[tuple[float, float, float]]:
    """Solve each channel of the record as its own one-sensor problem.

    Channel ch was sensed by problem.sensors[ch]; one record_moments pass
    serves every channel, and there is no escalation. Every channel's
    problem shares the parent's modes, eigenvalues, B and T, and takes row
    ch of its P: only P depends on the sensor. The channels are solved first,
    then one residual_against pass over the record takes every solved
    channel's residual. Returns (omega error, residual, smallest Gram
    eigenvalue) per channel, with nan, nan where the Gram is singular.
    """
    moments = record_moments(problem, record)
    fields, rows = [], []
    for ch, sensor in enumerate(problem.sensors):
        single = replace(problem, sensors=(sensor,))
        # prime the cached properties, which live in the instance dict; the
        # row of P is copied, so it is laid out as a one-sensor output_matrix
        vars(single).update(
            modes=problem.modes,
            eigenvalues=problem.eigenvalues,
            coupling=problem.coupling,
            products=problem.products,
            outputs=_read_only(problem.outputs[ch : ch + 1].copy()),
        )
        try:
            field, err, spectrum = _solve_step(single, moments[:, ch, None], truth)
        except SolvabilityError as exc:  # a blind spot: the Gram is singular
            fields.append(None)
            rows.append((math.nan, exc.smallest_eigenvalue))
            continue
        fields.append(field)
        rows.append((err, spectrum.smallest_eigenvalue))
    residuals = residual_against(problem, record, fields)
    return [(err, res, lam_min) for (err, lam_min), res in zip(rows, residuals)]


def sweep_chunk(rows: int) -> int:
    """Sensor positions per sweep chunk: one record of `rows` rows, a channel each.

    _SWEEP_BLOCK bounds the chunk's arrays of results, not its work: its
    Caputo values on the moment nodes take at most 8 MB and its record
    1 MB, while the work of its one caputo_values call grows with the
    moment nodes, whatever the chunk's width.
    """
    return max(1, _SWEEP_BLOCK // (rows * MOMENT_ORDER))


def _truth_components(
    truth: Sequence[Callable[..., np.ndarray]] | GradientField,
    n: int,
) -> tuple[Callable[..., np.ndarray], ...]:
    if isinstance(truth, GradientField):
        if truth.dimension != n:
            raise InputError("truth field has the wrong dimension")
        return tuple(truth.component(d) for d in range(n))
    fns = tuple(truth)
    if len(fns) != n:
        raise InputError(f"expected {n} truth components, got {len(fns)}")
    return fns


def omega_error(
    field: GradientField,
    truth: Sequence[Callable[..., np.ndarray]] | GradientField,
    omega: Region,
) -> float:
    """Squared L2(omega)^n distance between the field and the truth."""
    n = field.dimension
    if omega.dimension != n:
        raise InputError("omega dimension does not match the field")
    fns = _truth_components(truth, n)
    pts, w = region_rule(omega, OMEGA_ORDER)
    total = 0.0
    for d in range(n):
        diff = field.component(d)(*pts) - np.asarray(fns[d](*pts), dtype=float)
        total += float(np.sum(w * diff * diff))
    return total
