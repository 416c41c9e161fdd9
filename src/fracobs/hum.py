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
weighted derivative with its own decay table. At alpha = 1 the
derivative of the piecewise linear record is its slope per cell, and its
pairing with exp(-lam t) is done in closed form on each cell.

A HumProblem owns the operators of its truncation: the modes, their
eigenvalues, B and P are cached properties, each built once on first use
and read-only. The Gram, both right-hand sides and the residual read them
from the problem; replace() gives a new truncation an empty cache, and a
sensor sweep primes each position's cache with the parent's operators.

Each solve decomposes the Gram once; the coefficients, the condition
number and the smallest eigenvalue all come from that one eigh. The
top-level driver escalates the truncation (and, late in the loop, the
regularization) until the output residual passes the requested threshold.

Every decay table E_alpha(-lam_k t^alpha) here (on the Gram's Gauss
nodes, the moment nodes of the right-hand side for alpha < 1 and the
record nodes of the residual, which the alpha = 1 right-hand side reads
too) comes from fraccalc.decay_table, whose memo lets an escalating
reconstruction evaluate each (lam, t) pair once. A table applied once is
not kept: the forward record and the exact route's state side go through
fraccalc.decay_apply. A sensor sweep builds one record and one set of
record_moments per chunk of positions (sweep_chunk), a channel each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.linalg import eigh

from .errors import ConvergenceError, InputError, SolvabilityError
from .fraccalc import (
    TimeGrid,
    caputo_values,
    decay_apply,
    decay_table,
    gauss_panels,
    graded_panel_edges,
    merge_nodes,
    ml_product_matrix,
    product_rule,
)
from .observability import GramDiagnostic
from .spectral import (
    EigenMode,
    Region,
    SpatialDomain,
    SpatialQuadrature,
    eigenpairs,
    grad_coupling,
    mode_table,
)
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
# positions x moment nodes per sweep chunk: the chunk's Caputo values stay
# within 8 MB, and its record within 1 MB
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
        for name, (rule, ok) in PROBLEM_RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise InputError(f"{name} must be {rule}, got {value}")

    @property
    def dimension(self) -> int:
        return self.omega.dimension

    @cached_property
    def modes(self) -> tuple[EigenMode, ...]:
        return tuple(eigenpairs(SpatialDomain(self.dimension), self.mode_count))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _read_only(np.array([m.lam for m in self.modes]))

    @cached_property
    def coupling(self) -> np.ndarray:
        """B[i, k] = <div* basis_i, phi_k> = -grad_coupling(q_i, d_i, k)."""
        n, modes = self.dimension, self.modes
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GradientField:
    """Vector field spanned by eigenfunction components.

    Component d (0-based) is sum_q coefficients[n*(q-1)+d] * phi_q; the
    1-based pair (q, d) maps to flat index n*(q-1)+d as in the assembly.
    """

    coefficients: np.ndarray
    modes: tuple[EigenMode, ...]

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        modes = tuple(self.modes)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise InputError("at least one mode is required")
        n = modes[0].dimension
        if c.shape != (n * len(modes),):
            raise InputError(
                f"expected {n * len(modes)} coefficients, got {c.shape}"
            )

    @property
    def dimension(self) -> int:
        return self.modes[0].dimension

    @property
    def mode_count(self) -> int:
        return len(self.modes)

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
    Tm = ml_product_matrix(problem.eigenvalues, problem.alpha, problem.horizon)
    return B @ (Tm * (P.T @ P)) @ B.T


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
    applied on Gauss moment nodes aligned with the record cells. At
    alpha = 1 the derivative of the piecewise linear interpolant is its
    slope, constant on each cell, so the pairing is exact per cell:
    int_cell slope_j e^(-lam t) dt = dz_j E_j (1 - e^(-lam h_j)) / (lam h_j),
    with E the record-node decay table that the residual reads too, and
    expm1 keeping the cell weight accurate for any lam h. The moments
    depend on the truncation and the time rule only, not on the sensors.
    """
    return _moments_by_truncation(problem, record)(problem)


def _moments_by_truncation(
    problem: HumProblem, record: MeasurementRecord
) -> Callable[[HumProblem], np.ndarray]:
    """record_moments of the record for every truncation of the problem.

    The weighted derivative on the moment nodes depends on the record,
    alpha and the horizon, not on the modes, so the L1 pass is made here
    once; each truncation pairs it with its own memoised decay table.
    """
    if abs(record.grid.horizon - problem.horizon) > 1e-9 * problem.horizon:
        raise InputError(
            f"record horizon {record.grid.horizon} != problem horizon {problem.horizon}"
        )
    alpha = problem.alpha
    if alpha == 1.0:

        def slope_moments(prob: HumProblem) -> np.ndarray:
            nodes, lams = record.grid.nodes, prob.eigenvalues
            decay = decay_table(1.0, lams, nodes)
            h = np.diff(nodes)
            # the weights E_j expm1(-lam h_j) / (lam h_j), formed in place: at
            # most two cells x modes arrays are held beside the table
            cell = np.outer(h, -lams)
            np.expm1(cell, out=cell)
            cell /= np.outer(h, lams)
            cell *= decay[:-1]
            return cell.T @ np.diff(record.samples, axis=0)

        return slope_moments
    tq, wq = _moment_nodes(problem, record.grid)
    weighted = wq[:, None] * -caputo_values(
        record.grid, record.samples, alpha, tq, first_cell_power=True
    )
    return lambda prob: decay_table(alpha, prob.eigenvalues, tq).T @ weighted


def _check_channels(problem: HumProblem, record: MeasurementRecord) -> None:
    p = len(problem.sensors)
    if record.channel_count != p:
        raise InputError(f"record has {record.channel_count} channels for {p} sensors")


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
    deep = replace(problem, mode_count=len(state))
    return assemble_rhs(problem, _state_moments(deep, state)(problem))


def _state_moments(deep: HumProblem, state: ModalState) -> Callable[[HumProblem], np.ndarray]:
    """The moments of the state's noiseless record for every truncation.

    `deep` is the problem truncated at the state's depth. The negated
    derivative of channel c, sum_l P_cl lam_l a_l E_l(t), is evaluated once
    on the Gram's Gauss rule, over the modes with a nonzero coefficient;
    each truncation pairs it with its own memoised decay table.
    """
    t, w = product_rule(deep.horizon)
    weights = (deep.eigenvalues * state.coefficients)[:, None] * deep.outputs.T
    weighted = w[:, None] * decay_apply(deep.alpha, deep.eigenvalues, t, weights)
    return lambda prob: decay_table(prob.alpha, prob.eigenvalues, t).T @ weighted


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
    problem: HumProblem, record: MeasurementRecord, field: GradientField
) -> float:
    """L2(0,T) misfit of a solved field's forward output against the record.

    The candidate initial state is the potential of the solved gradient:
    u_k = (B' c)_k / lam_k, on the problem's truncation, the field's own.
    """
    lams = problem.eigenvalues
    state = (problem.coupling.T @ field.coefficients) / lams
    decay = decay_table(problem.alpha, lams, record.grid.nodes)
    predicted = (decay * state) @ problem.outputs.T
    diff = record.samples - predicted
    return math.sqrt(float(np.sum(record.grid.weights[:, None] * diff * diff)))


def _solve_step(
    problem: HumProblem, moments: np.ndarray, record: MeasurementRecord,
    truth: Sequence[Callable[..., np.ndarray]] | GradientField | None,
) -> tuple[GradientField, float, float | None, GramDiagnostic]:
    """One HUM solve on the problem's truncation, from the record's moments.

    Gram, right-hand side, solve, then the residual against the record and
    the omega error (None without a truth). Raises SolvabilityError when an
    unregularized Gram is singular.
    """
    gram = assemble_gram(problem)
    rhs = assemble_rhs(problem, moments)
    coeffs, spectrum = solve_reconstruction(problem, gram, rhs)
    field = GradientField(coeffs, problem.modes)
    residual = residual_against(problem, record, field)
    err = omega_error(field, truth, problem.omega) if truth is not None else None
    return field, residual, err, spectrum


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
        moments = _state_moments(deep, record)
        grid = TimeGrid.uniform(problem.horizon, 513)
        record = generate_measurements(problem.alpha, deep.modes, record, problem.sensors, grid)
    else:
        # the data side's L1 pass serves every truncation: make it once
        _check_channels(problem, record)
        moments = _moments_by_truncation(problem, record)
    history: list[float] = []
    best: ReconstructionResult | None = None
    for it in range(1, problem.max_iterations + 1):
        M_i = problem.mode_count + problem.escalation_step * (it - 1)
        reg_i = problem.regularization
        if it >= 3 and reg_i.kind == "none":
            reg_i = Regularization()
        prob_i = replace(problem, mode_count=M_i, regularization=reg_i)
        try:
            field, residual, err, spectrum = _solve_step(prob_i, moments(prob_i), record, truth)
        except SolvabilityError as exc:
            singular = exc
            history.append(float("inf"))
            continue
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
) -> Iterator[tuple[float, float, float]]:
    """Solve each channel of the record as its own one-sensor problem.

    Channel ch was sensed by problem.sensors[ch]; one record_moments pass
    serves every channel, and there is no escalation. Every channel's
    problem shares the parent's modes, eigenvalues and B, and takes row ch
    of its P: only P depends on the sensor. Yields (omega error, residual,
    smallest Gram eigenvalue), or nan, nan where it is singular.
    """
    _check_channels(problem, record)
    moments = record_moments(problem, record)
    for ch, sensor in enumerate(problem.sensors):
        single = replace(problem, sensors=(sensor,))
        # prime the cached properties, which live in the instance dict; the
        # row of P is copied, so it is laid out as a one-sensor output_matrix
        vars(single).update(
            modes=problem.modes,
            eigenvalues=problem.eigenvalues,
            coupling=problem.coupling,
            outputs=_read_only(problem.outputs[ch : ch + 1].copy()),
        )
        channel = MeasurementRecord(record.grid, record.samples[:, ch])
        try:
            _, residual, err, spectrum = _solve_step(single, moments[:, ch, None], channel, truth)
        except SolvabilityError as exc:  # a blind spot: the Gram is singular
            yield math.nan, math.nan, exc.smallest_eigenvalue
            continue
        yield err, residual, spectrum.smallest_eigenvalue


def sweep_chunk(rows: int) -> int:
    """Sensor positions per sweep chunk: one record of `rows` rows, a channel each."""
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
    pts, w = SpatialQuadrature.for_region(omega, OMEGA_ORDER).flat()
    total = 0.0
    for d in range(n):
        diff = field.component(d)(*pts) - np.asarray(fns[d](*pts), dtype=float)
        total += float(np.sum(w * diff * diff))
    return total
