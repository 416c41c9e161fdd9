"""End-to-end checks of the package at fixed operating points.

Every test here drives a full pipeline (assembly, solve, verdict, or a CLI
run) against an oracle that does not reuse the code path under test:
elementary decay kernels at orders 1/2 and 1, scipy's erfcx, exact modal
expansions of the initial profiles, and Simpson-rule brute-force quadrature.
Tolerances are frozen; treat them as contracts.

The sensor-placement sweep is pinned on both its failures and its optimum.
A point sensor at x = b reads mode k through sin(k pi b), so at M = 8 the
unregularized normal matrix is exactly singular wherever sin(k pi b) = 0
for some k <= 8; on the 0.05 lattice that is seven positions (0.20, 0.25,
0.40, 0.50, 0.60, 0.75, 0.80), and the sweep records nan there. Among the
other twelve the error is smallest at 0.85, a location derived without the
package's kernel, derivative or assembly code (see the test's docstring).
"""

import csv
import math
import textwrap
import time

import numpy as np
from scipy.special import erfcx

from fracobs import cli
from fracobs.fraccalc import check_fractional_ibp, mlf_values
from fracobs.hum import (
    GradientField,
    HumProblem,
    Regularization,
    assemble_gram,
    assemble_rhs_from_state,
    omega_error,
    reconstruct,
)
from fracobs.observability import counterexample_check
from fracobs.observability import test_gradient_strategic as strategic_verdict
from fracobs.spectral import Region, eigenvalues, grad_coupling
from fracobs.system import Sensor, output_matrix

RECOVERY_ERRORS: dict[str, float] = {}


def coupling_matrix(modes):
    n = modes.shape[1]
    B = np.empty((n * len(modes), len(modes)))
    for qi, q in enumerate(modes):
        for d in range(n):
            for ki, k in enumerate(modes):
                B[n * qi + d, ki] = -grad_coupling(q, d, k)
    return B


def constant_weight(scale):
    def weight(*coords):
        return scale * np.ones_like(np.asarray(coords[0], dtype=float))

    return weight


def simpson_weights(count, step):
    # composite Simpson rule needs an odd node count
    w = np.ones(count)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def sampled_gram(problem, nodes=200001):
    """Brute-force Gram from time samples of the decay kernels.

    Independent of the package's kernel evaluator: orders 1 and 1/2 have
    elementary forms (exp on the t axis, erfcx on the s = sqrt(t) axis),
    so mlf_values is never called here.
    """
    modes = problem.modes
    B = coupling_matrix(modes)
    P = output_matrix(problem.sensors, modes)
    lams = eigenvalues(modes)
    if problem.alpha == 1.0:
        t = np.linspace(0.0, problem.horizon, nodes)
        decay = np.exp(-np.outer(t, lams))
        w = simpson_weights(nodes, t[1] - t[0])
    elif problem.alpha == 0.5:
        s = np.linspace(0.0, math.sqrt(problem.horizon), nodes)
        decay = erfcx(np.outer(s, lams))
        w = 2.0 * s * simpson_weights(nodes, s[1] - s[0])
    else:
        raise ValueError("brute-force path only covers orders 1/2 and 1")
    gram = np.zeros((B.shape[0], B.shape[0]))
    for c in range(P.shape[0]):
        channel = decay @ (B * P[c]).T
        gram += channel.T @ (w[:, None] * channel)
    return gram


def two_hump_coefficients(depth=96):
    """Modal coefficients of (cos(pi y) sin(pi y))^2, nonzero on odd modes."""
    k = np.arange(1, depth + 1)
    c = np.zeros(depth)
    odd = k % 2 == 1
    ko = k[odd].astype(float)
    c[odd] = 4.0 * math.sqrt(2.0) / (math.pi * ko * (16.0 - ko * ko))
    return c


def flat_bump_coefficients(depth=96):
    """Modal coefficients of (y (1 - y))^2, nonzero on odd modes."""
    k = np.arange(1, depth + 1)
    c = np.zeros(depth)
    odd = k % 2 == 1
    kp = k[odd].astype(float) * math.pi
    c[odd] = 4.0 * math.sqrt(2.0) * (12.0 - kp * kp) / kp**5
    return c


def test_point_sensor_profile_recovery():
    problem = HumProblem(
        20,
        Region((0.0,), (0.25,)),
        (Sensor.pointwise((0.2,)),),
        0.84,
        1.0,
        regularization=Regularization("spectral_tikhonov", 3.16e-7),
        epsilon=1e-2,
    )
    truth = (lambda y: 0.5 * math.pi * np.sin(4.0 * math.pi * y),)
    start = time.perf_counter()
    result = reconstruct(problem, two_hump_coefficients(), truth)
    elapsed = time.perf_counter() - start
    assert result.iterations == 1
    assert result.error_vs_truth <= 5e-3
    assert elapsed < 60.0
    RECOVERY_ERRORS["point"] = result.error_vs_truth


def test_zonal_sensor_profile_beats_point_sensor():
    problem = HumProblem(
        20,
        Region((0.35,), (0.65,)),
        (Sensor.zonal(Region((0.9,), (1.0,)), constant_weight(1.0)),),
        0.5,
        2.0,
    )
    gram = assemble_gram(problem)
    mu = 3.16e-7 * np.trace(gram) / gram.shape[0]
    rhs = assemble_rhs_from_state(problem, flat_bump_coefficients())
    coeffs = np.linalg.solve(gram + mu * np.eye(gram.shape[0]), rhs)
    field = GradientField(coeffs, problem.modes)
    truth = (lambda y: 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y),)
    error = omega_error(field, truth, problem.omega)
    assert error <= 1e-4
    # fallback literal is the measured point error, for deselected runs
    assert error < RECOVERY_ERRORS.get("point", 9.01e-4)


def test_square_blind_gradient_visible_in_window():
    t = np.linspace(0.1, 2.0, 20)
    whole, window = counterexample_check(t)
    assert np.max(np.abs(whole)) <= 1e-8
    expected = -(math.sqrt(2.0) / (24.0 * math.pi)) * erfcx(5.0 * math.pi**2 * np.sqrt(t))
    assert np.max(np.abs(window - expected) / np.abs(expected)) <= 1e-6


def test_ml_kernel_identities():
    x = np.linspace(0.0, 50.0, 201)
    ref = np.exp(-x)
    assert np.max(np.abs(mlf_values(1.0, -x) - ref) / ref) <= 1e-10

    x = np.linspace(0.0, 5.0, 101)
    ref = erfcx(x)
    assert np.max(np.abs(mlf_values(0.5, -x) - ref) / ref) <= 1e-8

    grid = np.concatenate(([0.0], np.logspace(-3.0, 4.0, 141)))
    for alpha in (0.3, 0.5, 0.84):
        values = mlf_values(alpha, -grid)
        assert values[0] == 1.0
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)


def test_fractional_parts_identity_residuals():
    horizon = 1.0
    cases = (
        (lambda t: t * t, lambda t: horizon - t, 0.5),
        (lambda t: t, lambda t: t, 0.5),
        (lambda t: np.sin(t), lambda t: np.ones_like(t), 0.84),
    )
    residuals = {}
    for samples in (1024, 2048):
        t = np.linspace(0.0, horizon, samples)
        residuals[samples] = [
            check_fractional_ibp(u(t), v(t), alpha, horizon) for u, v, alpha in cases
        ]
    assert max(residuals[2048]) <= 1e-5
    # the smooth cases gain at least first order under grid doubling
    for i in (0, 1):
        assert residuals[2048][i] <= residuals[1024][i] / 1.8
    # constant v satisfies the identity exactly for the interpolants
    assert residuals[1024][2] <= 1e-10
    assert residuals[2048][2] <= 1e-10


def test_randomized_gram_structure():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        alpha = float(rng.choice((0.5, 1.0)))
        horizon = float(rng.uniform(0.5, 2.0))
        count = int(rng.integers(2, 7))
        sensors = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.uniform() < 0.5:
                sensors.append(Sensor.pointwise(tuple(rng.uniform(0.05, 0.95, size=n))))
            else:
                lo = rng.uniform(0.05, 0.6, size=n)
                hi = lo + rng.uniform(0.1, 0.35, size=n)
                scale = float(rng.uniform(0.5, 2.0))
                sensors.append(Sensor.zonal(Region(tuple(lo), tuple(hi)), constant_weight(scale)))
        problem = HumProblem(count, Region.full(n), tuple(sensors), alpha, horizon)

        gram = assemble_gram(problem)
        scale = float(np.max(np.abs(gram)))
        assert np.max(np.abs(gram - gram.T)) <= 1e-12 * scale
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= -1e-10 * eigs[-1]

        brute = sampled_gram(problem)
        width = gram.shape[0]
        for _ in range(10):
            i, j = (int(v) for v in rng.integers(0, width, size=2))
            assert abs(gram[i, j] - brute[i, j]) <= 1e-8 * max(1.0, scale)


def test_sensor_verdicts_and_weight_invariance():
    center = strategic_verdict((Sensor.pointwise((0.5,)),), 8)
    assert center.verdict == "non_strategic"
    assert center.offending == (1, 3, 5, 7)

    shifted = strategic_verdict((Sensor.pointwise((0.2,)),), 8)
    assert shifted.verdict == "strategic"
    assert shifted.offending == ()

    window = Region((0.35,), (0.65,))
    base = strategic_verdict((Sensor.zonal(window, constant_weight(1.0)),), 8)
    scaled = strategic_verdict((Sensor.zonal(window, constant_weight(7.3)),), 8)
    assert scaled.verdict == base.verdict
    assert scaled.offending == base.offending
    # the rank decision is scale-free: live singular values move by the
    # weight factor while dead ones stay at roundoff
    base_svals = np.array(base.group_svals)
    scaled_svals = np.array(scaled.group_svals)
    live = np.array([j not in base.offending for j in range(1, base_svals.size + 1)])
    assert np.allclose(scaled_svals[live], 7.3 * base_svals[live], rtol=1e-12, atol=0.0)
    assert np.all(scaled_svals[~live] <= 1e-12 * scaled_svals.max())


def test_noiseless_in_span_recovery_single_pass():
    problem = HumProblem(
        6,
        Region((0.2,), (0.8,)),
        (Sensor.pointwise((0.3,)),),
        1.0,
        1.0,
        regularization=Regularization("none"),
    )
    modes = problem.modes
    lams = eigenvalues(modes)
    coeffs = 0.1 * np.random.default_rng(3).normal(size=len(modes))
    # initial state whose gradient has exactly these basis coefficients
    state = (coupling_matrix(modes).T @ coeffs) / lams

    result = reconstruct(problem, state, GradientField(coeffs, modes))
    assert result.iterations == 1
    assert result.error_vs_truth <= 1e-8

    gram = assemble_gram(problem)
    brute = sampled_gram(problem, nodes=500001)
    scale = float(np.max(np.abs(gram)))
    assert np.max(np.abs(gram - brute)) <= 1e-8 * max(1.0, scale)
    rhs = assemble_rhs_from_state(problem, state)
    assert np.max(np.abs(brute @ coeffs - rhs)) <= 1e-8 * max(1.0, float(np.max(np.abs(rhs))))


SWEEP_CONFIG = """
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


def test_sweep_minimum_location_and_blind_spot(tmp_path):
    """Blind spots fail exactly where sin(k pi b) = 0; the minimum is at 0.85.

    The sweep (alpha = 0.84, M = 8, 200-mode trig_sq state, 512 uniform
    samples, no regularization) pairs the sampled record with each mode.
    Recomputed independently, with E_alpha(-x) from its positive spectral
    representation (trapezoid in log r, checked against erfcx at alpha =
    1/2) and each moment of the interpolant's Caputo derivative in closed
    form per spectral node, the finite-error minimum lands at 0.85 both
    for the package's interpolant (t^alpha first cell, chords after it:
    3.77e2 at 0.85 against 3.82e2 at 0.55) and for chords on every cell
    (2.53e2 against 4.07e2). The exact modal route puts its minimum at
    0.65 instead; it needs no samples and answers a different question.
    b = 0.20 is no optimum of this sweep: it zeroes mode 5.
    """
    config = tmp_path / "sweep.cfg"
    config.write_text(textwrap.dedent(SWEEP_CONFIG).strip() + "\n")
    code = cli.main([
        "sweep-sensor", "--config", str(config), "--out", str(tmp_path),
        "--sweep-grid", "0.05:0.95:0.05",
    ])
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]
    assert len(rows) == 19
    locations = np.array([float(row[0]) for row in rows])
    errors = np.array([float(row[1]) for row in rows])
    landscape = "\n".join(f"  {loc:.2f}  {err:.6e}" for loc, err in zip(locations, errors))

    blind = np.array([
        any(abs(math.sin(k * math.pi * b)) < 1e-9 for k in range(1, 9)) for b in locations
    ])
    finite = np.isfinite(errors)
    assert np.all(np.isnan(errors[blind])) and np.all(finite[~blind]), (
        "a point sensor at x = b reads mode k through sin(k pi b): the sweep must\n"
        "record nan exactly where sin(k pi b) = 0 for some k <= 8 (the singular\n"
        "normal matrix) and a finite error everywhere else; blind spots expected at\n"
        f"{np.round(locations[blind], 2).tolist()}\n"
        f"measured landscape (location, error):\n{landscape}"
    )

    best = locations[finite][np.argmin(errors[finite])]
    assert abs(best - 0.85) <= 1e-9, (
        f"expected the finite-error minimum at 0.85, measured it at {best:.2f}\n"
        "0.85 is the minimum of the independently recomputed landscape for this\n"
        "record; 0.55 follows within about 2%\n"
        f"measured landscape (location, error):\n{landscape}"
    )
