import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson, trapezoid
from scipy.linalg import eigh

from fracobs import fraccalc as fc
from fracobs import hum
from fracobs.errors import ConvergenceError, InputError, SolvabilityError
from fracobs.fraccalc import TimeGrid, graded_panel_edges
from fracobs.hum import (
    GradientField,
    HumProblem,
    Regularization,
    assemble_gram,
    assemble_rhs,
    assemble_rhs_from_state,
    omega_error,
    reconstruct,
    solve_reconstruction,
)
from fracobs.observability import GramDiagnostic
from fracobs.spectral import Region, eigenpairs, eigenvalues, grad_coupling, mode_table
from fracobs.system import (
    MeasurementRecord,
    ModalState,
    Sensor,
    generate_measurements,
    output_matrix,
    project_initial_state,
)

FULL = Region((0.0,), (1.0,))


def coupling_matrix(modes):
    n = modes.shape[1]
    B = np.empty((n * len(modes), len(modes)))
    for qi, q in enumerate(modes):
        for d in range(n):
            for ki, k in enumerate(modes):
                B[n * qi + d, ki] = -grad_coupling(q, d, k)
    return B


def in_span_state(problem, coeffs):
    """Initial state whose gradient has exactly the given basis coefficients."""
    modes = problem.modes
    lams = eigenvalues(modes)
    return ModalState((coupling_matrix(modes).T @ coeffs) / lams)


def record_rhs(problem, record):
    """The right-hand side of a sampled record: assemble_rhs of its record_moments."""
    return assemble_rhs(problem, hum.record_moments(problem, record))


def test_regularization_validation():
    with pytest.raises(InputError):
        Regularization("ridge")
    with pytest.raises(InputError):
        Regularization("none", 0.1)
    with pytest.raises(InputError):
        Regularization("truncated_svd")
    with pytest.raises(InputError):
        Regularization("spectral_tikhonov")
    with pytest.raises(InputError):
        Regularization("tikhonov", -1e-6)
    # an infinite shift would zero every coefficient
    for kind in ("tikhonov", "spectral_tikhonov"):
        with pytest.raises(InputError, match="regularization value"):
            Regularization(kind, math.inf)
    assert Regularization() == Regularization("tikhonov", None)


def test_problem_validation():
    sensors = (Sensor.pointwise((0.3,)),)
    with pytest.raises(InputError):
        HumProblem(0, FULL, sensors, 0.5, 1.0)
    with pytest.raises(InputError):
        HumProblem(3, FULL, sensors, 1.2, 1.0)
    with pytest.raises(InputError):
        HumProblem(3, FULL, sensors, 0.5, 0.0)
    with pytest.raises(InputError, match="horizon"):
        HumProblem(3, FULL, sensors, 0.5, math.inf)
    with pytest.raises(InputError):
        HumProblem(3, FULL, sensors, 0.5, 1.0, epsilon=0.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(InputError, match="epsilon"):
            HumProblem(3, FULL, sensors, 0.5, 1.0, epsilon=eps)
    with pytest.raises(InputError):
        HumProblem(3, FULL, sensors, 0.5, 1.0, max_iterations=0)
    # a sensor off omega's dimension is refused when the problem is built,
    # not later by mode_table
    for sensor in (Sensor.pointwise((0.3, 0.4)),
                   Sensor.zonal(Region((0.1, 0.1), (0.4, 0.4)), lambda x, y: x + y)):
        with pytest.raises(InputError, match="dimension"):
            HumProblem(4, FULL, (sensor,), 0.5, 1.0)


def test_problem_refuses_a_mode_count_that_is_not_an_integer():
    # refused where the problem is built, by its field's name, not later by
    # eigenpairs as a `count`; a numpy integer is an integer
    sensors = (Sensor.pointwise((0.3,)),)
    for count in (2.5, 8.0, math.nan, "3", None):
        with pytest.raises(InputError, match=f"^mode_count must be an integer >= 1, got {count!r}$"):
            HumProblem(count, FULL, sensors, 1.0, 1.0)
    assert HumProblem(np.int64(3), FULL, sensors, 1.0, 1.0).modes.shape == (3, 1)


def unit_field(i, M, n):
    """The field with coefficient 1 at flat slot i (1-based), i = n(q-1) + d."""
    coeffs = np.zeros(n * M)
    coeffs[i - 1] = 1.0
    return GradientField(coeffs, eigenpairs(n, M))


def test_vector_basis_field_index_map():
    # g(q, d) = n(q-1) + d, checked through the components of the unit
    # slots: slot g(q, d) is phi_q along axis d and zero along the other
    x, y = np.array([0.3, 0.55]), np.array([0.7, 0.2])
    modes = eigenpairs(2, 2)  # (1,1), (1,2)
    for i, (q, d) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)], start=1):
        f = unit_field(i, 2, 2)
        ix, iy = modes[q]
        phi_q = 2.0 * np.sin(ix * math.pi * x) * np.sin(iy * math.pi * y)
        assert f.component(d)(x, y) == pytest.approx(phi_q, rel=1e-14)
        assert np.all(f.component(1 - d)(x, y) == 0.0)
    for k in range(1, 4):
        got = unit_field(k, 3, 1).component(0)(x)
        assert got == pytest.approx(math.sqrt(2.0) * np.sin(k * math.pi * x), rel=1e-14)


def test_vector_basis_field_components():
    f = unit_field(1, 2, 2)  # mode (1,1), first slot
    x = np.array([0.5])
    y = np.array([0.5])
    assert f.component(0)(x, y)[0] == pytest.approx(2.0, rel=1e-14)
    assert f.component(1)(x, y)[0] == 0.0
    with pytest.raises(InputError):
        f.component(2)


def test_problem_modes_are_read_only_index_rows():
    # the modes are cached on the problem and a sweep's channels share them,
    # so a write would reach every channel: it raises instead
    square = HumProblem(4, Region((0.0, 0.0), (1.0, 1.0)), (Sensor.pointwise((0.3, 0.4)),), 1.0, 1.0)
    assert square.modes.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert square.eigenvalues.tobytes() == eigenvalues(square.modes).tobytes()
    for problem in (square, HumProblem(3, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)):
        with pytest.raises(ValueError):
            problem.modes[0, 0] = 5
        with pytest.raises(ValueError):
            problem.modes[:] = 1


def test_gradient_field_validation():
    modes = eigenpairs(1, 2)
    with pytest.raises(InputError):
        GradientField(np.zeros(3), modes)
    with pytest.raises(InputError):
        GradientField(np.zeros(2), ())


def test_assemble_gram_degenerate_cases():
    # a single mode cannot couple to itself through the gradient
    single = HumProblem(1, FULL, (Sensor.pointwise((0.2,)),), 0.5, 1.0)
    assert assemble_gram(single) == pytest.approx(np.zeros((1, 1)))


def test_assemble_gram_matches_time_sampled_gram():
    problem = HumProblem(3, FULL, (Sensor.pointwise((0.2,)),), 1.0, 1.0)
    G = assemble_gram(problem)
    modes = problem.modes
    lams = eigenvalues(modes)
    B = coupling_matrix(modes)
    P = output_matrix(problem.sensors, modes)
    t = np.linspace(0.0, 1.0, 500001)
    decay = np.exp(-np.outer(t, lams))
    signals = decay @ (B * P[0]).T
    brute = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            brute[i, j] = trapezoid(signals[:, i] * signals[:, j], t)
    assert np.max(np.abs(G - brute)) <= 1e-8
    assert np.max(np.abs(G - G.T)) <= 1e-14 * np.max(np.abs(G))


def test_assemble_gram_symmetry_and_psd():
    box = Region((0.1, 0.2), (0.6, 0.9))
    weight = lambda x, y: np.cos(math.sqrt(3.0) * math.pi * x) * np.sin(
        math.sqrt(2.0) * math.pi * y
    )
    configs = [
        HumProblem(5, FULL, (Sensor.pointwise((0.31,)),), 0.5, 1.5),
        HumProblem(
            4,
            Region((0.0,), (0.4,)),
            (Sensor.zonal(Region((0.9,), (1.0,)), lambda y: np.ones_like(y)),),
            1.0,
            2.0,
        ),
        HumProblem(3, Region((0.0, 0.0), (1.0, 1.0)), (Sensor.zonal(box, weight),), 0.84, 1.0),
    ]
    for problem in configs:
        G = assemble_gram(problem)
        scale = np.max(np.abs(G))
        assert np.max(np.abs(G - G.T)) <= 1e-12 * scale
        ev = eigh(G, eigvals_only=True)
        assert ev[0] >= -1e-10 * ev[-1]


def test_gram_coercivity_surrogate():
    # even truncation, else the odd/even coupling split makes B singular
    # for every sensor and the comparison says nothing about sensing
    strategic = HumProblem(4, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    ev = eigh(assemble_gram(strategic), eigvals_only=True)
    assert ev[0] > 1e-5 * ev[-1]
    # b = 0.5 misses every even mode and the gram loses rank
    blind = HumProblem(4, FULL, (Sensor.pointwise((0.5,)),), 1.0, 1.0)
    ev = eigh(assemble_gram(blind), eigvals_only=True)
    assert abs(ev[0]) <= 1e-12 * ev[-1]
    # the solve's spectrum is the diagnostic's, definite and singular alike
    for problem in (strategic, blind):
        gram = assemble_gram(problem)
        _, spectrum = solve_reconstruction(problem, gram, np.zeros(gram.shape[0]))
        ref = GramDiagnostic.from_eigenvalues(eigh(gram, eigvals_only=True))
        for got, want in ((spectrum.smallest_eigenvalue, ref.smallest_eigenvalue),
                          (spectrum.largest_eigenvalue, ref.largest_eigenvalue)):
            assert abs(got - want) <= 1e-12 * ref.largest_eigenvalue
        assert spectrum.positive_definite == ref.positive_definite


def _constant_weight(scale):
    return lambda *coords: scale * np.ones_like(np.asarray(coords[0], dtype=float))


@st.composite
def gram_problems(draw):
    """A point and zonal sensor layout on the interval or the square."""
    n = draw(st.integers(1, 2))

    def box(width):
        lo = [draw(st.floats(0.0, 0.55)) for _ in range(n)]
        return Region(tuple(lo), tuple(a + draw(width) for a in lo))

    sensors = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            sensors.append(Sensor.pointwise([draw(st.floats(0.02, 0.98)) for _ in range(n)]))
        else:
            weight = _constant_weight(draw(st.floats(0.5, 2.0)))
            sensors.append(Sensor.zonal(box(st.floats(0.05, 0.4)), weight))
    return HumProblem(
        draw(st.integers(1, 10)),
        box(st.floats(0.1, 0.45)),
        tuple(sensors),
        draw(st.floats(0.05, 1.0)),
        draw(st.floats(0.5, 2.0)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gram_problems())
def test_gram_symmetric_psd_for_random_layouts(problem):
    G = assemble_gram(problem)
    scale = np.max(np.abs(G))
    assert np.max(np.abs(G - G.T)) <= 1e-12 * scale
    ev = eigh(G, eigvals_only=True)
    assert ev[0] >= -1e-12 * ev[-1]


def test_assemble_rhs_zero_record():
    problem = HumProblem(3, FULL, (Sensor.pointwise((0.3,)),), 0.5, 1.0)
    modes = eigenpairs(1, 3)
    record = generate_measurements(
        0.5, modes, ModalState(np.zeros(3)), problem.sensors, TimeGrid.uniform(1.0, 33)
    )
    assert np.all(record_rhs(problem, record) == 0.0)


def test_assemble_rhs_validation():
    problem = HumProblem(3, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    modes = eigenpairs(1, 3)
    two = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.7,)))
    record = generate_measurements(
        1.0, modes, ModalState(np.zeros(3)), two, TimeGrid.uniform(1.0, 17)
    )
    with pytest.raises(InputError):
        record_rhs(problem, record)
    record = generate_measurements(
        1.0, modes, ModalState(np.zeros(3)), problem.sensors, TimeGrid.uniform(0.5, 17)
    )
    with pytest.raises(InputError):
        record_rhs(problem, record)


@pytest.mark.parametrize("alpha", [0.6, 1.0])
def test_assemble_rhs_pairs_record_moments(alpha):
    # the right-hand side is the sensors' pairing of record_moments, which
    # a sweep computes once for all its positions, one column per channel
    two = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.7,)))
    modes = eigenpairs(1, 12)
    state = ModalState(np.random.default_rng(1).standard_normal(12))
    record = generate_measurements(alpha, modes, state, two, TimeGrid.uniform(1.0, 65))
    problem = HumProblem(4, FULL, two, alpha, 1.0)
    moments = hum.record_moments(problem, record)
    assert moments.shape == (4, 2)
    one = HumProblem(4, FULL, two[1:], alpha, 1.0)
    single = MeasurementRecord(record.grid, record.samples[:, 1])
    alone = hum.record_moments(one, single)[:, 0]
    assert np.max(np.abs(alone - moments[:, 1])) <= 1e-14 * np.max(np.abs(alone))
    for bad in (moments, moments[:3, 1:], moments[:, 1]):
        with pytest.raises(InputError):
            assemble_rhs(one, bad)


def test_record_moments_refuse_a_record_of_another_channel_count():
    # one channel per sensor, checked before the horizon, as reconstruct
    # and sweep_channels check it
    two = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.7,)))
    modes = eigenpairs(1, 3)
    grid = TimeGrid.uniform(0.5, 17)
    record = generate_measurements(0.6, modes, ModalState(np.ones(3)), two, grid)
    for alpha in (0.6, 1.0):
        one = HumProblem(3, FULL, two[:1], alpha, 1.0)
        with pytest.raises(InputError, match="record has 2 channels for 1 sensors"):
            hum.record_moments(one, record)
        with pytest.raises(InputError, match="record horizon"):
            hum.record_moments(replace(one, sensors=two), record)


def test_rhs_exactness_alpha_one():
    problem = HumProblem(4, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    coeffs = np.random.default_rng(7).standard_normal(4)
    state = in_span_state(problem, coeffs)
    want = assemble_gram(problem) @ coeffs
    scale = np.max(np.abs(want))
    # closed modal route is exact to roundoff
    assert np.max(np.abs(assemble_rhs_from_state(problem, state) - want)) <= 1e-12 * scale
    # sampled route carries the interpolation error of the record
    modes = eigenpairs(1, 4)
    record = generate_measurements(1.0, modes, state, problem.sensors, TimeGrid.uniform(1.0, 2001))
    assert np.max(np.abs(record_rhs(problem, record) - want)) <= 5e-4 * scale


def test_rhs_exactness_fractional():
    problem = HumProblem(4, FULL, (Sensor.pointwise((0.3,)),), 0.5, 1.0)
    coeffs = np.random.default_rng(11).standard_normal(4)
    state = in_span_state(problem, coeffs)
    want = assemble_gram(problem) @ coeffs
    scale = np.max(np.abs(want))
    assert np.max(np.abs(assemble_rhs_from_state(problem, state) - want)) <= 1e-12 * scale
    # at alpha = 0.5 mode k has lost most of its amplitude by
    # t ~ lam_k^{-2}, far inside the first uniform cell; only a record
    # graded toward 0 retains that transient. Measured: 2.8e-5 graded
    # against 5.1e-2 uniform at the same node count.
    modes = eigenpairs(1, 4)
    nodes = np.union1d(graded_panel_edges(1.0, 384, 1e-12), np.linspace(0.0, 1.0, 129))
    record = generate_measurements(0.5, modes, state, problem.sensors, TimeGrid(nodes))
    assert np.max(np.abs(record_rhs(problem, record) - want)) <= 2e-4 * scale
    uniform = generate_measurements(
        0.5, modes, state, problem.sensors, TimeGrid.uniform(1.0, nodes.size)
    )
    assert np.max(np.abs(record_rhs(problem, uniform) - want)) > 1e-2 * scale


def test_rhs_data_route_gap_graded_record():
    # the sweep's operating point (alpha = 0.84, M = 8, 200-mode trig_sq
    # record, point sensor) at b = 0.55 on the CLI's graded grid of 2048
    # samples; measured 2.59e-5
    half = 1024
    nodes = fc.merge_nodes(
        graded_panel_edges(1.0, half, 1e-12), np.linspace(0.0, 1.0, half + 1), 1.0
    )
    grid = TimeGrid(nodes)
    assert len(grid) == 2048
    modes = eigenpairs(1, 200)
    state = project_initial_state(modes, "trig_sq")
    sensors = (Sensor.pointwise((0.55,)),)
    problem = HumProblem(8, Region((0.0,), (0.25,)), sensors, 0.84, 1.0)
    record = generate_measurements(0.84, modes, state, sensors, grid)
    exact = assemble_rhs_from_state(problem, state)
    gap = np.linalg.norm(record_rhs(problem, record) - exact) / np.linalg.norm(exact)
    assert gap <= 3e-5


def test_exact_route_evaluates_only_modes_with_weight(monkeypatch):
    # the derivative of the 96-mode poly_sq state's record is evaluated once
    # on the Gram's 1536 Gauss nodes over its 48 nonzero modes, and paired
    # with the 20 modes' decay profiles there: 1536 x (48 + 20) E_alpha points,
    # where a cross-product table over every state mode took 1536 x 96
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    deep = HumProblem(96, FULL, (Sensor.pointwise((0.3,)),), 0.5, 1.0)
    state = project_initial_state(deep.modes, "poly_sq")
    problem = replace(deep, mode_count=20)
    rhs = assemble_rhs_from_state(problem, state)
    assert sum(points) == 1536 * (48 + 20) == 104_448
    # the cross-product route on the same rule, built here
    t, w = fc.product_rule(1.0)
    cross = (real(0.5, -np.outer(deep.eigenvalues, t**0.5)) * w) @ real(
        0.5, -np.outer(t**0.5, problem.eigenvalues)
    )
    moments = np.einsum("cl,l,lk->kc", deep.outputs, deep.eigenvalues * state.coefficients, cross)
    want = assemble_rhs(problem, moments)
    assert np.max(np.abs(rhs - want)) <= 1e-13 * np.max(np.abs(want))


def test_assemble_rhs_channels_match_stacked_single_channel():
    # one caputo_values pass for all channels gives the sum of the
    # single-sensor RHS vectors, each from its own channel
    sensors = tuple(Sensor.pointwise((b,)) for b in (0.2, 0.45, 0.7))
    modes = eigenpairs(1, 40)
    # x (1 - x) e^x by a 64-point Gauss-Legendre rule on [0, 1]
    y, w = np.polynomial.legendre.leggauss(64)
    y, w = 0.5 * (y + 1.0), 0.5 * w
    state = ModalState((w * y * (1.0 - y) * np.exp(y)) @ mode_table(modes, (y,)))
    nodes = np.union1d(graded_panel_edges(1.0, 256, 1e-12), np.linspace(0.0, 1.0, 257))
    record = generate_measurements(0.5, modes, state, sensors, TimeGrid(nodes))
    problem = HumProblem(6, FULL, sensors, 0.5, 1.0)
    got = record_rhs(problem, record)
    stacked = sum(
        record_rhs(
            HumProblem(6, FULL, (sensor,), 0.5, 1.0),
            MeasurementRecord(record.grid, record.samples[:, ch]),
        )
        for ch, sensor in enumerate(sensors)
    )
    assert np.max(np.abs(got - stacked)) <= 1e-13 * np.max(np.abs(stacked))


def test_rhs_single_mode_dense_oracle():
    problem = HumProblem(3, FULL, (Sensor.pointwise((0.2,)),), 1.0, 1.0)
    rhs = assemble_rhs_from_state(problem, ModalState([0.0, 1.0, 0.0]))
    modes = problem.modes
    lams = eigenvalues(modes)
    B = coupling_matrix(modes)
    P = output_matrix(problem.sensors, modes)
    t = np.linspace(0.0, 1.0, 1000001)
    zeta = lams[1] * np.exp(-lams[1] * t) * P[0, 1]
    decay = np.exp(-np.outer(t, lams))
    brute = np.array(
        [trapezoid(zeta * (decay @ (B[i] * P[0])), t) for i in range(3)]
    )
    assert np.max(np.abs(rhs - brute)) <= 1e-8


def test_solve_trivial_examples():
    problem = HumProblem(
        2, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0, Regularization("tikhonov", 1e-3)
    )
    gram = np.eye(2)
    zero, _ = solve_reconstruction(problem, gram, np.zeros(2))
    assert np.all(zero == 0.0)
    got, _ = solve_reconstruction(problem, gram, np.array([1.0, 0.0]))
    assert got == pytest.approx(np.array([1.0 / (1.0 + 1e-3), 0.0]), rel=1e-14)


def test_solve_validation():
    problem = HumProblem(2, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    with pytest.raises(InputError):
        solve_reconstruction(problem, np.eye(3), np.zeros(2))
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InputError):
        solve_reconstruction(problem, skew, np.zeros(2))


def test_solve_none_raises_on_singular_gram():
    problem = HumProblem(
        4, FULL, (Sensor.pointwise((0.5,)),), 1.0, 1.0, Regularization("none")
    )
    gram = assemble_gram(problem)
    with pytest.raises(SolvabilityError) as err:
        solve_reconstruction(problem, gram, np.ones(4))
    assert err.value.smallest_eigenvalue is not None
    assert abs(err.value.smallest_eigenvalue) <= 1e-10 * eigh(gram, eigvals_only=True)[-1]


def test_solve_truncated_svd_reproduces_range():
    problem = HumProblem(
        4, FULL, (Sensor.pointwise((0.5,)),), 1.0, 1.0, Regularization("truncated_svd", 1e-12)
    )
    gram = assemble_gram(problem)
    rhs = gram @ np.random.default_rng(3).standard_normal(4)
    got, _ = solve_reconstruction(problem, gram, rhs)
    assert np.max(np.abs(gram @ got - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_solve_spectral_tikhonov():
    sensors = (Sensor.pointwise((0.3,)),)
    pd = HumProblem(4, FULL, sensors, 1.0, 1.0, Regularization("none"))
    gram = assemble_gram(pd)
    rhs = gram @ np.random.default_rng(5).standard_normal(4)
    exact, _ = solve_reconstruction(pd, gram, rhs)
    tiny = HumProblem(4, FULL, sensors, 1.0, 1.0, Regularization("spectral_tikhonov", 1e-14))
    near, _ = solve_reconstruction(tiny, gram, rhs)
    assert np.max(np.abs(near - exact)) <= 1e-8
    # the shift it applies is mu * ev_max * (lam_q / lam_M)^2 per row
    mu = 1e-3
    shifted = HumProblem(4, FULL, sensors, 1.0, 1.0, Regularization("spectral_tikhonov", mu))
    got, _ = solve_reconstruction(shifted, gram, rhs)
    lams = eigenvalues(pd.modes)
    shift = mu * eigh(gram, eigvals_only=True)[-1] * (lams / lams[-1]) ** 2
    assert np.max(np.abs(gram @ got + shift * got - rhs)) <= 1e-12


def test_tikhonov_consistency_monotone():
    problem = HumProblem(4, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    coeffs = np.random.default_rng(7).standard_normal(4)
    gram = assemble_gram(problem)
    rhs = assemble_rhs_from_state(problem, in_span_state(problem, coeffs))
    errors = []
    for mu in (1e-6, 1e-9, 1e-12):
        reg = HumProblem(
            4, FULL, problem.sensors, 1.0, 1.0, Regularization("tikhonov", mu)
        )
        solved, _ = solve_reconstruction(reg, gram, rhs)
        errors.append(np.linalg.norm(solved - coeffs))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-7


def test_k_norm_identity():
    # c' Lambda c is the output energy of the evolution seeded by the
    # candidate's potential
    problem = HumProblem(4, FULL, (Sensor.pointwise((0.3,)),), 1.0, 1.0)
    coeffs = np.random.default_rng(9).standard_normal(4)
    quad_form = float(coeffs @ assemble_gram(problem) @ coeffs)
    modes = problem.modes
    lams = eigenvalues(modes)
    B = coupling_matrix(modes)
    P = output_matrix(problem.sensors, modes)
    t = np.linspace(0.0, 1.0, 400001)
    signal = np.exp(-np.outer(t, lams)) @ ((B.T @ coeffs) * P[0])
    brute = simpson(signal * signal, x=t)
    assert quad_form == pytest.approx(brute, abs=1e-8)


def test_reconstruct_noiseless_in_span_one_iteration():
    problem = HumProblem(
        6,
        Region((0.2,), (0.8,)),
        (Sensor.pointwise((0.3,)),),
        1.0,
        1.0,
        regularization=Regularization("none"),
        epsilon=1e-6,
    )
    coeffs = np.random.default_rng(7).standard_normal(6)
    truth = GradientField(coeffs, problem.modes)
    result = reconstruct(problem, in_span_state(problem, coeffs), truth=truth)
    assert result.iterations == 1
    assert result.residual <= 1e-6
    assert result.error_vs_truth <= 1e-10
    assert np.max(np.abs(result.field.coefficients - coeffs)) <= 1e-7


def test_reconstruct_zero_record():
    sensors = (Sensor.pointwise((0.3,)),)
    modes = eigenpairs(1, 6)
    record = generate_measurements(
        1.0, modes, ModalState(np.zeros(6)), sensors, TimeGrid.uniform(1.0, 101)
    )
    result = reconstruct(HumProblem(6, FULL, sensors, 1.0, 1.0), record)
    assert result.iterations == 1
    assert result.residual == 0.0
    assert np.all(result.field.coefficients == 0.0)


def test_reconstruct_escalates_until_span_is_reached():
    problem = HumProblem(
        2,
        FULL,
        (Sensor.pointwise((0.3,)),),
        1.0,
        1.0,
        regularization=Regularization("none"),
        epsilon=1e-6,
        escalation_step=2,
        max_iterations=5,
    )
    wide = HumProblem(6, FULL, problem.sensors, 1.0, 1.0)
    coeffs = np.random.default_rng(7).standard_normal(6)
    result = reconstruct(problem, in_span_state(wide, coeffs))
    assert result.iterations == 3
    assert len(result.field.modes) == 6
    assert result.residual <= 1e-6
    assert result.residual_history[0] > result.residual_history[-1]


def test_reconstruct_convergence_error_carries_best():
    sensors = (Sensor.pointwise((0.3,)),)
    wide = HumProblem(6, FULL, sensors, 1.0, 1.0)
    coeffs = np.random.default_rng(7).standard_normal(6)
    modes = eigenpairs(1, 6)
    record = generate_measurements(
        1.0, modes, in_span_state(wide, coeffs), sensors, TimeGrid.uniform(1.0, 65)
    )
    problem = HumProblem(
        2, FULL, sensors, 1.0, 1.0, epsilon=1e-13, escalation_step=0, max_iterations=2
    )
    with pytest.raises(ConvergenceError) as err:
        reconstruct(problem, record)
    assert err.value.best is not None
    assert len(err.value.residual_history) == 2
    assert err.value.best.residual == min(err.value.residual_history)


def test_reconstruct_with_no_solvable_step_raises_solvability_error():
    # at the blind spot b = 0.5 both unregularized steps are singular, so
    # no iterate exists: the last step's SolvabilityError (8 modes) is
    # raised on both routes, not a ConvergenceError without a best iterate
    sensors = (Sensor.pointwise((0.5,)),)
    problem = HumProblem(4, FULL, sensors, 0.7, 1.0, Regularization("none"), max_iterations=2)
    state = ModalState([0.1, -0.05, 0.02, 0.01])
    modes = eigenpairs(1, len(state))
    record = generate_measurements(0.7, modes, state, sensors, TimeGrid.uniform(1.0, 65))
    last = replace(problem, mode_count=8)
    with pytest.raises(SolvabilityError) as want:
        solve_reconstruction(last, assemble_gram(last), np.zeros(8))
    for source in (record, state):
        with pytest.raises(SolvabilityError) as err:
            reconstruct(problem, source)
        assert err.value.smallest_eigenvalue == want.value.smallest_eigenvalue
        assert str(err.value) == str(want.value)


def test_escalating_reconstruct_decay_point_count(monkeypatch):
    # each step builds its Gram's table on the Gauss nodes and drops it:
    # 2 + 4 + 6 columns. The moments pair only the modes a step adds, on
    # the moment nodes (alpha = 0.7) or the 64 cell starts (alpha = 1): 6
    # columns. The residual streams the 65 record nodes and keeps nothing:
    # 2 + 4 + 6 columns
    sensors = (Sensor.pointwise((0.3,)),)
    state = ModalState(1.0 / np.arange(1.0, 13.0) ** 2)
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    gauss = fc.PRODUCT_PANELS * fc.PRODUCT_ORDER
    for alpha in (0.7, 1.0):
        modes = eigenpairs(1, 12)
        record = generate_measurements(alpha, modes, state, sensors, TimeGrid.uniform(1.0, 65))
        problem = HumProblem(
            2, FULL, sensors, alpha, 1.0, epsilon=1e-14, escalation_step=2, max_iterations=3
        )
        points.clear()
        with pytest.raises(ConvergenceError) as err:
            reconstruct(problem, record)
        assert len(err.value.residual_history) == 3
        if alpha < 1.0:
            moments = hum._moment_nodes(problem, record.grid)[0].size
        else:
            moments = len(record.grid) - 1
        want = gauss * (2 + 4 + 6) + moments * 6 + len(record.grid) * (2 + 4 + 6)
        assert sum(points) == want, alpha


def test_reconstruct_without_escalation_pairs_its_moments_once(monkeypatch):
    # escalation_step = 0 repeats one truncation: each of the three steps
    # builds its Gram's table on the Gauss nodes and streams the residual
    # over the record nodes, but the moments, on the moment nodes (alpha =
    # 0.7) or the 64 cell starts (alpha = 1), are paired at the first step
    # alone
    sensors = (Sensor.pointwise((0.3,)),)
    state = ModalState(1.0 / np.arange(1.0, 13.0) ** 2)
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    gauss = fc.PRODUCT_PANELS * fc.PRODUCT_ORDER
    for alpha in (0.7, 1.0):
        modes = eigenpairs(1, 12)
        record = generate_measurements(alpha, modes, state, sensors, TimeGrid.uniform(1.0, 65))
        problem = HumProblem(
            3, FULL, sensors, alpha, 1.0, epsilon=1e-14, escalation_step=0, max_iterations=3
        )
        points.clear()
        with pytest.raises(ConvergenceError) as err:
            reconstruct(problem, record)
        assert len(err.value.residual_history) == 3
        if alpha < 1.0:
            moments = hum._moment_nodes(problem, record.grid)[0].size
        else:
            moments = len(record.grid) - 1
        want = gauss * 3 * 3 + moments * 3 + len(record.grid) * 3 * 3
        assert sum(points) == want, alpha


def test_escalating_reconstruct_makes_one_l1_pass(monkeypatch):
    # the moment nodes and the record's weighted derivative do not depend
    # on the truncation: three steps share one caputo_values call, and each
    # step's solve is bitwise the one its own record route gives
    sensors = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.65,)))
    state = ModalState(1.0 / np.arange(1.0, 13.0) ** 2)
    modes = eigenpairs(1, 12)
    record = generate_measurements(0.7, modes, state, sensors, TimeGrid.uniform(1.0, 65))
    problem = HumProblem(
        2, FULL, sensors, 0.7, 1.0, epsilon=1e-14, escalation_step=2, max_iterations=3
    )
    steps = []
    for it in range(3):
        prob_i = replace(problem, mode_count=2 + 2 * it)
        coeffs, _ = solve_reconstruction(
            prob_i, assemble_gram(prob_i), record_rhs(prob_i, record)
        )
        field = GradientField(coeffs, prob_i.modes)
        steps.append((coeffs, hum.residual_against(prob_i, record, [field])[0]))
    calls = []
    real = hum.caputo_values

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hum, "caputo_values", counted)
    with pytest.raises(ConvergenceError) as err:
        reconstruct(problem, record)
    assert len(calls) == 1
    assert err.value.residual_history == tuple(r for _, r in steps)
    best = min(range(3), key=lambda i: steps[i][1])
    assert err.value.best.iterations == best + 1
    assert np.array_equal(err.value.best.field.coefficients, steps[best][0])


def test_sweep_channels_builds_the_truncation_once(monkeypatch):
    # only P depends on the sensor: the channels share one set of modes and
    # one B, and each row is bitwise the solve of a fresh one-sensor problem
    sensors = tuple(Sensor.pointwise((b,)) for b in (0.3, 0.45, 0.65))
    state = ModalState(1.0 / np.arange(1.0, 9.0) ** 2)
    modes = eigenpairs(1, 8)
    record = generate_measurements(0.7, modes, state, sensors, TimeGrid.uniform(1.0, 65))
    problem = HumProblem(4, FULL, sensors, 0.7, 1.0, regularization=Regularization("none"))
    truth = GradientField(np.ones(4), problem.modes)  # any field on omega will do
    moments = hum.record_moments(problem, record)
    want = []
    for ch, sensor in enumerate(sensors):
        channel = MeasurementRecord(record.grid, record.samples[:, ch])
        single = replace(problem, sensors=(sensor,))
        field, err, spectrum = hum._solve_step(single, moments[:, ch, None], truth)
        (residual,) = hum.residual_against(single, channel, [field])
        want.append((err, residual, spectrum.smallest_eigenvalue))
    calls = {"eigenpairs": 0, "grad_coupling": 0}

    def counting(name):
        real = getattr(hum, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(hum, name, counted)

    counting("eigenpairs")
    counting("grad_coupling")
    got = list(hum.sweep_channels(replace(problem), record, truth))  # an empty cache
    assert calls == {"eigenpairs": 1, "grad_coupling": 4 * 4}
    assert got == want


def test_alpha_one_rhs_matches_per_cell_quadrature():
    # the closed form per record cell against adaptive quadrature of the
    # interpolant's slope times exp(-lam t), for lam h from 1e-12 to ~50
    quad = pytest.importorskip("scipy.integrate").quad
    sensors = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.71,)))
    problem = HumProblem(8, FULL, sensors, 1.0, 1.0)
    lams = problem.eigenvalues
    nodes = np.concatenate(
        ([0.0], np.geomspace(1e-13, 0.05, 30), np.linspace(0.05, 1.0, 13)[1:])
    )
    h = np.diff(nodes)
    assert lams[0] * h.min() == pytest.approx(1e-12, rel=0.02)
    assert 40.0 < lams[-1] * h.max() < 60.0
    samples = np.random.default_rng(5).standard_normal((nodes.size, 2))
    record = MeasurementRecord(TimeGrid(nodes), samples)
    # moments[k, ch] = -int z_ch'(t) exp(-lam_k t) dt, cell by cell
    cells = np.empty((lams.size, 2, h.size))
    slopes = np.diff(samples, axis=0) / h[:, None]
    for k, lam in enumerate(lams):
        for j, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            value = quad(lambda t: math.exp(-lam * t), a, b, epsabs=0.0, epsrel=1e-13)[0]
            cells[k, :, j] = -slopes[j] * value
    P, B = problem.outputs, problem.coupling
    oracle = B @ np.einsum("ck,kc->k", P, cells.sum(axis=2))
    # error scale: the same sums taken over magnitudes, free of cancellation
    scale = np.abs(B) @ np.einsum("ck,kc->k", np.abs(P), np.abs(cells).sum(axis=2))
    gap = np.abs(record_rhs(problem, record) - oracle)
    assert np.all(gap <= 1e-12 * scale)
    assert np.max(gap) <= 1e-12 * np.max(np.abs(oracle))


def _long_record(alpha):
    """Three channels of 65,536 rows: a record-node table of 8 modes takes 4.2 MB."""
    sensors = tuple(Sensor.pointwise((b,)) for b in (0.2, 0.55, 0.81))
    problem = HumProblem(8, FULL, sensors, alpha, 1.0)
    grid = TimeGrid.uniform(1.0, 65536)
    samples = np.random.default_rng(8).standard_normal((65536, 3)).cumsum(axis=0) / 256.0
    problem.outputs  # the operators are built before memory is traced
    return problem, MeasurementRecord(grid, samples), 65536 * 8 * 8


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alpha_one_moments_stream_in_row_blocks():
    # the cell weights are formed and summed in fixed row blocks: the traced
    # peak stays within one record-node table, none is kept, and every
    # moment is the whole-table expression's to rounding
    problem, record, table = _long_record(1.0)
    moments, peak = _traced_peak(hum.record_moments, problem, record)
    assert peak <= table
    nodes = record.grid.nodes
    decay = fc.mlf_values(1.0, -np.outer(nodes**1.0, problem.eigenvalues))
    x = np.outer(np.diff(nodes), problem.eigenvalues)
    cells = decay[:-1] * (np.expm1(-x) / x)
    dz = np.diff(record.samples, axis=0)
    # error scale: the same sums taken over magnitudes
    scale = np.abs(cells).T @ np.abs(dz)
    assert np.all(np.abs(moments - cells.T @ dz) <= 1e-14 * scale)


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_record_moments_retain_nothing_of_the_record(alpha):
    # no decay table or derivative of record length outlives the call: what
    # stays traced once it returns, besides the moments, is under 64 KB,
    # where a record-node table of 8 modes takes 4.2 MB
    problem, record, _ = _long_record(alpha)
    tracemalloc.start()
    try:
        moments = hum.record_moments(problem, record)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - moments.nbytes < 64 * 1024


@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_residual_streams_in_row_blocks(alpha):
    # the squared misfit is summed in fixed row blocks: the traced peak stays
    # within one record-node table, none is kept, and the residual is the
    # whole-table expression's to rounding
    problem, record, table = _long_record(alpha)
    field = GradientField(np.random.default_rng(9).standard_normal(8), problem.modes)
    (residual,), peak = _traced_peak(hum.residual_against, problem, record, [field])
    assert peak <= table
    decay = fc.mlf_values(alpha, -np.outer(record.grid.nodes**alpha, problem.eigenvalues))
    weights = ((problem.coupling.T @ field.coefficients) / problem.eigenvalues)[:, None]
    weights = weights * problem.outputs.T
    w = record.grid.weights_on(slice(None))[:, None]
    want = np.sum(w * (record.samples - decay @ weights) ** 2)
    # error scale: the same sum taken over magnitudes
    scale = np.sum(w * (np.abs(record.samples) + np.abs(decay) @ np.abs(weights)) ** 2)
    assert abs(residual**2 - want) <= 1e-14 * scale


def test_residual_weights_each_row_block_on_its_own():
    # the record of the interval-alpha1 benchmark config (65,334 graded rows,
    # three sensors, alpha = 1, M = 4): each row block takes its own
    # trapezoid weights, so the traced peak stays
    # within 1 MB of the entry, where the whole record's weights take 0.5 MB
    # and its blocks' products about 1 MB more
    modes = eigenpairs(1, 200)
    sensors = (Sensor.pointwise((0.2,)), Sensor.pointwise((0.55,)),
               Sensor.zonal(Region((0.9,), (1.0,)), lambda x: np.ones_like(x)))
    grid = TimeGrid.graded(1.0, 65536)
    state = project_initial_state(modes, "poly_sq")
    record = generate_measurements(1.0, modes, state, sensors, grid)
    problem = HumProblem(4, Region((0.0,), (0.25,)), sensors, 1.0, 1.0)
    field = GradientField(np.random.default_rng(9).standard_normal(4), problem.modes)
    problem.outputs, problem.coupling  # the operators are built before memory is traced
    (residual,), peak = _traced_peak(hum.residual_against, problem, record, [field])
    assert peak <= 1 << 20, peak / (1 << 20)
    weights = ((problem.coupling.T @ field.coefficients) / problem.eigenvalues)[:, None]
    decay = np.exp(-np.outer(grid.nodes, problem.eigenvalues))
    misfit = record.samples - decay @ (weights * problem.outputs.T)
    want = np.sum(grid.weights_on(slice(None))[:, None] * misfit**2)
    assert abs(residual**2 - want) <= 1e-12 * want


@pytest.mark.parametrize("alpha, samples", [(0.7, 1000), (1.0, 10000)])
def test_moments_of_a_truncation_prefix_a_larger_one(alpha, samples):
    # each mode's moments are summed on their own, in row blocks that do not
    # depend on the modes: over several blocks, M = 4 (and every M below 8)
    # gives bit for bit the first M rows of M = 8, for one channel and for
    # three. A BLAS product of the blocks fails this at some M.
    grid = TimeGrid.uniform(1.0, samples)
    rng = np.random.default_rng(10)
    for channels in (1, 3):
        sensors = tuple(Sensor.pointwise((b,)) for b in (0.2, 0.55, 0.81)[:channels])
        record = MeasurementRecord(grid, rng.standard_normal((samples, channels)).cumsum(axis=0))
        large = hum.record_moments(HumProblem(8, FULL, sensors, alpha, 1.0), record)
        for modes in (4, 1, 2, 3, 5, 6, 7):
            small = hum.record_moments(HumProblem(modes, FULL, sensors, alpha, 1.0), record)
            assert small.shape == (modes, channels)
            assert np.array_equal(small, large[:modes]), (modes, channels)


def test_exact_route_moments_of_a_truncation_prefix_a_larger_one():
    # the exact route pairs through _pair_decay too: with one sensor, alpha
    # 0.7 and a 12-mode state, M = 1..7 give bit for bit the first M rows of
    # M = 8, where a BLAS product of the decay table did so at M = 4 alone
    sensors = (Sensor.pointwise((0.3,)),)
    state = ModalState(1.0 / np.arange(1.0, 13.0) ** 2)
    deep = HumProblem(len(state), FULL, sensors, 0.7, 1.0)
    pairing = hum._state_pairing(deep, state)

    def moments(prob):
        return hum._pair_decay(prob.alpha, prob.eigenvalues, *pairing)

    large = moments(replace(deep, mode_count=8))
    for modes in range(1, 8):
        small = moments(replace(deep, mode_count=modes))
        assert small.shape == (modes, 1)
        assert np.array_equal(small, large[:modes]), modes


def test_sweep_residuals_take_one_record_pass(monkeypatch):
    # the acceptance sweep's one chunk: 19 positions on 512 record rows at
    # M = 8, 7 of them blind. E_alpha is evaluated on the Gram's Gauss nodes
    # and on the moment nodes once per chunk (every channel reads the
    # parent's T and moments), and on the record nodes once for every
    # channel's residual:
    # R x M = 4,096 points, where a pass per solvable channel took 12 x 4,096
    positions = [0.05 * i for i in range(1, 20)]
    sensors = tuple(Sensor.pointwise((b,)) for b in positions)
    modes = eigenpairs(1, 200)
    state = project_initial_state(modes, "trig_sq")
    grid = TimeGrid.uniform(1.0, 512)
    record = generate_measurements(0.84, modes, state, sensors, grid)
    problem = HumProblem(8, Region((0.0,), (0.25,)), sensors, 0.84, 1.0, Regularization("none"))
    truth = GradientField(np.ones(8), problem.modes)  # any field on omega will do
    points = []
    real = fc.mlf_values

    def counted(alpha, z):
        points.append(np.size(z))
        return real(alpha, z)

    monkeypatch.setattr(fc, "mlf_values", counted)
    rows = hum.sweep_channels(problem, record, truth)
    assert sum(math.isnan(err) for err, _, _ in rows) == 7
    gauss = fc.PRODUCT_PANELS * fc.PRODUCT_ORDER
    moment_nodes = hum._moment_nodes(problem, grid)[0].size
    assert sum(points) == (gauss + moment_nodes + len(grid)) * 8
    # one field for every channel, or one per channel: nothing in between
    with pytest.raises(InputError):
        hum.residual_against(problem, record, [None, None])


@pytest.mark.parametrize("alpha, samples", [(0.7, 1000), (1.0, 10000)])
def test_escalation_steps_pair_only_the_modes_they_add(monkeypatch, alpha, samples):
    # each step's moments are bitwise those of a fresh record_moments at its
    # truncation, though a step pairs only the modes it adds; the record
    # spans several row blocks
    sensors = (Sensor.pointwise((0.3,)), Sensor.pointwise((0.65,)))
    state = ModalState(1.0 / np.arange(1.0, 13.0) ** 2)
    modes = eigenpairs(1, 12)
    record = generate_measurements(alpha, modes, state, sensors, TimeGrid.uniform(1.0, samples))
    problem = HumProblem(
        2, FULL, sensors, alpha, 1.0, epsilon=1e-14, escalation_step=2, max_iterations=3
    )
    seen = []
    real = hum.assemble_rhs

    def spied(prob, moments):
        seen.append(moments)
        return real(prob, moments)

    monkeypatch.setattr(hum, "assemble_rhs", spied)
    with pytest.raises(ConvergenceError):
        reconstruct(problem, record)
    assert [m.shape for m in seen] == [(2, 2), (4, 2), (6, 2)]
    for moments in seen:
        fresh = hum.record_moments(replace(problem, mode_count=len(moments)), record)
        assert np.array_equal(moments, fresh)


def test_escalating_reconstruct_decomposes_each_gram_once(monkeypatch):
    # the coefficients and gram_condition of a step share one eigh, and
    # each step builds its modes, B and P once, on its own problem
    decompositions = []
    real = hum.eigh

    def counted(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        decompositions.append(out[0])
        return out

    monkeypatch.setattr(hum, "eigh", counted)
    builds = {"eigenpairs": 0, "output_matrix": 0, "grad_coupling": 0}

    def counting(name):
        real_fn = getattr(hum, name)

        def wrapper(*args, **kwargs):
            builds[name] += 1
            return real_fn(*args, **kwargs)

        monkeypatch.setattr(hum, name, wrapper)

    sensors = (Sensor.pointwise((0.3,)),)
    wide = HumProblem(6, FULL, sensors, 1.0, 1.0)
    state = in_span_state(wide, np.random.default_rng(7).standard_normal(6))
    for name in builds:
        counting(name)
    problem = HumProblem(
        2, FULL, sensors, 1.0, 1.0, Regularization("none"), escalation_step=2
    )
    result = reconstruct(problem, state)
    assert result.iterations == 3
    assert len(decompositions) == 3
    ev = decompositions[-1]
    assert result.gram_condition == ev[-1] / ev[0]
    # at the blind spot b = 0.5 the first two unregularized steps are singular
    decompositions.clear()
    blind = replace(problem, sensors=(Sensor.pointwise((0.5,)),), epsilon=1e-14,
                    max_iterations=4)
    with pytest.raises(ConvergenceError) as err:
        reconstruct(blind, state)
    assert err.value.residual_history[:2] == (math.inf, math.inf)
    assert len(decompositions) == 4
    # the exact route also builds the modes and P of the state's depth,
    # once per reconstruct, not once per step
    sizes = (2, 4, 6, 2, 4, 6, 8)
    assert builds == {
        "eigenpairs": len(sizes) + 2,
        "output_matrix": len(sizes) + 2,
        "grad_coupling": sum(m * m for m in sizes),
    }
    # the data route: one of each per step, singular steps included
    modes = eigenpairs(1, len(state))
    record = generate_measurements(1.0, modes, state, blind.sensors, TimeGrid.uniform(1.0, 65))
    builds.update(dict.fromkeys(builds, 0))
    with pytest.raises(ConvergenceError) as err:
        reconstruct(blind, record)
    assert err.value.residual_history[:2] == (math.inf, math.inf)
    sizes = (2, 4, 6, 8)
    assert builds == {
        "eigenpairs": len(sizes),
        "output_matrix": len(sizes),
        "grad_coupling": sum(m * m for m in sizes),
    }
    step = replace(blind, mode_count=3)
    for operator in (step.eigenvalues, step.coupling, step.outputs):
        assert not operator.flags.writeable
    assert step.modes is step.modes and step.modes.tolist() == eigenpairs(1, 3).tolist()


def test_reconstruct_data_route_residual():
    # the output residual can be small while the coefficient error is
    # not; an ill-conditioned gram hides error in weakly sensed modes
    sensors = (Sensor.pointwise((0.3,)),)
    problem = HumProblem(6, FULL, sensors, 1.0, 1.0, epsilon=1e-3, max_iterations=1)
    coeffs = np.random.default_rng(7).standard_normal(6)
    modes = eigenpairs(1, 6)
    record = generate_measurements(
        1.0, modes, in_span_state(problem, coeffs), sensors, TimeGrid.uniform(1.0, 2049)
    )
    result = reconstruct(problem, record)
    assert result.iterations == 1
    assert result.residual <= 1e-4
    assert result.gram_condition > 1e3


def test_omega_error_zero_for_matching_truth():
    coeffs = np.random.default_rng(2).standard_normal(4)
    field = GradientField(coeffs, eigenpairs(1, 4))
    omega = Region((0.2,), (0.7,))
    assert omega_error(field, field, omega) <= 1e-14
    assert omega_error(field, (field.component(0),), omega) <= 1e-14


def test_omega_error_zero_field_against_known_profile():
    # int_{0.35}^{0.65} (2y(1-y)(1-2y))^2 dy, adaptive quadrature
    field = GradientField(np.zeros(4), eigenpairs(1, 4))
    g = lambda y: 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
    got = omega_error(field, (g,), Region((0.35,), (0.65,)))
    assert got == pytest.approx(0.002014810714285715, rel=1e-10)


def test_omega_error_validation():
    field = GradientField(np.zeros(4), eigenpairs(1, 4))
    with pytest.raises(InputError):
        omega_error(field, field, Region((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(InputError):
        omega_error(field, (lambda x: x, lambda x: x), Region((0.0,), (1.0,)))


def test_write_csv_report(tmp_path):
    coeffs = np.random.default_rng(4).standard_normal(3)
    modes = eigenpairs(1, 3)
    field = GradientField(coeffs, modes)
    result_path = tmp_path / "field.csv"
    from fracobs.hum import ReconstructionResult

    result = ReconstructionResult(field, 1e-7, 42.0, 2, 3e-9, (1e-3, 1e-7))
    result.write_csv(str(result_path), truth=(field.component(0),))
    lines = result_path.read_text().splitlines()
    assert lines[0] == "x,d1_true,d1_rec"
    assert len(lines) == hum.FIELD_SAMPLES + 2
    summary = json.loads(lines[-1][2:])
    assert summary["iterations"] == 2
    assert summary["residual"] == pytest.approx(1e-7)
    row = [float(v) for v in lines[5].split(",")]
    assert row[1] == pytest.approx(row[2], abs=1e-12)

    bare_path = tmp_path / "bare.csv"
    result.write_csv(str(bare_path))
    first = bare_path.read_text().splitlines()[1].split(",")
    assert math.isnan(float(first[1]))


def test_write_csv_2d_golden_bytes(tmp_path):
    # rows are formatted in blocks; the bytes match one "{:.17g}" field at a
    # time, here over 40,401 rows (ten blocks), with and without a truth
    from fracobs.hum import ReconstructionResult

    modes = eigenpairs(2, 5)
    field = GradientField(np.random.default_rng(6).standard_normal(10), modes)
    truth = GradientField(np.random.default_rng(7).standard_normal(10), modes)
    result = ReconstructionResult(field, 2.5e-6, 1.25e9, 1, 4.4e-5, (2.5e-6,))
    ax = np.linspace(0.0, 1.0, hum.FIELD_SAMPLES)
    x, y = (g.ravel() for g in np.meshgrid(ax, ax, indexing="ij"))
    for name, given in (("truth.csv", truth), ("bare.csv", None)):
        path = tmp_path / name
        result.write_csv(str(path), truth=given)
        cols = [x, y]
        for d in range(2):
            cols.append(truth.component(d)(x, y) if given is not None else np.full(x.size, np.nan))
            cols.append(field.component(d)(x, y))
        summary = {"residual": 2.5e-6, "error_vs_truth": 4.4e-5,
                   "gram_condition": 1.25e9, "iterations": 1}
        want = "x,y,d1_true,d1_rec,d2_true,d2_rec\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*cols)
        ) + "# " + json.dumps(summary) + "\n"
        assert path.read_bytes() == want.encode()
