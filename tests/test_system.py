"""Tests for the forward model and the spectral adjoint."""

import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import erfcx

from fracobs import fraccalc as fc
from fracobs import spectral as sp
from fracobs import system as fs
from fracobs.errors import DomainError, InputError

PI = math.pi


def interval_model(alpha=0.5, horizon=1.0, M=4):
    return fs.FractionalDiffusion.create(alpha, sp.SpatialDomain.interval(), horizon, M)


def test_model_validation():
    with pytest.raises(InputError):
        fs.FractionalDiffusion.create(0.0, sp.SpatialDomain.interval(), 1.0, 3)
    with pytest.raises(InputError):
        fs.FractionalDiffusion.create(1.2, sp.SpatialDomain.interval(), 1.0, 3)
    with pytest.raises(InputError):
        fs.FractionalDiffusion.create(0.5, sp.SpatialDomain.interval(), -1.0, 3)
    with pytest.raises(InputError):
        fs.FractionalDiffusion(
            0.5, sp.SpatialDomain.square(), 1.0, tuple(sp.eigenpairs(sp.SpatialDomain.interval(), 2))
        )


def test_sensor_validation():
    s = fs.Sensor.pointwise((0.2,))
    assert s.kind == "pointwise"
    with pytest.raises(InputError):
        fs.Sensor.pointwise((0.0,))
    with pytest.raises(InputError):
        fs.Sensor.pointwise((1.0, 0.5))
    with pytest.raises(InputError):
        fs.Sensor("zonal", support=sp.Region((0.1,), (0.2,)))  # missing weight
    with pytest.raises(InputError):
        fs.Sensor("gaussian", location=(0.5,))


def test_project_recovers_basis_function():
    m = interval_model(M=5)
    state = fs.project_initial_state(m, sp.eigenfunction(m.basis[1]))
    want = np.zeros(5)
    want[1] = 1.0
    assert np.max(np.abs(state.coefficients - want)) < 1e-12


def test_project_zero_field():
    m = interval_model(M=3)
    state = fs.project_initial_state(m, lambda x: np.zeros_like(x))
    assert np.all(state.coefficients == 0.0)


def test_project_poly_squared_first_coefficient():
    # oracle: dense trapezoid of int (y(1-y))^2 sqrt(2) sin(pi y) dy,
    # cross-checked against the closed form 4*sqrt(2)*(12 - pi^2)/pi^5
    y = np.linspace(0.0, 1.0, 400001)
    oracle = trapezoid((y * (1 - y)) ** 2 * math.sqrt(2) * np.sin(PI * y), y)
    exact = 4.0 * math.sqrt(2.0) * (12.0 - PI**2) / PI**5
    assert oracle == pytest.approx(exact, rel=1e-10)
    m = interval_model(M=3)
    state = fs.project_initial_state(m, lambda y: (y * (1 - y)) ** 2)
    assert state.coefficients[0] == pytest.approx(exact, rel=1e-12)
    assert state.coefficients[0] == pytest.approx(0.039380922195424606, rel=1e-12)


def test_mild_solution_at_zero_is_identity():
    m = interval_model(alpha=0.77, M=4)
    state = fs.ModalState(np.array([1.0, -2.0, 0.25, 3.0]))
    out = fs.mild_solution(m, state, 0.0)
    assert np.array_equal(out.coefficients, state.coefficients)


def test_mild_solution_classical_limit():
    m = interval_model(alpha=1.0, M=2)
    state = fs.ModalState(np.array([1.0, 0.0]))
    out = fs.mild_solution(m, state, 0.1)
    assert out.coefficients[0] == pytest.approx(math.exp(-PI**2 * 0.1), rel=1e-10)
    assert out.coefficients[0] == pytest.approx(0.37271, abs=5e-5)


def test_mild_solution_half_order_square_mode():
    # E_{1/2}(-x) = erfcx(x); x = 5 pi^2 at t = 1
    dom = sp.SpatialDomain.square()
    basis = (sp.EigenMode.from_index((1, 2)),)
    m = fs.FractionalDiffusion(0.5, dom, 2.0, basis)
    out = fs.mild_solution(m, fs.ModalState(np.array([1.0])), 1.0)
    assert out.coefficients[0] == pytest.approx(erfcx(5 * PI**2), rel=1e-10)
    assert out.coefficients[0] == pytest.approx(0.011430525332089, rel=1e-9)


def test_mild_solution_domain_errors():
    m = interval_model()
    state = fs.ModalState(np.ones(4))
    with pytest.raises(DomainError):
        fs.mild_solution(m, state, -0.01)
    with pytest.raises(DomainError):
        fs.mild_solution(m, state, 1.01)


def test_apply_output_pointwise():
    m = interval_model(M=3)
    sensor = fs.Sensor.pointwise((0.2,))
    state = fs.ModalState(np.array([1.0, 0.0, 0.0]))
    want = math.sqrt(2.0) * math.sin(0.2 * PI)
    got = fs.apply_output(sensor, state, m.basis)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.83125, abs=5e-6)
    zero = fs.ModalState(np.zeros(3))
    assert fs.apply_output(sensor, zero, m.basis) == 0.0


def test_apply_output_zonal_unit_weight():
    # closed form sqrt(2) * (cos(0.9 pi) - cos(pi)) / pi over D = [0.9, 1]
    m = interval_model(M=2)
    sensor = fs.Sensor.zonal(
        sp.Region((0.9,), (1.0,)), lambda x: np.ones_like(np.asarray(x, dtype=float))
    )
    state = fs.ModalState(np.array([1.0, 0.0]))
    want = math.sqrt(2.0) * (math.cos(0.9 * PI) - math.cos(PI)) / PI
    got = fs.apply_output(sensor, state, m.basis)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.022032308474521364, rel=1e-12)


def test_generate_measurements_zero_initial_state():
    m = interval_model()
    grid = fc.TimeGrid.uniform(1.0, 17)
    rec = fs.generate_measurements(
        m, lambda x: np.zeros_like(x), [fs.Sensor.pointwise((0.3,))], grid
    )
    assert np.all(rec.samples == 0.0)
    assert rec.channel_count == 1


def test_generate_measurements_single_mode_decay():
    m = interval_model(alpha=0.84, M=4)
    grid = fc.TimeGrid.uniform(1.0, 33)
    b = 0.3
    rec = fs.generate_measurements(
        m, sp.eigenfunction(m.basis[0]), [fs.Sensor.pointwise((b,))], grid
    )
    want = fc.mlf_values(0.84, -m.basis[0].lam * grid.nodes**0.84) * (
        math.sqrt(2.0) * math.sin(PI * b)
    )
    assert np.max(np.abs(rec.samples[:, 0] - want)) < 1e-10


def test_generate_measurements_accepts_modal_state():
    m = interval_model(M=3)
    grid = fc.TimeGrid.uniform(1.0, 9)
    state = fs.ModalState(np.array([0.5, -1.0, 2.0]))
    rec = fs.generate_measurements(m, state, [fs.Sensor.pointwise((0.4,))], grid)
    direct = [
        fs.apply_output(
            fs.Sensor.pointwise((0.4,)), fs.mild_solution(m, state, float(t)), m.basis
        )
        for t in grid.nodes
    ]
    assert np.max(np.abs(rec.samples[:, 0] - np.array(direct))) < 1e-12


def test_measurement_noise_is_seeded():
    m = interval_model(M=3)
    grid = fc.TimeGrid.uniform(1.0, 65)
    sensors = [fs.Sensor.pointwise((0.3,))]
    u0 = lambda x: x * (1 - x)
    a = fs.generate_measurements(m, u0, sensors, grid, noise_sigma=0.01, seed=7)
    b = fs.generate_measurements(m, u0, sensors, grid, noise_sigma=0.01, seed=7)
    c = fs.generate_measurements(m, u0, sensors, grid, noise_sigma=0.01, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.noise_sigma == 0.01


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
def test_noise_sigma_must_be_finite_and_nonnegative(sigma):
    m = interval_model(M=3)
    grid = fc.TimeGrid.uniform(1.0, 9)
    state = fs.ModalState(np.array([0.5, -1.0, 2.0]))
    with pytest.raises(InputError, match="noise_sigma"):
        fs.generate_measurements(m, state, [fs.Sensor.pointwise((0.3,))], grid, sigma)
    with pytest.raises(InputError, match="noise_sigma"):
        fs.MeasurementRecord(grid, np.zeros(9), sigma)


def test_record_csv_roundtrip(tmp_path):
    m = interval_model(M=3)
    grid = fc.TimeGrid.uniform(2.0, 21)
    sensors = [fs.Sensor.pointwise((0.3,)), fs.Sensor.pointwise((0.7,))]
    rec = fs.generate_measurements(m, lambda x: x * (1 - x), sensors, grid)
    path = str(tmp_path / "record.csv")
    rec.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "t,z1,z2"
    back = fs.MeasurementRecord.from_csv(path)
    assert np.array_equal(back.grid.nodes, rec.grid.nodes)
    assert np.array_equal(back.samples, rec.samples)


def test_record_rejects_non_finite_and_malformed_rows(tmp_path):
    grid = fc.TimeGrid.uniform(1.0, 5)
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros((5, 1))
        samples[2, 0] = bad
        with pytest.raises(InputError):
            fs.MeasurementRecord(grid, samples)
    # unparsable field, short row, empty file, header only
    for text in ("t,z1\n0,1\n0.5,x\n", "t,z1\n0,1\n0.5\n", "", "t,z1\n"):
        path = tmp_path / "record.csv"
        path.write_text(text)
        with pytest.raises(InputError):
            fs.MeasurementRecord.from_csv(str(path))


def test_record_csv_golden_bytes(tmp_path):
    nodes = np.array([0.0, 0.25, 1.0 / 3.0])
    samples = np.array([[1.0, -2.5e-7], [1.0 / 7.0, 0.0], [-3.0e5, 2.0 / 3.0]])
    path = tmp_path / "record.csv"
    fs.MeasurementRecord(fc.TimeGrid.from_nodes(nodes), samples).to_csv(str(path))
    want = "t,z1,z2\r\n" + "".join(
        ",".join(format(v, ".17g") for v in (t, *row)) + "\r\n"
        for t, row in zip(nodes, samples)
    )
    assert path.read_bytes() == want.encode()


def test_record_csv_roundtrip_is_bitwise_on_hard_values(tmp_path):
    hard = np.array([5e-324, -0.0, 1.0 / 3.0, 1e308, 0.1 + 0.2])
    grid = fc.TimeGrid.uniform(1.0, hard.size)
    rec = fs.MeasurementRecord(grid, np.stack([hard, hard[::-1]], axis=1))
    path = str(tmp_path / "record.csv")
    rec.to_csv(path)
    back = fs.MeasurementRecord.from_csv(path)
    assert back.samples.tobytes() == rec.samples.tobytes()
    assert back.grid.nodes.tobytes() == grid.nodes.tobytes()


def test_record_csv_reads_lf_and_blank_lines(tmp_path):
    path = tmp_path / "record.csv"
    for text in ("t,z1\n0,1\n0.5,2\n1,3\n", "t,z1\r\n\r\n0,1\r\n\r\n0.5,2\r\n1,3\r\n\r\n"):
        path.write_bytes(text.encode())
        rec = fs.MeasurementRecord.from_csv(str(path))
        assert np.array_equal(rec.grid.nodes, [0.0, 0.5, 1.0])
        assert np.array_equal(rec.samples[:, 0], [1.0, 2.0, 3.0])


def test_record_csv_errors_name_the_physical_line(tmp_path):
    path = tmp_path / "record.csv"
    path.write_bytes(b"t,z1\r\n0,1\r\n\r\n0.5,2\r\n\r\n1,3,4\r\n")
    with pytest.raises(InputError, match=r"record\.csv:6: expected 2 fields, got 3$"):
        fs.MeasurementRecord.from_csv(str(path))
    # a quoted field is not a number (csv.reader used to unquote it)
    path.write_bytes(b't,z1\r\n0,1\r\n0.5,"0.5"\r\n')
    with pytest.raises(InputError, match=r"record\.csv:3: a field is not a number"):
        fs.MeasurementRecord.from_csv(str(path))


def test_record_csv_rejects_python_literal_syntax(tmp_path):
    # float() reads "1_0" as 10.0 and Arabic-Indic digits as numbers; a
    # field is a plain number, and the line walk names the line the bulk
    # parse rejected
    path = tmp_path / "record.csv"
    for field in ("1_0", "\u0661"):
        path.write_text(f"t,z1\n0,1\n\n1,{field}\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"record\.csv:4: a field is not a number"):
            fs.MeasurementRecord.from_csv(str(path))


@pytest.mark.parametrize(
    "text, verdict",
    [
        (b"t,z1\n0,1\n   \n1,2\n", r":3: expected 2 fields, got 1$"),
        (b"t,z1\n0,1\n\t\n1,2\n", r":3: expected 2 fields, got 1$"),
        (b"t,z1\n# note\n0,1\n1,2\n", r":2: expected 2 fields, got 1$"),
        (b"t,z1\n0,1,\n1,2\n", r":2: expected 2 fields, got 3$"),
        (b"t,z1\n0,1\n1\n", r":3: expected 2 fields, got 1$"),
        (b"t,z1,z2\n0,1\n1,2\n", r":2: expected 3 fields, got 2$"),
        (b"t,z1\n0,1\n1,2\n,\n", r":4: a field is not a number"),
        (b"t,z1\n", r": no sample rows$"),
        (b"t,z1\r\n\r\n\r\n", r": no sample rows$"),
        (b"t,z1\r0,1\r0.5,2\r1,3\r", None),
        (b"t,z1\n0, 1\n 0.5 ,2 \n1,\t3", None),
    ],
)
def test_record_csv_verdicts_on_edge_text(tmp_path, text, verdict):
    # blank lines are skipped, whitespace-only ones are rows; a header-only
    # body is a usage error, not a numpy warning
    path = tmp_path / "record.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if verdict is None:
            rec = fs.MeasurementRecord.from_csv(str(path))
            assert np.array_equal(rec.grid.nodes, [0.0, 0.5, 1.0])
            assert np.array_equal(rec.samples[:, 0], [1.0, 2.0, 3.0])
            return
        with pytest.raises(InputError, match=r"record\.csv" + verdict):
            fs.MeasurementRecord.from_csv(str(path))


def _traced_peak(fn):
    """fn's result and the peak of traced allocations while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_record():
    """A 65,536-node alpha = 1 record of 200 modes and three sensors."""
    sysn = interval_model(alpha=1.0, M=200)
    state = fs.ModalState(np.random.default_rng(8).standard_normal(200) / np.arange(1, 201))
    sensors = [fs.Sensor.pointwise((b,)) for b in (0.2, 0.55, 0.81)]
    grid = fc.TimeGrid.uniform(1.0, 65536)
    return sysn, state, sensors, grid


MB = 1 << 20


def test_generate_measurements_holds_no_decay_table(long_record):
    # the 65,536 x 200 table alone would take 105 MB
    sysn, state, sensors, grid = long_record
    rec, peak = _traced_peak(lambda: fs.generate_measurements(sysn, state, sensors, grid))
    assert rec.samples.shape == (65536, 3)
    assert peak < 16 * MB
    # every 97th row against the table product
    weights = state.coefficients[:, None] * fs.output_matrix(sensors, sysn.basis).T
    decay = np.exp(-np.outer(grid.nodes[::97], sysn.eigenvalues))
    gap = np.abs(rec.samples[::97] - decay @ weights)
    assert np.all(gap <= 1e-14 * (np.abs(decay) @ np.abs(weights)))


def test_record_csv_io_memory_is_bounded(long_record, tmp_path):
    sysn, state, sensors, grid = long_record
    rec = fs.generate_measurements(sysn, state, sensors, grid)
    path = str(tmp_path / "record.csv")
    _, peak = _traced_peak(lambda: rec.to_csv(path))
    assert peak < 8 * MB
    back, peak = _traced_peak(lambda: fs.MeasurementRecord.from_csv(path))
    assert peak < 16 * MB
    assert back.samples.tobytes() == rec.samples.tobytes()
    assert back.grid.nodes.tobytes() == grid.nodes.tobytes()


LOAD_GUARD = """
import json, sys
import fracobs.cli
from fracobs.errors import InputError
from fracobs.system import MeasurementRecord
before = set(sys.modules)
MeasurementRecord.from_csv(sys.argv[1])
try:
    MeasurementRecord.from_csv(sys.argv[2])
except InputError as exc:
    print(exc, file=sys.stderr)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_record_csv_read_loads_no_module(tmp_path):
    # numpy's text reader opens a path through its datasource (and so
    # gzip); an open handle costs no import in a fresh command process
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    fs.MeasurementRecord(fc.TimeGrid.uniform(1.0, 5), np.arange(5.0)).to_csv(str(good))
    bad.write_text("t,z1\n0,1\n1,1_0\n")
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_GUARD, str(good), str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bad.csv:3: a field is not a number" in proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_kalpha_zero_record():
    m = interval_model()
    grid = fc.TimeGrid.uniform(1.0, 33)
    rec = fs.MeasurementRecord(grid, np.zeros((33, 1)))
    out = fs.kalpha_adjoint_modal(m, rec, [fs.Sensor.pointwise((0.3,))])
    assert np.all(out.coefficients == 0.0)


def test_kalpha_constant_record_alpha_one():
    # closed form: coefficient k = phi_k(b) (1 - e^{-lam T}) / lam
    m = interval_model(alpha=1.0, horizon=1.0, M=3)
    grid = fc.TimeGrid.uniform(1.0, 8193)
    rec = fs.MeasurementRecord(grid, np.ones((len(grid), 1)))
    b = 0.3
    out = fs.kalpha_adjoint_modal(m, rec, [fs.Sensor.pointwise((b,))])
    for k, mode in enumerate(m.basis):
        phib = math.sqrt(2.0) * math.sin(mode.index[0] * PI * b)
        want = phib * (1.0 - math.exp(-mode.lam)) / mode.lam
        assert out.coefficients[k] == pytest.approx(want, rel=1e-5)


def test_kalpha_consistency_with_forward_square():
    # z from u0 = phi_1: coefficient 1 = (C phi_1)^2 int_0^T E^2 dt
    alpha, T, b = 0.84, 1.0, 0.3
    m = interval_model(alpha=alpha, horizon=T, M=4)
    grid = fc.TimeGrid.uniform(T, 1025)
    sensors = [fs.Sensor.pointwise((b,))]
    rec = fs.generate_measurements(m, sp.eigenfunction(m.basis[0]), sensors, grid)
    out = fs.kalpha_adjoint_modal(m, rec, sensors)
    # independent oracle on a graded Gauss mesh
    tq, wq = fc.gauss_panels(fc.graded_panel_edges(T, 32), 8)
    e2 = fc.mlf_values(alpha, -m.basis[0].lam * tq**alpha) ** 2
    cphi = math.sqrt(2.0) * math.sin(PI * b)
    want = cphi**2 * float(np.sum(wq * e2))
    assert out.coefficients[0] == pytest.approx(want, abs=1e-5)


def test_output_linearity():
    rng = np.random.default_rng(3)
    m = interval_model(M=5)
    sensor = fs.Sensor.zonal(
        sp.Region((0.35,), (0.65,)), lambda x: np.cos(3.0 * np.asarray(x))
    )
    a = fs.ModalState(rng.normal(size=5))
    b = fs.ModalState(rng.normal(size=5))
    lhs = fs.apply_output(sensor, fs.ModalState(2.0 * a.coefficients + b.coefficients), m.basis)
    rhs = 2.0 * fs.apply_output(sensor, a, m.basis) + fs.apply_output(sensor, b, m.basis)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_kalpha_linearity_in_record():
    rng = np.random.default_rng(5)
    m = interval_model(alpha=0.6, M=4)
    grid = fc.TimeGrid.uniform(1.0, 65)
    sensors = [fs.Sensor.pointwise((0.25,)), fs.Sensor.pointwise((0.55,))]
    za = rng.normal(size=(65, 2))
    zb = rng.normal(size=(65, 2))
    out_a = fs.kalpha_adjoint_modal(m, fs.MeasurementRecord(grid, za), sensors)
    out_b = fs.kalpha_adjoint_modal(m, fs.MeasurementRecord(grid, zb), sensors)
    out_ab = fs.kalpha_adjoint_modal(
        m, fs.MeasurementRecord(grid, 2.0 * za + zb), sensors
    )
    assert np.max(
        np.abs(out_ab.coefficients - 2.0 * out_a.coefficients - out_b.coefficients)
    ) < 1e-10


def test_semigroup_limit_alpha_one():
    m = interval_model(alpha=1.0, M=6)
    state = fs.ModalState(np.ones(6))
    for t in np.linspace(0.0, 1.0, 11):
        out = fs.mild_solution(m, state, float(t))
        want = np.exp(-m.eigenvalues * t)
        assert np.max(np.abs(out.coefficients - want)) < 1e-8


def test_adjoint_duality():
    # <K* z, v> equals int_0^T z . (C S(t) v) dt on the same grid
    rng = np.random.default_rng(11)
    m = interval_model(alpha=0.7, M=5)
    grid = fc.TimeGrid.uniform(1.0, 129)
    sensors = [
        fs.Sensor.pointwise((0.2,)),
        fs.Sensor.zonal(sp.Region((0.5,), (0.75,)), lambda x: np.ones_like(x)),
    ]
    z = rng.normal(size=(129, 2))
    rec = fs.MeasurementRecord(grid, z)
    kz = fs.kalpha_adjoint_modal(m, rec, sensors)
    for _ in range(3):
        v = fs.ModalState(rng.normal(size=5))
        lhs = float(kz.coefficients @ v.coefficients)
        rhs = 0.0
        for i, t in enumerate(grid.nodes):
            vt = fs.mild_solution(m, v, float(t))
            for ch, s in enumerate(sensors):
                rhs += grid.weights[i] * z[i, ch] * fs.apply_output(s, vt, m.basis)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_admissibility_bound_is_finite():
    # int |C S(t) v|^2 dt <= M_c ||v||^2 with one fitted constant per sensor kind
    rng = np.random.default_rng(13)
    m = interval_model(alpha=0.5, M=6)
    grid = fc.TimeGrid.uniform(1.0, 129)
    for sensor in (
        fs.Sensor.pointwise((0.3,)),
        fs.Sensor.zonal(sp.Region((0.1,), (0.4,)), lambda x: np.ones_like(x)),
    ):
        ratios = []
        for _ in range(8):
            v = fs.ModalState(rng.normal(size=6))
            rec = fs.generate_measurements(m, v, [sensor], grid)
            energy = float(np.sum(grid.weights * rec.samples[:, 0] ** 2))
            ratios.append(energy / float(v.coefficients @ v.coefficients))
        fitted = max(ratios)
        assert np.isfinite(fitted)
        for _ in range(8):
            v = fs.ModalState(rng.normal(size=6))
            rec = fs.generate_measurements(m, v, [sensor], grid)
            energy = float(np.sum(grid.weights * rec.samples[:, 0] ** 2))
            assert energy <= 2.0 * fitted * float(v.coefficients @ v.coefficients)
