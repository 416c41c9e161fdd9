"""Tests for the forward model."""

import io
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.special import erfcx

from fracobs import fraccalc as fc
from fracobs import spectral as sp
from fracobs import system as fs
from fracobs.errors import DomainError, InputError

PI = math.pi


def interval_modes(M):
    return sp.eigenpairs(1, M)


def eigenvalues(modes):
    return sp.eigenvalues(modes)


def mild(alpha, modes, state, t):
    """The state's coefficients at time t: c_k E_alpha(-lam_k t^alpha)."""
    t = np.asarray([t], dtype=float)
    return state.coefficients * fc.mlf_values(alpha, -np.outer(t**alpha, eigenvalues(modes)))[0]


def reading(sensor, state, basis):
    """One sensor reading of a modal state: its row of output_matrix times the state."""
    return float(fs.output_matrix([sensor], basis)[0] @ state.coefficients)


def test_model_validation():
    modes = interval_modes(3)
    state = fs.ModalState(np.ones(3))
    sensors = [fs.Sensor.pointwise((0.3,))]
    grid = fc.TimeGrid.uniform(1.0, 5)
    for alpha in (0.0, 1.2):
        with pytest.raises(DomainError):
            fs.generate_measurements(alpha, modes, state, sensors, grid)
    with pytest.raises(InputError, match="state length"):
        fs.generate_measurements(0.5, modes[:2], state, sensors, grid)


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


def test_catalog_states_refuse_the_square():
    # both catalog states live on the interval: on the square their
    # coefficients would land on 2-d modes, with a one-component gradient
    for kind in ("poly_sq", "trig_sq"):
        with pytest.raises(InputError, match=kind):
            fs.InitialState(kind, 2, 6)
    assert len(fs.InitialState("zero", 2, 6).gradient()) == 2


def test_initial_state_refuses_an_unknown_kind():
    # an unknown kind is refused, not built as the zero state
    with pytest.raises(InputError, match="unknown state kind 'bogus'"):
        fs.InitialState("bogus", 1, 4)


def test_initial_state_ties_coefficients_to_its_kind_and_depth():
    # coefficients belong to the coefficients kind alone, one per mode of
    # the depth, so a state never pairs 3 modes with 1 coefficient
    with pytest.raises(InputError, match="takes no coefficients"):
        fs.InitialState("zero", 1, 3, (0.1,))
    with pytest.raises(InputError, match="takes no coefficients"):
        fs.InitialState("poly_sq", 1, 3, (0.1, 0.2, 0.3))
    for coefficients in ((), (0.1,), (0.1, 0.2, 0.3, 0.4)):
        with pytest.raises(InputError, match="coefficients for depth 3"):
            fs.InitialState("coefficients", 1, 3, coefficients)
    modes, state = fs.InitialState("coefficients", 1, 3, (0.1, 0.2, 0.3)).modal()
    assert len(modes) == state.coefficients.size == 3


def test_initial_state_refuses_a_depth_that_is_not_an_integer_at_least_one():
    # refused where the state is built, by its field's name, not later by
    # modal() as a `count`; a numpy integer is an integer
    for kind, depth in (("poly_sq", 2.5), ("trig_sq", 3.0), ("zero", 0), ("zero", -2), ("coefficients", 0)):
        with pytest.raises(InputError, match=f"^depth must be an integer >= 1, got {depth!r}$"):
            fs.InitialState(kind, 1, depth)
    modes, state = fs.InitialState("poly_sq", 1, np.int64(2)).modal()
    assert len(modes) == state.coefficients.size == 2


def test_trig_product_weight_refuses_an_interval_support():
    # the catalog refuses the weight itself, before any functional is built
    interval, square = sp.Region((0.1,), (0.4,)), sp.Region((0.1, 0.2), (0.4, 0.6))
    with pytest.raises(InputError, match="trig_product"):
        fs.ZONAL_WEIGHTS["trig_product"](1.0, interval)
    weight = fs.ZONAL_WEIGHTS["trig_product"](2.0, square)
    expected = 2.0 * math.cos(math.sqrt(3.0) * PI * 0.3) * math.sin(math.sqrt(2.0) * PI * 0.5)
    assert weight(0.3, 0.5) == pytest.approx(expected, rel=1e-15)
    for support in (interval, square):
        assert fs.ZONAL_WEIGHTS["constant"](3.0, support)(*support.lower) == 3.0


def test_project_poly_squared_first_coefficient():
    # oracle: dense trapezoid of int (y(1-y))^2 sqrt(2) sin(pi y) dy,
    # cross-checked against the closed form 4*sqrt(2)*(12 - pi^2)/pi^5
    y = np.linspace(0.0, 1.0, 400001)
    oracle = trapezoid((y * (1 - y)) ** 2 * math.sqrt(2) * np.sin(PI * y), y)
    exact = 4.0 * math.sqrt(2.0) * (12.0 - PI**2) / PI**5
    assert oracle == pytest.approx(exact, rel=1e-10)
    modes = interval_modes(3)
    state = fs.project_initial_state(modes, "poly_sq")
    assert state.coefficients[0] == pytest.approx(exact, rel=1e-12)
    assert state.coefficients[0] == pytest.approx(0.039380922195424606, rel=1e-12)


@pytest.mark.parametrize(
    "kind, u0",
    [
        ("poly_sq", lambda y: (y * (1.0 - y)) ** 2),
        ("trig_sq", lambda y: (np.cos(PI * y) * np.sin(PI * y)) ** 2),
    ],
)
def test_catalog_states_match_quadrature_oracle(kind, u0):
    # oracle: scipy's QAWO rule for int u0(y) sqrt(2) sin(k pi y) dy, one
    # mode at a time; the even modes vanish by the symmetry about 1/2
    want = [
        math.sqrt(2.0) * quad(u0, 0.0, 1.0, weight="sin", wvar=k * PI,
                              epsabs=1e-16, epsrel=1e-12, limit=200)[0]
        for k in range(1, 201)
    ]
    got = fs.project_initial_state(interval_modes(200), kind).coefficients
    assert np.all(got[1::2] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15
    with pytest.raises(InputError):
        fs.project_initial_state(interval_modes(3), "coefficients")


@pytest.mark.parametrize("kind", ["poly_sq", "trig_sq"])
def test_catalog_states_refuse_modes_of_the_square(kind):
    # reading only the first index of each square mode gave a vector with
    # no error; the catalog states live on the interval
    with pytest.raises(InputError, match=f"{kind} lives on the interval, got modes of dimension 2"):
        fs.project_initial_state(sp.eigenpairs(2, 4), kind)


def test_mild_solution_at_zero_is_identity():
    modes = interval_modes(4)
    state = fs.ModalState(np.array([1.0, -2.0, 0.25, 3.0]))
    assert np.array_equal(mild(0.77, modes, state, 0.0), state.coefficients)


def test_mild_solution_classical_limit():
    modes = interval_modes(2)
    state = fs.ModalState(np.array([1.0, 0.0]))
    out = mild(1.0, modes, state, 0.1)
    assert out[0] == pytest.approx(math.exp(-PI**2 * 0.1), rel=1e-10)
    assert out[0] == pytest.approx(0.37271, abs=5e-5)


def test_mild_solution_half_order_square_mode():
    # E_{1/2}(-x) = erfcx(x); x = 5 pi^2 at t = 1
    modes = np.array([(1, 2)])
    out = mild(0.5, modes, fs.ModalState(np.array([1.0])), 1.0)
    assert out[0] == pytest.approx(erfcx(5 * PI**2), rel=1e-10)
    assert out[0] == pytest.approx(0.011430525332089, rel=1e-9)


def test_apply_output_pointwise():
    modes = interval_modes(3)
    sensor = fs.Sensor.pointwise((0.2,))
    state = fs.ModalState(np.array([1.0, 0.0, 0.0]))
    want = math.sqrt(2.0) * math.sin(0.2 * PI)
    got = reading(sensor, state, modes)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.83125, abs=5e-6)
    zero = fs.ModalState(np.zeros(3))
    assert reading(sensor, zero, modes) == 0.0


def test_apply_output_zonal_unit_weight():
    # closed form sqrt(2) * (cos(0.9 pi) - cos(pi)) / pi over D = [0.9, 1]
    modes = interval_modes(2)
    sensor = fs.Sensor.zonal(
        sp.Region((0.9,), (1.0,)), lambda x: np.ones_like(np.asarray(x, dtype=float))
    )
    state = fs.ModalState(np.array([1.0, 0.0]))
    want = math.sqrt(2.0) * (math.cos(0.9 * PI) - math.cos(PI)) / PI
    got = reading(sensor, state, modes)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.022032308474521364, rel=1e-12)


def test_generate_measurements_zero_initial_state():
    modes = interval_modes(4)
    grid = fc.TimeGrid.uniform(1.0, 17)
    rec = fs.generate_measurements(
        0.5, modes, fs.ModalState(np.zeros(len(modes))), [fs.Sensor.pointwise((0.3,))], grid
    )
    assert np.all(rec.samples == 0.0)
    assert rec.channel_count == 1


def test_generate_measurements_single_mode_decay():
    modes = interval_modes(4)
    grid = fc.TimeGrid.uniform(1.0, 33)
    b = 0.3
    state = fs.ModalState(np.array([1.0, 0.0, 0.0, 0.0]))
    rec = fs.generate_measurements(0.84, modes, state, [fs.Sensor.pointwise((b,))], grid)
    want = fc.mlf_values(0.84, -eigenvalues(modes)[0] * grid.nodes**0.84) * (
        math.sqrt(2.0) * math.sin(PI * b)
    )
    assert np.max(np.abs(rec.samples[:, 0] - want)) < 1e-10


def test_generate_measurements_accepts_modal_state():
    alpha, modes = 0.5, interval_modes(3)
    grid = fc.TimeGrid.uniform(1.0, 9)
    state = fs.ModalState(np.array([0.5, -1.0, 2.0]))
    rec = fs.generate_measurements(alpha, modes, state, [fs.Sensor.pointwise((0.4,))], grid)
    # sum_k c_k E_alpha(-lam_k t^alpha) sqrt(2) sin(k pi b), each E_alpha a one-point call
    direct = [
        sum(
            c * float(fc.mlf_values(alpha, -lam * t**alpha))
            * math.sqrt(2.0) * math.sin(k * PI * 0.4)
            for c, lam, (k,) in zip(state.coefficients, eigenvalues(modes), modes.tolist())
        )
        for t in grid.nodes
    ]
    assert np.max(np.abs(rec.samples[:, 0] - np.array(direct))) < 1e-12


@pytest.mark.parametrize(
    "kind, u0",
    [
        ("poly_sq", lambda y: (y * (1.0 - y)) ** 2),
        ("trig_sq", lambda y: (np.cos(PI * y) * np.sin(PI * y)) ** 2),
    ],
)
def test_catalog_gradients_are_derivatives_of_their_states(kind, u0):
    # a centred difference of the closed-form state, step 1e-6: its
    # truncation error is below 1e-10 for both states
    x = np.linspace(0.0, 1.0, 1001)
    (gradient,) = fs.InitialState(kind, 1, 200).gradient()
    h = 1e-6
    assert np.max(np.abs(gradient(x) - (u0(x + h) - u0(x - h)) / (2.0 * h))) <= 1e-8
    # the derivative of the 200-mode expansion, sum_k a_k sqrt(2) k pi
    # cos(k pi x), is off by at most the tail sum_{k > 200} |a_k| sqrt(2) k pi;
    # the closed-form a_k of the odd modes give that tail to 1e6 modes, and
    # the rest of it, at most 8 / (k^2 - 16) per mode, adds less than 8 / 1e6
    k = np.arange(1, 1_000_001, 2, dtype=float)
    kp = PI * k
    if kind == "poly_sq":
        a = 4.0 * math.sqrt(2.0) * (12.0 - kp * kp) / kp**5
    else:
        a = 4.0 * math.sqrt(2.0) / (PI * k * (16.0 - k * k))
    tail = np.sum(np.abs(a[100:]) * math.sqrt(2.0) * kp[100:]) + 8.0 / 1e6
    coefficients = fs.project_initial_state(interval_modes(200), kind).coefficients
    assert np.array_equal(coefficients[::2], a[:100]) and np.all(coefficients[1::2] == 0.0)
    series = (a[:100] * math.sqrt(2.0) * kp[:100]) @ np.cos(np.outer(kp[:100], x))
    assert np.max(np.abs(series - gradient(x))) <= tail


def test_measurement_noise_is_seeded():
    modes = interval_modes(3)
    grid = fc.TimeGrid.uniform(1.0, 65)
    sensors = [fs.Sensor.pointwise((0.3,))]
    u0 = fs.project_initial_state(modes, "poly_sq")
    a = fs.generate_measurements(0.5, modes, u0, sensors, grid, noise_sigma=0.01, seed=7)
    b = fs.generate_measurements(0.5, modes, u0, sensors, grid, noise_sigma=0.01, seed=7)
    c = fs.generate_measurements(0.5, modes, u0, sensors, grid, noise_sigma=0.01, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
def test_noise_sigma_must_be_finite_and_nonnegative(sigma):
    modes = interval_modes(3)
    grid = fc.TimeGrid.uniform(1.0, 9)
    state = fs.ModalState(np.array([0.5, -1.0, 2.0]))
    with pytest.raises(InputError, match="noise_sigma"):
        fs.generate_measurements(0.5, modes, state, [fs.Sensor.pointwise((0.3,))], grid, sigma)


@pytest.mark.parametrize("sigma", [math.nan, -1.0])
def test_measurement_noise_refuses_a_bad_sigma(sigma):
    # the one noise draw, which sweep-sensor calls directly: a nan or
    # negative sigma must not leave the record silently noiseless
    with pytest.raises(InputError, match=f"noise_sigma must be finite and >= 0, got {sigma}$"):
        fs.measurement_noise(sigma, 0, (9, 1))
    assert fs.measurement_noise(0.0, 0, (9, 1)) == 0.0


def test_record_csv_roundtrip(tmp_path):
    modes = interval_modes(3)
    grid = fc.TimeGrid.uniform(2.0, 21)
    sensors = [fs.Sensor.pointwise((0.3,)), fs.Sensor.pointwise((0.7,))]
    state = fs.project_initial_state(modes, "poly_sq")
    rec = fs.generate_measurements(0.5, modes, state, sensors, grid)
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
    fs.MeasurementRecord(fc.TimeGrid(nodes), samples).to_csv(str(path))
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


def _format_rows(columns, end):
    """The reference CSV body: one format(v, ".17g") per field."""
    return "".join(
        ",".join(format(float(v), ".17g") for v in row) + end for row in zip(*columns)
    )


def _written(columns, end):
    buf = io.StringIO()
    fs.write_rows(buf, columns, end)
    return buf.getvalue()


# the %g switches: fixed notation for -4 <= E < 17, three exponent digits
# from 1e100, round-ups across a power of ten (1e-12 prints as
# 9.9999999999999998e-13), exact decimal ties, and every end of the range
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, -math.nan, math.inf, -math.inf,
    1e-5, 9.9999e-5, 1e-4, 1.2345e-4, 0.001, 0.1, 0.5, 1.0, 100.0, 120.5, 1e15,
    1e16, 1e16 + 2, 9.999999999999999e16, 12345678901234567.0, 1e17, 1.2345678901234568e17,
    1e-12, 1e23, 9.999999999999999e22, 1e99, 1e100, 1.5e-100, 1e-99, 2.5e-101,
    1e-280, 9.99e-281, 1e280, 1.1e281, 1e300, 1e-300,
    1.0 + 2.0**-17, 3.0 + 2.0**-17, 1.0 / 3.0, 2.0 / 3.0, 0.1 + 0.2,
]


def _hard_values():
    """~110k values: edge cases, powers of ten and their neighbours, exact
    ties k 2**-17, log-uniform normals over 1e+-30 and random bit patterns
    (nan, inf and subnormals among them)."""
    rng = np.random.default_rng(15)
    tens = 10.0 ** np.arange(-323.0, 309.0)
    bits = rng.integers(-(2**63), 2**63 - 1, 40000, dtype=np.int64, endpoint=True)
    parts = [
        EDGE_VALUES,
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.arange(-20000, 20000) * 2.0**-17,
        rng.choice([-1.0, 1.0], 30000) * 10.0 ** rng.uniform(-30.0, 30.0, 30000),
        bits.view(np.float64),
    ]
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


HARD_VALUES = _hard_values()


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_write_rows_matches_format(end, width):
    # byte for byte the text of format(v, ".17g"), with no numpy warning
    rows = HARD_VALUES.size // width
    columns = list(HARD_VALUES[: rows * width].reshape(width, rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _written(columns, end)
    assert got == _format_rows(columns, end)


# edges of the first block and of a later one, and a short last block
@pytest.mark.parametrize(
    "rows",
    [1]
    + [k * fs.CSV_ROWS + d for k in (1, 4) for d in (-1, 0, 1)]
    + [2 * fs.CSV_ROWS + 3, 8 * fs.CSV_ROWS + 3],
)
def test_write_rows_block_edges(rows):
    rng = np.random.default_rng(rows)
    columns = [np.sort(rng.uniform(0.0, 1.0, rows)), rng.standard_normal(rows) * 1e-3]
    assert _written(columns, "\r\n") == _format_rows(columns, "\r\n")
    assert _written([np.zeros(0), np.zeros(0)], "\n") == ""
    with pytest.raises(ValueError, match="longer than two"):
        _written(columns, "\r\n\n")


def test_write_rows_leaves_only_undecided_values_to_format(monkeypatch):
    # ties within 1e-9 of one half, values outside the exponent range, nan
    # and inf go to format(); zeros and every other value are built in numpy
    undecided = [
        1.0 + 2.0**-17, -(5.0 + 2.0**-17), 5e-324, 1e-290, 1.7976931348623157e308, -1e290,
        math.nan, math.inf, -math.inf,
    ]
    decided = [0.0, -0.0, 1e-12, 0.1, 1e16, 123.0, 1e-280, 1e280]
    assert fs._decimal17(np.abs(np.array(undecided)))[2].all()
    assert not fs._decimal17(np.abs(np.array(decided)))[2].any()
    calls = []

    def counted(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(fs, "format", counted, raising=False)
    columns = [np.array(decided + undecided), np.array(undecided + decided)]
    got = _written(columns, "\n")
    monkeypatch.undo()
    assert got == _format_rows(columns, "\n")
    # row-major order: row i's first field, then its second (compared as
    # text, since nan equals nothing)
    texts = {format(v, ".17g") for v in undecided}
    expected = [format(float(v), ".17g") for row in zip(*columns) for v in row]
    assert [format(v, ".17g") for v in calls] == [t for t in expected if t in texts]


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
    modes = interval_modes(200)
    state = fs.ModalState(np.random.default_rng(8).standard_normal(200) / np.arange(1, 201))
    sensors = [fs.Sensor.pointwise((b,)) for b in (0.2, 0.55, 0.81)]
    grid = fc.TimeGrid.uniform(1.0, 65536)
    return modes, state, sensors, grid


MB = 1 << 20


def test_generate_measurements_holds_no_decay_table(long_record):
    # the 65,536 x 200 table alone would take 105 MB
    modes, state, sensors, grid = long_record
    rec, peak = _traced_peak(lambda: fs.generate_measurements(1.0, modes, state, sensors, grid))
    assert rec.samples.shape == (65536, 3)
    assert peak < 16 * MB
    # every 97th row against the table product
    weights = state.coefficients[:, None] * fs.output_matrix(sensors, modes).T
    decay = np.exp(-np.outer(grid.nodes[::97], eigenvalues(modes)))
    gap = np.abs(rec.samples[::97] - decay @ weights)
    assert np.all(gap <= 1e-14 * (np.abs(decay) @ np.abs(weights)))


def test_record_csv_io_memory_is_bounded(long_record, tmp_path):
    modes, state, sensors, grid = long_record
    rec = fs.generate_measurements(1.0, modes, state, sensors, grid)
    path = str(tmp_path / "record.csv")
    _, peak = _traced_peak(lambda: rec.to_csv(path))
    assert peak < 8 * MB
    back, peak = _traced_peak(lambda: fs.MeasurementRecord.from_csv(path))
    assert peak < 16 * MB
    assert back.samples.tobytes() == rec.samples.tobytes()
    assert back.grid.nodes.tobytes() == grid.nodes.tobytes()


def test_record_csv_long_body_matches_format(long_record, tmp_path):
    # 65,536 rows in 64 blocks: the whole file, one format() per field
    modes, state, sensors, grid = long_record
    rec = fs.generate_measurements(1.0, modes, state, sensors, grid)
    path = tmp_path / "record.csv"
    rec.to_csv(str(path))
    body = _format_rows((grid.nodes, *rec.samples.T), "\r\n")
    assert path.read_bytes() == ("t,z1,z2,z3\r\n" + body).encode()


LOAD_GUARD = """
import json, sys
import fracobs.cli
from fracobs.errors import DomainError, InputError
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


@pytest.mark.parametrize(
    "line, bad, verdict",
    [
        (101, "0.5,1,2,1_0", r":101: a field is not a number: \['0.5', '1', '2', '1_0'\]$"),
        (32001, "0.5,1,2", r":32001: expected 4 fields, got 3$"),
        (65537, "1,2,3,x", r":65537: a field is not a number: \['1', '2', '3', 'x'\]$"),
    ],
)
def test_record_csv_bad_line_search_parses_blocks(
    long_record, tmp_path, monkeypatch, line, bad, verdict
):
    # a bad line in the first, a middle and the last block of a 65,537-line
    # file: one parse per block before it, then one per line of its block
    modes, state, sensors, grid = long_record
    path = tmp_path / "record.csv"
    fs.MeasurementRecord(grid, np.zeros((grid.nodes.size, 3))).to_csv(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 65537
    lines[line - 1] = bad
    path.write_text("\n".join(lines) + "\n")
    calls = []
    real = fs._read_rows

    def counted(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(fs, "_read_rows", counted)
    with pytest.raises(InputError, match=r"record\.csv" + verdict):
        fs.MeasurementRecord.from_csv(str(path))
    blocks = -(-(len(lines) - 1) // fs.CSV_ROWS)
    assert len(calls) <= 1 + blocks + fs.CSV_ROWS


def test_output_linearity():
    rng = np.random.default_rng(3)
    modes = interval_modes(5)
    sensor = fs.Sensor.zonal(
        sp.Region((0.35,), (0.65,)), lambda x: np.cos(3.0 * np.asarray(x))
    )
    a = fs.ModalState(rng.normal(size=5))
    b = fs.ModalState(rng.normal(size=5))
    lhs = reading(sensor, fs.ModalState(2.0 * a.coefficients + b.coefficients), modes)
    rhs = 2.0 * reading(sensor, a, modes) + reading(sensor, b, modes)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_semigroup_limit_alpha_one():
    modes = interval_modes(6)
    state = fs.ModalState(np.ones(6))
    for t in np.linspace(0.0, 1.0, 11):
        out = mild(1.0, modes, state, float(t))
        want = np.exp(-eigenvalues(modes) * t)
        assert np.max(np.abs(out - want)) < 1e-8


def test_admissibility_bound_is_finite():
    # int |C S(t) v|^2 dt <= M_c ||v||^2 with one fitted constant per sensor kind
    rng = np.random.default_rng(13)
    modes = interval_modes(6)
    grid = fc.TimeGrid.uniform(1.0, 129)
    for sensor in (
        fs.Sensor.pointwise((0.3,)),
        fs.Sensor.zonal(sp.Region((0.1,), (0.4,)), lambda x: np.ones_like(x)),
    ):
        ratios = []
        for _ in range(8):
            v = fs.ModalState(rng.normal(size=6))
            rec = fs.generate_measurements(0.5, modes, v, [sensor], grid)
            energy = float(np.sum(grid.weights_on(slice(None)) * rec.samples[:, 0] ** 2))
            ratios.append(energy / float(v.coefficients @ v.coefficients))
        fitted = max(ratios)
        assert np.isfinite(fitted)
        for _ in range(8):
            v = fs.ModalState(rng.normal(size=6))
            rec = fs.generate_measurements(0.5, modes, v, [sensor], grid)
            energy = float(np.sum(grid.weights_on(slice(None)) * rec.samples[:, 0] ** 2))
            assert energy <= 2.0 * fitted * float(v.coefficients @ v.coefficients)


def test_generate_measurements_holds_the_record_once():
    # the forward map of the interval-alpha1 benchmark config: a poly_sq
    # state of 200 modes, three sensors, alpha = 1, 65,334 graded rows. The
    # noise is added into the decay sum in place and each row block raises
    # its own times to alpha, so the traced peak stays within 1.2 MB of the
    # 1.50 MB record, where a second copy of the record adds 1.50 MB
    modes = interval_modes(200)
    state = fs.project_initial_state(modes, "poly_sq")
    constant = fs.ZONAL_WEIGHTS["constant"](1.0, sp.Region((0.9,), (1.0,)))
    sensors = [fs.Sensor.pointwise((0.2,)), fs.Sensor.pointwise((0.55,)),
               fs.Sensor.zonal(sp.Region((0.9,), (1.0,)), constant)]
    # the zonal sensor's Gauss rule is cached before memory is traced
    fs.generate_measurements(1.0, modes, state, sensors, fc.TimeGrid.graded(1.0, 64))
    grid = fc.TimeGrid.graded(1.0, 65536)
    rec, peak = _traced_peak(lambda: fs.generate_measurements(1.0, modes, state, sensors, grid))
    assert rec.samples.shape == (65334, 3)
    assert peak - rec.samples.nbytes <= 1.2 * MB, peak / MB


def test_noiseless_record_turns_negative_zero_into_zero(monkeypatch):
    # a BLAS may sum a decayed mode's products to -0.0; the noiseless record
    # still adds its 0.0 of noise, which turns that into the 0 text prints
    monkeypatch.setattr(fs, "decay_apply", lambda *args: np.array([[-0.0], [1.0]]))
    modes = interval_modes(2)
    grid = fc.TimeGrid.uniform(1.0, 2)
    record = fs.generate_measurements(
        1.0, modes, fs.ModalState(np.ones(2)), [fs.Sensor.pointwise((0.3,))], grid
    )
    assert record.samples.tobytes() == np.array([[0.0], [1.0]]).tobytes()
