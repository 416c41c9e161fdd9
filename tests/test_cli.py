"""End-to-end tests for the command-line driver."""

import csv
import json
import math
import resource
import shutil
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from fracobs import cli, fraccalc, hum, observability
from fracobs.errors import InputError
from fracobs.spectral import eigenpairs
from fracobs.system import project_initial_state


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def summary_of(capsys):
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if line.startswith("summary "):
            return json.loads(line[len("summary "):]), captured
    raise AssertionError(f"no summary line in output:\n{captured.out}")


POINT_CONFIG = """
    alpha = 1.0
    horizon = 1.0
    modes = 6
    epsilon = 1e-4
    omega.lo = 0.2
    omega.hi = 0.8
    sensor.kind = pointwise
    sensor.location = 0.3
    state.kind = coefficients
    state.coefficients = 0.05, -0.02, 0.01, 0.0, 0.004, -0.001
    time.samples = 257
    solver.kind = tikhonov
"""


def test_config_defaults_and_dotted_keys(tmp_path):
    cfg = cli.RunConfig.load(write_config(tmp_path, """
        alpha = 0.5          # trailing comments are stripped
        horizon = 2.0
        sensor.kind = pointwise
        sensor.location = 0.2
    """))
    problem = cfg.problem
    assert problem.dimension == 1
    assert problem.mode_count == 8
    assert problem.epsilon == 1e-6
    assert problem.omega.lower == (0.0,) and problem.omega.upper == (1.0,)
    assert cfg.state.kind == "zero" and cfg.state.depth == 8
    assert cfg.time_samples == 512 and cfg.time_grading == "uniform"
    assert problem.regularization.kind == "tikhonov" and problem.regularization.value is None
    assert (problem.escalation_step, problem.max_iterations) == (4, 5)
    assert cfg.noise_sigma == 0.0 and cfg.seed == 0


def test_config_rejects_unknown_and_duplicate_fields(tmp_path):
    with pytest.raises(InputError, match="omega.low"):
        cli.RunConfig.load(write_config(tmp_path, """
            alpha = 0.5
            horizon = 1.0
            sensor.kind = pointwise
            sensor.location = 0.2
            omega.low = 0.1
        """))
    with pytest.raises(InputError, match="duplicate"):
        cli.RunConfig.load(write_config(tmp_path, """
            alpha = 0.5
            alpha = 0.6
            horizon = 1.0
            sensor.kind = pointwise
            sensor.location = 0.2
        """, name="dup.cfg"))
    with pytest.raises(InputError, match="alpha"):
        cli.RunConfig.load(write_config(tmp_path, """
            horizon = 1.0
            sensor.kind = pointwise
            sensor.location = 0.2
        """, name="noalpha.cfg"))
    # the trig product weight is a genuinely two-variable profile
    with pytest.raises(InputError, match="trig_product"):
        cli.RunConfig.load(write_config(tmp_path, """
            alpha = 0.5
            horizon = 1.0
            sensor.kind = zonal
            sensor.support.lo = 0.3
            sensor.support.hi = 0.6
            sensor.weight.kind = trig_product
        """, name="trig1d.cfg"))


def test_graded_grid_refines_toward_zero(tmp_path):
    cfg = cli.RunConfig.load(write_config(tmp_path, """
        alpha = 0.5
        horizon = 2.0
        sensor.kind = pointwise
        sensor.location = 0.2
        time.samples = 256
        time.grading = graded
    """))
    grid = cfg.time_grid()
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
    assert np.all(np.diff(grid.nodes) > 0.0)
    # roughly the requested budget, heavily clustered at the start
    assert 200 <= len(grid.nodes) <= 300
    assert grid.nodes[1] < 1e-10
    uniform = cli.RunConfig.load(write_config(tmp_path, """
        alpha = 0.5
        horizon = 2.0
        sensor.kind = pointwise
        sensor.location = 0.2
        time.samples = 256
    """, name="uni.cfg")).time_grid()
    assert len(uniform.nodes) == 256
    assert np.allclose(np.diff(uniform.nodes), 2.0 / 255)


def test_graded_grid_rows_follow_time_samples(tmp_path):
    # a graded record has time.samples rows rounded down to even, small
    # counts included; 2 and 3 cannot give two panels per half
    def graded(samples):
        return cli.RunConfig.load(write_config(tmp_path, f"""
            alpha = 0.5
            horizon = 2.0
            sensor.kind = pointwise
            sensor.location = 0.2
            time.samples = {samples}
            time.grading = graded
        """, name=f"graded{samples}.cfg")).time_grid()

    for samples in list(range(4, 21)) + [2047, 2048]:
        grid = graded(samples)
        assert len(grid.nodes) == samples - samples % 2, samples
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
    for samples in (2, 3):
        with pytest.raises(InputError, match="time.samples"):
            graded(samples)
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 2
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = 0.1, 0.05
        time.samples = 5
        time.grading = graded
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(read_rows(tmp_path / "measurements.csv")) == 1 + 4


def test_simulate_point_sensor_record_shape(tmp_path):
    config = write_config(tmp_path, """
        alpha = 0.84
        horizon = 1.0
        modes = 8
        omega.lo = 0.0
        omega.hi = 0.25
        sensor.kind = pointwise
        sensor.location = 0.2
        state.kind = trig_sq
        time.samples = 512
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "measurements.csv")
    assert rows[0] == ["t", "z1"]
    assert len(rows) == 1 + 512
    assert all(len(row) == 2 for row in rows)


def test_simulate_zero_state_gives_zero_output(tmp_path):
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.3
        time.samples = 33
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "measurements.csv")[1:]
    assert all(float(row[1]) == 0.0 for row in rows)


def test_simulate_refused_record_writes_no_file(tmp_path, capsys):
    # noise of sigma 1e308 overflows some samples of a 4,096-row record to
    # inf: the record is refused before measurements.csv is opened
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = 0.1, -0.05, 0.02, 0.01
        time.samples = 4096
        noise.sigma = 1e308
    """)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == cli.EXIT_USAGE
    assert "samples must be finite" in capsys.readouterr().err
    assert not (out / "measurements.csv").exists()


def test_simulate_multi_sensor_channels(tmp_path):
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 3
        sensor.kind = pointwise
        sensor.location = 0.3
        sensor2.kind = zonal
        sensor2.support.lo = 0.5
        sensor2.support.hi = 0.8
        sensor2.weight.scale = 2.0
        state.kind = coefficients
        state.coefficients = 0.1, 0.0, -0.05
        time.samples = 17
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "measurements.csv")
    assert rows[0] == ["t", "z1", "z2"]
    assert any(float(row[2]) != 0.0 for row in rows[1:])


def _capped_address_space():
    cap = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_simulate_at_a_tiny_order(tmp_path):
    # the run is capped at 3 GB of address space, so that a rule whose work
    # grows like 1 / alpha fails fast instead of exhausting memory. For
    # t > 0, t^alpha is 1 within 4e-6 on this grid and E_alpha(-lam) is
    # 1 / (1 + lam) within about 1e-6 relative (Simon's bounds), so the
    # record is flat in t
    config = write_config(tmp_path, """
        alpha = 1e-6
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = 0.1, 0.05, -0.02, 0.01
        time.samples = 33
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "fracobs.cli", "simulate",
         "--config", config, "--out", str(tmp_path)],
        capture_output=True, text=True, preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    rows = np.array(read_rows(tmp_path / "measurements.csv")[1:], dtype=float)
    k = np.arange(1.0, 5.0)
    phi = math.sqrt(2.0) * np.sin(k * math.pi * 0.3)
    coefficients = np.array([0.1, 0.05, -0.02, 0.01])
    assert rows[0, 1] == pytest.approx(phi @ coefficients, rel=1e-14)
    flat = phi @ (coefficients / (1.0 + (k * math.pi) ** 2))
    assert np.max(np.abs(rows[1:, 1] - flat)) <= 1e-5 * abs(flat)


def test_simulate_noisy_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path, """
        alpha = 0.5
        horizon = 2.0
        modes = 4
        sensor.kind = zonal
        sensor.support.lo = 0.9
        sensor.support.hi = 1.0
        state.kind = poly_sq
        state.modes = 64
        time.samples = 64
        time.grading = graded
        noise.sigma = 1e-4
        seed = 7
    """)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir(), second.mkdir()
    assert cli.main(["simulate", "--config", config, "--out", str(first)]) == 0
    assert cli.main(["simulate", "--config", config, "--out", str(second)]) == 0
    bytes_a = (first / "measurements.csv").read_bytes()
    assert bytes_a == (second / "measurements.csv").read_bytes()

    reseeded = write_config(tmp_path, """
        alpha = 0.5
        horizon = 2.0
        modes = 4
        sensor.kind = zonal
        sensor.support.lo = 0.9
        sensor.support.hi = 1.0
        state.kind = poly_sq
        state.modes = 64
        time.samples = 64
        time.grading = graded
        noise.sigma = 1e-4
        seed = 8
    """, name="reseeded.cfg")
    assert cli.main(["simulate", "--config", reseeded, "--out", str(tmp_path)]) == 0
    assert bytes_a != (tmp_path / "measurements.csv").read_bytes()


# the README's config
README_CONFIG = """
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


def test_reconstruct_zonal_profile_end_to_end(tmp_path, capsys):
    # zonal edge sensor, graded record; the solved field should sit within
    # 1e-4 of the closed-form gradient in squared omega-norm
    config = write_config(tmp_path, README_CONFIG)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "measurements.csv"),
    ])
    assert code == 0
    summary, _ = summary_of(capsys)
    assert summary["iterations"] == 1
    assert summary["error_vs_truth"] <= 1e-4
    rows = read_rows(tmp_path / "field.csv")
    assert rows[0] == ["x", "d1_true", "d1_rec"]
    # the written truth column is the catalog gradient
    x, true_val = (float(rows[5][0]), float(rows[5][1]))
    assert true_val == pytest.approx(2 * x * (1 - x) * (1 - 2 * x), rel=1e-12)


def test_reconstruct_point_sensor_end_to_end(tmp_path, capsys):
    # off-center point sensor at fractional alpha: the sampled route floors
    # near 3.5e-2 in squared omega-norm (truth's own norm is 0.31), well
    # before the exact-pairing accuracy the solver reaches in-span
    config = write_config(tmp_path, """
        alpha = 0.84
        horizon = 1.0
        modes = 8
        epsilon = 1e-2
        omega.lo = 0.0
        omega.hi = 0.25
        sensor.kind = pointwise
        sensor.location = 0.2
        state.kind = trig_sq
        time.samples = 1024
        time.grading = graded
        solver.kind = truncated_svd
        solver.value = 1e-5
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "measurements.csv"),
    ])
    assert code == 0
    summary, _ = summary_of(capsys)
    assert summary["iterations"] == 1
    assert summary["error_vs_truth"] <= 6e-2


def test_reconstruct_zero_measurements_gives_zero_field(tmp_path, capsys):
    # the zero state is set explicitly: without it there is no truth
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = zero
        time.samples = 33
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    args = [
        "reconstruct", "--config", config, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "measurements.csv"),
    ]
    assert cli.main(args) == 0
    summary, _ = summary_of(capsys)
    assert summary["residual"] == 0.0
    assert summary["error_vs_truth"] == 0.0
    rows = read_rows(tmp_path / "field.csv")[1:]
    assert all(float(row[2]) == 0.0 for row in rows)
    # identical run, byte-identical output
    first = (tmp_path / "field.csv").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "field.csv").read_bytes() == first


def test_reconstruct_without_a_state_reports_no_truth(tmp_path, capsys):
    # a record alone has no truth: with no state.* lines the error is null
    # in the summary and the footer and the truth columns are nan, where an
    # explicit zero state holds the field against a zero gradient; a sweep,
    # which ranks by that error, is refused before sweep.csv is opened
    config = write_config(tmp_path, POINT_CONFIG)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    state = (
        "    state.kind = coefficients\n"
        "    state.coefficients = 0.05, -0.02, 0.01, 0.0, 0.004, -0.001\n"
    )
    assert state in POINT_CONFIG
    for name, lines in (("none", ""), ("zero", "    state.kind = zero\n")):
        out = tmp_path / name
        out.mkdir()
        bare = write_config(out, POINT_CONFIG.replace(state, lines))
        assert cli.main([
            "reconstruct", "--config", bare, "--out", str(out),
            "--measurements", str(tmp_path / "measurements.csv"),
        ]) == 0
        summary, _ = summary_of(capsys)
        text = (out / "field.csv").read_text()
        footer = json.loads(text.splitlines()[-1][2:])
        assert footer == summary
        truth = [float(row[1]) for row in read_rows(out / "field.csv")[1:]]
        if name == "none":
            assert summary["error_vs_truth"] is None
            assert '"error_vs_truth": null' in text
            assert all(math.isnan(v) for v in truth)
        else:
            assert summary["error_vs_truth"] > 0.0
            assert truth == [0.0] * len(truth)
    bare = write_config(tmp_path, POINT_CONFIG.replace(state, ""), name="bare.cfg")
    assert cli.main([
        "sweep-sensor", "--config", bare, "--out", str(tmp_path), "--sweep-grid", "0.3:0.5:0.1",
    ]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("usage error: config field state.kind is required"), line
    assert not (tmp_path / "sweep.csv").exists()


# the benchmark's interval-alpha1 config at 2,048 samples, order left open
NEAR_ONE_CONFIG = """
    alpha = {alpha}
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
    time.samples = 2048
    time.grading = graded
    solver.kind = tikhonov
    solver.value = 1e-7
    escalation.step = 2
"""


def test_near_order_one_takes_the_split_end_to_end(tmp_path, capsys, monkeypatch):
    # no benchmark workload reaches the split; at alpha = 0.999 simulate and
    # reconstruct send it every E_alpha point, and the error stays within 1%
    # of the same run at alpha = 1, all by exp
    split = []

    def counted(alpha, z):
        if alpha >= fraccalc._SPLIT_FROM:
            split.append(z.size)
        return contour_blocks(alpha, z)

    contour_blocks = fraccalc._contour_blocks
    monkeypatch.setattr(fraccalc, "_contour_blocks", counted)
    errors = {}
    for alpha in ("0.999", "1"):
        out = tmp_path / alpha
        out.mkdir()
        summary = simulate_and_reconstruct(out, capsys, NEAR_ONE_CONFIG.format(alpha=alpha))
        assert summary["iterations"] == 3
        errors[alpha] = summary["error_vs_truth"]
        if alpha == "0.999":
            assert sum(split) > 0
    assert abs(errors["0.999"] - errors["1"]) <= 1e-2 * errors["1"], errors


def test_simulate_with_an_unmet_accuracy_exits_5(tmp_path, capsys, monkeypatch):
    # an E_alpha estimate over the tolerance reaches the user as exit 5,
    # naming the point, before any record is written
    monkeypatch.setattr(fraccalc, "_VALUES_TOL", 1e-30)
    config = write_config(tmp_path, README_CONFIG)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == cli.EXIT_ACCURACY
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("accuracy error: E_alpha(0.5, "), line
    assert line.endswith("exceeds tolerance 1.00e-30"), line
    assert not (tmp_path / "measurements.csv").exists()


def test_check_strategic_in_the_gray_zone_exits_6(tmp_path, capsys, monkeypatch):
    # the benchmark's interval-alpha1 layout is strategic; a gray zone that
    # takes in every group's decision value leaves the verdict open
    config = write_config(tmp_path, NEAR_ONE_CONFIG.format(alpha="1"))
    assert cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)]) == 0
    assert "verdict strategic" in capsys.readouterr().out
    monkeypatch.setattr(observability, "GRAY_ZONE_FACTOR", 1e12)
    code = cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)])
    assert code == cli.EXIT_INCONCLUSIVE
    assert "verdict inconclusive" in capsys.readouterr().out


def test_reconstruct_horizon_mismatch_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, POINT_CONFIG)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    stretched = write_config(tmp_path, POINT_CONFIG.replace(
        "horizon = 1.0", "horizon = 2.0"), name="stretched.cfg")
    code = cli.main([
        "reconstruct", "--config", stretched, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "measurements.csv"),
    ])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_reconstruct_with_no_solvable_step_exits_4(tmp_path, capsys):
    # at b = 0.5 the even modes vanish from the output map: both
    # unregularized steps (4 and 8 modes) are singular, so there is no
    # iterate to write, and the exit is 4 with one stderr line
    config = write_config(tmp_path, """
        alpha = 0.7
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.5
        state.kind = coefficients
        state.coefficients = 0.1, -0.05, 0.02, 0.01
        time.samples = 64
        solver.kind = none
        escalation.max_iterations = 2
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(out),
        "--measurements", str(tmp_path / "measurements.csv"),
    ])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("solvability error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (out / "field.csv").exists()


GRADED_CONFIG = """
    alpha = 0.7
    horizon = 1.0
    modes = 3
    epsilon = 1e-2
    sensor.kind = pointwise
    sensor.location = 0.3
    state.kind = coefficients
    state.coefficients = 0.1, -0.05, 0.02
    time.samples = 64
    time.grading = graded
    solver.kind = tikhonov
    solver.value = 1e-10
"""

ALPHA1_CONFIG = """
    alpha = 1.0
    horizon = 1.0
    modes = 4
    epsilon = 1e-4
    sensor.kind = pointwise
    sensor.location = 0.3
    state.kind = coefficients
    state.coefficients = 0.1, -0.05, 0.02, 0.01
    time.samples = 256
    time.grading = graded
    solver.kind = tikhonov
    solver.value = 1e-10
"""

# alpha = 0.7 escalating from 2 to 4 modes: both steps pair the one L1 pass
# of the record with their decay tables
ESCALATE_CONFIG = ALPHA1_CONFIG.replace("alpha = 1.0", "alpha = 0.7").replace(
    "modes = 4", "modes = 2") + "    escalation.step = 2\n"


def simulate_and_reconstruct(tmp_path, capsys, text):
    """Run simulate then reconstruct on the config text; the reconstruct summary."""
    config = write_config(tmp_path, text)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    assert cli.main([
        "reconstruct", "--config", config, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "measurements.csv"),
    ]) == 0
    summary, _ = summary_of(capsys)
    return summary


@pytest.mark.parametrize(
    "text, iterations", [(ALPHA1_CONFIG, 1), (ESCALATE_CONFIG, 2)], ids=["alpha1", "escalate"]
)
def test_graded_record_is_17g_text_and_reconstructs(tmp_path, capsys, text, iterations):
    # the record body is built by numpy, not by Python's formatter: it must
    # equal Python's ".17g" rendering of its own fields, byte for byte, with
    # CRLF line ends; reconstruct reads it back and converges in `iterations`
    summary = simulate_and_reconstruct(tmp_path, capsys, text)
    assert summary["iterations"] == iterations
    assert summary["residual"] <= 1e-4
    data = (tmp_path / "measurements.csv").read_bytes()
    lines = data.decode("ascii").split("\r\n")
    assert lines[-1] == "", "last line has no CRLF"
    again = [lines[0]] + [
        ",".join(format(float(f), ".17g") for f in line.split(",")) for line in lines[1:-1]
    ]
    assert "\r\n".join(again + [""]).encode() == data
    assert len(lines) == 1 + 256 + 1


def test_zonal_square_trig_product_end_to_end(tmp_path, capsys):
    # a 2-d zonal sensor with the trig_product weight, through simulate and
    # reconstruct (check-strategic is tested on the square above)
    summary = simulate_and_reconstruct(tmp_path, capsys, """
        domain.dim = 2
        alpha = 0.6
        horizon = 1.0
        modes = 4
        epsilon = 1e-2
        sensor.kind = zonal
        sensor.support.lo = 0.6, 0.1
        sensor.support.hi = 0.9, 0.45
        sensor.weight.kind = trig_product
        state.kind = coefficients
        state.coefficients = 0.1, -0.05, 0.02, 0.01
        time.samples = 64
        solver.kind = tikhonov
        solver.value = 1e-10
        escalation.max_iterations = 1
    """)
    assert summary["iterations"] == 1
    assert summary["residual"] <= 1e-2
    assert math.isfinite(summary["error_vs_truth"])
    record = read_rows(tmp_path / "measurements.csv")
    assert record[0] == ["t", "z1"]
    assert any(float(row[1]) != 0.0 for row in record[1:])
    assert read_rows(tmp_path / "field.csv")[0] == [
        "x", "y", "d1_true", "d1_rec", "d2_true", "d2_rec",
    ]


def test_catalog_state_depth_end_to_end(tmp_path, capsys):
    # state.modes sets a catalog state's depth: its record is the one of a
    # coefficients state holding the closed-form coefficients, zeros and all
    state = "state.kind = coefficients\n    state.coefficients = 0.1, -0.05, 0.02\n"
    assert state in GRADED_CONFIG
    catalog = GRADED_CONFIG.replace(state, "state.kind = poly_sq\n    state.modes = 9\n")
    summary = simulate_and_reconstruct(tmp_path, capsys, catalog)
    assert summary["iterations"] == 1
    assert summary["error_vs_truth"] <= 1e-2
    record = (tmp_path / "measurements.csv").read_bytes()
    coefficients = project_initial_state(eigenpairs(1, 9), "poly_sq")
    assert np.count_nonzero(coefficients) == 5
    explicit = GRADED_CONFIG.replace(state, "state.kind = coefficients\n    state.coefficients = "
                                     + ", ".join(format(c, ".17g") for c in coefficients) + "\n")
    config = write_config(tmp_path, explicit, name="explicit.cfg")
    out = tmp_path / "explicit"
    assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert (out / "measurements.csv").read_bytes() == record


@pytest.mark.filterwarnings("error")
def test_header_only_record_is_usage_error(tmp_path, capsys):
    # loadtxt warns on a body with no rows: the usage error comes first
    config = write_config(tmp_path, GRADED_CONFIG)
    path = tmp_path / "header-only.csv"
    path.write_bytes(b"t,z1\r\n")
    out = tmp_path / "out"
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(out), "--measurements", str(path),
    ])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("usage error: ") and "header-only.csv" in line, line
    assert not (out / "field.csv").exists()


def test_reconstruct_missing_measurements_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, POINT_CONFIG)
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(tmp_path),
        "--measurements", str(tmp_path / "absent.csv"),
    ])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


def _corrupt_record_and_reconstruct(tmp_path, capsys, edit, row=5):
    """Simulate POINT_CONFIG, apply `edit` to line `row` (the fifth data row), reconstruct.

    The record is written back as UTF-8, with a lone surrogate from
    `edit` as the raw byte it escapes.
    """
    config = write_config(tmp_path, POINT_CONFIG)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    path = tmp_path / "measurements.csv"
    lines = path.read_text().splitlines()
    lines[row] = edit(lines[row])
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    out = tmp_path / "out"
    code = cli.main([
        "reconstruct", "--config", config, "--out", str(out),
        "--measurements", str(path),
    ])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_reconstruct_non_finite_sample_is_usage_error(tmp_path, capsys, bad):
    code, err, out = _corrupt_record_and_reconstruct(
        tmp_path, capsys, lambda line: line.split(",")[0] + "," + bad
    )
    assert code == 2
    assert "finite" in err
    assert not (out / "field.csv").exists()


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\n" + textwrap.dedent(POINT_CONFIG).encode())
    for command in ("simulate", "check-strategic"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("usage error: config file") and "latin1.cfg" in line, line


def test_non_utf8_record_is_usage_error(tmp_path, capsys):
    # the bad byte sits in the header and past the first 8 KB alike
    for row in (0, 250):
        code, err, out = _corrupt_record_and_reconstruct(
            tmp_path, capsys, lambda line: line + "\udcff", row
        )
        assert code == 2, row
        (line,) = err.splitlines()
        assert line.startswith("usage error: ") and "measurements.csv" in line, line
        assert not (out / "field.csv").exists()


def test_reconstruct_ragged_row_is_usage_error(tmp_path, capsys):
    code, err, out = _corrupt_record_and_reconstruct(
        tmp_path, capsys, lambda line: line + ",0.5"
    )
    assert code == 2
    assert "measurements.csv:6: expected 2 fields, got 3" in err
    assert not (out / "field.csv").exists()


def test_check_strategic_center_point_fails_odd_groups(tmp_path, capsys):
    config = write_config(tmp_path, """
        alpha = 0.5
        horizon = 1.0
        modes = 8
        sensor.kind = pointwise
        sensor.location = 0.5
    """)
    code = cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict non_strategic" in out
    assert "offending_groups 1,3,5,7" in out
    rows = read_rows(tmp_path / "strategic.csv")
    assert rows[0] == ["group", "r", "smallest_singular_value"]
    assert len(rows) == 1 + 8


def test_check_strategic_off_center_point_passes(tmp_path, capsys):
    config = write_config(tmp_path, """
        alpha = 0.5
        horizon = 1.0
        modes = 8
        sensor.kind = pointwise
        sensor.location = 0.2
    """)
    assert cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)]) == 0
    assert "verdict strategic" in capsys.readouterr().out


def test_check_strategic_zonal_square_reports_groups(tmp_path, capsys):
    # a single sensor cannot certify any group on the square (each group
    # asks for rank 2*r from a one-row stack), so the report carries the
    # verdict while the per-group singular values stay at the decision cut
    config = write_config(tmp_path, """
        domain.dim = 2
        alpha = 0.84
        horizon = 1.0
        modes = 6
        sensor.kind = zonal
        sensor.support.lo = 0.1, 0.2
        sensor.support.hi = 0.6, 0.9
        sensor.weight.kind = trig_product
    """)
    code = cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)])
    assert code == 1
    rows = read_rows(tmp_path / "strategic.csv")
    assert rows[0] == ["group", "r", "smallest_singular_value"]
    assert [int(row[1]) for row in rows[1:]] == [1, 2, 1, 2]
    assert all(math.isfinite(float(row[2])) for row in rows[1:])
    assert "verdict non_strategic" in capsys.readouterr().out


def test_sweep_single_point_matches_reconstruct(tmp_path, capsys):
    # the sweep and reconstruct share one solve step, so a converged first
    # iteration gives the sweep's row bit for bit; the second config runs
    # alpha < 1 on a graded record, where the moments come from the L1 pass
    graded = POINT_CONFIG.replace("alpha = 1.0", "alpha = 0.7") + "    time.grading = graded\n"
    for name, text in (("alpha1", POINT_CONFIG), ("graded", graded)):
        out = tmp_path / name
        out.mkdir()
        config = write_config(out, text)
        assert cli.main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert cli.main([
            "reconstruct", "--config", config, "--out", str(out),
            "--measurements", str(out / "measurements.csv"),
        ]) == 0
        summary, _ = summary_of(capsys)
        assert summary["iterations"] == 1

        assert cli.main([
            "sweep-sensor", "--config", config, "--out", str(out),
            "--sweep-grid", "0.3:0.3:0.05",
        ]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0] == ["location", "error", "residual", "lambda_min"]
        assert len(rows) == 2
        location, error, residual, lam_min = (float(v) for v in rows[1])
        assert location == 0.3
        assert error == summary["error_vs_truth"], name
        assert residual == summary["residual"], name
        assert lam_min > 0.0


def test_sweep_failure_sentinel_at_blind_spot(tmp_path, monkeypatch):
    # at b=0.5 the even modes vanish from the output map, the normal matrix
    # is singular, and an unregularized solve must record the sentinel;
    # lambda_min comes from the solve's one eigh at every position
    decompositions = []
    real = hum.eigh

    def counted(*args, **kwargs):
        decompositions.append(args)
        return real(*args, **kwargs)

    real_eigvalsh = np.linalg.eigvalsh

    def eigvalsh_outside_cli(*args, **kwargs):
        # Gauss-Legendre nodes come from eigvalsh too; only the CLI's own call fails
        caller = sys._getframe(1).f_globals["__name__"]
        assert caller != "fracobs.cli", "the sweep computes its own eigenvalues"
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(hum, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_outside_cli)
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 4
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = 0.1, -0.05, 0.02, 0.01
        time.samples = 65
        solver.kind = none
    """)
    assert cli.main([
        "sweep-sensor", "--config", config, "--out", str(tmp_path),
        "--sweep-grid", "0.3:0.7:0.2",
    ]) == 0
    rows = {float(row[0]): row for row in read_rows(tmp_path / "sweep.csv")[1:]}
    assert set(rows) == {0.3, 0.5, 0.7}
    assert math.isnan(float(rows[0.5][1])) and math.isnan(float(rows[0.5][2]))
    assert abs(float(rows[0.5][3])) < 1e-12
    for good in (0.3, 0.7):
        assert math.isfinite(float(rows[good][1]))
        assert float(rows[good][3]) > 0.0
    assert len(decompositions) == 3


SWEEP_CHUNK_CONFIG = """
    alpha = 0.7
    horizon = 1.0
    modes = 4
    omega.lo = 0.0
    omega.hi = 0.5
    sensor.kind = pointwise
    sensor.location = 0.3
    state.kind = trig_sq
    state.modes = 48
    time.samples = 128
    time.grading = graded
    solver.kind = tikhonov
    solver.value = 1e-2
"""


def test_sweep_builds_one_record_and_one_moment_pass(tmp_path, monkeypatch):
    # the positions are the channels of one record: one forward run and
    # one L1 pass serve them all
    calls = {"generate_measurements": 0, "caputo_values": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(cli, "generate_measurements")
    counting(hum, "caputo_values")
    config = write_config(tmp_path, SWEEP_CHUNK_CONFIG)
    assert cli.main([
        "sweep-sensor", "--config", config, "--out", str(tmp_path),
        "--sweep-grid", "0.2:0.4:0.1",
    ]) == 0
    assert len(read_rows(tmp_path / "sweep.csv")) == 4
    assert calls == {"generate_measurements": 1, "caputo_values": 1}


def test_noisy_sweep_matches_single_position_sweeps(tmp_path):
    # every position sees the noise draw its one-sensor record gets, so a
    # chunk of five gives the rows of five one-position sweeps. The rows
    # differ by rounding only (five columns multiply in another order than
    # one), and the strong shift keeps the solve from amplifying it: at
    # solver.value = 1e-8 the error column moves by up to 2e-11 relative
    noisy = SWEEP_CHUNK_CONFIG + "    noise.sigma = 1e-4\n    seed = 9\n"
    config = write_config(tmp_path, noisy)
    out = tmp_path / "chunk"
    out.mkdir()
    assert cli.main([
        "sweep-sensor", "--config", config, "--out", str(out), "--sweep-grid", "0.1:0.9:0.2",
    ]) == 0
    rows = read_rows(out / "sweep.csv")[1:]
    assert len(rows) == 5
    for row in rows:
        single = tmp_path / f"single-{row[0]}"
        single.mkdir()
        assert cli.main([
            "sweep-sensor", "--config", config, "--out", str(single),
            "--sweep-grid", f"{row[0]}:{row[0]}:0.1",
        ]) == 0
        (alone,) = read_rows(single / "sweep.csv")[1:]
        assert alone[0] == row[0]
        got, want = np.array(row[1:], dtype=float), np.array(alone[1:], dtype=float)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_sweep_zonal_moves_left_edge(tmp_path):
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 2
        sensor.kind = zonal
        sensor.support.lo = 0.4
        sensor.support.hi = 0.5
        state.kind = coefficients
        state.coefficients = 0.1, 0.05
        time.samples = 17
    """)
    assert cli.main([
        "sweep-sensor", "--config", config, "--out", str(tmp_path),
        "--sweep-grid", "0.1:0.3:0.1",
    ]) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert [float(row[0]) for row in rows[1:]] == pytest.approx([0.1, 0.2, 0.3])
    # sliding the same width past the right edge is rejected up front
    assert cli.main([
        "sweep-sensor", "--config", config, "--out", str(tmp_path),
        "--sweep-grid", "0.5:0.95:0.05",
    ]) == 2


def test_usage_error_exit_codes(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["simulate", "--config", str(tmp_path / "none.cfg"),
                     "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    bad = write_config(tmp_path, """
        alpha = 0.5
        horizon = 1.0
        sensor.kind = pointwise
        sensor.location = 0.2
        solver.kind = ridge
    """)
    assert cli.main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2
    assert "solver.kind" in capsys.readouterr().err
    config = write_config(tmp_path, POINT_CONFIG, name="ok.cfg")
    assert cli.main(["sweep-sensor", "--config", config, "--out", str(tmp_path),
                     "--sweep-grid", "0.5:0.1:0.05"]) == 2
    capsys.readouterr()
    # non-finite parts, bounds outside [0, 1], too many positions and a
    # point sensor moved onto the domain's edge are rejected before any
    # work; 1e-300 would ask for about 1e299 positions
    for grid in ("0.1:nan:0.1", "nan:0.5:0.1", "0.1:0.5:inf", "0.1:0.5:nan",
                 "-inf:0.5:0.1", "-0.1:0.5:0.1", "0.1:1.5:0.1", "0.1:0.2:1e-300",
                 "0.1:0.6:5e-324", "0:1:1e-5", "0:1:0.25", "0:1:0.5", "0.25:1:0.25"):
        assert cli.main(["sweep-sensor", "--config", config, "--out", str(tmp_path),
                         f"--sweep-grid={grid}"]) == 2, grid
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("usage error: sweep grid"), grid
    assert not (tmp_path / "sweep.csv").exists()
    # state.modes sets the depth of the catalog states alone: the other
    # kinds take their depth from the coefficients or from modes
    for state in ("state.kind = coefficients\nstate.coefficients = 0.1, 0.05",
                  "state.kind = zero"):
        config = write_config(tmp_path, f"""
            alpha = 0.5
            horizon = 1.0
            sensor.kind = pointwise
            sensor.location = 0.3
            {state}
            state.modes = 50
        """, name="depth.cfg")
        assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 2, state
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("usage error: config field state.modes"), line
    # a sensor's fields without its kind: for check-strategic, exit 1 would
    # read as a non-strategic verdict
    for prefix, sensors in (
        ("sensor", "sensor.location = 0.2"),
        ("sensor2", "sensor.kind = pointwise\nsensor.location = 0.3\nsensor2.location = 0.6"),
    ):
        config = write_config(tmp_path, f"alpha = 0.5\nhorizon = 1.0\n{sensors}\n", name="kind.cfg")
        for command in ("simulate", "check-strategic"):
            assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 2, sensors
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"usage error: config field {prefix}.kind is required"), line
    # a value the model refuses is reported under the key that set it
    point = "sensor.kind = pointwise\nsensor.location = 0.3"
    zonal = "sensor.kind = zonal\nsensor.support.lo = {}\nsensor.support.hi = {}"
    for key, body in (
        ("solver.value", f"{point}\nsolver.value = nan"),
        ("solver.value", f"{point}\nsolver.kind = none\nsolver.value = 1e-3"),
        ("solver.value", f"{point}\nsolver.kind = truncated_svd"),
        ("omega.lo/.hi", f"{point}\nomega.lo = 0.5\nomega.hi = 0.5"),
        ("sensor.support.lo/.hi", zonal.format(0.2, 0.1)),
        ("sensor.location", "sensor.kind = pointwise\nsensor.location = 1.0"),
        # the catalogs' domain rules: poly_sq off the interval, trig_product off the square
        ("state.kind", "domain.dim = 2\nsensor.kind = pointwise\nsensor.location = 0.3, 0.4\n"
                       "state.kind = poly_sq"),
        ("sensor.weight.kind", zonal.format(0.2, 0.4) + "\nsensor.weight.kind = trig_product"),
    ):
        config = write_config(tmp_path, f"alpha = 0.5\nhorizon = 1.0\n{body}\n", name="field.cfg")
        assert cli.main(["check-strategic", "--config", config, "--out", str(tmp_path)]) == 2, body
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"usage error: config field {key}: "), line


def test_non_finite_config_values_are_usage_errors(tmp_path, capsys):
    base = """
        alpha = {alpha}
        horizon = {horizon}
        modes = {modes}
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = {coefficients}
        time.samples = {samples}
        {extra}
    """

    def text(alpha="1.0", horizon="1.0", modes="2", coefficients="0.1, 0.05", samples="17",
             extra=""):
        return base.format(
            alpha=alpha, horizon=horizon, modes=modes, coefficients=coefficients,
            samples=samples, extra=extra,
        )

    good = write_config(tmp_path, text(), name="good.cfg")
    assert cli.main(["simulate", "--config", good, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    zonal_inf = """
        sensor2.kind = zonal
        sensor2.support.lo = 0.1
        sensor2.support.hi = 0.4
        sensor2.weight.scale = inf
    """
    cases = [
        ("horizon", "simulate", text(horizon="inf")),
        ("regularization value", "reconstruct", text(extra="solver.value = inf")),
        ("noise.sigma", "simulate", text(extra="noise.sigma = nan")),
        ("noise.sigma", "simulate", text(extra="noise.sigma = inf")),
        ("noise.sigma", "simulate", text(extra="noise.sigma = -0.1")),
        ("sensor2.weight.scale", "simulate", text(extra=zonal_inf)),
        ("state.coefficients", "simulate", text(coefficients="0.1, nan")),
        ("epsilon", "reconstruct", text(extra="epsilon = inf")),
        ("epsilon", "reconstruct", text(extra="epsilon = nan")),
        ("seed", "simulate", text(extra="noise.sigma = 0.01\n seed = -1")),
        ("time.samples", "simulate", text(samples="0", extra="time.grading = graded")),
        ("time.samples", "simulate", text(samples="-5", extra="time.grading = graded")),
        ("time.samples", "simulate", text(samples="1")),
        ("time.samples", "simulate", text(samples="2", extra="time.grading = graded")),
        ("time.samples", "simulate", text(samples="3", extra="time.grading = graded")),
        # integers and alpha are checked when the config loads, whatever the command
        ("alpha", "check-strategic", text(alpha="1.5")),
        ("alpha", "check-strategic", text(alpha="nan")),
        ("alpha", "simulate", text(alpha="0")),
        ("modes", "check-strategic", text(modes="0")),
        ("modes", "reconstruct", text(modes="0")),
        ("state.modes", "simulate", text(extra="state.modes = 0")),
        ("escalation.step", "check-strategic", text(extra="escalation.step = -1")),
        ("escalation.step", "simulate", text(extra="escalation.step = -1")),
        ("escalation.max_iterations", "simulate", text(extra="escalation.max_iterations = 0")),
        ("escalation.max_iterations", "reconstruct", text(extra="escalation.max_iterations = 0")),
    ]
    for field, command, config in cases:
        bad = write_config(tmp_path, config, name="bad.cfg")
        argv = [command, "--config", bad, "--out", str(tmp_path)]
        if command == "reconstruct":
            argv += ["--measurements", str(tmp_path / "measurements.csv")]
        assert cli.main(argv) == 2, config
        captured = capsys.readouterr()
        # the usage error is the only thing on stderr: no numpy warnings
        (line,) = captured.err.splitlines()
        assert line.startswith("usage error:") and field in line
        assert captured.out == ""


def test_module_entry_point_runs(tmp_path):
    config = write_config(tmp_path, """
        alpha = 1.0
        horizon = 1.0
        modes = 2
        sensor.kind = pointwise
        sensor.location = 0.3
        state.kind = coefficients
        state.coefficients = 0.1, 0.05
        time.samples = 17
    """)
    proc = subprocess.run(
        [sys.executable, "-m", "fracobs.cli", "simulate",
         "--config", config, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "config sha256" in proc.stdout
    if shutil.which("fracobs"):
        help_proc = subprocess.run(["fracobs", "--help"], capture_output=True, text=True)
        assert help_proc.returncode == 0


IMPORT_GUARD = """
import json, sys
import numpy
with_numpy = set(sys.modules)
import fracobs.cli as cli
before = set(sys.modules)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "loaded_in_main": sorted(set(sys.modules) - before),
    "polynomial": sorted(
        m for m in set(sys.modules) - with_numpy if m.split(".")[:2] == ["numpy", "polynomial"]
    ),
}))
"""


def test_cli_commands_import_no_scipy(tmp_path):
    # every command runs in a fresh process, so what it imports is paid on
    # every run: scipy must not be among it, and no module may load during
    # the command itself (numpy.ma through np.unique and its set helpers,
    # locale through argparse's gettext), where it would count as work;
    # nor may the package load numpy.polynomial, which numpy < 2 imports
    # with itself
    config = write_config(tmp_path, GRADED_CONFIG)
    out = str(tmp_path)
    commands = [
        ["simulate", "--config", config, "--out", out],
        ["reconstruct", "--config", config, "--out", out,
         "--measurements", str(tmp_path / "measurements.csv")],
        ["check-strategic", "--config", config, "--out", out],
        ["sweep-sensor", "--config", config, "--out", out, "--sweep-grid", "0.2:0.4:0.1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, json.dumps(commands)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scipy"] == []
    assert report["loaded_in_main"] == []
    assert report["polynomial"] == []


def test_simulate_solves_no_eigenproblem(tmp_path, monkeypatch):
    # interval-alpha1's sensor layout on a short record: its zonal sensor
    # takes the order-32 Gauss rule, which must come without an eigen-solve
    def refuse(*args, **kwargs):
        raise AssertionError("simulate solved an eigenproblem")

    for module, name in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"), (fraccalc, "eigh")]:
        monkeypatch.setattr(module, name, refuse)
    fraccalc.gauss_legendre.cache_clear()
    config = write_config(tmp_path, """
        alpha = 1
        horizon = 1
        modes = 4
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
        time.samples = 256
        time.grading = graded
    """)
    assert cli.main(["simulate", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(read_rows(tmp_path / "measurements.csv")) == 257


RERUN_CONFIG = """
    alpha = 0.7
    horizon = 1.0
    modes = 4
    epsilon = 1e-9
    omega.lo = 0.0
    omega.hi = 0.5
    sensor.kind = pointwise
    sensor.location = 0.3
    state.kind = trig_sq
    state.modes = 48
    time.samples = 128
    time.grading = graded
    noise.sigma = 1e-5
    solver.kind = tikhonov
    solver.value = 1e-8
    escalation.step = 2
    escalation.max_iterations = 3
    seed = {seed}
"""


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_reruns_in_one_process_match_a_fresh_process(tmp_path, capsys, seed):
    # the E_alpha contour and Gauss-rule caches are warm on the second
    # in-process run (and from earlier tests); no cached state may reach
    # the printed outputs
    config = write_config(tmp_path, RERUN_CONFIG.format(seed=seed))
    out = str(tmp_path)
    commands = [
        ["simulate", "--config", config, "--out", out],
        ["reconstruct", "--config", config, "--out", out,
         "--measurements", str(tmp_path / "measurements.csv")],
        ["sweep-sensor", "--config", config, "--out", out, "--sweep-grid", "0.25:0.45:0.1"],
    ]
    fresh = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "fracobs.cli", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout))
    assert sum("sha256" in line for _, text in fresh for line in text.splitlines()) == 5
    for _ in range(2):
        rerun = []
        for argv in commands:
            code = cli.main(argv)
            rerun.append((code, capsys.readouterr().out))
        assert rerun == fresh


def test_decay_memo_stays_bounded_over_a_sweep_and_a_reconstruct(tmp_path, capsys):
    # no state a command leaves behind grows with its runs: a second
    # simulate, sweep and reconstruct in the same process retains within
    # 256 KB of what the first left (the bounded caches of the E_alpha
    # contour and the Gauss rules fill on the first)
    config = write_config(tmp_path, RERUN_CONFIG.format(seed=5))
    out = str(tmp_path)
    retained = []
    tracemalloc.start()
    try:
        for _ in range(2):
            assert cli.main(["simulate", "--config", config, "--out", out]) == 0
            assert cli.main([
                "sweep-sensor", "--config", config, "--out", out,
                "--sweep-grid", "0.05:0.95:0.05",
            ]) == 0
            assert len(read_rows(tmp_path / "sweep.csv")) == 20
            assert cli.main([
                "reconstruct", "--config", config, "--out", out,
                "--measurements", str(tmp_path / "measurements.csv"),
            ]) == cli.EXIT_CONVERGENCE
            history = capsys.readouterr().err.split("residual history:")[1]
            assert len(history.split(",")) == 3
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[1] - retained[0] <= 256 * 1024, retained
