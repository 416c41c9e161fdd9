"""Tests for strategic-sensor verdicts, Gram diagnostics, and the
global-vs-window example."""

import math

import numpy as np
import pytest
from scipy.special import erfcx

from fracobs import observability as ob
from fracobs import spectral as sp
from fracobs import system as fs
from fracobs.errors import DomainError, InputError
from fracobs.hum import HumProblem, assemble_gram

PI = math.pi


def gram(sensors, M, alpha):
    """The Gram on omega = (0, 1) over [0, 1], with its diagnostic."""
    problem = HumProblem(M, sp.Region((0.0,), (1.0,)), tuple(sensors), alpha, 1.0)
    G = assemble_gram(problem)
    return G, ob.GramDiagnostic.from_eigenvalues(np.linalg.eigvalsh(G))


def unit_weight(x):
    return np.ones_like(np.asarray(x, dtype=float))


def test_strategic_blocks_pointwise_values():
    # the sensed partials that test_gradient_strategic stacks per group;
    # on the interval every group is one mode
    modes = sp.eigenpairs(sp.SpatialDomain(1), 3)
    half = fs.output_matrix([fs.Sensor.pointwise((0.5,))], modes, 0)
    assert half.shape == (1, 3)
    assert abs(half[0, 0]) < 1e-14
    partials = fs.output_matrix([fs.Sensor.pointwise((0.2,))], modes, 0)
    want = math.sqrt(2.0) * PI * math.cos(0.2 * PI)
    assert partials[0, 0] == pytest.approx(want, rel=1e-14)
    assert partials[0, 0] == pytest.approx(3.5944, abs=5e-4)


def test_strategic_blocks_zonal_against_closed_form():
    # entry for group j: sqrt(2) j pi int_0.9^1 cos(j pi y) dy = -sqrt(2) sin(0.9 j pi)
    modes = sp.eigenpairs(sp.SpatialDomain(1), 8)
    sensor = fs.Sensor.zonal(sp.Region((0.9,), (1.0,)), unit_weight)
    partials = fs.output_matrix([sensor], modes, 0)
    for j in range(1, 9):
        want = -math.sqrt(2.0) * math.sin(0.9 * j * PI)
        assert partials[0, j - 1] == pytest.approx(want, abs=1e-12)


def test_strategic_verdict_center_point():
    report = ob.test_gradient_strategic([fs.Sensor.pointwise((0.5,))], 8)
    assert report.verdict == "non_strategic"
    assert report.offending == (1, 3, 5, 7)


def test_strategic_verdict_off_center_point():
    # oracle: cos(0.2 j pi) != 0 for every j <= 8
    assert all(abs(math.cos(0.2 * j * PI)) > 0.3 for j in range(1, 9))
    report = ob.test_gradient_strategic([fs.Sensor.pointwise((0.2,))], 8)
    assert report.verdict == "strategic"
    assert report.offending == ()
    assert all(s > ob.RANK_TOLERANCE for s in report.group_svals)


def test_strategic_verdict_zonal_edge():
    # oracle: sin(0.9 j pi) != 0 for every j <= 8
    assert all(abs(math.sin(0.9 * j * PI)) > 0.3 for j in range(1, 9))
    sensor = fs.Sensor.zonal(sp.Region((0.9,), (1.0,)), unit_weight)
    report = ob.test_gradient_strategic([sensor], 8)
    assert report.verdict == "strategic"


def test_strategic_requires_sensors():
    with pytest.raises(InputError):
        ob.test_gradient_strategic([], 4)


def test_strategic_synthetic_multiplicity_needs_more_sensors():
    # p=1 cannot certify the (1,2)/(2,1) group of size 2 regardless of values
    report = ob.test_gradient_strategic([fs.Sensor.pointwise((0.21, 0.34))], 3)
    assert report.verdict == "non_strategic"
    assert report.group_sizes == (1, 2)
    assert report.group_svals[1] == 0.0
    assert 2 in report.offending


def test_strategic_square_multiplicities():
    # two sensors on the square resolve the (1,2)/(2,1) pair generically
    sensors = [fs.Sensor.pointwise((0.21, 0.34)), fs.Sensor.pointwise((0.67, 0.11))]
    report = ob.test_gradient_strategic(sensors, 4)
    assert report.group_sizes == (1, 2, 1)
    # group of size 2 needs rank 4 from a 2x4 stack: structurally impossible
    assert report.verdict == "non_strategic"
    assert 2 in report.offending


def test_strategic_gray_zone_is_inconclusive():
    # group 1 lands between the cut and 10x the cut
    b = 0.5 - 4e-10
    report = ob.test_gradient_strategic([fs.Sensor.pointwise((b,))], 2)
    assert report.verdict == "inconclusive"
    assert report.offending == (1,)


def test_strategic_weight_scaling_invariance():
    support = sp.Region((0.35,), (0.65,))
    base = fs.Sensor.zonal(support, unit_weight)
    scaled = fs.Sensor.zonal(support, lambda x: 7.3 * unit_weight(x))
    ra = ob.test_gradient_strategic([base], 6)
    rb = ob.test_gradient_strategic([scaled], 6)
    assert ra.verdict == rb.verdict
    assert ra.offending == rb.offending
    assert np.allclose(np.array(rb.group_svals), 7.3 * np.array(ra.group_svals), rtol=1e-10)


def test_report_csv(tmp_path):
    report = ob.test_gradient_strategic([fs.Sensor.pointwise((0.5,))], 4)
    path = str(tmp_path / "groups.csv")
    report.to_csv(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "group,r,smallest_singular_value"
    assert len(lines) == 5


def test_gram_zero_sensors():
    # without sensors there is no output map, so no Gram either
    with pytest.raises(InputError, match="at least one sensor"):
        gram([], 4, 0.84)


def test_gram_symmetry_and_spectrum_on_strategic_config():
    # at M=10 the decay-profile Gram is Cauchy-like and numerically
    # singular (measured eigenvalue ratio ~6e-17), so the honest flag is
    # false even though the configuration is strategic; PD survives the
    # float eigendecomposition only at very small truncations
    sensors = [fs.Sensor.pointwise((0.2,))]
    G, diag = gram(sensors, 10, 0.84)
    asym = np.max(np.abs(G - G.T))
    assert asym <= 1e-12 * np.max(np.abs(G))
    assert diag.largest_eigenvalue > 0.0
    assert diag.smallest_eigenvalue >= -1e-12 * diag.largest_eigenvalue
    assert not diag.positive_definite
    _, small = gram(sensors, 2, 0.84)
    assert small.positive_definite


def test_gram_center_sensor_has_null_directions():
    # phi_k(1/2) = 0 for even k, so odd-q basis fields couple only into
    # modes the sensor cannot see: explicit null vector e_1
    G, diag = gram([fs.Sensor.pointwise((0.5,))], 8, 0.5)
    assert not diag.positive_definite
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert np.max(np.abs(G @ e1)) <= 1e-10 * diag.largest_eigenvalue


def test_gram_strategic_implies_pd():
    # restricted to truncations small enough that the Gram's exact
    # positive-definiteness is visible to a float eigendecomposition
    for M, alpha in ((2, 0.84), (4, 1.0)):
        report = ob.test_gradient_strategic([fs.Sensor.pointwise((0.2,))], M)
        assert report.verdict == "strategic"
        _, diag = gram([fs.Sensor.pointwise((0.2,))], M, alpha)
        assert diag.positive_definite


def test_counterexample_matches_closed_form():
    t = np.linspace(0.1, 2.0, 20)
    glob, window = ob.counterexample_check(t)
    assert np.max(np.abs(glob)) <= 1e-10
    coef = -math.sqrt(2.0) / (24.0 * PI)
    want = coef * erfcx(5.0 * PI**2 * np.sqrt(t))
    assert np.max(np.abs(window - want) / np.abs(want)) <= 1e-8


def test_counterexample_small_time_limit():
    _, window = ob.counterexample_check([1e-12])
    coef = -math.sqrt(2.0) / (24.0 * PI)
    assert window[0] == pytest.approx(coef, rel=1e-4)
    assert window[0] == pytest.approx(-0.018755, abs=5e-6)


def test_counterexample_sample_validation():
    with pytest.raises(DomainError):
        ob.counterexample_check([2.5])
    with pytest.raises(DomainError):
        ob.counterexample_check([-0.1])
    with pytest.raises(InputError):
        ob.counterexample_check([])
