"""Constructive gain/bias selection for the anchor samples."""

import math

import numpy as np
import pytest

from eelm.errors import NumericOverflowError, PreconditionError, ShapeError
from eelm.linalg import strict_dominance_report
from eelm.models import build_hidden_matrix
from eelm.ordering import embed_or_identity
from eelm.selection import cutoff_radius, gaussian, row_dot, select_weights


def sorted_by_projection(anchors, weights):
    anchors = np.asarray(anchors, dtype=float)
    return anchors[np.argsort(anchors @ weights)]


def anchor_matrix(params, anchors):
    z = anchors @ params.node_weights.T + params.biases
    return np.exp(-(z * z))


def test_activation_gaussian():
    assert gaussian(0.0) == 1.0
    assert type(gaussian(0.0)) is np.float64
    z = np.linspace(-20, 20, 101)
    g = gaussian(z)
    assert (g > 0).all() and (g <= 1.0).all()


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


def _ulps_around(value, count=200):
    """``value`` and ``count`` float64 neighbours on either side."""
    out = [value]
    below = above = value
    for _ in range(count):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        out += [below, above]
    return np.array(out)


@pytest.mark.parametrize("square", [745.13, 746.0])
def test_gaussian_is_exp_bit_for_bit_where_exp_underflows(square):
    # exp(-t) reaches 0.0 just past t = 745.13; gaussian skips exp from
    # t = 746 on, so both sides of either value must agree bit for bit
    root = math.sqrt(square)
    for z in (_ulps_around(root), -_ulps_around(root),
              np.sqrt(_ulps_around(square))):
        assert _same_bits(gaussian(z), np.exp(-(z * z)))
    assert gaussian(math.sqrt(746.0)) == 0.0


def test_gaussian_special_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 1e200, -1e-200])
    with np.errstate(over="ignore"):
        want = np.exp(-(z * z))
    assert _same_bits(gaussian(z), want)
    assert np.isnan(gaussian(np.nan))
    assert np.isnan(gaussian([1.0, np.nan])).tolist() == [False, True]


def test_gaussian_of_a_huge_finite_z_is_zero_without_a_warning():
    # z * z overflows to inf for |z| above ~1.34e154, where the Gaussian
    # is exactly 0; the suite turns any warning into an error
    assert gaussian(1e200) == 0.0
    assert gaussian(-1e200) == 0.0
    assert np.array_equal(build_hidden_matrix([[1e160]], [0.0], [[1.0]]),
                          [[0.0]])


def test_cutoff_radius_single_node():
    assert cutoff_radius(1) == 2.0


def test_cutoff_radius_200():
    assert cutoff_radius(200) == pytest.approx(math.sqrt(2 * math.log(200)) + 1,
                                               abs=1e-12)
    assert cutoff_radius(200) == pytest.approx(4.2552, abs=1e-4)


def test_cutoff_radius_suppression_inequality():
    n = np.arange(1, 10001)
    a = np.maximum(np.sqrt(np.abs(2 * np.log(n))), 1.0) + 1.0
    assert (np.exp(-a * a) < 1.0 / n**2).all()
    with pytest.raises(PreconditionError):
        cutoff_radius(0)


def test_two_anchor_hand_trace():
    # projections 0 and 1: the single gap feeds both gains, biases pin
    # each anchor on the activation peak
    anchors = np.array([[0.0], [1.0]])
    weights = np.ones(1)
    params = select_weights(anchors, weights)
    a = cutoff_radius(2)
    assert params.dist == a  # peak at 0 makes dist = a
    assert np.array_equal(params.gains, [2.0 * a, 2.0 * a])
    assert np.array_equal(params.node_weights, [[2.0 * a], [2.0 * a]])
    peaks = np.exp(-(row_dot(params.node_weights, anchors)
                     + params.biases) ** 2)
    assert np.array_equal(peaks, [1.0, 1.0])


def test_single_anchor_degenerate():
    params = select_weights(np.array([[3.0, 4.0]]), np.array([1.0, 2.0]))
    assert np.array_equal(params.gains, [1.0])
    assert params.biases[0] == -11.0


def test_boundary_nodes_copy_neighbours():
    anchors = np.array([[0.0], [1.0], [3.0], [3.5]])
    params = select_weights(anchors, np.ones(1))
    assert params.gains[0] == params.gains[1]
    assert params.gains[-1] == params.gains[-2]
    d = 2.0 * params.dist
    assert params.gains[1] == pytest.approx(d / 1.0)  # min(1, 2)
    assert params.gains[2] == pytest.approx(d / 0.5)  # min(2, 0.5)


def test_anchor_diagonal_is_exactly_peak():
    rng = np.random.default_rng(3)
    anchors = rng.uniform(-10, 10, (12, 3))
    weights = embed_or_identity(anchors)
    anchors = sorted_by_projection(anchors, weights)
    params = select_weights(anchors, weights)
    h = anchor_matrix(params, anchors)
    assert np.array_equal(np.diag(h), np.ones(12))


def test_monotone_placement_and_suppression():
    rng = np.random.default_rng(4)
    anchors = rng.uniform(-5, 5, (15, 2))
    weights = embed_or_identity(anchors)
    anchors = sorted_by_projection(anchors, weights)
    params = select_weights(anchors, weights)
    n0 = len(anchors)
    z = anchors @ params.node_weights.T + params.biases  # z[j, i]
    for i in range(n0):
        assert (np.diff(z[:, i]) > 0).all()  # strictly increasing in j
        others = np.arange(n0) != i
        # the tightest neighbour sits exactly at 2*dist, so allow rounding
        assert (np.abs(z[others, i])
                >= 2.0 * params.dist * (1.0 - 1e-12)).all()
        g = np.exp(-(z[:, i]) ** 2)
        assert (g[others] < 1.0 / n0**2).all()


def test_random_anchor_sets_globally_dominant():
    rng = np.random.default_rng(6)
    for _ in range(50):
        anchors = rng.uniform(-10, 10, (20, 2))
        weights = embed_or_identity(anchors)
        anchors = sorted_by_projection(anchors, weights)
        params = select_weights(anchors, weights)
        report = strict_dominance_report(anchor_matrix(params, anchors))
        assert report.globally_dominant and report.row_dominant


def test_projections_must_increase():
    with pytest.raises(PreconditionError):
        select_weights(np.array([[1.0], [0.5]]), np.ones(1))
    with pytest.raises(PreconditionError):
        select_weights(np.array([[1.0], [1.0]]), np.ones(1))


def test_gain_overflow_surfaces():
    # adjacent projections one denormal apart produce an infinite gain
    anchors = np.array([[0.0], [5e-324], [1.0]])
    with pytest.raises(NumericOverflowError):
        select_weights(anchors, np.ones(1))


def test_shape_validation():
    with pytest.raises(ShapeError):
        select_weights(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ShapeError):
        select_weights(np.ones(3), np.ones(3))
