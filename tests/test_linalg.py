"""Pseudoinverse paths and dominance diagnostics."""

import numpy as np
import pytest

from eelm.errors import PreconditionError, RankDeficientError, ShapeError
from eelm.linalg import (numerical_rank, pinv_normal, pinv_svd,
                         strict_dominance_report)


def penrose_residuals(a, x):
    """Max-norm residuals of the four Moore-Penrose conditions."""
    a = np.asarray(a, dtype=float)
    ax, xa = a @ x, x @ a
    return (
        np.abs(a @ xa - a).max(),
        np.abs(x @ ax - x).max(),
        np.abs(ax.T - ax).max(),
        np.abs(xa.T - xa).max(),
    )


def test_pinv_svd_identity():
    assert np.allclose(pinv_svd(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_svd_zero_matrix():
    assert np.array_equal(pinv_svd(np.zeros((2, 2))), np.zeros((2, 2)))


def test_pinv_svd_column_vector():
    a = np.array([[1.0], [1.0]])
    x = pinv_svd(a)
    assert x.shape == (1, 2)
    assert np.allclose(x, [[0.5, 0.5]], atol=1e-15)
    r1, r2, r3, r4 = penrose_residuals(a, x)
    assert max(r1, r2, r3, r4) <= 1e-14


def test_pinv_normal_identity():
    assert np.allclose(pinv_normal(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_normal_matches_svd_on_column_vector():
    a = np.array([[1.0], [1.0]])
    assert np.abs(pinv_normal(a) - pinv_svd(a)).max() <= 1e-10


def test_pinv_normal_repeated_column_is_rank_deficient():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(a)
    assert exc_info.value.pivot == 1


def test_pinv_normal_sum_column_names_its_pivot():
    # third column = first + second; the Gram matrix is exact in float64,
    # so the third pivot is exactly zero
    c0 = np.array([1.0, 1.0, 1.0, 1.0])
    c1 = np.array([1.0, -1.0, 1.0, -1.0])
    a = np.column_stack([c0, c1, c0 + c1])
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(a)
    assert exc_info.value.pivot == 2


def test_pinv_normal_overflowing_gram_is_rank_deficient():
    with np.errstate(over="ignore"), \
            pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(np.array([[1e200, 1.0], [0.0, 1.0]]))
    assert exc_info.value.pivot == 0


def test_pinv_normal_lapack_failure_still_names_a_pivot(monkeypatch):
    # LAPACK may refuse a Gram matrix at the rounding edge that the
    # scalar scan still factors; the error must stay RankDeficientError
    def refuse(g):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    a = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 4))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(a)
    pivot = exc_info.value.pivot
    assert isinstance(pivot, int) and 0 <= pivot < 4


def test_pinv_agreement_on_random_full_rank():
    rng = np.random.default_rng(101)
    for _ in range(30):
        k = int(rng.integers(1, 20))
        m = k + int(rng.integers(2, 25))
        a = rng.uniform(-1.0, 1.0, (m, k))
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] < 1e6
        assert np.abs(pinv_svd(a) - pinv_normal(a)).max() <= 1e-8


def test_pinv_svd_penrose_on_rank_deficient():
    rng = np.random.default_rng(33)
    for _ in range(20):
        m = int(rng.integers(3, 20))
        k = int(rng.integers(2, m))
        r = int(rng.integers(1, k))
        a = rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, k))
        x = pinv_svd(a)
        r1, r2, r3, r4 = penrose_residuals(a, x)
        scale_a = np.abs(a).max()
        scale_x = np.abs(x).max()
        assert r1 <= 1e-8 * scale_a
        assert r2 <= 1e-8 * scale_x
        assert r3 <= 1e-8 * max(1.0, scale_a * scale_x)
        assert r4 <= 1e-8 * max(1.0, scale_a * scale_x)


def test_pinv_svd_tol_controls_effective_rank():
    # singular values 1 and 1e-3: a relative tol above 1e-3 drops the
    # second direction entirely
    u = np.eye(2)
    a = u @ np.diag([1.0, 1e-3]) @ u
    sharp = pinv_svd(a)
    blunt = pinv_svd(a, tol=1e-2)
    assert np.allclose(sharp, np.diag([1.0, 1e3]))
    assert np.allclose(blunt, np.diag([1.0, 0.0]))
    with pytest.raises(PreconditionError):
        pinv_svd(a, tol=-1.0)


def test_numerical_rank():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 2))) == 0
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert numerical_rank(a) == 1
    # the same cutoff rules as pinv_svd
    with pytest.raises(PreconditionError):
        numerical_rank(np.ones((4, 3)), tol=-1.0)


def test_inputs_validated():
    with pytest.raises(ShapeError):
        pinv_svd(np.ones(3))
    with pytest.raises(PreconditionError):
        pinv_svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        pinv_normal(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def test_dominance_identity():
    report = strict_dominance_report(np.eye(2))
    assert report.row_dominant and report.globally_dominant
    assert report.worst_margin == 1.0


def test_dominance_rowwise_but_not_global():
    report = strict_dominance_report(np.array([[1.0, 0.6], [0.6, 1.0]]))
    assert report.row_dominant
    assert not report.globally_dominant
    assert report.row_margin == pytest.approx(0.4)
    assert report.global_margin == pytest.approx(-0.2)
    assert report.worst_margin == pytest.approx(-0.2)


def test_dominance_zero_diagonal():
    report = strict_dominance_report(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not report.row_dominant
    assert not report.globally_dominant


def test_dominance_requires_square():
    with pytest.raises(ShapeError):
        strict_dominance_report(np.ones((2, 3)))


def test_global_dominance_implies_rowwise():
    rng = np.random.default_rng(7)
    seen_global = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-1.0, 1.0, (n, n))
        if rng.random() < 0.5:
            # boost the diagonal to make global dominance common
            a[np.diag_indices(n)] = np.abs(a).sum() + rng.random()
        report = strict_dominance_report(a)
        if report.globally_dominant:
            seen_global += 1
            assert report.row_dominant
    assert seen_global > 50
