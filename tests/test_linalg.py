"""Pseudoinverse paths and dominance diagnostics."""

import numpy as np
import pytest

from eelm.datasets import gen_sinc
from eelm.errors import PreconditionError, RankDeficientError, ShapeError
from eelm.linalg import (BLOCK_CELLS, _row_blocks, _row_slices, _svd_lstsq,
                         _tri_inv, numerical_rank, pinv_normal, pinv_svd,
                         strict_dominance_report)
from eelm.models import build_hidden_matrix, select_hidden_layer, train_elm

EPS = np.finfo(np.float64).eps


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
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(np.array([[1e200, 1.0], [0.0, 1.0]]))
    assert exc_info.value.pivot == 0


def test_pinv_normal_lapack_failure_still_names_a_pivot(monkeypatch):
    # the failing pivot is located with the same LAPACK call, so a
    # refusal at every order still names a pivot in range and stays a
    # RankDeficientError
    def refuse(g):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    a = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 4))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(a)
    pivot = exc_info.value.pivot
    assert isinstance(pivot, int) and 0 <= pivot < 4


def test_pinv_normal_refuses_every_dependent_sum_column():
    # the third column is the sum of the first two; rounding leaves the
    # last pivot tiny but often positive, so LAPACK alone may factor it
    # and only the pivot-ratio bound refuses it
    rng = np.random.default_rng(2024)
    for _ in range(200):
        c = rng.uniform(-1.0, 1.0, (20, 2))
        a = np.column_stack([c, c[:, 0] + c[:, 1]])
        with pytest.raises(RankDeficientError) as exc_info:
            pinv_normal(a)
        assert type(exc_info.value.pivot) is int
        assert exc_info.value.pivot == 2


def test_pinv_normal_names_the_first_dependent_column():
    # every column from j on is a multiple of column 0; the pivot is
    # located by bisection over leading blocks, whether LAPACK refuses
    # the Gram matrix or leaves pivot j a tiny positive remainder
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = int(rng.integers(2, 30))
        a = rng.uniform(-1.0, 1.0, (k + int(rng.integers(0, 40)), k))
        j = int(rng.integers(1, k))
        a[:, j:] = a[:, :1] * rng.uniform(-1.0, 1.0, k - j)
        with pytest.raises(RankDeficientError) as exc_info:
            pinv_normal(a)
        assert exc_info.value.pivot == j


def test_pinv_agreement_on_random_full_rank():
    rng = np.random.default_rng(101)
    for _ in range(30):
        k = int(rng.integers(1, 20))
        m = k + int(rng.integers(2, 25))
        a = rng.uniform(-1.0, 1.0, (m, k))
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] < 1e6
        assert np.abs(pinv_svd(a) - pinv_normal(a)).max() <= 1e-8


def banded(rng, n, k, width):
    """An n x k matrix whose row i is non-zero on one random window of
    ``width`` columns."""
    a = np.zeros((n, k))
    starts = rng.integers(0, k - width + 1, n)
    for i, start in enumerate(starts):
        a[i, start:start + width] = rng.uniform(0.5, 1.0, width)
    return a


def test_pinv_normal_on_eelm_hidden_matrix_with_zero_rows():
    # an EELM H is banded in node order; its rows, shuffled, come in no
    # column order, and rows far from every anchor are all zero
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, (3000, 2))
    params = select_hidden_layer(x, 300, seed=17)
    h = build_hidden_matrix(params.node_weights, params.biases, x)
    h = np.vstack([h, np.zeros((40, 300))])[rng.permutation(3040)]
    zero = ~h.any(axis=1)
    blocks = _row_blocks(h)
    assert zero.sum() >= 40 and len(blocks) > 1
    # all-zero rows cost nothing: they are in no block
    assert np.array_equal(np.sort(np.concatenate([r for r, _, _ in blocks])),
                          np.flatnonzero(~zero))
    got = pinv_normal(h)
    assert np.abs(got - pinv_svd(h)).max() <= 1e-8
    assert np.array_equal(got[:, zero], np.zeros((300, zero.sum())))


def block_rows(k):
    """Rows of a row block of k columns: a multiple of 64, at least 64,
    and at most BLOCK_CELLS cells when k allows."""
    return 64 * max(1, BLOCK_CELLS // (64 * k))


@pytest.mark.parametrize("k", [1, 20, 100, 1000, 1025, 5000])
def test_row_slices_cut_whole_blocks_and_a_remainder(k):
    block = block_rows(k)
    assert block % 64 == 0 and block >= 64
    assert block * k <= BLOCK_CELLS or block == 64
    assert _row_slices(0, k) == []
    for n in (1, block - 1, block, 2 * block - 1, 2 * block,
              3 * block + 7, 6 * block - 1):
        slices = _row_slices(n, k)
        # contiguous, from 0 to n, every block whole but the last, which
        # takes the remainder: at least one block and under two
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        assert all(s.stop - s.start == block for s in slices[:-1])
        last = slices[-1].stop - slices[-1].start
        assert last < 2 * block and (last >= block or len(slices) == 1)
        assert len(slices) == max(1, n // block)


def test_pinv_normal_around_one_block():
    rng = np.random.default_rng(18)
    k = 100
    # fewer than two blocks' rows are one slice, found without a scan
    two = 2 * block_rows(k)
    for n in (two - 1, two, two + 1):
        a = banded(rng, n, k, 12)
        blocks = _row_blocks(a)
        if n < two:
            assert blocks == [(slice(None), 0, k)]
        else:
            assert len(blocks) == 2
        assert np.abs(pinv_normal(a) - pinv_svd(a)).max() <= 1e-8


def test_pinv_normal_one_block_needs_no_scan():
    a = np.random.default_rng(19).uniform(-1.0, 1.0, (576, 20))
    assert _row_blocks(a) == [(slice(None), 0, 20)]


def test_pinv_normal_dense_matrix_over_several_blocks():
    rng = np.random.default_rng(20)
    k = 50
    block = block_rows(k)
    a = rng.uniform(-1.0, 1.0, (4 * block + 17, k))
    blocks = _row_blocks(a)
    assert [len(rows) for rows, _, _ in blocks] == [block] * 3 + [block + 17]
    assert all((lo, hi) == (0, k) for _, lo, hi in blocks)
    assert np.abs(pinv_normal(a) - pinv_svd(a)).max() <= 1e-8


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_pinv_normal_non_finite_cell_in_a_zero_row(cell):
    # no scan up front: the cell is non-zero, so it enters a row block
    # and its column's Gram diagonal, whatever the block it falls in
    rng = np.random.default_rng(22)
    k = 100
    a = banded(rng, 3 * block_rows(k), k, 10)
    a[500] = 0.0
    a[500, 40] = cell
    with pytest.raises(PreconditionError,
                       match="^pinv_normal input contains non-finite "
                             "entries$"):
        pinv_normal(a)


def test_pinv_normal_finite_overflowing_cell_is_rank_deficient():
    rng = np.random.default_rng(23)
    k = 100
    a = banded(rng, 3 * block_rows(k), k, 10)
    a[500, 40] = 1e200
    with pytest.raises(RankDeficientError):
        pinv_normal(a)


def test_pinv_normal_names_a_dependent_column_in_a_later_block():
    rng = np.random.default_rng(21)
    k = 200
    a = banded(rng, 3 * block_rows(k), k, 10)
    j = k - 5
    a[:, j] = a[:, j - 1]
    assert len(_row_blocks(a)) == 3
    with pytest.raises(RankDeficientError) as exc_info:
        pinv_normal(a)
    assert exc_info.value.pivot == j


@pytest.mark.parametrize("order", [1, 64, 65, 200, 1000])
def test_tri_inv_matches_lapack_solve(order):
    rng = np.random.default_rng(order)
    m = rng.uniform(-1.0, 1.0, (2 * order, order))
    low = np.linalg.cholesky(m.T @ m)
    want = np.linalg.solve(low, np.eye(order))
    got = _tri_inv(low)
    assert np.array_equal(np.triu(got, 1), np.zeros((order, order)))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


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


def lstsq_cases():
    # ELM's H on the 200-point sinc grid with 200 nodes, drawn as
    # train_elm draws it under seed 3, has numerical rank 53
    sinc, _ = gen_sinc(200, 10, seed=0)
    rng = np.random.default_rng(3)
    sinc_h = build_hidden_matrix(rng.uniform(-1.0, 1.0, (200, 1)),
                                 rng.uniform(-1.0, 1.0, 200), sinc.inputs)
    rng = np.random.default_rng(41)
    tall = rng.uniform(-1.0, 1.0, (300, 20))
    labels = rng.integers(0, 2, 300)
    zero_col = np.column_stack([rng.uniform(-1.0, 1.0, 300), np.zeros(300)])
    # the tall route on a rank-deficient H, as every tabular ELM fit is:
    # a duplicated column and a node that never fires
    tall_deficient = tall.copy()
    tall_deficient[:, 7] = tall_deficient[:, 3]
    tall_deficient[:, 12] = 0.0
    return {
        "sinc-rank-deficient": (sinc_h, sinc.targets),
        "tall-rank-deficient": (tall_deficient,
                                rng.uniform(-1.0, 1.0, (300, 2))),
        "tall-full-rank": (tall, rng.uniform(-1.0, 1.0, (300, 1))),
        "square": (rng.uniform(-1.0, 1.0, (50, 50)),
                   rng.uniform(-1.0, 1.0, (50, 1))),
        "one-hot": (tall, np.eye(2)[labels]),
        "all-zero-column": (tall, zero_col),
    }


@pytest.mark.parametrize("case", sorted(lstsq_cases()))
def test_svd_lstsq_matches_the_pseudoinverse(case):
    h, y = lstsq_cases()[case]
    beta, rank = _svd_lstsq(h, y)
    ref = pinv_svd(h) @ y
    assert rank == numerical_rank(h)
    assert (rank < h.shape[1]) == case.endswith("rank-deficient")
    assert beta.shape == ref.shape == (h.shape[1], y.shape[1])
    # rounding moves the minimum-norm solution by about
    # max(rows, cols) * eps * kappa of its size, kappa = s_1 / s_rank
    # (a bound that says little on the rank-deficient H, whose kappa is
    # near 1 / (rows * eps): there the residual below carries the check)
    s = np.linalg.svd(h, compute_uv=False)
    tol = 10 * max(h.shape) * EPS * s[0] / s[rank - 1]
    assert np.abs(beta - ref).max() <= tol * np.abs(ref).max()
    # and fits the targets at least as closely as the formed H⁺ does
    resid = np.abs(h @ beta - y).max(axis=0)
    slack = 10 * max(h.shape) * EPS * np.abs(y).max()
    assert (resid <= np.abs(h @ ref - y).max(axis=0) + slack).all()
    # a target column of zeros gives exactly zero weights
    zero = ~y.any(axis=0)
    assert np.array_equal(beta[:, zero], np.zeros((h.shape[1], zero.sum())))


def test_svd_lstsq_decomposes_only_a_square_block(monkeypatch):
    # a tall H is one gelsd call with the pinv_svd cutoff as rcond and no
    # QR or SVD of its own; only a square H goes to the SVD
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a), kwargs.get("rcond")))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)
    for name in ("lstsq", "qr", "svd"):
        spy(name)
    cases = lstsq_cases()
    train, _ = gen_sinc(300, 10, seed=1)
    train_elm(train, 40, seed=2)
    _svd_lstsq(*cases["one-hot"])
    _svd_lstsq(*cases["square"])
    assert calls == [("lstsq", (300, 40), 300 * EPS),
                     ("lstsq", (300, 20), 300 * EPS),
                     ("svd", (50, 50), None)]


def test_numerical_rank():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 2))) == 0
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert numerical_rank(a) == 1


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
    assert report.row_margin == report.global_margin == 1.0


def test_dominance_rowwise_but_not_global():
    report = strict_dominance_report(np.array([[1.0, 0.6], [0.6, 1.0]]))
    assert report.row_dominant
    assert not report.globally_dominant
    assert report.row_margin == pytest.approx(0.4)
    assert report.global_margin == pytest.approx(-0.2)


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
