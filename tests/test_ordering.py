"""Inverse-lex order and the order-preserving embedding."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eelm.errors import NumericOverflowError, PreconditionError, ShapeError
from eelm.ordering import (build_embedding, embed_or_identity,
                           invlex_sort_indices)


def _as_vector_pair(x1, x2):
    a = np.asarray(x1, dtype=np.float64).ravel()
    b = np.asarray(x2, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"vectors have different lengths {a.size} and {b.size}")
    if a.size == 0:
        raise ShapeError("vectors must be non-empty")
    return a, b


def invlex_compare(x1, x2) -> int:
    """The inverse lexicographical order, one pair at a time: the oracle
    for the library's vectorized sort and validator.

    Returns -1, 0 or +1. The highest index at which the vectors differ
    decides: whichever has the smaller coordinate there is smaller.
    """
    a, b = _as_vector_pair(x1, x2)
    for j in range(a.size - 1, -1, -1):
        if a[j] < b[j]:
            return -1
        if a[j] > b[j]:
            return 1
    return 0


def test_invlex_compare_first_attribute_decides():
    assert invlex_compare((1, 2), (3, 2)) == -1


def test_invlex_compare_last_attribute_wins():
    # the higher attribute decides regardless of the lower ones
    assert invlex_compare((9, 4), (1, 5)) == -1


def test_invlex_compare_equal():
    assert invlex_compare((2.5, -1.0), (2.5, -1.0)) == 0


def test_invlex_compare_shape_mismatch():
    with pytest.raises(ShapeError):
        invlex_compare((1, 2), (1, 2, 3))


def test_invlex_compare_is_strict_total_order():
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        pool = rng.integers(0, 3, (3, d)).astype(float)  # ties likely
        a, b, c = pool
        ab, ba = invlex_compare(a, b), invlex_compare(b, a)
        assert ab == -ba
        assert (ab == 0) == bool((a == b).all())
        # transitivity: a<=b and b<=c imply a<=c
        if ab <= 0 and invlex_compare(b, c) <= 0:
            assert invlex_compare(a, c) <= 0


def test_invlex_sort_matches_lexsort():
    # the same indices: distinct last values leave one sorting
    # permutation, and ties take np.lexsort's own
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            x = rng.integers(0, 4, (n, d)).astype(float)  # heavy ties
        else:
            x = rng.uniform(-5, 5, (n, d))
        assert np.array_equal(invlex_sort_indices(x), np.lexsort(x.T))
    # NaN never compares equal, yet NaN rows are ordered as numpy orders
    # them too
    x = np.array([[1.0, np.nan], [0.0, np.nan], [2.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(invlex_sort_indices(x), np.lexsort(x.T))


def test_invlex_sort_agrees_with_compare():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (30, 3))
    s = x[invlex_sort_indices(x)]
    for i in range(len(s) - 1):
        assert invlex_compare(s[i], s[i + 1]) == -1


def exact_projections(samples, weights) -> list:
    """``samples @ weights`` in exact rational arithmetic: the float64
    inputs, each a dyadic rational, multiplied and summed without
    rounding."""
    w = [Fraction(float(v)) for v in weights]
    return [sum(Fraction(float(a)) * b for a, b in zip(row, w))
            for row in samples]


def test_accepted_embeddings_increase_exactly():
    # the float64 check that accepts an embedding is judged by exact
    # arithmetic on the same float64 samples and weights (~0.3 s); every
    # set drawn here, integer or continuous, is accepted
    rng = np.random.default_rng(41)
    for i in range(240):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 41))
        if i % 2:
            x = rng.uniform(-10, 10, (n, d))
        else:
            x = np.unique(rng.integers(1, 4, (n, d)).astype(float), axis=0)
        x = x[invlex_sort_indices(x)]
        if len(x) < 2:
            continue
        proj = exact_projections(x, build_embedding(x).weights)
        assert all(a < b for a, b in zip(proj, proj[1:]))


def projection_gaps(samples, weights):
    proj = np.asarray(samples) @ weights
    return np.diff(proj)


def test_build_embedding_three_samples():
    samples = np.array([[0.1, 0.2], [0.3, 0.2], [0.2, 0.5]])
    emb = build_embedding(samples)
    assert (projection_gaps(samples, emb.weights) > 0).all()


def test_build_embedding_two_sample_trace():
    # hand trace: attributes scale to max |x|, the second attribute is
    # constant so it falls back to gap 1, every exponent is log10(2d)
    samples = np.array([[-1.0, 0.0], [1.0, 0.0]])
    emb = build_embedding(samples)
    assert np.array_equal(emb.scale1, [1.0, 1.0])
    assert emb.delta == pytest.approx(math.log10(4.0))
    assert np.array_equal(emb.diffs_min, [2.0, 1.0])
    assert emb.exponents == pytest.approx([math.log10(4.0)] * 2)
    assert emb.weights == pytest.approx([4.0, 16.0], rel=1e-12)
    proj = samples @ emb.weights
    assert proj == pytest.approx([-4.0, 4.0], rel=1e-12)
    # exact construction identity
    assert np.array_equal(
        emb.weights, emb.scale1 * 10.0 ** np.cumsum(emb.exponents))


def test_build_embedding_random_plane():
    rng = np.random.default_rng(77)
    x = rng.uniform(-10, 10, (200, 2))
    x = x[invlex_sort_indices(x)]
    emb = build_embedding(x)
    gaps = projection_gaps(x, emb.weights)
    assert gaps.shape == (199,)
    assert (gaps > 0).all()


def test_exponent_inequality():
    # each attribute's decimal shift covers 2d / (its smallest positive gap)
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(2, 7))
        x = rng.uniform(-10, 10, (n, d))
        x = x[invlex_sort_indices(x)]
        emb = build_embedding(x)
        assert (10.0 ** emb.exponents
                >= (2 * d / emb.diffs_min) * (1.0 - 1e-12)).all()


def test_build_embedding_validation():
    with pytest.raises(PreconditionError):
        build_embedding(np.array([[1.0, 2.0]]))  # n < 2
    with pytest.raises(PreconditionError):
        build_embedding(np.array([[1.0], [2.0]]))  # d < 2
    with pytest.raises(PreconditionError):
        build_embedding(np.array([[3.0, 2.0], [1.0, 2.0]]))  # unsorted
    with pytest.raises(PreconditionError):
        build_embedding(np.array([[1.0, 2.0], [1.0, 2.0]]))  # duplicate
    with pytest.raises(PreconditionError):
        build_embedding(np.array([[0.0, 0.0], [1.0, 0.0]]))  # zero sample
    with pytest.raises(ShapeError):
        build_embedding(np.ones(4))


def test_build_embedding_validation_matches_invlex_compare():
    # integer data with many ties: every verdict on a pair of adjacent
    # rows (sorted, duplicate, descending) and every zero row must be
    # told apart exactly as a row-by-row reference does
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 5))
        x = rng.integers(0, 3, (n, d)).astype(float)
        if rng.random() < 0.5:
            x = np.unique(x, axis=0)
        if rng.random() < 0.7:
            x = x[np.lexsort(x.T)]
        if len(x) < 2:
            continue
        verdicts = [invlex_compare(a, b) for a, b in zip(x[:-1], x[1:])]
        if (x == 0.0).all(axis=1).any():
            expected = "all-zero"
        elif 0 in verdicts:
            expected = "duplicates"
        elif 1 in verdicts:
            expected = "not sorted"
        else:
            expected = None
        if expected is None:
            emb = build_embedding(x)
            assert (np.diff(x @ emb.weights) > 0).all()
        else:
            with pytest.raises(PreconditionError, match=expected):
                build_embedding(x)


def test_build_embedding_overflow_names_attribute():
    # relative gaps of 1e-200 need decimal shifts of ~200 digits per
    # attribute; the second attribute already exceeds float64 range
    samples = np.array([[-1.0, -1.0], [1e-200, 1e-200], [2e-200, 2e-200]])
    with pytest.raises(NumericOverflowError) as exc_info:
        build_embedding(samples)
    assert exc_info.value.attribute == 1


def test_embed_or_identity_one_dimension():
    assert np.array_equal(embed_or_identity(np.array([[3.0], [1.0]])),
                          np.ones(1))


def test_embed_or_identity_matches_build_on_sorted_input():
    rng = np.random.default_rng(21)
    x = rng.uniform(-2, 2, (12, 3))
    x = x[invlex_sort_indices(x)]
    assert np.array_equal(embed_or_identity(x), build_embedding(x).weights)


def test_embed_or_identity_permutation_invariant():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(2, 6))
        x = rng.uniform(-10, 10, (n, d))
        w1 = embed_or_identity(x)
        w2 = embed_or_identity(x[rng.permutation(n)])
        assert np.array_equal(w1, w2)


def test_embed_or_identity_single_sample():
    w = embed_or_identity(np.array([[2.0, -4.0]]))
    # no gaps at all: every attribute contributes only the 2d factor
    assert w == pytest.approx([0.5 * 4.0, 0.25 * 16.0], rel=1e-12)


def test_embed_or_identity_rejects_empty():
    with pytest.raises(PreconditionError):
        embed_or_identity(np.empty((0, 2)))
