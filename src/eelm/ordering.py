"""Inverse lexicographical ordering and the order-preserving affine map.

Vectors in R^d are compared by their *highest-index* differing
coordinate (inverse dictionary order). For a strictly increasing
sequence of such vectors, :func:`build_embedding` constructs a row
vector ``W`` of per-attribute scale factors and decimal shifts so that
the scalar projections ``W @ x`` are strictly increasing in the same
order. The construction:

* rescales each attribute into [-1, 1] (``scale1``),
* measures the smallest positive adjacent difference per attribute
  (``diffs_min``),
* assigns each attribute a decimal exponent
  ``ceil(-log10(diffs_min)) + log10(2d)`` so that one attribute's worth
  of separation dominates everything the lower attributes can contribute,
* multiplies the per-attribute scales by 10 to the cumulative exponents.

The exponents are kept exact (non-integral): the ``log10(2d)`` part is
what buys the factor ``2d`` of safety margin, and the bracketed part is
rounded *up* because the separation guarantee needs
``10^exponent >= 2d / diffs_min``. Cumulative exponents beyond what
float64 can represent are a hard error carrying the offending attribute
index — the weights silently becoming infinity would poison everything
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, PreconditionError, ShapeError

__all__ = [
    "invlex_sort_indices",
    "OrderEmbedding",
    "build_embedding",
    "embed_or_identity",
]


def invlex_sort_indices(samples) -> np.ndarray:
    """Indices sorting the rows of ``samples`` into inverse-lex order.

    Equivalent to ``np.lexsort(samples.T)`` but sorts on the deciding
    (last) attribute alone and refines only runs of tied values, which
    keeps the cost near one scalar sort for continuous data.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"samples must be 2-D, got ndim={x.ndim}")
    n, d = x.shape
    order = np.argsort(x[:, -1])
    if d == 1 or n < 2:
        return order
    last = x[order, -1]
    tie = last[1:] == last[:-1]
    if not tie.any():
        return order
    edges = np.flatnonzero(np.diff(np.concatenate(([False], tie, [False]))))
    for s, e in zip(edges[::2], edges[1::2] + 1):
        run = order[s:e]
        order[s:e] = run[np.lexsort(x[run, :d - 1].T)]
    return order


@dataclass(frozen=True)
class OrderEmbedding:
    """The constructed per-attribute scalers and exponents.

    ``weights[j] == scale1[j] * 10 ** cumsum(exponents)[j]`` exactly as
    built; ``delta == log10(2 * dim)``; ``diffs_min[j]`` is the smallest
    positive adjacent difference of rescaled attribute j (1.0 when the
    attribute has no positive adjacent difference at all).
    """

    dim: int
    scale1: np.ndarray
    diffs_min: np.ndarray
    delta: float
    exponents: np.ndarray
    weights: np.ndarray


def _check_samples(x: np.ndarray) -> None:
    """PreconditionError unless the rows of ``x`` (n x d) are finite,
    none all-zero, pairwise distinct and ascending in inverse-lex order.

    Each adjacent pair is decided by its highest non-zero difference; a
    pair with none is a duplicate. A sum of absolute values is zero
    exactly when every term is, so the all-zero test is exact too.
    """
    if not np.isfinite(x).all():
        raise PreconditionError("samples contain non-finite entries")
    if not (np.abs(x) @ np.ones(x.shape[1]) > 0.0).all():
        raise PreconditionError("the all-zero sample is not allowed")
    diffs = x[1:] - x[:-1]
    last = x.shape[1] - 1 - np.argmax(diffs[:, ::-1] != 0.0, axis=1)
    deciding = diffs[np.arange(diffs.shape[0]), last]
    if not (deciding > 0.0).all():
        raise PreconditionError(
            "samples contain duplicates" if (deciding == 0.0).any()
            else "samples are not sorted ascending in inverse-lex order")


def _construct(x: np.ndarray) -> OrderEmbedding:
    """The embedding of the samples ``x`` (n >= 1, d >= 2), after
    :func:`_check_samples` has accepted them."""
    _check_samples(x)
    # work attribute-major: per-attribute reductions then run along the
    # contiguous axis instead of through per-row reduction machinery
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    absmax = np.abs(xt).max(axis=1)
    scale1 = 1.0 / np.where(absmax > 0.0, absmax, 1.0)
    rescaled = xt * scale1[:, None]
    delta = math.log10(2.0 * d)
    if n > 1:
        gaps = np.abs(rescaled[:, 1:] - rescaled[:, :-1])
        col_min = np.where(gaps > 0.0, gaps, np.inf).min(axis=1)
        diffs_min = np.where(np.isfinite(col_min), col_min, 1.0)
    else:
        diffs_min = np.ones(d)
    exponents = np.ceil(-np.log10(diffs_min)) + delta
    cum = np.cumsum(exponents)
    with np.errstate(over="ignore"):
        power = np.power(10.0, cum)
        weights = scale1 * power
    bad = ~np.isfinite(weights) | (weights == 0.0)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise NumericOverflowError(
            f"attribute {j}: cumulative exponent {cum[j]:.1f} makes the "
            f"weight unrepresentable in float64", attribute=j)
    return OrderEmbedding(dim=d, scale1=scale1, diffs_min=diffs_min,
                          delta=delta, exponents=exponents, weights=weights)


def build_embedding(samples) -> OrderEmbedding:
    """Construct the order embedding for invlex-sorted distinct samples.

    Requires n >= 2 samples of dimension d >= 2, pairwise distinct,
    sorted ascending in inverse-lex order (as :func:`invlex_sort_indices`
    sorts them), and no all-zero sample.
    The returned weights make ``samples @ weights`` strictly increasing.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"samples must be 2-D, got ndim={x.ndim}")
    n, d = x.shape
    if n < 2:
        raise PreconditionError(f"need at least 2 samples, got {n}")
    if d < 2:
        raise PreconditionError(
            f"need dimension >= 2, got {d} (use embed_or_identity for d=1)")
    return _construct(x)


def embed_or_identity(samples) -> np.ndarray:
    """Embedding weights for samples in any order, or (1,) for d = 1.

    One-dimensional inputs need no embedding: the identity weight 1
    already makes projections follow the scalar order. For d >= 2 a copy
    is sorted into inverse-lex order and the construction runs on that;
    since it only ever sees the sorted copy, the result is invariant
    under permutation of the input. Produces exactly the weights
    :func:`build_embedding` would on the pre-sorted samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"samples must be 2-D, got ndim={x.ndim}")
    if x.shape[0] < 1:
        raise PreconditionError("samples must be non-empty")
    return _sorted_weights(x[invlex_sort_indices(x)])


def _sorted_weights(xs: np.ndarray) -> np.ndarray:
    """Embedding weights of invlex-sorted samples: the identity (1,) for
    d = 1, the validated construction for d >= 2."""
    if xs.shape[1] == 1:
        return np.ones(1)
    return _construct(xs).weights
