"""Inverse lexicographical ordering and the order-preserving affine map.

Vectors in R^d are compared by their *highest-index* differing
coordinate (inverse dictionary order), as ``np.lexsort(samples.T)``
sorts them; :func:`invlex_sort_indices` takes that order from one
argsort when the last attribute has no ties. For a strictly increasing
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

This module is the one validator of anchor samples, at every d: bad
samples are a PreconditionError, and sound ones whose projections still
do not increase strictly in float64 a NumericOverflowError naming the
deciding attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, PreconditionError
from .linalg import _as_2d

__all__ = [
    "invlex_sort_indices",
    "OrderEmbedding",
    "build_embedding",
    "embed_or_identity",
]


def invlex_sort_indices(samples) -> np.ndarray:
    """Indices sorting the rows of ``samples`` into inverse-lex order:
    ``np.lexsort(samples.T)``, taken from one argsort of the last
    attribute when it has no ties, at about one scalar sort's cost.
    """
    x = _as_2d(samples, "samples")
    order = np.argsort(x[:, -1])
    last = x[order, -1]
    if (last[1:] > last[:-1]).all():
        return order
    return np.lexsort(x.T)


@dataclass(frozen=True)
class OrderEmbedding:
    """The constructed per-attribute scalers and exponents.

    ``weights[j] == scale1[j] * 10 ** cumsum(exponents)[j]`` exactly as
    built; ``delta == log10(2 * d)`` for the ``d = weights.size``
    attributes; ``diffs_min[j]`` is the smallest positive adjacent
    difference of rescaled attribute j (1.0 when the attribute has no
    positive adjacent difference at all).
    """

    scale1: np.ndarray
    diffs_min: np.ndarray
    delta: float
    exponents: np.ndarray
    weights: np.ndarray


def _check_samples(x: np.ndarray) -> None:
    """PreconditionError unless the rows of ``x`` (n x d) are finite,
    pairwise distinct, ascending in inverse-lex order and, for d >= 2,
    none all-zero.

    Each adjacent pair is decided by its highest non-zero difference; a
    pair with none is a duplicate. A sum of absolute values is zero
    exactly when every term is, so the all-zero test is exact too. The
    identity weight of d = 1 admits a 0.0 sample.
    """
    if not np.isfinite(x).all():
        raise PreconditionError("samples contain non-finite entries")
    if x.shape[1] > 1 and not (np.abs(x) @ np.ones(x.shape[1]) > 0.0).all():
        raise PreconditionError("the all-zero sample is not allowed")
    diffs = x[1:] - x[:-1]
    last = x.shape[1] - 1 - np.argmax(diffs[:, ::-1] != 0.0, axis=1)
    deciding = diffs[np.arange(diffs.shape[0]), last]
    if not (deciding > 0.0).all():
        raise PreconditionError(
            "samples contain duplicates" if (deciding == 0.0).any()
            else "samples are not sorted ascending in inverse-lex order")


def _construct(x: np.ndarray) -> OrderEmbedding:
    """The embedding of the samples ``x`` (n >= 1, d >= 2) that
    :func:`_check_samples` has accepted, checked to make ``x @ weights``
    strictly increasing in float64 as :func:`selection.select_weights`
    tests it."""
    # work attribute-major: per-attribute reductions then run along the
    # contiguous axis instead of through per-row reduction machinery
    d = x.shape[1]
    xt = np.ascontiguousarray(x.T)
    absmax = np.abs(xt).max(axis=1)
    scale1 = 1.0 / np.where(absmax > 0.0, absmax, 1.0)
    rescaled = xt * scale1[:, None]
    delta = math.log10(2.0 * d)
    gaps = np.abs(rescaled[:, 1:] - rescaled[:, :-1])
    col_min = np.where(gaps > 0.0, gaps, np.inf).min(axis=1, initial=np.inf)
    diffs_min = np.where(np.isfinite(col_min), col_min, 1.0)
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
    proj = x @ weights
    rising = proj[1:] - proj[:-1] > 0.0
    if not rising.all():
        i = int(np.flatnonzero(~rising)[0])
        j = int(np.flatnonzero(x[i + 1] != x[i])[-1])
        raise NumericOverflowError(
            f"attribute {j}: it decides sorted samples {i} and {i + 1}, "
            f"whose projections do not increase in float64", attribute=j)
    return OrderEmbedding(scale1=scale1, diffs_min=diffs_min, delta=delta,
                          exponents=exponents, weights=weights)


def build_embedding(samples) -> OrderEmbedding:
    """Construct the order embedding for invlex-sorted distinct samples.

    Requires n >= 2 samples of dimension d >= 2, pairwise distinct,
    sorted ascending in inverse-lex order (as :func:`invlex_sort_indices`
    sorts them), and no all-zero sample.
    The returned weights make ``samples @ weights`` strictly increasing
    in float64; where they cannot, NumericOverflowError names the
    attribute that decides the first failing pair.
    """
    x = _as_2d(samples, "samples")
    n, d = x.shape
    if n < 2:
        raise PreconditionError(f"need at least 2 samples, got {n}")
    if d < 2:
        raise PreconditionError(
            f"need dimension >= 2, got {d} (use embed_or_identity for d=1)")
    _check_samples(x)
    return _construct(x)


def embed_or_identity(samples) -> np.ndarray:
    """Embedding weights for samples in any order, or (1,) for d = 1.

    A copy is sorted into inverse-lex order and checked as
    :func:`build_embedding` checks it, except that at d = 1 a 0.0 sample
    is allowed. One-dimensional inputs then need no embedding: the
    identity weight 1 already makes projections follow the scalar order.
    For d >= 2 the construction runs on the sorted copy; since it only
    ever sees that, the result is invariant under permutation of the
    input. Produces exactly the weights
    :func:`build_embedding` would on the pre-sorted samples.
    """
    x = _as_2d(samples, "samples")
    if x.shape[0] < 1:
        raise PreconditionError("samples must be non-empty")
    return _sorted_weights(x[invlex_sort_indices(x)])


def _sorted_weights(xs: np.ndarray) -> np.ndarray:
    """Embedding weights of invlex-sorted samples that
    :func:`_check_samples` accepts: the identity (1,) for d = 1, the
    construction for d >= 2."""
    _check_samples(xs)
    if xs.shape[1] == 1:
        return np.ones(1)
    return _construct(xs).weights
