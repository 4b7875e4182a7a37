"""Constructive selection of hidden-node input weights and biases.

Given anchor samples whose embedding projections are strictly
increasing, each hidden node is assigned a gain ``k_i`` large enough
that, measured in the node's own pre-activation units, every other
anchor lands at distance >= 2*dist from the node's peak. The Gaussian
activation ``exp(-z^2)`` peaks at 1 at 0 and vanishes at infinity, so
this pushes every off-diagonal entry of the anchor activation matrix
below 1/n0^2 while the bias construction pins each diagonal entry at
the peak: the matrix is strictly diagonally dominant (in the strong,
whole-matrix sense) and therefore nonsingular.

The anchors themselves are judged in :mod:`ordering`, at every d.
:func:`select_weights` tests its inputs' projections (its inputs only
when those are not finite) and, of what it computes, the biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, PreconditionError, ShapeError
from .linalg import _as_2d, _as_matrix

__all__ = ["gaussian", "cutoff_radius", "SelectionParams", "select_weights",
           "row_dot"]


def row_dot(a, b) -> np.ndarray:
    """Per-row dot products of two equally shaped (n, d) arrays.

    The biases are built with exactly this reduction, so re-evaluating a
    node on its own anchor row through ``row_dot`` cancels bit for bit
    and lands exactly on the activation peak.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"row_dot needs matching 2-D shapes, got {a.shape} "
                         f"and {b.shape}")
    return np.einsum("ij,ij->i", a, b)


# exp(-t) is exactly 0.0 in float64 for every t > 745.14, so a square at
# or above this is left at 0 without calling exp, which is slow exactly
# where it underflows
_UNDERFLOW_SQUARE = 746.0


def _gaussian_inplace(z: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array ``z`` with ``exp(-z^2)``, bit for bit,
    and return it; a NaN stays NaN."""
    np.square(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z, where=z > -_UNDERFLOW_SQUARE)
    # what exp skipped holds -z^2 < 0 (or -inf): the maximum makes it
    # +0.0, the value exp gives there, and keeps every NaN
    return np.maximum(z, 0.0, out=z)


def gaussian(z) -> np.ndarray:
    """The activation: the Gaussian radial basis function ``exp(-z^2)``,
    with its peak value 1 at 0."""
    # z^2 may overflow to inf, giving the exact 0; [()] makes a 0-d
    # result a scalar, as np.exp(-(z * z)) returns it
    with np.errstate(over="ignore"):
        return _gaussian_inplace(np.array(z, dtype=np.float64))[()]


def cutoff_radius(n_hidden: int) -> float:
    """Radius a with gaussian(x) < 1/n_hidden^2 for |x| > a.

    Computed as ``max(sqrt(|2 ln n|), 1) + 1``; the +1 keeps the bound
    strict.
    """
    if n_hidden < 1:
        raise PreconditionError(f"need at least one hidden node, got {n_hidden}")
    return max(math.sqrt(abs(2.0 * math.log(n_hidden))), 1.0) + 1.0


@dataclass(frozen=True)
class SelectionParams:
    """Result of the constructive selection.

    ``node_weights[i] == gains[i] * embedding_weights`` and
    ``biases[i]`` puts anchor i exactly at the activation peak:
    ``gaussian(node_weights[i] @ anchor_i + biases[i]) == 1``.
    ``dist`` is the cutoff radius of ``gains.size`` nodes. Boundary
    nodes reuse their neighbour's gain.
    """

    dist: float
    gains: np.ndarray
    node_weights: np.ndarray
    biases: np.ndarray


def select_weights(anchors, weights) -> SelectionParams:
    """Select node weights/biases from projection-sorted anchor samples.

    ``anchors`` (n0 x d) must be ordered so that ``anchors @ weights``
    is strictly increasing. Gains are ``2*dist`` over the smaller of the
    two adjacent projection gaps (a single node gets gain 1; with two
    nodes both use the only gap). Overflowing gains — from nearly
    duplicate projections — raise NumericOverflowError rather than
    producing non-finite weights. When the projections are not finite,
    both arguments are judged by ``linalg._as_matrix``; if they pass,
    the projections overflowed (NumericOverflowError).
    """
    x = _as_2d(anchors, "anchors")
    w = np.asarray(weights, dtype=np.float64).ravel()
    n0, d = x.shape
    if w.size != d:
        raise ShapeError(f"weights have length {w.size}, anchors have "
                         f"dimension {d}")
    if n0 < 1:
        raise PreconditionError("need at least one anchor")
    with np.errstate(over="ignore", invalid="ignore"):
        proj = x @ w
    if not np.isfinite(proj).all():
        _as_matrix(x, "anchors")
        _as_matrix(w[None], "weights")
        raise NumericOverflowError("anchor projections overflowed")
    gaps = proj[1:] - proj[:-1]
    if n0 >= 2 and not (gaps > 0.0).all():
        raise PreconditionError(
            "anchor projections must be strictly increasing")

    dist = cutoff_radius(n0)
    gains = np.empty(n0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n0 == 1:
            gains[0] = 1.0
        elif n0 == 2:
            gains[:] = 2.0 * dist / gaps[0]
        else:
            gains[1:-1] = 2.0 * dist / np.minimum(gaps[:-1], gaps[1:])
            gains[0] = gains[1]
            gains[-1] = gains[-2]
        node_weights = gains[:, None] * w[None, :]
        # the peak is at 0; 0.0 - v, unlike -v, gives a zero bias as +0.0
        biases = 0.0 - row_dot(node_weights, x)
    # x and w are finite here, so an infinite gain or node weight leaves
    # its bias non-finite: inf * 0 is NaN, a sum with inf is not finite
    if not np.isfinite(biases).all():
        raise NumericOverflowError(
            "selection overflowed float64 (nearly duplicate projections?)")
    return SelectionParams(dist=dist, gains=gains, node_weights=node_weights,
                           biases=biases)
