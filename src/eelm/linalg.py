"""Dense real matrix utilities: two pseudoinverse paths and diagnostics.

Matrices are plain 2-D float64 ``numpy`` arrays. Two independent routes
to the Moore-Penrose generalized inverse are provided:

* :func:`pinv_svd` — singular value decomposition with a small-singular-
  value cutoff; valid for any rank. The same SVD also yields the
  numerical rank, so a caller that needs both pays for one
  decomposition.
* :func:`pinv_normal` — the orthogonal-projection form ``(AᵀA)⁻¹Aᵀ``:
  LAPACK factors the Gram matrix as ``LLᵀ``, ``L⁻¹`` is solved for
  against the identity (one right-hand side per column of ``A``, i.e.
  per hidden node, not per sample), and ``(L⁻ᵀL⁻¹)Aᵀ`` is one matrix
  product. It requires full column rank and fails loudly
  (never regularizes) when that is violated. LAPACK's Cholesky is the
  only factorization: the rank certificate is read off its factor, and
  a refused Gram matrix is located by the same call on leading blocks.

Keeping both paths separate matters: the training code uses the normal-
equation route precisely because the constructive weight selection
guarantees a full-column-rank hidden matrix, and silently patching a
rank problem would hide a violation of that guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PreconditionError, RankDeficientError, ShapeError

__all__ = [
    "as_matrix",
    "pinv_svd",
    "pinv_normal",
    "numerical_rank",
    "DominanceReport",
    "strict_dominance_report",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D float64 array.

    Raises ShapeError for wrong dimensionality or empty axes and
    PreconditionError for NaN/Inf entries.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{name} contains non-finite entries")
    return arr


def _pinv_svd_rank(a, tol: float | None = None):
    """``(pinv_svd(a, tol), numerical_rank(a, tol))`` from one SVD."""
    a = as_matrix(a, "pinv_svd input")
    if tol is None:
        # standard effective-rank cutoff relative to the largest
        # singular value
        tol = max(a.shape) * np.finfo(np.float64).eps
    elif tol < 0:
        raise PreconditionError(f"tol must be >= 0, got {tol}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    cutoff = tol * (s[0] if s.size else 0.0)
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T, int(np.count_nonzero(keep))


def pinv_svd(a, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD, valid for any rank.

    Singular values at or below ``tol * sigma_max`` are treated as zero;
    ``tol`` defaults to ``max(rows, cols) * machine epsilon``.
    """
    return _pinv_svd_rank(a, tol)[0]


def numerical_rank(a, tol: float | None = None) -> int:
    """Number of singular values above the ``pinv_svd`` cutoff."""
    return _pinv_svd_rank(a, tol)[1]


def _cholesky(g: np.ndarray, bound: float) -> np.ndarray | None:
    """LAPACK's lower Cholesky factor ``L`` of ``g`` if it certifies full
    rank: None when LAPACK refuses ``g``, lets an infinite or NaN pivot
    through, or leaves a pivot ratio ``L_jj² / g_jj`` at most ``bound``."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None
    certified = (np.isfinite(low).all()
                 and (np.diag(low) ** 2 / np.diag(g)).min() > bound)
    return low if certified else None


def pinv_normal(a) -> np.ndarray:
    """Pseudoinverse of a full-column-rank matrix via the Gram system.

    Computes ``(AᵀA)⁻¹Aᵀ``: LAPACK's Cholesky factors the Gram matrix
    ``G = AᵀA = LLᵀ``, one solve against the identity gives ``L⁻¹`` (as
    many right-hand sides as ``A`` has columns), and the result is the
    single product ``(L⁻ᵀL⁻¹) @ Aᵀ``.

    The factor certifies full rank when every pivot ratio ``L_jj² / G_jj``
    (the share of column ``j``'s squared norm left after projecting out
    the columns before it) exceeds ``rows * eps``, the rounding of the
    ``rows``-long inner products that form ``G`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3 and 10). Otherwise, or when
    LAPACK refuses ``G``, RankDeficientError names pivot ``j``: ``j + 1``
    is the order of the smallest leading block of ``G`` that fails the
    same test, found by bisection.
    """
    a = as_matrix(a, "pinv_normal input")
    gram = a.T @ a
    bound = a.shape[0] * np.finfo(np.float64).eps
    low = _cholesky(gram, bound)
    if low is None:
        # the leading block of order `passes` is certified, that of order
        # `fails` is not (failure is monotone in exact arithmetic)
        passes, fails = 0, gram.shape[0]
        while fails - passes > 1:
            mid = (passes + fails) // 2
            if _cholesky(gram[:mid, :mid], bound) is None:
                fails = mid
            else:
                passes = mid
        raise RankDeficientError(
            f"Gram matrix is not numerically positive definite at pivot "
            f"{fails - 1}: LAPACK refuses it or leaves at most rows * eps "
            f"of its diagonal", pivot=fails - 1)
    # free each square temporary once used, so none is still held while
    # the (columns x rows) result is allocated
    del gram
    low_inv = np.linalg.solve(low, np.eye(a.shape[1]))
    del low
    gram_inv = low_inv.T @ low_inv
    del low_inv
    return gram_inv @ a.T


@dataclass(frozen=True)
class DominanceReport:
    """Strict diagonal dominance diagnostics for a square matrix.

    ``row_dominant``: every |diagonal| exceeds the sum of |off-diagonal|
    entries in its own row. ``globally_dominant``: every diagonal entry
    exceeds the sum of |off-diagonal| entries of the whole matrix (the
    stronger property the constructive weight selection produces).
    Margins are the worst-case differences; negative means violated.
    """

    row_dominant: bool
    globally_dominant: bool
    row_margin: float
    global_margin: float

    @property
    def worst_margin(self) -> float:
        return min(self.row_margin, self.global_margin)


def strict_dominance_report(a) -> DominanceReport:
    """Report row-wise and global strict diagonal dominance of ``a``."""
    a = as_matrix(a, "dominance input")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"dominance requires a square matrix, got {a.shape}")
    absa = np.abs(a)
    diag = np.diag(a)
    row_off = absa.sum(axis=1) - np.abs(diag)
    total_off = absa.sum() - np.abs(diag).sum()
    row_margin = float((np.abs(diag) - row_off).min())
    global_margin = float((diag - total_off).min())
    return DominanceReport(
        row_dominant=bool(row_margin > 0.0),
        globally_dominant=bool(global_margin > 0.0),
        row_margin=row_margin,
        global_margin=global_margin,
    )
