"""Dense real matrix utilities: two pseudoinverse paths and diagnostics.

Matrices are plain 2-D float64 ``numpy`` arrays. Two independent routes
to the Moore-Penrose generalized inverse are provided:

* :func:`pinv_svd` — numpy's SVD pseudoinverse with the one cutoff
  ``max(rows, cols) * eps * sigma_max``, valid for any rank;
  :func:`numerical_rank` counts the singular values above it. A fit
  takes ``A⁺B`` and the rank, under the same cutoff, without forming
  ``A⁺``: a tall ``A`` goes to LAPACK's least-squares driver ``gelsd``
  in one call, which reduces it by QR itself and builds no rows×cols or
  cols×cols factor; a square or near-square ``A`` to one SVD.
* :func:`pinv_normal` — the orthogonal-projection form ``(AᵀA)⁻¹Aᵀ``:
  LAPACK factors the Gram matrix as ``LLᵀ``, ``L⁻¹`` is inverted by
  2×2 blocks, and each row block of ``A`` is multiplied by the rows of
  ``(L⁻ᵀL⁻¹)`` it touches. It requires full column rank and fails loudly
  (never regularizes) when that is violated. LAPACK's Cholesky is the
  only factorization: the rank certificate is read off its factor, and
  a refused Gram matrix is located by the same call on leading blocks.
  Its cost follows the non-zero part of ``A``: when :func:`_row_slices`
  cuts ``A`` into row blocks (of ``BLOCK_CELLS`` cells, the one budget
  of every row-blocked loop over a hidden matrix), its rows are ordered
  by their first non-zero column, each block works only on the column
  range its rows touch, and an all-zero row costs nothing. A dense
  matrix pays for that: on a dense 10 000 × 1 000 ``A`` the row-blocked
  Gram sum took 0.66 s, against 0.20 s for one ``a.T @ a`` (BLAS syrk;
  one OpenBLAS thread). A NaN or Inf cell of ``A`` shows in the Gram
  diagonal, so ``A`` is scanned for one only when that diagonal is not
  finite.

ELM's hidden matrix, when it has at least ``_LSTSQ_ROWS_PER_COL`` rows
per column and more than one row block, is first solved by
:func:`_gram_lstsq`: ``(AᵀA)⁻¹AᵀB`` from one syrk product ``AᵀA``, the
same Cholesky and ``L⁻¹``, under a stricter certificate than
:func:`pinv_normal`'s (every pivot ratio above ``sqrt(rows * eps)``, not
``rows * eps``). A column of squared norm 0 is refused before ``AᵀA`` is
formed. When it refuses, the SVD solve (``gelsd``) runs as it would
have.

Keeping both paths separate matters: the training code uses the normal-
equation route precisely because the constructive weight selection
guarantees a full-column-rank hidden matrix, and silently patching a
rank problem would hide a violation of that guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PreconditionError, RankDeficientError, ShapeError

__all__ = [
    "pinv_svd",
    "pinv_normal",
    "numerical_rank",
    "DominanceReport",
    "strict_dominance_report",
]

# Cells of H in one row block of the Gram pass, the fit's H and predict
# (see _row_slices): 64 rows x 1000 nodes are 512 kB, inside a 2 MB L2
# cache. It also sets where ELM's route begins: _gram_lstsq takes only
# an H of more than one block. On a 10 000 x 1 000 EELM H, pinv_normal timed alike from 2**14
# to 2**19 cells; predict was fastest from 2**15 to 2**17.
BLOCK_CELLS = 1 << 16

# Rows per column from which _svd_lstsq hands A to LAPACK's gelsd. On
# its own gelsd beat gesdd at every shape timed (0.54 to 0.86 of its
# time at 20 to 1 000 columns and 1 to 4 rows per column, one OpenBLAS
# thread), so a square A keeps gesdd for what gelsd leaves behind: on
# the sinc protocol's 200 x 200 ELM hidden matrix, its smaller workspace
# left glibc's heap thresholds lower, and each EELM fit after ELM fits
# took 402 minor page faults instead of 47 (perfbench sinc-protocol
# eelm_fit_s +26 %, over its bound).
_LSTSQ_ROWS_PER_COL = 2

# Order up to which _tri_inv hands a diagonal block to LAPACK's solve;
# above it, block products do most of the work.
_TRI_LEAF = 64


def _as_2d(a, name: str) -> np.ndarray:
    """``a`` as a 2-D float64 array with at least one column, the one
    check of an array argument in the numeric core; otherwise ShapeError
    naming ``name`` and the shape. Rows are not limited."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D with at least one column, "
                         f"got shape {arr.shape}")
    return arr


def _as_matrix(a, name: str) -> np.ndarray:
    """The one check of a data matrix: :func:`_as_2d` with at least one
    row (ShapeError), and PreconditionError naming ``name`` for NaN/Inf
    entries; up front in ``Dataset``/``SlfnModel``, lazily in hot loops."""
    arr = _as_2d(a, name)
    if arr.shape[0] < 1:
        raise ShapeError(f"{name} has no rows, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{name} contains non-finite entries")
    return arr


def _svd_lstsq(a: np.ndarray, b: np.ndarray):
    """``(x, rank)`` for a finite 2-D ``a`` (rows >= cols) and 2-D
    ``b``: ``x = A⁺b`` without forming ``A⁺``, and the number of
    singular values above ``max(rows, cols) * eps * sigma_max``, the
    only ones kept: ``x = V_r ((U_rᵀb) / s_r)`` from ``A = USVᵀ``
    (Golub & Van Loan, *Matrix Computations*, §5.5).

    With at least ``_LSTSQ_ROWS_PER_COL`` rows per column, one
    ``np.linalg.lstsq`` call with that cutoff as ``rcond`` computes it:
    LAPACK's ``gelsd`` reduces ``A`` by Householder QR, applies the
    reflectors to ``b``, and solves on the cols×cols ``R`` by a
    divide-and-conquer SVD that keeps the singular values above
    ``rcond * sigma_max`` (ibid., §5.3; Björck, *Numerical Methods for
    Least Squares Problems*, ch. 2). No ``[A | b]``, rows×cols ``Q`` or
    ``U``, or cols×cols ``V`` is built. A square or near-square ``A``
    takes ``np.linalg.svd`` (gesdd) directly (see
    ``_LSTSQ_ROWS_PER_COL``). Either driver's LinAlgError is a
    NumericalFailure.
    """
    rcond = max(a.shape) * np.finfo(np.float64).eps
    try:
        if a.shape[0] >= _LSTSQ_ROWS_PER_COL * a.shape[1]:
            x, _, rank, _ = np.linalg.lstsq(a, b, rcond=rcond)
            return x, int(rank)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    rank = int(np.count_nonzero(s > rcond * s[0]))
    return vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank, None]), rank


def pinv_svd(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD, valid for any rank.

    Singular values at or below ``max(rows, cols) * eps * sigma_max``
    are treated as zero.
    """
    a = _as_matrix(a, "pinv_svd input")
    return np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)


def numerical_rank(a) -> int:
    """Number of singular values above the ``pinv_svd`` cutoff."""
    return int(np.linalg.matrix_rank(_as_matrix(a, "numerical_rank input")))


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


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower triangular matrix, by 2×2 blocks:
    ``[[A, 0], [C, D]]⁻¹ = [[A⁻¹, 0], [-D⁻¹CA⁻¹, D⁻¹]]``. Unlike one
    ``solve(low, I)``, which factors the triangle again by LU, only the
    diagonal blocks of order ``_TRI_LEAF`` or less go to LAPACK."""
    k = low.shape[0]
    if k <= _TRI_LEAF:
        return np.linalg.solve(low, np.eye(k))
    h = k // 2
    inv = np.zeros_like(low)
    head = inv[:h, :h] = _tri_inv(low[:h, :h])
    tail = inv[h:, h:] = _tri_inv(low[h:, h:])
    inv[h:, :h] = -(tail @ (low[h:, :h] @ head))
    return inv


def _gram_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``x = (AᵀA)⁻¹Aᵀb`` for a finite ``a`` and 2-D ``b``, or None when
    ``a`` is not on this route or its Gram system is not certified:
    ELM's own solve when rows outnumber nodes (Huang, Zhou, Ding &
    Zhang, *IEEE TSMC-B* 42(2), 2012), without the ridge term.

    The route takes an ``a`` with at least ``_LSTSQ_ROWS_PER_COL`` rows
    per column and more than one :func:`_row_slices` block, a rule of
    its shape alone. A single block is left out: on the tabular
    benchmark's 576 × 20 hidden matrix the product ``AᵀA`` alone adds
    7-11 % to the fit, and that matrix is always refused. A column whose
    squared norm is 0 (a node that never fires on unscaled data, or
    whose outputs square to underflow) makes the factor refuse, so it is
    refused first, by one pass over ``a``: on a refused 8 000 × 20
    matrix of unscaled tabular data ``AᵀA`` cost 7 % of the fit.

    ``G = AᵀA`` is one product (numpy hands ``a.T @ a`` to BLAS syrk),
    :func:`_cholesky` factors it as ``LLᵀ``, and :func:`_tri_inv`'s
    ``L⁻¹`` is applied twice to ``Aᵀb``. The bar is stricter than
    :func:`pinv_normal`'s: every pivot ratio ``L_jj² / G_jj`` must exceed
    ``sqrt(rows * eps)``. The normal equations move the fitted values
    ``Ax`` by about ``rows * eps / ratio`` when the smallest pivot ratio
    tracks ``1 / κ(A)²`` of the column-scaled ``A``, as it does on
    random ELM hidden matrices; the bar then holds that error near
    ``sqrt(rows * eps)`` (1.5e-6 at 10⁴ rows), where ``rows * eps``
    would admit an ``A`` whose fit has no correct digit. Without
    pivoting a ratio is only at least ``1 / κ²``, so this is an
    estimate, not a bound: a Kahan-like ``A`` can pass with a larger
    error. A non-finite ``x`` (``Aᵀb`` overflowed) is None too: the SVD
    solve that a caller falls back to scales ``b`` first.
    """
    n, k = a.shape
    if n < _LSTSQ_ROWS_PER_COL * k or len(_row_slices(n, k)) == 1:
        return None
    if not np.einsum("ij,ij->j", a, a).all():
        return None
    bound = math.sqrt(n * np.finfo(np.float64).eps)
    # an overflowing G or Aᵀb is judged below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
        low = _cholesky(gram, bound)
        # free each square temporary once used
        del gram
        if low is None:
            return None
        low_inv = _tri_inv(low)
        del low
        y = low_inv @ (a.T @ b)
        x = low_inv.T @ y
    return x if np.isfinite(x).all() else None


def _row_slices(n: int, k: int) -> list:
    """Slices cutting ``n`` rows of ``k`` columns into blocks of a
    multiple of 64 rows, at least 64, and ``BLOCK_CELLS`` cells when
    ``k`` allows. The last block takes the remainder, so no block is a
    few rows (BLAS computes those on other kernels)."""
    block = 64 * max(1, BLOCK_CELLS // (64 * max(k, 1)))
    starts = list(range(0, max(n // block, n > 0) * block, block))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _row_blocks(a: np.ndarray) -> list:
    """The row blocks of ``a`` as ``(rows, lo, hi)``: the rows, and the
    column range ``[lo, hi)`` outside which they are zero.

    When :func:`_row_slices` gives ``a`` one slice, the one block is all
    of ``a``, found without a scan. Otherwise the rows are ordered by
    their first non-zero column and cut by the same slicer; an all-zero
    row is in no block.
    """
    n, k = a.shape
    if len(_row_slices(n, k)) == 1:
        return [(slice(None), 0, k)]
    nonzero = a != 0.0
    first = nonzero.argmax(axis=1)
    stop = k - nonzero[:, ::-1].argmax(axis=1)
    live = np.flatnonzero(nonzero.any(axis=1))
    del nonzero
    order = live[np.argsort(first[live], kind="stable")]
    blocks = []
    for piece in _row_slices(order.size, k):
        rows = order[piece]
        blocks.append((rows, int(first[rows[0]]), int(stop[rows].max())))
    return blocks


def pinv_normal(a) -> np.ndarray:
    """Pseudoinverse of a full-column-rank matrix via the Gram system.

    Computes ``(AᵀA)⁻¹Aᵀ``: the Gram matrix ``G = AᵀA`` is summed over
    row blocks of ``A`` (see :func:`_row_blocks`), LAPACK's Cholesky
    factors it as ``LLᵀ``, ``L⁻¹`` is inverted by 2×2 blocks, and a row
    block ``A_b`` gives its columns of the result as ``(A_b G⁻¹)ᵀ`` with
    ``G⁻¹ = L⁻ᵀL⁻¹``. Each block touches only the column range
    ``[lo, hi)`` its rows are non-zero in, both in ``G[lo:hi, lo:hi]``
    and in the rows of ``G⁻¹`` it multiplies, so the cost follows the
    non-zero part of ``A``. The result column of an all-zero row is
    exactly 0. A dense matrix is one block per :func:`_row_slices`
    slice, each spanning every column: the same arithmetic as one Gram
    matrix and one multiplication by ``Aᵀ``, but not as fast. On a dense
    10 000 × 1 000 ``A`` the row-blocked Gram sum took 0.66 s, against
    0.20 s for one ``a.T @ a``, which numpy hands to BLAS syrk (one
    OpenBLAS thread); :func:`_gram_lstsq` takes that one product.

    The factor certifies full rank when every pivot ratio ``L_jj² / G_jj``
    (the share of column ``j``'s squared norm left after projecting out
    the columns before it) exceeds ``rows * eps``, the rounding of the
    ``rows``-long inner products that form ``G`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3 and 10). Otherwise, or when
    LAPACK refuses ``G``, RankDeficientError names pivot ``j``: ``j + 1``
    is the order of the smallest leading block of ``G`` that fails the
    same test, found by bisection.

    ``A`` is not scanned for NaN or Inf up front. Such a cell is non-zero,
    so it lies in some row block and leaves its column's ``G_jj``
    non-finite; only then is ``A`` scanned, and a non-finite cell is a
    PreconditionError. A finite ``A`` whose Gram matrix overflows goes on
    to the RankDeficientError.
    """
    a = _as_2d(a, "pinv_normal input")
    n, k = a.shape
    if n < 1:
        raise ShapeError(f"pinv_normal input has no rows, got shape {a.shape}")
    blocks = _row_blocks(a)
    gram = np.zeros((k, k))
    # NaN from Inf * 0 and Inf from overflow are both judged below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, lo, hi in blocks:
            part = a[rows, lo:hi]
            gram[lo:hi, lo:hi] += part.T @ part
    if not np.isfinite(np.diagonal(gram)).all():
        _as_matrix(a, "pinv_normal input")
    bound = n * np.finfo(np.float64).eps
    low = _cholesky(gram, bound)
    if low is None:
        # the leading block of order `passes` is certified, that of order
        # `fails` is not (failure is monotone in exact arithmetic)
        passes, fails = 0, k
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
    # the (rows x columns) result is allocated
    del gram
    low_inv = _tri_inv(low)
    del low
    gram_inv = low_inv.T @ low_inv
    del low_inv
    pinv_t = np.zeros((n, k))
    for rows, lo, hi in blocks:
        pinv_t[rows] = a[rows, lo:hi] @ gram_inv[lo:hi]
    return pinv_t.T


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


def strict_dominance_report(a) -> DominanceReport:
    """Report row-wise and global strict diagonal dominance of ``a``."""
    a = _as_matrix(a, "dominance input")
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
