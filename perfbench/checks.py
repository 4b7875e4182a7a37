"""Independent checks of eelm's outputs, computed with numpy alone.

Nothing here calls into eelm: the hidden layer is rebuilt from a
model's parameters, least-squares solutions come from
``np.linalg.lstsq`` and sinc targets from ``np.sinc``. Every check
raises :class:`CheckFailed` naming the check; the caller adds the
workload and the trial.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps

# Rounding moves least-squares fitted values by up to about
# max(rows, cols) * eps * kappa^2 of |Y| (kappa = sigma_max over the
# smallest singular value kept; the normal equations square it). Ten
# times that is asked, at least FIT_TOL_MIN. Where kappa is so large
# that the bound says nothing (rank-deficient or nearly so), which of
# the singular values near the cutoff survive rounding is not fixed, and
# fits were seen to move by up to ~1e-5 of |Y| (the sinc ELM fits, rank
# 53 of 200): FIT_TOL_MAX leaves a 100x margin above that.
FIT_TOL_MIN = 1e-10
FIT_TOL_MAX = 1e-3

# Relative agreement asked of a metric the program states with the one
# recomputed here; the recomputation differs only in summation order
# and in the last bits of the sinc targets.
METRIC_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the independent value."""


def pre_activations(node_weights, biases, inputs) -> np.ndarray:
    """Z[i, k] = x_i . w_k + b_k."""
    z = np.asarray(inputs, dtype=np.float64) @ np.asarray(node_weights).T
    z += np.asarray(biases)
    return z


def hidden_matrix(node_weights, biases, inputs) -> np.ndarray:
    """H[i, k] = exp(-(x_i . w_k + b_k)^2), the Gaussian RBF layer."""
    z = pre_activations(node_weights, biases, inputs)
    return np.exp(-(z * z))


def check_predictions(node_weights, biases, beta, inputs, predictions,
                      block_rows: int = 2048) -> None:
    """Predictions equal exp(-(X.W^T + b)^2).beta from the parameters.

    The tolerance of each entry is a forward rounding bound: the error a
    float64 evaluation can make in each pre-activation and activation,
    and in the dot product with beta. It is far below a relative change
    of 1e-6 in any single prediction. Rows go in blocks, so the check
    holds no more than a block of the hidden layer at a time.
    """
    x = np.asarray(inputs, dtype=np.float64)
    w = np.asarray(node_weights, dtype=np.float64)
    b = np.asarray(biases, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    pred = np.asarray(predictions, dtype=np.float64)
    if pred.shape != (x.shape[0], beta.shape[1]):
        raise CheckFailed(f"predictions: shape {pred.shape}, expected "
                          f"{(x.shape[0], beta.shape[1])}")
    abs_w, abs_beta = np.abs(w), np.abs(beta)
    dot_err = (w.shape[0] + 2) * EPS
    z_err = (x.shape[1] + 2) * EPS
    for start in range(0, x.shape[0], block_rows):
        xb = x[start:start + block_rows]
        z = pre_activations(w, b, xb)
        h = np.exp(-(z * z))
        ref = h @ beta
        z_scale = np.abs(xb) @ abs_w.T + np.abs(b)
        h_err = h * (2.0 * np.abs(z) * z_err * z_scale + 4.0 * EPS)
        tol = 4.0 * (h_err @ abs_beta + dot_err * (h @ abs_beta))
        bad = np.abs(pred[start:start + block_rows] - ref) > tol
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise CheckFailed(
                f"predictions: row {start + i} output {j} is "
                f"{pred[start + i, j]!r}, parameters give {ref[i, j]!r} "
                f"(tolerance {tol[i, j]:.3g})")


def check_least_squares(node_weights, biases, beta, inputs, targets,
                        need_full_rank: bool) -> int:
    """The fitted values H.beta equal the lstsq projection of the targets.

    lstsq runs with the cutoff eelm's SVD path documents, singular values
    at or below max(rows, cols) * eps * sigma_max count as zero, so both
    keep the same components. With ``need_full_rank`` the rank lstsq
    finds must be the node count: the constructive algorithm's
    guarantee. Returns that rank.
    """
    h = hidden_matrix(node_weights, biases, inputs)
    y = np.asarray(targets, dtype=np.float64)
    rcond = max(h.shape) * EPS
    x_ls, _, rank, sv = np.linalg.lstsq(h, y, rcond=rcond)
    n_hidden = h.shape[1]
    if need_full_rank and rank != n_hidden:
        raise CheckFailed(
            f"full column rank: H has numerical rank {rank} of {n_hidden} "
            f"(singular values {sv[0]:.3g} .. {sv[-1]:.3g})")
    kappa = sv[0] / sv[rank - 1]
    tol = min(FIT_TOL_MAX, max(FIT_TOL_MIN, 10.0 * rcond * kappa * kappa))
    gap = np.linalg.norm(h @ np.asarray(beta) - h @ x_ls)
    scale = max(np.linalg.norm(y), 1.0)
    if not gap <= tol * scale:
        raise CheckFailed(
            f"least squares: |H.beta - H.x_lstsq| = {gap:.3g} exceeds "
            f"{tol:.3g} * {scale:.3g} (rank {rank} of {n_hidden}, "
            f"condition {kappa:.3g})")
    return int(rank)


def check_sinc_targets(inputs, targets) -> None:
    """Targets equal sin(x)/x, computed as np.sinc(x / pi)."""
    x = np.asarray(inputs, dtype=np.float64)
    ref = np.sinc(x / np.pi)
    if not np.allclose(targets, ref, rtol=0.0, atol=1e-12):
        worst = np.abs(np.asarray(targets) - ref).max()
        raise CheckFailed(f"sinc targets: off by up to {worst:.3g}")


def check_metric(what: str, stated: float, recomputed: float) -> None:
    """A metric the program states equals the value recomputed here."""
    if not abs(stated - recomputed) <= METRIC_RTOL * max(abs(recomputed),
                                                         1e-12):
        raise CheckFailed(f"{what}: stated {stated!r}, recomputed "
                          f"{recomputed!r}")


def rmse(predictions, targets) -> float:
    diff = np.asarray(predictions) - np.asarray(targets)
    return float(np.sqrt(np.mean(diff * diff)))


def error_rate(predictions, label_index) -> float:
    """1 - accuracy: the share of rows whose highest score is not the
    true class."""
    return float(np.mean(np.argmax(predictions, axis=1)
                         != np.asarray(label_index)))
