"""Training algorithms for single-hidden-layer networks.

Two ways to obtain a model ``G(x) = sum_i beta_i * g(W_i . x + b_i)``,
where ``g`` is the Gaussian ``exp(-z^2)`` (:func:`selection.gaussian`):

* :func:`train_elm` draws hidden weights and biases uniformly at random
  from [-1, 1] and takes the output weights ``H⁺T`` by an SVD
  least-squares solve, without forming ``H⁺`` (which tolerates any rank
  the draw produces): LAPACK's ``gelsd`` for a tall H, in one call that
  reduces it by QR itself, and the SVD of H for a square one.
* :func:`train_eelm` constructs the hidden weights and biases from the
  data (order embedding + gain/bias selection over a set of anchor
  samples) so the hidden matrix has full column rank by construction,
  and solves with the faster orthogonal-projection pseudoinverse.

A model is its arrays W, b and beta; it saves to a versioned text format
of hex floats (bit-exact) through one statement of the file's layout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .datasets import METRICS, Dataset, _check_seed, _rng, _write_text
from .errors import (FormatError, NumericOverflowError, PreconditionError,
                     ShapeError)
from .ordering import _sorted_weights, invlex_sort_indices
from .selection import _gaussian_inplace, select_weights

__all__ = ["SlfnModel", "TrainReport", "build_hidden_matrix", "train_elm",
           "train_eelm", "select_hidden_layer", "predict", "save_model",
           "load_model", "ALGORITHMS", "ANCHOR_STRATEGIES"]

ALGORITHMS = ("elm", "eelm")

ANCHOR_STRATEGIES = ("first", "random", "even")

MODEL_FORMAT = "slfn-model/1"

# the one activation, named in every model file
ACTIVATION_TAG = "gaussian-rbf"


@dataclass(frozen=True, eq=False)
class SlfnModel:
    """A trained network, whole in its arrays W, b and beta. Its sizes
    are read off their shapes (k, d), (k,) and (k, m), each at least 1
    as the model file requires, so every saved model loads back; W, b
    and beta pass ``linalg._as_matrix``. A seed, when stored, is a
    non-negative integer."""

    node_weights: np.ndarray    # (n_hidden, input_dim)
    biases: np.ndarray          # (n_hidden,)
    output_weights: np.ndarray  # (n_hidden, output_dim)
    provenance: str             # one of ALGORITHMS
    seed: int | None = None
    n_hidden: int = field(init=False)
    input_dim: int = field(init=False)
    output_dim: int = field(init=False)

    def __post_init__(self):
        nw = linalg._as_matrix(self.node_weights, "node_weights")
        b = np.asarray(self.biases, dtype=np.float64).ravel()
        ow = linalg._as_matrix(self.output_weights, "output_weights")
        if b.shape != nw.shape[:1] or ow.shape[0] != nw.shape[0]:
            raise ShapeError(
                f"node_weights {nw.shape}, biases {b.shape} and "
                f"output_weights {ow.shape} are not (k, d), (k,) and (k, m)")
        linalg._as_matrix(b[None], "biases")
        if self.provenance not in ALGORITHMS:
            raise PreconditionError(f"unknown provenance {self.provenance!r}")
        if self.seed is not None:
            _check_seed(self.seed)
        for name, arr in zip(_SECTIONS, (nw, b, ow)):
            object.__setattr__(self, name, arr)
        for name, size in zip(("n_hidden", "input_dim", "output_dim"),
                              (*nw.shape, ow.shape[1])):
            object.__setattr__(self, name, size)


@dataclass(frozen=True)
class TrainReport:
    """Bookkeeping from one training run.

    ``train_seconds`` covers the whole algorithm (for EELM that includes
    the selection phase, which is also reported on its own as
    ``select_seconds``). ``train_metric`` is RMSE for regression and
    the classification rate for classification.
    """

    train_seconds: float
    select_seconds: float
    hidden_matrix_rank_ok: bool
    pinv_path: str  # "svd" (SVD least squares) or "orthogonal-projection"
    train_metric: float


def build_hidden_matrix(node_weights, biases, inputs) -> np.ndarray:
    """Activation matrix H with H[i, k] = gaussian(W_k . x_i + b_k).

    H is one (rows, nodes) array, filled a row block at a time
    (:func:`linalg._row_slices`), so each block's product, bias and
    activation run while it is in cache. When a block's pre-activations
    are not finite, its arguments are judged by ``linalg._as_matrix``;
    if they pass, the block overflowed (NumericOverflowError).
    """
    nw = linalg._as_2d(node_weights, "node_weights")
    b = np.asarray(biases, dtype=np.float64).ravel()
    x = linalg._as_2d(inputs, "inputs")
    if nw.shape[0] != b.size:
        raise ShapeError(f"{nw.shape[0]} nodes but {b.size} biases")
    if nw.shape[1] != x.shape[1]:
        raise ShapeError(f"nodes have dimension {nw.shape[1]}, inputs "
                         f"{x.shape[1]}")
    h = np.empty((x.shape[0], nw.shape[0]))
    # a finite |z| above ~1.3e154 squares to inf: exactly the Gaussian's 0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in linalg._row_slices(*h.shape):
            z = np.matmul(x[rows], nw.T, out=h[rows])
            z += b
            if not np.isfinite(z).all():
                linalg._as_matrix(x[rows], "inputs")
                linalg._as_matrix(nw, "node_weights")
                linalg._as_matrix(b[None], "biases")
                raise NumericOverflowError(
                    "hidden-node pre-activations overflowed")
            _gaussian_inplace(z)
    return h


def _check_train_args(n_hidden: int, n_samples: int) -> None:
    if n_hidden < 1:
        raise PreconditionError(f"need n_hidden >= 1, got {n_hidden}")
    if n_hidden > n_samples:
        raise PreconditionError(
            f"n_hidden={n_hidden} exceeds the {n_samples} samples")


def _fit_output_weights(data: Dataset, node_weights, biases, provenance: str,
                        seed: int, svd: bool, t0: float,
                        select_seconds: float = 0.0):
    """Phase two, the same for both algorithms: H over the training
    inputs, the output weights by an SVD least-squares solve against the
    targets (``svd``) or by the Gram system, then the model and its
    report. ``t0`` is when training started."""
    h = build_hidden_matrix(node_weights, biases, data.inputs)
    if svd:
        beta, rank = linalg._svd_lstsq(h, data.targets)
        rank_ok = rank == h.shape[1]
    else:
        beta = linalg.pinv_normal(h) @ data.targets
        rank_ok = True  # the Cholesky factor just certified it
    if not np.isfinite(beta).all():
        raise NumericOverflowError("output weights overflowed")
    train_seconds = time.perf_counter() - t0
    model = SlfnModel(node_weights, biases, beta, provenance, seed=seed)
    report = TrainReport(
        train_seconds=train_seconds, select_seconds=select_seconds,
        hidden_matrix_rank_ok=rank_ok,
        pinv_path="svd" if svd else "orthogonal-projection",
        train_metric=METRICS[data.task][1](h @ beta, data.targets))
    return model, report


def train_elm(data: Dataset, n_hidden: int, seed: int = 0):
    """Random hidden layer, output weights ``H⁺T`` by an SVD solve.

    Weights and biases are i.i.d. uniform on [-1, 1] under ``seed``; the
    same seed and data reproduce the model bit for bit with the same
    BLAS library and thread count. Only this draw is ELM's own: the
    rest is the phase two :func:`train_eelm` shares.
    With at least twice as many samples as nodes, the solve is one
    ``np.linalg.lstsq`` (LAPACK ``gelsd``) call, which reduces H by QR
    and keeps the singular values of its ``n_hidden`` × ``n_hidden`` R
    above the cutoff: beyond one copy of H, no samples × nodes array is
    built. A square H takes its own SVD.
    Returns ``(SlfnModel, TrainReport)``.
    """
    _check_train_args(n_hidden, data.n_samples)
    t0 = time.perf_counter()
    rng = _rng(seed)
    node_weights = rng.uniform(-1.0, 1.0, (n_hidden, data.n_features))
    biases = rng.uniform(-1.0, 1.0, n_hidden)
    return _fit_output_weights(data, node_weights, biases, "elm", seed,
                               svd=True, t0=t0)


def _choose_anchors(n: int, n_hidden: int, strategy: str, seed: int,
                    inputs: np.ndarray) -> np.ndarray:
    if strategy == "first":
        return np.arange(n_hidden)
    if strategy == "random":
        return _rng(seed).choice(n, n_hidden, replace=False)
    if strategy == "even":
        # evenly spaced through the inverse-lex order, which the
        # embedding guarantees is also the projection order
        order = invlex_sort_indices(inputs)
        pos = np.round(np.linspace(0, n - 1, n_hidden)).astype(int)
        return order[pos]
    raise PreconditionError(
        f"unknown anchor strategy {strategy!r}; expected one of "
        f"{ANCHOR_STRATEGIES}")


def select_hidden_layer(inputs, n_hidden: int, anchor_strategy: str = "random",
                        seed: int = 0):
    """Phase one of the constructive training, as a reusable step.

    Picks ``n_hidden`` anchor rows of ``inputs`` (1 to the row count),
    sorts them (inverse-lex order, which the embedding makes identical
    to projection order), builds the embedding from them, and selects
    the per-node gains and biases. Costs O(n_hidden * dim) plus the
    sort. A negative ``seed`` is a PreconditionError under every
    strategy, drawn from or not: a model stores it.
    """
    x = linalg._as_2d(inputs, "inputs")
    _check_train_args(n_hidden, x.shape[0])
    _check_seed(seed)
    idx = _choose_anchors(x.shape[0], n_hidden, anchor_strategy, seed, x)
    # np.take copies whole rows; fancy indexing pays a fixed cost per
    # row that would dominate the O(n_hidden * dim) work for small dim
    anchors = np.take(x, idx, axis=0)
    anchors = np.take(anchors, invlex_sort_indices(anchors), axis=0)
    return select_weights(anchors, _sorted_weights(anchors))


def train_eelm(data: Dataset, n_hidden: int, anchor_strategy: str = "random",
               seed: int = 0, force_svd: bool = False):
    """Constructive hidden layer, output weights by orthogonal projection.

    Phase one (:func:`select_hidden_layer`, which checks ``n_hidden``)
    picks ``n_hidden`` anchor samples, builds the order embedding from
    them, orders them by their projections, and selects gains and
    biases that make the anchor rows of the hidden matrix strictly
    diagonally dominant. Phase two, which :func:`train_elm` shares,
    solves the least-squares system over all samples through the Gram
    matrix, which the construction makes positive definite; its
    Cholesky factor certifies that in float64
    (:func:`linalg.pinv_normal`), or the RankDeficientError propagates.
    ``force_svd`` switches phase two to ELM's SVD path for
    cross-checking; it is never the default.

    Returns ``(SlfnModel, TrainReport)``.
    """
    t0 = time.perf_counter()
    params = select_hidden_layer(data.inputs, n_hidden, anchor_strategy, seed)
    select_seconds = time.perf_counter() - t0
    return _fit_output_weights(data, params.node_weights, params.biases,
                               "eelm", seed, svd=force_svd, t0=t0,
                               select_seconds=select_seconds)


def predict(model: SlfnModel, inputs) -> np.ndarray:
    """Evaluate the network on rows of ``inputs``; returns (n, m).

    The hidden matrix is built one :func:`linalg._row_slices` block of
    rows at a time, so memory beyond the output is bounded by two blocks
    of H whatever n is.
    """
    x = linalg._as_2d(inputs, "inputs")
    if x.shape[1] != model.input_dim:
        raise ShapeError(f"inputs have dimension {x.shape[1]}, model expects "
                         f"{model.input_dim}")
    out = np.empty((x.shape[0], model.output_dim))
    for rows in linalg._row_slices(x.shape[0], model.n_hidden):
        h = build_hidden_matrix(model.node_weights, model.biases, x[rows])
        np.matmul(h, model.output_weights, out=out[rows])
    return out


# A model file: its format tag, a "key value" line per header key, each
# section's name line and rows of hex floats (the biases in one row), and
# "end". save_model writes and load_model reads it from these two tuples.
_HEADER_KEYS = ("provenance", "seed", "activation", "input_dim",
                "output_dim", "n_hidden")
_SECTIONS = ("node_weights", "biases", "output_weights")


def _format_row(values) -> str:
    return " ".join(float(v).hex() for v in values)


def save_model(model: SlfnModel, path) -> None:
    """Write the model as a versioned text document (bit-exact floats);
    FormatError when ``path`` cannot be written."""
    lines = [MODEL_FORMAT]
    for key in _HEADER_KEYS:
        value = ACTIVATION_TAG if key == "activation" else getattr(model, key)
        lines.append(f"{key} {'none' if value is None else value}")
    for name in _SECTIONS:
        lines.append(name)
        lines.extend(map(_format_row, np.atleast_2d(getattr(model, name))))
    lines.append("end")
    _write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> SlfnModel:
    """Read a model written by :func:`save_model`.

    The file is read once; blank lines and the whitespace around a line
    are ignored. Each field is checked as it is read, so the first
    malformed line in file order raises FormatError carrying its byte
    offset (a truncated file: the offset of its last line). A version
    tag other than the supported one is rejected naming both versions.
    """
    path = str(path)
    try:
        with open(path, "rb") as fh:
            chunks = fh.read().split(b"\n")
    except OSError as exc:
        raise FormatError(f"cannot read model file: {exc}",
                          path=path) from exc
    # (byte offset, stripped text) of each non-blank line, then the end
    # of the file at the offset of its last chunk
    lines, offset = [], 0
    for chunk in chunks:
        text = chunk.decode("utf-8", errors="replace").strip()
        if text:
            lines.append((offset, text))
        offset += len(chunk) + 1
    lines.append((offset - len(chunks[-1]) - 1, None))
    rest = iter(lines)

    def bad(message: str) -> FormatError:
        # located at the line read last
        return FormatError(message, path=path, offset=offset)

    def next_line(what: str) -> str:
        nonlocal offset
        offset, text = next(rest)
        if text is None:
            raise bad(f"file truncated while reading {what}")
        return text

    tag = next_line("format tag")
    if tag != MODEL_FORMAT:
        raise bad(f"expected format {MODEL_FORMAT!r}, found {tag!r}")
    header = {}
    for key in _HEADER_KEYS:
        line = next_line(key)
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise bad(f"expected '{key} <value>', found {line!r}")
        text = parts[1]
        if key in ("provenance", "activation"):
            known = ALGORITHMS if key == "provenance" else (ACTIVATION_TAG,)
            if text not in known:
                raise bad(f"unknown {key} {text!r}; expected one of {known}")
            header[key] = text
        elif key == "seed" and text == "none":
            header[key] = None
        else:
            try:
                header[key] = int(text)
            except ValueError:
                kind = "an integer" + (" or 'none'" if key == "seed" else "")
                raise bad(f"{key}: {text!r} is not {kind}") from None
            least = 0 if key == "seed" else 1
            if header[key] < least:
                raise bad(f"{key} must be >= {least}, got {header[key]}")

    d, m, n0 = header["input_dim"], header["output_dim"], header["n_hidden"]
    shapes = {"node_weights": (n0, d), "biases": (1, n0),
              "output_weights": (n0, m), "end": (0, 0)}
    arrays = {}
    for name in (*_SECTIONS, "end"):
        rows, width = shapes[name]
        line = next_line(name)
        if line != name:
            raise bad(f"expected section {name!r}, found {line!r}")
        values = []
        for _ in range(rows):
            cells = next_line(name).split()
            if len(cells) != width:
                raise bad(f"{name}: expected {width} values, found "
                          f"{len(cells)}")
            for cell in cells:
                try:
                    value = float.fromhex(cell)
                except (ValueError, OverflowError):
                    raise bad(f"{name}: {cell!r} is not a hex float") from None
                # float.fromhex also reads 'inf' and 'nan'
                if not math.isfinite(value):
                    raise bad(f"{name}: {cell!r} is not finite")
                values.append(value)
        arrays[name] = np.array(values).reshape(rows, width)
    del arrays["end"]
    return SlfnModel(**arrays, provenance=header["provenance"],
                     seed=header["seed"])
