"""Training algorithms for single-hidden-layer networks.

Two ways to obtain a model ``G(x) = sum_i beta_i * g(W_i . x + b_i)``,
where ``g`` is the Gaussian ``exp(-z^2)`` (:func:`selection.gaussian`):

* :func:`train_elm` draws hidden weights and biases uniformly at random
  from [-1, 1] and solves for the output weights with the SVD
  pseudoinverse (which tolerates any rank the random draw produces).
* :func:`train_eelm` constructs the hidden weights and biases from the
  data (order embedding + gain/bias selection over a set of anchor
  samples) so the hidden matrix has full column rank by construction,
  and solves with the faster orthogonal-projection pseudoinverse.

Models serialize to a small versioned text format with hex floats so a
round trip is bit-exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .datasets import METRICS, Dataset
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

# Cells of H that predict builds at once. A block is a multiple of 64
# rows, at least 64, and at most this many cells when the nodes allow:
# 64 x 1000 nodes keeps each float64 temporary at 512 kB, inside a
# 2 MB L2 cache, and the ~20 us each block adds stays small beside it.
PREDICT_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class SlfnModel:
    """A trained network: hidden-node parameters plus output weights."""

    input_dim: int
    output_dim: int
    n_hidden: int
    node_weights: np.ndarray   # (n_hidden, input_dim)
    biases: np.ndarray         # (n_hidden,)
    output_weights: np.ndarray  # (n_hidden, output_dim)
    provenance: str            # one of ALGORITHMS
    seed: int | None = None

    def __post_init__(self):
        nw = np.asarray(self.node_weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64).ravel()
        ow = np.asarray(self.output_weights, dtype=np.float64)
        if nw.shape != (self.n_hidden, self.input_dim):
            raise ShapeError(f"node_weights shape {nw.shape} != "
                             f"({self.n_hidden}, {self.input_dim})")
        if b.shape != (self.n_hidden,):
            raise ShapeError(f"biases shape {b.shape} != ({self.n_hidden},)")
        if ow.shape != (self.n_hidden, self.output_dim):
            raise ShapeError(f"output_weights shape {ow.shape} != "
                             f"({self.n_hidden}, {self.output_dim})")
        for arr, what in ((nw, "node_weights"), (b, "biases"),
                          (ow, "output_weights")):
            if not np.isfinite(arr).all():
                raise PreconditionError(f"{what} contain non-finite values")
        if self.provenance not in ALGORITHMS:
            raise PreconditionError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "node_weights", nw)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "output_weights", ow)


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
    pinv_path: str             # "svd" or "orthogonal-projection"
    train_metric: float


def build_hidden_matrix(node_weights, biases, inputs) -> np.ndarray:
    """Activation matrix H with H[i, k] = gaussian(W_k . x_i + b_k).

    H is computed in the one (rows, nodes) buffer the product allocates.
    """
    nw = np.asarray(node_weights, dtype=np.float64)
    b = np.asarray(biases, dtype=np.float64).ravel()
    x = np.asarray(inputs, dtype=np.float64)
    if nw.ndim != 2 or x.ndim != 2:
        raise ShapeError("node_weights and inputs must be 2-D")
    if nw.shape[0] != b.size:
        raise ShapeError(f"{nw.shape[0]} nodes but {b.size} biases")
    if nw.shape[1] != x.shape[1]:
        raise ShapeError(f"nodes have dimension {nw.shape[1]}, inputs "
                         f"{x.shape[1]}")
    # a finite |z| above ~1.3e154 squares to inf: exactly the Gaussian's 0
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ nw.T
        z += b
        if not np.isfinite(z).all():
            raise NumericOverflowError(
                "hidden-node pre-activations overflowed")
        return _gaussian_inplace(z)


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
    inputs, the output weights by the SVD pseudoinverse (``svd``) or by
    the Gram system, then the model and its report. ``t0`` is when
    training started."""
    h = build_hidden_matrix(node_weights, biases, data.inputs)
    n_hidden = h.shape[1]
    if svd:
        pinv, rank = linalg._pinv_svd_rank(h)
        rank_ok = rank == n_hidden
    else:
        pinv = linalg.pinv_normal(h)
        rank_ok = True  # the Cholesky factor just certified it
    beta = pinv @ data.targets
    train_seconds = time.perf_counter() - t0
    model = SlfnModel(data.n_features, data.n_outputs, n_hidden, node_weights,
                      biases, beta, provenance, seed=seed)
    report = TrainReport(
        train_seconds=train_seconds, select_seconds=select_seconds,
        hidden_matrix_rank_ok=rank_ok,
        pinv_path="svd" if svd else "orthogonal-projection",
        train_metric=METRICS[data.task][1](h @ beta, data.targets))
    return model, report


def train_elm(data: Dataset, n_hidden: int, seed: int = 0):
    """Random hidden layer, output weights by SVD pseudoinverse.

    Weights and biases are i.i.d. uniform on [-1, 1] under ``seed``; the
    same seed and data reproduce the model bit for bit. Only this draw
    is ELM's own: the rest is the phase two :func:`train_eelm` shares.
    Returns ``(SlfnModel, TrainReport)``.
    """
    _check_train_args(n_hidden, data.n_samples)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    node_weights = rng.uniform(-1.0, 1.0, (n_hidden, data.n_features))
    biases = rng.uniform(-1.0, 1.0, n_hidden)
    return _fit_output_weights(data, node_weights, biases, "elm", seed,
                               svd=True, t0=t0)


def _choose_anchors(n: int, n_hidden: int, strategy: str, seed: int,
                    inputs: np.ndarray) -> np.ndarray:
    if strategy == "first":
        return np.arange(n_hidden)
    if strategy == "random":
        return np.random.default_rng(seed).choice(n, n_hidden, replace=False)
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
    sort.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    _check_train_args(n_hidden, x.shape[0])
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

    The hidden matrix is built a block of rows at a time (about
    ``PREDICT_BLOCK_CELLS`` cells, see there), so memory beyond the
    output is bounded by two blocks of H whatever n is.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    if x.shape[1] != model.input_dim:
        raise ShapeError(f"inputs have dimension {x.shape[1]}, model expects "
                         f"{model.input_dim}")
    n = x.shape[0]
    out = np.empty((n, model.output_dim))
    block = 64 * max(1, PREDICT_BLOCK_CELLS // (64 * model.n_hidden))
    start = 0
    while start < n:
        # the last block takes the remainder, so no block is a few rows
        # (BLAS computes those on other kernels), and up to 2 * block
        # rows are computed exactly as one product over all of them
        stop = n if n - start < 2 * block else start + block
        h = build_hidden_matrix(model.node_weights, model.biases,
                                x[start:stop])
        np.matmul(h, model.output_weights, out=out[start:stop])
        start = stop
    return out


def _format_row(values) -> str:
    return " ".join(float(v).hex() for v in values)


def save_model(model: SlfnModel, path) -> None:
    """Write the model as a versioned text document (bit-exact floats)."""
    lines = [
        MODEL_FORMAT,
        f"provenance {model.provenance}",
        f"seed {'none' if model.seed is None else model.seed}",
        f"activation {ACTIVATION_TAG}",
        f"input_dim {model.input_dim}",
        f"output_dim {model.output_dim}",
        f"n_hidden {model.n_hidden}",
        "node_weights",
    ]
    lines.extend(_format_row(row) for row in model.node_weights)
    lines.append("biases")
    lines.append(_format_row(model.biases))
    lines.append("output_weights")
    lines.extend(_format_row(row) for row in model.output_weights)
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _line(lines: list, pos: int, what: str, path: str) -> tuple[int, str]:
    """Line ``pos`` of a model file as (byte offset, text); FormatError
    when the file ends there."""
    offset, text = lines[pos]
    if text is None:
        raise FormatError(f"file truncated while reading {what}", path=path,
                          offset=offset)
    return offset, text


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

    pos = 0
    offset, tag = _line(lines, pos, "format tag", path)
    if tag != MODEL_FORMAT:
        raise FormatError(f"expected format {MODEL_FORMAT!r}, found {tag!r}",
                          path=path, offset=offset)
    header = {}
    for key in ("provenance", "seed", "activation", "input_dim",
                "output_dim", "n_hidden"):
        pos += 1
        offset, line = _line(lines, pos, key, path)
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>', found {line!r}",
                              path=path, offset=offset)
        text = parts[1]
        if key == "provenance":
            if text not in ALGORITHMS:
                raise FormatError(f"unknown provenance {text!r}; expected "
                                  f"one of {ALGORITHMS}", path=path,
                                  offset=offset)
            header[key] = text
        elif key == "activation":
            if text != ACTIVATION_TAG:
                raise FormatError(f"unknown activation tag {text!r}; "
                                  f"expected {ACTIVATION_TAG!r}", path=path,
                                  offset=offset)
        elif key == "seed" and text == "none":
            header[key] = None
        else:
            try:
                header[key] = int(text)
            except ValueError:
                kind = "an integer or 'none'" if key == "seed" else \
                    "an integer"
                raise FormatError(f"{key}: {text!r} is not {kind}",
                                  path=path, offset=offset) from None
            if key != "seed" and header[key] < 1:
                raise FormatError(f"{key} must be >= 1, got {header[key]}",
                                  path=path, offset=offset)

    d, m, n0 = header["input_dim"], header["output_dim"], header["n_hidden"]
    arrays = []
    for name, rows, width in (("node_weights", n0, d), ("biases", 1, n0),
                              ("output_weights", n0, m), ("end", 0, 0)):
        pos += 1
        offset, line = _line(lines, pos, name, path)
        if line != name:
            raise FormatError(f"expected section {name!r}, found {line!r}",
                              path=path, offset=offset)
        values = []
        for _ in range(rows):
            pos += 1
            offset, line = _line(lines, pos, name, path)
            cells = line.split()
            if len(cells) != width:
                raise FormatError(f"{name}: expected {width} values, found "
                                  f"{len(cells)}", path=path, offset=offset)
            for cell in cells:
                try:
                    value = float.fromhex(cell)
                except (ValueError, OverflowError):
                    raise FormatError(f"{name}: {cell!r} is not a hex float",
                                      path=path, offset=offset) from None
                # float.fromhex also reads 'inf' and 'nan'
                if not math.isfinite(value):
                    raise FormatError(f"{name}: {cell!r} is not finite",
                                      path=path, offset=offset)
                values.append(value)
        arrays.append(np.array(values).reshape(rows, width))
    node_weights, biases, output_weights, _ = arrays
    return SlfnModel(d, m, n0, node_weights, biases, output_weights,
                     header["provenance"], seed=header["seed"])
