"""Training algorithms for single-hidden-layer networks.

Two ways to obtain a model ``G(x) = sum_i beta_i * g(W_i . x + b_i)``:

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

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .datasets import CLASSIFICATION, Dataset, classification_rate, rmse
from .errors import (FormatError, NumericOverflowError, PreconditionError,
                     ShapeError)
from .ordering import _sorted_weights, invlex_sort_indices
from .selection import GAUSSIAN_RBF, Activation, select_weights

__all__ = ["SlfnModel", "TrainReport", "build_hidden_matrix", "train_elm",
           "train_eelm", "select_hidden_layer", "predict", "save_model",
           "load_model", "ANCHOR_STRATEGIES"]

ANCHOR_STRATEGIES = ("first", "random", "even")

MODEL_FORMAT = "slfn-model/1"

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
    activation: Activation
    provenance: str            # "elm" or "eelm"
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
        if self.provenance not in ("elm", "eelm"):
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


def build_hidden_matrix(node_weights, biases, inputs,
                        act: Activation = GAUSSIAN_RBF) -> np.ndarray:
    """Activation matrix H with H[i, k] = g(W_k . x_i + b_k)."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ nw.T + b
    if not np.isfinite(z).all():
        raise NumericOverflowError("hidden-node pre-activations overflowed")
    return act.apply(z)


def _train_metric(data: Dataset, fitted: np.ndarray) -> float:
    if data.task == CLASSIFICATION:
        return classification_rate(fitted, data.targets)
    return rmse(fitted, data.targets)


def train_elm(data: Dataset, n_hidden: int, act: Activation = GAUSSIAN_RBF,
              seed: int = 0):
    """Random hidden layer, output weights by SVD pseudoinverse.

    Weights and biases are i.i.d. uniform on [-1, 1] under ``seed``; the
    same seed and data reproduce the model bit for bit. Returns
    ``(SlfnModel, TrainReport)``.
    """
    _check_train_args(data, n_hidden)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    node_weights = rng.uniform(-1.0, 1.0, (n_hidden, data.n_features))
    biases = rng.uniform(-1.0, 1.0, n_hidden)
    h = build_hidden_matrix(node_weights, biases, data.inputs, act)
    pinv, rank = linalg._pinv_svd_rank(h)
    beta = pinv @ data.targets
    rank_ok = rank == n_hidden
    train_seconds = time.perf_counter() - t0
    model = SlfnModel(data.n_features, data.n_outputs, n_hidden, node_weights,
                      biases, beta, act, "elm", seed=seed)
    report = TrainReport(train_seconds=train_seconds, select_seconds=0.0,
                         hidden_matrix_rank_ok=rank_ok, pinv_path="svd",
                         train_metric=_train_metric(data, h @ beta))
    return model, report


def _check_train_args(data: Dataset, n_hidden: int) -> None:
    if n_hidden < 1:
        raise PreconditionError(f"need n_hidden >= 1, got {n_hidden}")
    if n_hidden > data.n_samples:
        raise PreconditionError(
            f"n_hidden={n_hidden} exceeds the {data.n_samples} samples")


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
                        seed: int = 0, act: Activation = GAUSSIAN_RBF):
    """Phase one of the constructive training, as a reusable step.

    Picks ``n_hidden`` anchor rows of ``inputs``, sorts them (inverse-lex
    order, which the embedding makes identical to projection order),
    builds the embedding from them, and selects the per-node gains and
    biases. Costs O(n_hidden * dim) plus the sort.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    idx = _choose_anchors(x.shape[0], n_hidden, anchor_strategy, seed, x)
    # np.take copies whole rows; fancy indexing pays a fixed cost per
    # row that would dominate the O(n_hidden * dim) work for small dim
    anchors = np.take(x, idx, axis=0)
    anchors = np.take(anchors, invlex_sort_indices(anchors), axis=0)
    return select_weights(anchors, _sorted_weights(anchors), act)


def train_eelm(data: Dataset, n_hidden: int, anchor_strategy: str = "random",
               seed: int = 0, act: Activation = GAUSSIAN_RBF,
               force_svd: bool = False):
    """Constructive hidden layer, output weights by orthogonal projection.

    Phase one (:func:`select_hidden_layer`) picks ``n_hidden`` anchor
    samples, builds the order embedding from them, orders them by their
    projections, and selects gains and biases that make the anchor rows
    of the hidden matrix strictly diagonally dominant. Phase two solves
    the least-squares system over all samples through the Gram matrix,
    which the construction guarantees to be positive definite (a
    RankDeficientError out of this path means that guarantee was
    violated and is allowed to propagate). ``force_svd`` switches phase
    two to the SVD path for cross-checking; it is never the default.

    Returns ``(SlfnModel, TrainReport)``.
    """
    _check_train_args(data, n_hidden)
    inputs, targets = data.inputs, data.targets
    d = data.n_features

    t0 = time.perf_counter()
    params = select_hidden_layer(inputs, n_hidden, anchor_strategy, seed, act)
    select_seconds = time.perf_counter() - t0

    h = build_hidden_matrix(params.node_weights, params.biases, inputs, act)
    if force_svd:
        pinv, rank = linalg._pinv_svd_rank(h)
        beta = pinv @ targets
        rank_ok = rank == n_hidden
        path = "svd"
    else:
        beta = linalg.pinv_normal(h) @ targets
        rank_ok = True  # the Cholesky solve just certified it
        path = "orthogonal-projection"
    train_seconds = time.perf_counter() - t0

    model = SlfnModel(d, data.n_outputs, n_hidden, params.node_weights,
                      params.biases, beta, act, "eelm", seed=seed)
    report = TrainReport(train_seconds=train_seconds,
                         select_seconds=select_seconds,
                         hidden_matrix_rank_ok=rank_ok, pinv_path=path,
                         train_metric=_train_metric(data, h @ beta))
    return model, report


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
                                x[start:stop], model.activation)
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
        f"activation {model.activation.tag}",
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


class _LineReader:
    """Lines of a text file with the byte offset of each line tracked."""

    def __init__(self, path):
        self.path = str(path)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read model file: {exc}",
                              path=str(path)) from exc
        self.lines: list[tuple[int, str]] = []
        offset = 0
        for chunk in raw.split(b"\n"):
            self.lines.append((offset, chunk.decode("utf-8",
                                                    errors="replace")))
            offset += len(chunk) + 1
        self.pos = 0
        self.offset = 0

    def next_line(self, what: str) -> str:
        while self.pos < len(self.lines):
            offset, line = self.lines[self.pos]
            self.pos += 1
            self.offset = offset
            if line.strip():
                return line.strip()
        raise FormatError(f"file truncated while reading {what}",
                          path=self.path, offset=self.offset)


def _parse_keyed(reader: _LineReader, key: str) -> str:
    line = reader.next_line(key)
    parts = line.split(None, 1)
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"expected '{key} <value>', found {line!r}",
                          path=reader.path, offset=reader.offset)
    return parts[1].strip()


def _parse_floats(reader: _LineReader, what: str, count: int) -> list[float]:
    line = reader.next_line(what)
    cells = line.split()
    if len(cells) != count:
        raise FormatError(f"{what}: expected {count} values, found "
                          f"{len(cells)}", path=reader.path,
                          offset=reader.offset)
    out = []
    for cell in cells:
        try:
            out.append(float.fromhex(cell))
        except ValueError:
            raise FormatError(f"{what}: {cell!r} is not a hex float",
                              path=reader.path, offset=reader.offset) from None
    return out


def load_model(path) -> SlfnModel:
    """Read a model written by :func:`save_model`.

    Malformed content raises FormatError carrying the byte offset of the
    offending line; a version tag other than the supported one is
    rejected naming both versions.
    """
    reader = _LineReader(path)
    tag = reader.next_line("format tag")
    if tag != MODEL_FORMAT:
        raise FormatError(f"expected format {MODEL_FORMAT!r}, found {tag!r}",
                          path=reader.path, offset=reader.offset)
    provenance = _parse_keyed(reader, "provenance")
    seed_text = _parse_keyed(reader, "seed")
    act_tag = _parse_keyed(reader, "activation")

    def _int_field(key: str) -> int:
        text = _parse_keyed(reader, key)
        try:
            value = int(text)
        except ValueError:
            raise FormatError(f"{key}: {text!r} is not an integer",
                              path=reader.path,
                              offset=reader.offset) from None
        if value < 1:
            raise FormatError(f"{key} must be >= 1, got {value}",
                              path=reader.path, offset=reader.offset)
        return value

    d = _int_field("input_dim")
    m = _int_field("output_dim")
    n0 = _int_field("n_hidden")
    if seed_text == "none":
        seed = None
    else:
        try:
            seed = int(seed_text)
        except ValueError:
            raise FormatError(f"seed: {seed_text!r} is not an integer or "
                              f"'none'", path=reader.path,
                              offset=reader.offset) from None

    def _section(name: str) -> None:
        line = reader.next_line(name)
        if line != name:
            raise FormatError(f"expected section {name!r}, found {line!r}",
                              path=reader.path, offset=reader.offset)

    _section("node_weights")
    node_weights = np.array([_parse_floats(reader, "node_weights", d)
                             for _ in range(n0)])
    _section("biases")
    biases = np.array(_parse_floats(reader, "biases", n0))
    _section("output_weights")
    output_weights = np.array([_parse_floats(reader, "output_weights", m)
                               for _ in range(n0)])
    _section("end")
    try:
        activation = Activation(tag=act_tag)
    except PreconditionError as exc:
        raise FormatError(str(exc), path=reader.path,
                          offset=reader.offset) from None
    try:
        return SlfnModel(d, m, n0, node_weights, biases, output_weights,
                         activation, provenance, seed=seed)
    except (ShapeError, PreconditionError) as exc:
        raise FormatError(f"inconsistent model fields: {exc}",
                          path=reader.path) from None
