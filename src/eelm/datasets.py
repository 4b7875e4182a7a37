"""Dataset handling: CSV reading, file writing, the sinc generator,
splits, metrics.

``_read_csv`` is the one CSV reader and ``_write_text`` the one file
writer of the package: CSV through ``_write_csv`` (plot data and
``eelm predict`` output), JSON reports and model files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import FormatError, PreconditionError, ShapeError
from .linalg import _as_matrix

__all__ = [
    "REGRESSION", "CLASSIFICATION", "Dataset", "CsvSchema", "load_csv",
    "sinc", "gen_sinc", "split", "rmse", "classification_rate", "METRICS",
    "minmax_scale",
]

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: inputs (n x d) and targets (n x m).

    Both pass ``linalg._as_matrix``. Regression targets are raw values
    (m columns); classification targets are one-hot rows over
    ``class_labels``.
    """

    name: str
    task: str
    inputs: np.ndarray
    targets: np.ndarray
    class_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        inputs = _as_matrix(self.inputs, "inputs")
        targets = _as_matrix(self.targets, "targets")
        if inputs.shape[0] != targets.shape[0]:
            raise ShapeError(
                f"{inputs.shape[0]} inputs but {targets.shape[0]} targets")
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise PreconditionError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION:
            ok = np.isin(targets, (0.0, 1.0)).all() and \
                (targets.sum(axis=1) == 1.0).all()
            if not ok:
                raise PreconditionError(
                    "classification targets must be one-hot rows")
            if self.class_labels is not None and \
                    len(self.class_labels) != targets.shape[1]:
                raise ShapeError("class_labels length does not match targets")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if self.class_labels is not None:
            object.__setattr__(self, "class_labels", tuple(self.class_labels))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]


def _one_hot_encode(labels: Sequence[str]):
    """Map labels to one-hot rows; classes ordered by first appearance."""
    classes: list[str] = []
    index: dict[str, int] = {}
    for lab in labels:
        if lab not in index:
            index[lab] = len(classes)
            classes.append(lab)
    rows = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        rows[i, index[lab]] = 1.0
    return rows, classes


@dataclass(frozen=True)
class CsvSchema:
    """Which CSV columns are targets and what task they encode."""

    target: str | tuple[str, ...]
    task: str = REGRESSION

    @property
    def target_columns(self) -> tuple[str, ...]:
        if isinstance(self.target, str):
            return (self.target,)
        return tuple(self.target)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of an RFC-4180-style CSV (header row
    required, UTF-8); every row must be as wide as the header. A UTF-8
    byte-order mark, with which spreadsheets start "CSV UTF-8" files, is
    read as one and not as part of the first header cell."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError("empty file, header row required",
                                  path=str(path))
            rows = list(reader)
    except OSError as exc:
        raise FormatError(f"cannot read CSV: {exc}", path=str(path)) from exc
    width = len(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise FormatError(f"row has {len(row)} cells, header has {width}",
                              path=str(path), line=i)
    return header, rows


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in one write, its line ends
    as given. A path that cannot be written is a FormatError, as one
    that cannot be read is."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write: {exc}", path=str(path)) from exc


def _write_csv(path, header, rows) -> None:
    """Write a header and rows of str cells as ``_read_csv`` reads them
    and ``csv.writer`` writes them: comma-joined, CRLF line ends. No
    cell may need quoting (a comma, quote or line break); the package
    writes only names and ``repr`` of numbers."""
    lines = [",".join(header), *map(",".join, rows)]
    _write_text(path, "\r\n".join(lines) + "\r\n")


def _numeric_cells(rows, columns, path, what: str = "cell") -> np.ndarray:
    """The given columns of ``rows`` as an (n, len(columns)) float64
    array, converted in one numpy call (numpy parses a str cell exactly
    as ``float`` does). The first cell that does not parse, or that
    holds inf or nan, is rejected with its 1-based row and column."""
    columns = list(columns)
    if columns == list(range(len(rows[0]))):
        cells = rows  # every column: skip a copy that costs ~1 us a row
    else:
        cells = [[row[j] for j in columns] for row in rows]
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for i, row in enumerate(cells, start=1):
        for k, cell in enumerate(row):
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                raise FormatError(f"{what} {cell!r} is not numeric",
                                  path=str(path), line=i,
                                  column=columns[k] + 1) from None
            if not finite:
                raise FormatError(f"{what} {cell!r} is not finite",
                                  path=str(path), line=i,
                                  column=columns[k] + 1)
    raise AssertionError("unreachable: every cell parsed and was finite")


def _read_features(path) -> np.ndarray:
    """Every column of a feature CSV as an (n, d) float64 array."""
    header, rows = _read_csv(path)
    if not rows:
        raise FormatError("no data rows", path=str(path))
    return _numeric_cells(rows, range(len(header)), path)


def _refuse_repeats(names, what: str, error, **where) -> None:
    """Raise ``error`` naming the first of ``names`` given twice."""
    seen = set()
    for name in names:
        if name in seen:
            raise error(f"{what} {name!r} is given twice", **where)
        seen.add(name)


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load an RFC-4180-style CSV (header row required, UTF-8).

    A target named twice (PreconditionError) or a header that repeats a
    name after stripping (FormatError) would read one column as two, and
    is refused. Non-target columns are numeric
    attributes, and so are regression targets; a cell that does not
    parse, or holds inf or nan, is rejected with its 1-based data-row
    and column numbers.
    Classification label columns may hold arbitrary strings and are
    one-hot encoded in first-seen order.
    """
    if schema.task not in (REGRESSION, CLASSIFICATION):
        raise PreconditionError(f"unknown task {schema.task!r}")
    targets_wanted = schema.target_columns
    if schema.task == CLASSIFICATION and len(targets_wanted) != 1:
        raise PreconditionError(
            "classification expects exactly one label column")
    _refuse_repeats(targets_wanted, "target", PreconditionError)
    header, rows = _read_csv(path)
    header = [h.strip() for h in header]
    _refuse_repeats(header, "header column", FormatError, path=str(path))
    for col in targets_wanted:
        if col not in header:
            raise FormatError(f"target column {col!r} not in header {header}",
                              path=str(path))
    tgt_idx = [header.index(c) for c in targets_wanted]
    feat_idx = [j for j in range(len(header)) if j not in tgt_idx]
    if not feat_idx:
        raise FormatError("no attribute columns left after removing targets",
                          path=str(path))
    if not rows:
        raise FormatError("no data rows", path=str(path))

    feats = _numeric_cells(rows, feat_idx, path)
    name = str(path)
    if schema.task == REGRESSION:
        targets = _numeric_cells(rows, tgt_idx, path, "target cell")
        return Dataset(name, REGRESSION, feats, targets)
    labels = [row[tgt_idx[0]].strip() for row in rows]
    onehot, classes = _one_hot_encode(labels)
    if len(classes) < 2:
        raise FormatError("classification needs at least two distinct labels",
                          path=str(path))
    return Dataset(name, CLASSIFICATION, feats, onehot,
                   class_labels=tuple(classes))


def _check_seed(seed: int) -> None:
    """The seed rule, wherever a seed is drawn from or stored: a seed is
    a non-negative integer, a Python or numpy one. A bool, a float (2.0
    too) or a negative value is a PreconditionError, so a model never
    stores a seed that its file cannot read back."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise PreconditionError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator under ``seed``, the source of every
    random draw in the package; see :func:`_check_seed`."""
    _check_seed(seed)
    return np.random.default_rng(seed)


def sinc(x):
    """sin(x)/x with the removable singularity patched to 1 at x = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def gen_sinc(n_train: int, n_test: int, seed: int, noise_sigma: float = 0.0,
             test_distribution: str = "uniform"):
    """The sinc benchmark: grid training data, wider-range test data.

    Training inputs are a uniform grid on [-10, 10] inclusive; test
    inputs are random on [-30, 30], drawn uniformly by default or from
    a truncated standard normal scaled to the interval
    (``test_distribution="normal"``). Optional Gaussian noise (standard
    deviation ``noise_sigma``) is added to the training targets only;
    ``noise_sigma`` must be a finite number >= 0, so NaN is refused
    rather than read as no noise.
    """
    if n_train < 2:
        raise PreconditionError(f"need n_train >= 2, got {n_train}")
    if n_test < 1:
        raise PreconditionError(f"need n_test >= 1, got {n_test}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise PreconditionError(
            f"noise_sigma must be a finite number >= 0, got {noise_sigma}")
    rng = _rng(seed)
    xtr = np.linspace(-10.0, 10.0, n_train)
    ytr = sinc(xtr)
    if noise_sigma > 0.0:
        ytr = ytr + rng.normal(0.0, noise_sigma, n_train)
    if test_distribution == "uniform":
        xte = rng.uniform(-30.0, 30.0, n_test)
    elif test_distribution == "normal":
        # rejection sampling in batches: the accepted draws, in the
        # order drawn, are those a draw-until-accepted loop would keep
        accepted, need = [], n_test
        while need:
            z = rng.standard_normal(need + 16)  # ~0.27 % are rejected
            z = z[np.abs(z) <= 3.0][:need]
            accepted.append(z)
            need -= z.size
        xte = 10.0 * np.concatenate(accepted)
    else:
        raise PreconditionError(
            f"unknown test_distribution {test_distribution!r}")
    train = Dataset("sinc-train", REGRESSION, xtr[:, None], ytr[:, None])
    test = Dataset("sinc-test", REGRESSION, xte[:, None], sinc(xte)[:, None])
    return train, test


def split(data: Dataset, fraction: float, seed: int):
    """Random disjoint partition into (train, test), seed-deterministic.

    The training side takes ceil(fraction * n) samples, the test side
    the remainder; both must end up non-empty.
    """
    if not 0.0 < fraction < 1.0:
        raise PreconditionError(f"fraction must be in (0, 1), got {fraction}")
    n = data.n_samples
    n_train = math.ceil(fraction * n)
    if n_train >= n or n_train < 1:
        raise PreconditionError(
            f"split of {n} samples at {fraction} leaves an empty side")
    perm = _rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    train = replace(data, name=data.name + "/train",
                    inputs=data.inputs[tr], targets=data.targets[tr])
    test = replace(data, name=data.name + "/test",
                   inputs=data.inputs[te], targets=data.targets[te])
    return train, test


def rmse(pred, target) -> float:
    """Root mean squared deviation over all n*m entries.

    Finite inputs never warn. Where the direct formula overflows, the
    halved differences are scaled by their largest magnitude, giving the
    float64 RMSE, or inf when that is not representable; where it does
    not, its bits are kept."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {t.shape}")
    with np.errstate(over="ignore"):
        value = np.sqrt(np.mean((p - t) ** 2))
        if np.isinf(value) and np.isfinite(p).all() and np.isfinite(t).all():
            d = p / 2 - t / 2
            top = np.abs(d).max()
            value = top * np.sqrt(np.mean((d / top) ** 2)) * 2
    return float(value)


def classification_rate(pred, target) -> float:
    """Fraction of rows whose argmax matches (ties to the lowest index)."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.ndim != 2 or p.shape[1] < 2:
        raise ShapeError("need score rows over at least two classes")
    return float(np.mean(p.argmax(axis=1) == t.argmax(axis=1)))


# The one metric of each task, for training and testing alike: the name
# a report gives it, the function of (predictions, targets), and
# whether a higher value is better.
METRICS = {
    REGRESSION: ("rmse", rmse, False),
    CLASSIFICATION: ("accuracy", classification_rate, True),
}


def minmax_scale(data: Dataset, low: float = -1.0, high: float = 1.0) -> Dataset:
    """Rescale each attribute to [low, high]; constant attributes go to
    the midpoint. Targets are left untouched. Differences are taken of
    halves and the result doubled back, so a finite range wider than
    float64 (-1e308 to 1e308) does not overflow and no spread overflows
    the scale that the direct formula does not. Halving and doubling
    are exact unless a value is subnormal, so the result is the direct
    formula's to the bit wherever that formula is finite and no half or
    scaled half is subnormal."""
    if not low < high:
        raise PreconditionError("need low < high")
    x = data.inputs
    half_lo = x.min(axis=0) / 2.0
    half_spread = x.max(axis=0) / 2.0 - half_lo
    mid = np.full_like(x, (low + high) / 2.0)
    scale = ((high - low) / 2.0) / np.where(half_spread > 0.0, half_spread, 1.0)
    scaled = np.where(half_spread > 0.0,
                      low + ((x / 2.0 - half_lo) * scale) * 2.0, mid)
    return replace(data, name=data.name + "/scaled", inputs=scaled)
