"""The benchmark's workloads: inputs, one timed pass, and its checks.

A pass is the workload's protocol (``run_sinc``, or ``eelm bench``
through ``eelm.cli.main``; large-fit has none) followed by serving: one
``train_eelm`` and one ``train_elm`` on the workload's training set,
``save_model`` for each, and ``eelm predict`` on the held-out CSV.
Every call goes through eelm's public names, looked up at call time.
An operation is one fit plus its prediction.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
from checks import CheckFailed

# Pima Indians Diabetes attribute ranges (UCI), the decimals each is
# recorded with, and the share of rows where a zero codes "missing".
PIMA_COLUMNS = (
    ("pregnancies", 0, 17, 0, 0.0),
    ("glucose", 44, 199, 0, 0.007),
    ("blood_pressure", 24, 122, 0, 0.045),
    ("skin_thickness", 7, 99, 0, 0.30),
    ("insulin", 14, 846, 0, 0.49),
    ("bmi", 18.2, 67.1, 1, 0.015),
    ("pedigree", 0.078, 2.42, 3, 0.0),
    ("age", 21, 81, 0, 0.0),
)
PIMA_LABELS = ("tested_negative", "tested_positive")

# sizes[size] for each workload; "tiny" is for the smoke tests.
SIZES = {
    "sinc-protocol": {"full": dict(n_train=200, n_test=200, nodes=200,
                                   trials=50, instances=6),
                      "tiny": dict(n_train=20, n_test=20, nodes=20,
                                   trials=3, instances=2)},
    "tabular-trials": {"full": dict(rows=768, nodes=20, trials=50,
                                    instances=4),
                       "tiny": dict(rows=60, nodes=5, trials=3,
                                    instances=2)},
    "large-fit": {"full": dict(n=10_000, d=8, nodes=1_000),
                  "tiny": dict(n=200, d=8, nodes=30)},
}


class BenchmarkError(Exception):
    """The program could not run a workload at all (not a failed trial)."""


@dataclass
class Instance:
    """One set of inputs a pass runs on."""

    seed: int
    nodes: int
    train: object               # eelm.Dataset
    heldout_csv: Path
    heldout_x: np.ndarray
    heldout_truth: np.ndarray   # regression targets, or class indices
    protocol: dict = field(default_factory=dict)


@dataclass
class Served:
    algo: str
    model: object | None
    fit_s: float | None
    predict_s: list             # one wall time per eelm predict call
    pred_path: Path
    error: str | None
    predictions: np.ndarray | None = None
    model_path: Path | None = None


@dataclass
class PassResult:
    seconds: float
    instance: int
    served: list
    report: dict | None
    attempted: int
    failed: int
    traced: bool = False
    _answer: tuple | None = None

    def answer(self) -> tuple:
        """What the pass computed, without its timings: the per-trial
        metrics and errors of the report, and the served predictions."""
        if self._answer is None:
            report = ()
            if self.report is not None:
                report = tuple(
                    (algo, r["seed"], r["train_metric"], r["test_metric"],
                     r["error"])
                    for algo, section in sorted(
                        self.report["algorithms"].items())
                    for r in section["trials"])
            self._answer = (report, tuple((s.algo, s.error, s.predictions)
                                          for s in self.served))
        return self._answer

    def discard_outputs(self) -> None:
        """Keep the timings and the answer; drop models and reports."""
        self.answer()
        self.report = None
        for s in self.served:
            s.model = s.predictions = None


def eelm_errors(eelm) -> tuple:
    e = eelm.errors
    return (e.ShapeError, e.PreconditionError, e.NoDifferenceError,
            e.NumericalFailure, e.RankDeficientError,
            e.NumericOverflowError, e.FormatError)


def _write_csv(path: Path, header, columns) -> None:
    """Columns of already formatted cells, joined into one CSV."""
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _repr_cells(values) -> list:
    return [repr(float(v)) for v in values]


def pima_like(rng: np.random.Generator, rows: int):
    """Distinct Pima-like rows as decimal strings, and their labels.

    Integer and 1-3-decimal attributes in the UCI ranges; the label
    follows a logistic model of glucose, BMI, age, pregnancies and
    pedigree, drawn before some attributes are zeroed as "missing".
    Age and pedigree are never zero, so no row is all zeros.
    """
    lo = np.array([c[1] for c in PIMA_COLUMNS], dtype=np.float64)
    hi = np.array([c[2] for c in PIMA_COLUMNS], dtype=np.float64)
    decimals = [c[3] for c in PIMA_COLUMNS]
    missing = np.array([c[4] for c in PIMA_COLUMNS])
    scale = 10.0 ** np.array(decimals)

    def draw(n):
        raw = np.column_stack([
            rng.poisson(3.8, n), rng.normal(121, 31, n), rng.normal(72, 12, n),
            rng.normal(29, 10, n), rng.lognormal(4.8, 0.6, n),
            rng.normal(32.5, 7, n), rng.lognormal(np.log(0.4), 0.6, n),
            21 + rng.gamma(1.5, 8.0, n)])
        # integer counts of the last recorded decimal
        units = np.rint(np.clip(raw, lo, hi) * scale)
        v = units / scale
        logit = (0.035 * (v[:, 1] - 121) + 0.09 * (v[:, 5] - 32.5)
                 + 0.03 * (v[:, 7] - 33) + 0.1 * (v[:, 0] - 3.8)
                 + 0.9 * (v[:, 6] - 0.47) - 0.7)
        positive = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
        units[rng.random((n, len(PIMA_COLUMNS))) < missing] = 0.0
        return units.astype(np.int64), positive

    units, positive = draw(rows)
    # redraw repeated rows: the UCI set has none
    while True:
        _, first = np.unique(units, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(rows), first)
        if dup.size == 0:
            break
        units[dup], positive[dup] = draw(dup.size)
    cells = [[_decimal(u, dec) for u in units[:, j]]
             for j, dec in enumerate(decimals)]
    return cells, positive.astype(np.int64)


def _decimal(units: int, decimals: int) -> str:
    if decimals == 0:
        return str(units)
    whole, frac = divmod(units, 10 ** decimals)
    return f"{whole}.{frac:0{decimals}d}"


def smooth_target(x: np.ndarray) -> np.ndarray:
    return (np.sin(np.pi * x[:, 0]) * np.cos(x[:, 1]) + 0.5 * x[:, 2] ** 2
            - 0.3 * x[:, 3] * x[:, 4]
            + 0.2 * np.tanh(x[:, 5] + x[:, 6] - x[:, 7]))


# ---------------------------------------------------------------- setup

def setup_sinc(eelm, seed: int, workdir: Path, n_train, n_test, nodes,
               trials, instances):
    out = []
    for j in range(instances):
        inst_seed = seed * instances + j
        train, test = eelm.gen_sinc(n_train, n_test, inst_seed)
        x = test.inputs
        path = workdir / f"sinc-heldout-{j}.csv"
        _write_csv(path, ["x"], [_repr_cells(x[:, 0])])
        out.append(Instance(seed=inst_seed, nodes=nodes, train=train,
                            heldout_csv=path, heldout_x=x,
                            heldout_truth=np.sinc(x / np.pi),
                            protocol=dict(n_train=n_train, n_test=n_test,
                                          trials=trials)))
    return out


def setup_tabular(eelm, seed: int, workdir: Path, rows, nodes, trials,
                  instances):
    out = []
    for j in range(instances):
        inst_seed = seed * instances + j
        out.append(_tabular_instance(eelm, inst_seed, workdir / f"pima-{j}",
                                     rows, nodes, trials))
    return out


def _tabular_instance(eelm, seed: int, workdir: Path, rows, nodes, trials):
    workdir.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    cells, label = pima_like(rng, rows)
    names = [c[0] for c in PIMA_COLUMNS]
    csv_path = workdir / "pima-like.csv"
    _write_csv(csv_path, names + ["outcome"],
               cells + [[PIMA_LABELS[k] for k in label]])
    # parsed as eelm's CSV reader parses them
    x = np.array([[float(c) for c in col] for col in cells]).T
    # serving split: the benchmark's own, 75/25
    perm = rng.permutation(rows)
    n_train = -(-3 * rows // 4)
    tr, te = perm[:n_train], perm[n_train:]
    heldout = workdir / "pima-like-heldout.csv"
    _write_csv(heldout, names, [[col[i] for i in te] for col in cells])
    onehot = np.eye(len(PIMA_LABELS))[label[tr]]
    train = eelm.Dataset("pima-like/serve", eelm.CLASSIFICATION, x[tr],
                         onehot, class_labels=PIMA_LABELS)
    return Instance(seed=seed, nodes=nodes, train=train,
                    heldout_csv=heldout, heldout_x=x[te],
                    heldout_truth=label[te],
                    protocol=dict(csv=csv_path, x=x, label=label,
                                  trials=trials,
                                  report=workdir / "bench-report.json"))


def setup_large(eelm, seed: int, workdir: Path, n, d, nodes):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (2 * n, d))
    y = smooth_target(x)[:, None]
    heldout = workdir / "large-heldout.csv"
    _write_csv(heldout, [f"x{j}" for j in range(d)],
               [_repr_cells(x[n:, j]) for j in range(d)])
    train = eelm.Dataset("large/train", eelm.REGRESSION, x[:n], y[:n])
    return [Instance(seed=seed, nodes=nodes, train=train, heldout_csv=heldout,
                     heldout_x=x[n:], heldout_truth=y[n:])]


# ------------------------------------------------------------- protocols

def protocol_sinc(eelm, inst: Instance):
    p = inst.protocol
    config = eelm.ExperimentConfig(nodes=inst.nodes, trials=p["trials"],
                                   seed=inst.seed, n_train=p["n_train"],
                                   n_test=p["n_test"])
    return eelm.run_sinc(config)


def protocol_tabular(eelm, inst: Instance):
    p = inst.protocol
    argv = ["bench", "--csv", str(p["csv"]), "--target", "outcome",
            "--task", "cls", "--nodes", str(inst.nodes),
            "--trials", str(p["trials"]), "--split", "0.75",
            "--seed", str(inst.seed), "--out", str(p["report"])]
    code, err = _cli(eelm, argv)
    # 4: every trial failed, which the report records
    if code not in (0, 4):
        raise BenchmarkError(f"eelm bench exited {code}: {err.strip()}")
    return p["report"]  # read after the clock stops


def _cli(eelm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eelm.cli.main(argv)
    return code, err.getvalue()


# ---------------------------------------------------------------- passes

def serve(eelm, inst: Instance, workdir: Path) -> list:
    out = []
    for algo in ("eelm", "elm"):
        train = eelm.train_eelm if algo == "eelm" else eelm.train_elm
        pred_path = workdir / f"{algo}-pred.csv"
        t0 = time.perf_counter()
        try:
            model, _ = train(inst.train, inst.nodes, seed=inst.seed)
        except eelm_errors(eelm) as exc:
            out.append(Served(algo, None, None, [], pred_path,
                              f"{type(exc).__name__}: {exc}"))
            continue
        fit_s = time.perf_counter() - t0
        model_path = workdir / f"{algo}.slfn"
        eelm.save_model(model, model_path)
        code, err, predict_s = _predict(eelm, model_path, inst.heldout_csv,
                                        pred_path)
        out.append(Served(algo, model, fit_s, [predict_s], pred_path,
                          None if code == 0 else
                          f"eelm predict exited {code}: {err.strip()}",
                          model_path=model_path))
    return out


def _predict(eelm, model_path: Path, csv: Path, out: Path):
    """One timed ``eelm predict``: (exit code, stderr, seconds)."""
    t0 = time.perf_counter()
    code, err = _cli(eelm, ["predict", "--model", str(model_path),
                            "--csv", str(csv), "--out", str(out)])
    return code, err, time.perf_counter() - t0


def predict_again(eelm, inst: Instance, served: list, workdir: Path,
                  tag: str) -> list:
    """One more timed ``eelm predict`` on each served model, written to
    its own file. Returns (algo, path) of each; the caller compares
    them with the served predictions once the clock has stopped."""
    written = []
    for s in served:
        if s.error is not None:
            continue
        path = workdir / f"{s.algo}-pred-{tag}.csv"
        code, err, seconds = _predict(eelm, s.model_path, inst.heldout_csv,
                                      path)
        if code != 0:
            raise CheckFailed(f"serving {s.algo}: eelm predict, repeated, "
                              f"exited {code}: {err.strip()}")
        s.predict_s.append(seconds)
        written.append((s.algo, path))
    return written


@dataclass
class Workload:
    name: str
    setup: object
    protocol: object | None
    classification: bool

    def run_pass(self, eelm, inst: Instance, index: int, workdir: Path,
                 tracer=None, capture=None) -> PassResult:
        """One pass, timed from its first call into eelm to its last.

        ``tracer`` wraps the whole pass; ``capture`` wraps the protocol
        only, so its records hold the protocol's trials and nothing else.
        """
        with spans.wrapped(tracer.wrappers() if tracer else {}):
            t0 = time.perf_counter()
            report = None
            if self.protocol is not None:
                with spans.wrapped(capture.wrappers() if capture else {}):
                    report = self.protocol(eelm, inst)
            served = serve(eelm, inst, workdir)
            seconds = time.perf_counter() - t0
        if isinstance(report, Path):
            report = read_report(report)
        for s in served:
            if s.error is None:
                s.predictions = read_predictions(s.pred_path)
        attempted = len(served)
        failed = sum(s.error is not None for s in served)
        if report is not None:
            try:
                eelm.validate_report(report)
            except eelm.errors.FormatError as exc:
                raise CheckFailed(f"report: {exc}") from None
            for section in report["algorithms"].values():
                attempted += len(section["trials"])
                failed += section["failures"]
        return PassResult(seconds, index, served, report, attempted, failed)


WORKLOADS = {
    "sinc-protocol": Workload("sinc-protocol", setup_sinc, protocol_sinc,
                              classification=False),
    "tabular-trials": Workload("tabular-trials", setup_tabular,
                               protocol_tabular, classification=True),
    "large-fit": Workload("large-fit", setup_large, None,
                          classification=False),
}


# ---------------------------------------------------------------- checks

@dataclass
class Capture:
    """Calls of the fitting and predicting functions during a protocol."""

    fits: list = field(default_factory=list)       # (algo, data, model)
    predictions: dict = field(default_factory=dict)  # id(model) -> (x, out)
    sinc_sets: list = field(default_factory=list)   # (train, test)

    def wrappers(self) -> dict:
        def fit(algo):
            def make(func):
                def wrapper(data, *args, **kwargs):
                    try:
                        result = func(data, *args, **kwargs)
                    except Exception:
                        self.fits.append((algo, data, None))
                        raise
                    self.fits.append((algo, data, result[0]))
                    return result
                return wrapper
            return make

        def predict(func):
            def wrapper(model, inputs):
                out = func(model, inputs)
                self.predictions[id(model)] = (np.array(inputs), out)
                return out
            return wrapper

        def gen_sinc(func):
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                self.sinc_sets.append(result)
                return result
            return wrapper

        return {"models.train_elm": fit("elm"),
                "models.train_eelm": fit("eelm"),
                "models.predict": predict,
                "datasets.gen_sinc": gen_sinc}


def _in(where: str, fn, *args):
    try:
        return fn(*args)
    except CheckFailed as exc:
        raise CheckFailed(f"{where}: {exc}") from None


def check_fit(where: str, algo: str, model, inputs, targets) -> None:
    _in(where, checks.check_least_squares, model.node_weights, model.biases,
        model.output_weights, inputs, targets, algo == "eelm")


def check_protocol(workload: Workload, inst: Instance, report: dict,
                   capture: Capture) -> dict:
    """Check every fit and prediction of one protocol run against the
    report. Returns {algo: [test error of each successful trial]}."""
    if workload.name == "sinc-protocol":
        if len(capture.sinc_sets) != 1:
            raise CheckFailed(f"sinc data: generated "
                              f"{len(capture.sinc_sets)} times, expected once")
        train, test = capture.sinc_sets[0]
        grid = np.linspace(-10.0, 10.0, inst.protocol["n_train"])
        if not np.array_equal(train.inputs[:, 0], grid):
            raise CheckFailed("sinc data: training inputs are not the grid "
                              "on [-10, 10]")
        if not (np.abs(test.inputs) <= 30.0).all():
            raise CheckFailed("sinc data: a test input is outside [-30, 30]")
        _in("sinc data: training", checks.check_sinc_targets, train.inputs,
            train.targets)
        _in("sinc data: test", checks.check_sinc_targets, test.inputs,
            test.targets)
    else:
        rows = {row.tobytes(): k
                for row, k in zip(inst.protocol["x"], inst.protocol["label"])}
        # eelm numbers classes in the order they first appear in the CSV
        first_seen = list(dict.fromkeys(inst.protocol["label"].tolist()))

        def label_index(x, where):
            try:
                labels = [rows[r.tobytes()] for r in x]
            except KeyError:
                raise CheckFailed(f"{where}: a row is not in the "
                                  f"written CSV") from None
            return np.array([first_seen.index(k) for k in labels])

    errors = {}
    for algo, section in report["algorithms"].items():
        fits = [f for f in capture.fits if f[0] == algo]
        records = section["trials"]
        if len(fits) != len(records):
            raise CheckFailed(f"{algo}: {len(fits)} fits for "
                              f"{len(records)} trial records")
        errors[algo] = []
        for record, (_, data, model) in zip(records, fits):
            where = f"{algo} trial {record['trial']}"
            if record["error"] is not None:
                continue
            if model is None or id(model) not in capture.predictions:
                raise CheckFailed(f"{where}: report has a result but the "
                                  f"fit or its prediction did not run")
            x, pred = capture.predictions[id(model)]
            check_fit(where, algo, model, data.inputs, data.targets)
            if workload.name == "sinc-protocol":
                error = checks.rmse(pred, np.sinc(x / np.pi))
                stated = record["test_metric"]
            else:
                own = label_index(data.inputs, f"{where}: training rows")
                if not np.array_equal(np.argmax(data.targets, axis=1), own):
                    raise CheckFailed(f"{where}: training labels differ "
                                      f"from the written CSV")
                error = checks.error_rate(pred, label_index(
                    x, f"{where}: test rows"))
                stated = 1.0 - record["test_metric"]
            _in(where, checks.check_predictions, model.node_weights,
                model.biases, model.output_weights, x, pred)
            _in(where, checks.check_metric, "test metric", stated, error)
            errors[algo].append(error)
    return errors


def read_report(path: Path) -> dict:
    """Read a report eelm wrote and remove the file, so that a later
    pass cannot read it again."""
    try:
        report = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        raise BenchmarkError(f"eelm wrote no report to {path}") from None
    path.unlink()
    return report


def read_predictions(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_served(workload: Workload, inst: Instance, served: list) -> dict:
    """Check the serving fits and the predictions eelm predict wrote.
    Returns {algo: [test error]} for the successful ones."""
    errors = {}
    for s in served:
        if s.error is not None:
            continue
        where = f"serving {s.algo}"
        m, pred = s.model, s.predictions
        check_fit(where, s.algo, m, inst.train.inputs, inst.train.targets)
        _in(where, checks.check_predictions, m.node_weights, m.biases,
            m.output_weights, inst.heldout_x, pred)
        if workload.classification:
            error = checks.error_rate(pred, inst.heldout_truth)
        else:
            error = checks.rmse(pred, inst.heldout_truth)
        errors.setdefault(s.algo, []).append(error)
    return errors


def same_answer(a: tuple, b: tuple) -> bool:
    def close(u, v):
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            return (isinstance(u, np.ndarray) and isinstance(v, np.ndarray)
                    and u.shape == v.shape
                    and np.allclose(u, v, rtol=checks.METRIC_RTOL, atol=0.0))
        if isinstance(u, float) and isinstance(v, float):
            return abs(u - v) <= checks.METRIC_RTOL * max(abs(v), 1e-12)
        if isinstance(u, tuple) and isinstance(v, tuple):
            return len(u) == len(v) and all(map(close, u, v))
        return u == v
    return close(a, b)
