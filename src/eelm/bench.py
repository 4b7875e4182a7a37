"""Benchmark harness: sinc comparison, dataset trials, node sweeps.

Each runner returns (and optionally writes) a JSON-ready report dict
with a versioned schema: per-trial records, aggregates recomputable
from them, and an environment note. Timing uses a monotonic clock and
never wraps file IO; the selection phase of the constructive algorithm
is reported separately from total training time so its cost scaling can
be regressed against ``n_hidden * n_features``.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .datasets import METRICS, REGRESSION, CsvSchema, Dataset, gen_sinc, \
    load_csv, split
from .errors import (FormatError, NumericalFailure, NumericOverflowError,
                     PreconditionError, RankDeficientError)
from .models import (ALGORITHMS, ANCHOR_STRATEGIES, predict, train_eelm,
                     train_elm)

__all__ = ["REPORT_SCHEMA", "ExperimentConfig", "run_sinc", "run_dataset",
           "run_node_sweep", "validate_report", "report_all_failed"]

REPORT_SCHEMA = "slfn-bench-report/1"

# whether a higher value is better, by the metric name a report gives
_HIGHER_IS_BETTER = {name: higher for name, _, higher in METRICS.values()}

# failures of a single trial are recorded, not fatal to the run
_TRIAL_ERRORS = (NumericOverflowError, RankDeficientError, NumericalFailure,
                 PreconditionError)

_RECORD_KEYS = ("trial", "seed", "train_seconds", "select_seconds",
                "test_seconds", "train_metric", "test_metric", "error")

_AGG_KEYS = ("train_metric", "test_metric", "train_seconds",
             "select_seconds", "test_seconds")


@dataclass
class ExperimentConfig:
    """Knobs shared by the three experiment runners."""

    algorithms: tuple[str, ...] = ALGORITHMS
    nodes: int | None = None
    node_sweep: tuple[int, ...] | None = None
    trials: int = 1
    seed: int = 0
    split_fraction: float = 0.75
    anchor_strategy: str = "random"
    # sinc source
    n_train: int = 200
    n_test: int = 200
    noise_sigma: float = 0.0
    test_distribution: str = "uniform"
    # csv source
    csv_path: str | None = None
    csv_schema: CsvSchema | None = None
    # outputs
    out_path: str | None = None
    plot_path: str | None = None

    def validate(self) -> None:
        if self.trials < 1:
            raise PreconditionError(f"trials must be >= 1, got {self.trials}")
        if not self.algorithms:
            raise PreconditionError("at least one algorithm is required")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise PreconditionError(f"unknown algorithm {algo!r}")
        if self.anchor_strategy not in ANCHOR_STRATEGIES:
            raise PreconditionError(
                f"unknown anchor strategy {self.anchor_strategy!r}; expected "
                f"one of {ANCHOR_STRATEGIES}")
        if self.nodes is not None and self.nodes < 1:
            raise PreconditionError(f"nodes must be >= 1, got {self.nodes}")
        if self.node_sweep is not None:
            if not self.node_sweep:
                raise PreconditionError("node sweep list is empty")
            if any(n < 1 for n in self.node_sweep):
                raise PreconditionError("node counts must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise PreconditionError(
                f"split fraction must be in (0, 1), got {self.split_fraction}")


def _environment() -> dict:
    return {
        "host": platform.node(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _run_trial(algo: str, train_ds: Dataset, test_ds: Dataset, nodes: int,
               trial: int, seed: int, config: ExperimentConfig, metric_fn):
    """One train+test run; numeric failures end up in the record."""
    record = dict.fromkeys(_RECORD_KEYS)
    record.update(trial=trial, seed=seed, error=None)
    model = None
    try:
        if algo == "elm":
            model, rep = train_elm(train_ds, nodes, seed=seed)
        else:
            model, rep = train_eelm(train_ds, nodes,
                                    anchor_strategy=config.anchor_strategy,
                                    seed=seed)
        t0 = time.perf_counter()
        scores = predict(model, test_ds.inputs)
        test_seconds = time.perf_counter() - t0
        record.update(train_seconds=rep.train_seconds,
                      select_seconds=rep.select_seconds,
                      test_seconds=test_seconds,
                      train_metric=rep.train_metric,
                      test_metric=metric_fn(scores, test_ds.targets))
    except _TRIAL_ERRORS as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        model = None
    return record, model


def _aggregate(records: list[dict], metric_name: str) -> dict:
    good = [r for r in records if r["error"] is None]
    out: dict = {}
    for key in _AGG_KEYS:
        values = np.array([r[key] for r in good], dtype=np.float64)
        if values.size == 0:
            out[key] = None
            continue
        agg = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "min": float(values.min()),
            "max": float(values.max()),
        }
        if key.endswith("_metric"):
            agg["best"] = agg["max"] if _HIGHER_IS_BETTER[metric_name] \
                else agg["min"]
        out[key] = agg
    return out


def _algo_section(records: list[dict], metric_name: str) -> dict:
    return {
        "trials": records,
        "aggregates": _aggregate(records, metric_name),
        "failures": sum(1 for r in records if r["error"] is not None),
    }


def _config_dict(config: ExperimentConfig) -> dict:
    raw = dataclasses.asdict(config)
    raw["algorithms"] = list(config.algorithms)
    if config.node_sweep is not None:
        raw["node_sweep"] = list(config.node_sweep)
    return raw


def _base_report(experiment: str, config: ExperimentConfig,
                 task: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "experiment": experiment,
        "environment": _environment(),
        "config": _config_dict(config),
        "metric": METRICS[task][0],
        "algorithms": {},
    }


def _finish(report: dict, config: ExperimentConfig) -> dict:
    validate_report(report)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def _run_trials(config: ExperimentConfig, node_counts, source,
                once=frozenset()):
    """Every trial of every configured algorithm at each node count.

    ``source(trial_seed)`` gives the (train, test) pair of a trial,
    drawn once and used for every node count. Algorithms in ``once``
    are deterministic given the data and the anchor seed, so they run
    on the first trial only. A node count above the training side is a
    configuration error, not a failure of each trial, so every count is
    checked before the first fit. Returns per node count each
    algorithm's section and first fitted model.
    """
    # per node count: each algorithm's records, and its first model
    results = [({algo: [] for algo in config.algorithms}, {})
               for _ in node_counts]
    for i in range(config.trials):
        trial_seed = config.seed + i
        train_ds, test_ds = source(trial_seed)
        if i == 0:
            largest = max(node_counts)
            if largest > train_ds.n_samples:
                raise PreconditionError(
                    f"nodes={largest} exceeds the {train_ds.n_samples} "
                    f"training samples")
            metric_name, metric_fn, _ = METRICS[train_ds.task]
        for nodes, (by_algo, fitted) in zip(node_counts, results):
            for algo in config.algorithms:
                if i > 0 and algo in once:
                    continue
                record, model = _run_trial(algo, train_ds, test_ds, nodes, i,
                                           trial_seed, config, metric_fn)
                by_algo[algo].append(record)
                if model is not None:
                    fitted.setdefault(algo, model)
    return [({algo: _algo_section(recs, metric_name)
              for algo, recs in by_algo.items()}, fitted)
            for by_algo, fitted in results]


def _sinc_data(config: ExperimentConfig, seed: int):
    return gen_sinc(config.n_train, config.n_test, seed,
                    noise_sigma=config.noise_sigma,
                    test_distribution=config.test_distribution)


def run_sinc(config: ExperimentConfig) -> dict:
    """The sinc comparison: many seeded random-layer trials against one
    deterministic constructive run, plus an xy plot-data file."""
    config.validate()
    if config.nodes is None:
        raise PreconditionError("sinc experiment needs a node count")
    # one data set for every trial: only the random layer varies
    train_ds, test_ds = _sinc_data(config, config.seed)
    report = _base_report("sinc", config, REGRESSION)
    [(report["algorithms"], models)] = _run_trials(
        config, (config.nodes,), lambda seed: (train_ds, test_ds),
        once={"eelm"})
    if config.plot_path:
        _write_sinc_plot(config.plot_path, train_ds, test_ds, models)
    return _finish(report, config)


def _write_sinc_plot(path, train_ds: Dataset, test_ds: Dataset,
                     models: dict) -> None:
    xs = np.concatenate([train_ds.inputs[:, 0], test_ds.inputs[:, 0]])
    ys = np.concatenate([train_ds.targets[:, 0], test_ds.targets[:, 0]])
    columns = {"x": xs, "target": ys}
    for algo in ALGORITHMS:
        if algo in models:
            pred = np.concatenate([
                predict(models[algo], train_ds.inputs)[:, 0],
                predict(models[algo], test_ds.inputs)[:, 0],
            ])
        else:
            pred = np.full(xs.size, np.nan)
        columns[f"{algo}_pred"] = pred
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        for i in range(xs.size):
            writer.writerow([repr(float(col[i])) for col in columns.values()])


def _csv_source(config: ExperimentConfig):
    """The configured CSV dataset and the trial source splitting it."""
    if config.csv_path is None or config.csv_schema is None:
        raise PreconditionError("experiment needs csv_path and csv_schema")
    data = load_csv(config.csv_path, config.csv_schema)
    return data, lambda seed: split(data, config.split_fraction, seed)


def run_dataset(config: ExperimentConfig) -> dict:
    """Repeated random-split trials of both algorithms on one dataset."""
    config.validate()
    if config.nodes is None:
        raise PreconditionError("dataset experiment needs a node count")
    data, source = _csv_source(config)
    report = _base_report("dataset", config, data.task)
    report["dataset"] = {"name": data.name, "n_samples": data.n_samples,
                         "n_features": data.n_features, "task": data.task}
    [(report["algorithms"], _)] = _run_trials(config, (config.nodes,), source)
    return _finish(report, config)


_SINC_FIELDS = ("n_train", "n_test", "noise_sigma", "test_distribution")
_CSV_FIELDS = ("split_fraction", "csv_schema")


def _refuse_unused_source(csv_sweep: bool, changed: dict) -> None:
    """A sweep reads the CSV when ``csv_sweep`` and sinc otherwise; the
    report would record, unused, the other source's settings. ``changed``
    maps each setting off its default to the names it was set by."""
    names = [name for field in (_SINC_FIELDS if csv_sweep else _CSV_FIELDS)
             for name in changed.get(field, ())]
    if names:
        source = "a CSV" if csv_sweep else "sinc"
        raise PreconditionError(
            f"a sweep over {source} does not use {', '.join(names)}")


def run_node_sweep(config: ExperimentConfig) -> dict:
    """Re-run the dataset (or sinc) comparison for each node count."""
    config.validate()
    if not config.node_sweep:
        raise PreconditionError("sweep experiment needs a node_sweep list")
    _refuse_unused_source(config.csv_path is not None, {
        field: [field] for field in _SINC_FIELDS + _CSV_FIELDS
        if getattr(config, field) != getattr(ExperimentConfig, field)})
    if config.csv_path is not None:
        data, source = _csv_source(config)
        task = data.task
    else:
        task, source = REGRESSION, functools.partial(_sinc_data, config)
    report = _base_report("sweep", config, task)
    del report["algorithms"]
    results = _run_trials(config, config.node_sweep, source)
    report["sweep"] = [{"nodes": n, "algorithms": sections}
                       for n, (sections, _) in zip(config.node_sweep, results)]
    if config.plot_path:
        _write_sweep_plot(config.plot_path, report, config)
    return _finish(report, config)


def _write_sweep_plot(path, report: dict, config: ExperimentConfig) -> None:
    header = ["algorithm", "nodes", "train_metric", "test_metric",
              "train_seconds", "test_seconds", "select_seconds"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for algo in config.algorithms:
            for entry in report["sweep"]:
                agg = entry["algorithms"][algo]["aggregates"]

                def mean_of(key):
                    return "" if agg[key] is None else repr(agg[key]["mean"])

                writer.writerow([algo, entry["nodes"],
                                 mean_of("train_metric"),
                                 mean_of("test_metric"),
                                 mean_of("train_seconds"),
                                 mean_of("test_seconds"),
                                 mean_of("select_seconds")])


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(f"invalid report: {message}")


def _validate_section(section: dict, metric_name: str) -> None:
    _check(isinstance(section, dict), "algorithm section is not an object")
    _check(set(section) == {"trials", "aggregates", "failures"},
           f"algorithm section keys {sorted(section)}")
    for record in section["trials"]:
        _check(set(record) == set(_RECORD_KEYS),
               f"trial record keys {sorted(record)}")
        if record["error"] is None:
            _check(all(isinstance(record[k], (int, float))
                       for k in _AGG_KEYS),
                   "successful trial has non-numeric fields")
            _check(record["train_seconds"] >= 0.0, "negative train time")
    _check(section["failures"] == sum(1 for r in section["trials"]
                                      if r["error"] is not None),
           "failure count does not match records")
    recomputed = _aggregate(section["trials"], metric_name)
    for key, agg in section["aggregates"].items():
        ref = recomputed[key]
        if agg is None or ref is None:
            _check(agg is None and ref is None, f"{key} aggregate mismatch")
            continue
        for stat, value in ref.items():
            _check(abs(agg[stat] - value) <= 1e-12 * max(1.0, abs(value)),
                   f"{key}.{stat} not recomputable from trial records")


def validate_report(report: dict) -> None:
    """Check a report against the bundled schema; FormatError if invalid."""
    _check(isinstance(report, dict), "not an object")
    _check(report.get("schema") == REPORT_SCHEMA,
           f"schema tag {report.get('schema')!r} != {REPORT_SCHEMA!r}")
    _check(report.get("experiment") in ("sinc", "dataset", "sweep"),
           f"unknown experiment {report.get('experiment')!r}")
    env = report.get("environment")
    _check(isinstance(env, dict) and {"host", "timestamp"} <= set(env),
           "environment note incomplete")
    _check(isinstance(report.get("config"), dict), "config missing")
    metric_name = report.get("metric")
    _check(metric_name in _HIGHER_IS_BETTER,
           f"unknown metric {metric_name!r}")
    if report["experiment"] == "sweep":
        sweep = report.get("sweep")
        _check(isinstance(sweep, list) and sweep, "sweep section missing")
        for entry in sweep:
            _check(isinstance(entry.get("nodes"), int) and entry["nodes"] >= 1,
                   "sweep entry without node count")
            for section in entry["algorithms"].values():
                _validate_section(section, metric_name)
    else:
        algos = report.get("algorithms")
        _check(isinstance(algos, dict) and algos, "algorithms section missing")
        for section in algos.values():
            _validate_section(section, metric_name)


def report_all_failed(report: dict) -> bool:
    """True when every trial of every algorithm (at every node count)
    ended in a numeric failure."""
    sections = []
    if report["experiment"] == "sweep":
        for entry in report["sweep"]:
            sections.extend(entry["algorithms"].values())
    else:
        sections.extend(report["algorithms"].values())
    return all(section["failures"] == len(section["trials"])
               for section in sections)
