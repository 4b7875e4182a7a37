"""Benchmark harness: sinc comparison, dataset trials, node sweeps.

Each runner returns (and optionally writes) a JSON-ready report dict
with a versioned schema: per-trial records, aggregates recomputable
from them, and an environment note. Timing uses a monotonic clock and
never wraps file IO; the selection phase of the constructive algorithm
is reported separately from total training time so its cost scaling can
be regressed against ``n_hidden * n_features``. The sinc and sweep
runners can also write plot-ready CSV through ``datasets._write_csv``;
the dataset runner has no plot and refuses a ``plot_path``. Every file
goes through ``datasets._write_text``. ``_entries`` is the one walk over
a report's algorithm sections, at ``algorithms`` or ``sweep[i]``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .datasets import METRICS, REGRESSION, CsvSchema, Dataset, _write_csv, \
    _write_text, gen_sinc, load_csv, split
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
        # ELM draws its hidden layer at random: it has no anchors
        if "eelm" not in self.algorithms and self.anchor_strategy != "random":
            raise PreconditionError(
                f"anchor strategy {self.anchor_strategy!r} needs the eelm "
                f"algorithm, which is not run")
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
        # refused now, not after every trial has run
        for path in filter(None, (self.out_path, self.plot_path)):
            if os.path.isdir(path):
                raise PreconditionError(
                    f"cannot write {path}: it is a directory")
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise PreconditionError(
                    f"cannot write {path}: its directory does not exist")
            if not os.access(folder, os.W_OK | os.X_OK):
                raise PreconditionError(
                    f"cannot write {path}: its directory is not writable")


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


def _base_report(experiment: str, config: ExperimentConfig,
                 task: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "experiment": experiment,
        "environment": _environment(),
        "config": dataclasses.asdict(config),
        "metric": METRICS[task][0],
    }


def _finish(report: dict, config: ExperimentConfig) -> dict:
    validate_report(report)
    if config.out_path:
        _write_text(config.out_path, json.dumps(report, indent=2) + "\n")
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
    return [({algo: {"trials": recs,
                     "aggregates": _aggregate(recs, metric_name),
                     "failures": sum(r["error"] is not None for r in recs)}
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
    _refuse_unused_source(False, _changed(config), "a sinc experiment")
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
    # one predict per side: a call over both sides can differ from
    # the test metric's own predictions in the last bits
    header = ["x", "target", *(f"{algo}_pred" for algo in ALGORITHMS)]
    rows = []
    for ds in (train_ds, test_ds):
        columns = [ds.inputs, ds.targets]
        for algo in ALGORITHMS:
            columns.append(predict(models[algo], ds.inputs) if algo in models
                           else np.full((ds.n_samples, 1), np.nan))
        rows += np.hstack(columns).tolist()
    _write_csv(path, header, (map(repr, row) for row in rows))


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
    if config.plot_path:
        raise PreconditionError("dataset experiment writes no plot data")
    _refuse_unused_source(True, _changed(config), "a dataset experiment")
    data, source = _csv_source(config)
    report = _base_report("dataset", config, data.task)
    [(report["algorithms"], _)] = _run_trials(config, (config.nodes,), source)
    report["dataset"] = {"name": data.name, "n_samples": data.n_samples,
                         "n_features": data.n_features, "task": data.task}
    return _finish(report, config)


_SINC_FIELDS = ("n_train", "n_test", "noise_sigma", "test_distribution")
_CSV_FIELDS = ("csv_path", "split_fraction", "csv_schema")


def _changed(config: ExperimentConfig) -> dict:
    """The source settings of ``config`` off their defaults, by field."""
    return {field: [field] for field in _SINC_FIELDS + _CSV_FIELDS
            if getattr(config, field) != getattr(ExperimentConfig, field)}


def _refuse_unused_source(csv: bool, changed: dict,
                          runner: str | None = None) -> None:
    """A runner reads the CSV when ``csv`` and sinc otherwise; its report
    would record, unused, the other source's settings. ``changed`` maps
    each setting off its default to the names it was set by. ``runner``
    names the experiment; a sweep by default, which reads either."""
    names = [name for field in (_SINC_FIELDS if csv else _CSV_FIELDS)
             for name in changed.get(field, ())]
    if names:
        runner = runner or f"a sweep over {'a CSV' if csv else 'sinc'}"
        raise PreconditionError(f"{runner} does not use {', '.join(names)}")


def run_node_sweep(config: ExperimentConfig) -> dict:
    """Re-run the dataset (or sinc) comparison for each node count."""
    config.validate()
    if not config.node_sweep:
        raise PreconditionError("sweep experiment needs a node_sweep list")
    _refuse_unused_source(config.csv_path is not None, _changed(config))
    if config.csv_path is not None:
        data, source = _csv_source(config)
        task = data.task
    else:
        task, source = REGRESSION, functools.partial(_sinc_data, config)
    report = _base_report("sweep", config, task)
    results = _run_trials(config, config.node_sweep, source)
    report["sweep"] = [{"nodes": n, "algorithms": sections}
                       for n, (sections, _) in zip(config.node_sweep, results)]
    if config.plot_path:
        _write_sweep_plot(config.plot_path, report, config)
    return _finish(report, config)


def _write_sweep_plot(path, report: dict, config: ExperimentConfig) -> None:
    keys = ("train_metric", "test_metric", "train_seconds", "test_seconds",
            "select_seconds")
    rows = []
    for algo in config.algorithms:
        for entry in report["sweep"]:
            agg = entry["algorithms"][algo]["aggregates"]
            rows.append([algo, str(entry["nodes"]), *(
                "" if agg[key] is None else repr(agg[key]["mean"])
                for key in keys)])
    _write_csv(path, ["algorithm", "nodes", *keys], rows)


def _entries(report: dict) -> list:
    """(place, node count, algorithm sections) of each comparison in a
    report; a missing part reads as None, for ``validate_report``."""
    if report["experiment"] == "sweep":
        return [(f"sweep[{i}].algorithms", entry["nodes"],
                 entry.get("algorithms"))
                for i, entry in enumerate(report["sweep"])]
    return [("algorithms", report["config"].get("nodes"),
             report.get("algorithms"))]


def _check(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise FormatError(f"invalid report at {where}: {message}")


def _validate_algorithms(algos, where: str, metric_name: str) -> None:
    """The algorithm sections at ``where``: each one's failure count and
    aggregates must be recomputable from its trial records."""
    _check(isinstance(algos, dict) and algos, where, "not a non-empty object")
    for algo, section in algos.items():
        at = f"{where}.{algo}"
        _check(algo in ALGORITHMS, at, f"not one of {ALGORITHMS}")
        _check(isinstance(section, dict)
               and set(section) == {"trials", "aggregates", "failures"}, at,
               "not an object of trials, aggregates and failures")
        trials = section["trials"]
        _check(isinstance(trials, list), f"{at}.trials", "not a list")
        for i, record in enumerate(trials):
            record_at = f"{at}.trials[{i}]"
            _check(isinstance(record, dict)
                   and set(record) == set(_RECORD_KEYS), record_at,
                   f"not an object of {', '.join(_RECORD_KEYS)}")
            if record["error"] is None:
                _check(all(isinstance(record[k], (int, float))
                           for k in _AGG_KEYS), record_at,
                       "successful trial has non-numeric fields")
                _check(record["train_seconds"] >= 0.0, record_at,
                       "negative train time")
        _check(type(section["failures"]) is int
               and section["failures"] == sum(r["error"] is not None
                                              for r in trials),
               f"{at}.failures", "not the number of failed trials")
        aggregates = section["aggregates"]
        _check(isinstance(aggregates, dict)
               and set(aggregates) == set(_AGG_KEYS), f"{at}.aggregates",
               f"not an object of {', '.join(_AGG_KEYS)}")
        for key, ref in _aggregate(trials, metric_name).items():
            agg, agg_at = aggregates[key], f"{at}.aggregates.{key}"
            if ref is None:
                _check(agg is None, agg_at, "not null, but no trial succeeded")
                continue
            _check(isinstance(agg, dict) and set(agg) == set(ref), agg_at,
                   f"not an object of {', '.join(ref)}")
            for stat, value in ref.items():
                got = agg[stat]
                _check(isinstance(got, (int, float))
                       and abs(got - value) <= 1e-12 * max(1.0, abs(value)),
                       f"{agg_at}.{stat}",
                       "not recomputable from the trial records")


def validate_report(report: dict) -> None:
    """Check a report against the bundled schema; FormatError naming the
    place in the report (``sweep[0].algorithms.elm.failures``) if
    invalid."""
    _check(isinstance(report, dict), "top level", "not an object")
    _check(report.get("schema") == REPORT_SCHEMA, "schema",
           f"{report.get('schema')!r} != {REPORT_SCHEMA!r}")
    _check(report.get("experiment") in ("sinc", "dataset", "sweep"),
           "experiment", f"unknown experiment {report.get('experiment')!r}")
    env = report.get("environment")
    _check(isinstance(env, dict) and {"host", "timestamp"} <= set(env),
           "environment", "host or timestamp missing")
    _check(isinstance(report.get("config"), dict), "config", "missing")
    metric_name = report.get("metric")
    _check(metric_name in _HIGHER_IS_BETTER, "metric",
           f"unknown metric {metric_name!r}")
    if report["experiment"] == "sweep":
        sweep = report.get("sweep")
        _check(isinstance(sweep, list) and sweep, "sweep",
               "not a non-empty list")
        for i, entry in enumerate(sweep):
            _check(isinstance(entry, dict), f"sweep[{i}]", "not an object")
            _check(isinstance(entry.get("nodes"), int) and entry["nodes"] >= 1,
                   f"sweep[{i}].nodes", "not a node count")
    for where, _, algos in _entries(report):
        _validate_algorithms(algos, where, metric_name)


def report_all_failed(report: dict) -> bool:
    """True when every trial of every algorithm (at every node count)
    ended in an error its record holds."""
    return all(section["failures"] == len(section["trials"])
               for _, _, algos in _entries(report)
               for section in algos.values())
