"""Benchmark runners and report schema."""

import copy
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from eelm import bench
from eelm.bench import (ExperimentConfig, report_all_failed, run_dataset,
                        run_node_sweep, run_sinc, validate_report)
from eelm.datasets import CLASSIFICATION, CsvSchema, gen_sinc, split
from eelm.errors import FormatError, PreconditionError
from eelm.models import predict, train_eelm, train_elm


def write_toy_csv(path, n_per_class=20, seed=0):
    """Two classes separated along the second attribute; the
    nearest-centroid rule classifies this perfectly."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,label\n")
        for mean, label in ((-3.0, "a"), (3.0, "b")):
            for _ in range(n_per_class):
                x1 = rng.normal(0.0, 1.0)
                x2 = rng.normal(mean, 0.6)
                fh.write(f"{x1!r},{x2!r},{label}\n")
    return path


def write_overflow_csv(path):
    """Ten rows whose relative attribute gaps of 1e-40 overflow the
    embedding exponents of the constructive algorithm (at 3 nodes, on
    every 0.8 split); the random-layer algorithm is unaffected."""
    rows = ["x1,x2,x3,x4,x5,x6,x7,x8,y"]
    values = [-1.0] + [k * 1e-40 for k in range(1, 10)]
    for i, v in enumerate(values):
        rows.append(",".join([repr(v)] * 8 + [str(i)]))
    path.write_text("\n".join(rows) + "\n")
    return path


def write_sinc_plot_reference(path, config):
    """The sinc plot file of ``config`` as ``csv.writer`` writes it,
    from each algorithm's first-trial model, with one predict call per
    side; returns each model's prediction column."""
    train_ds, test_ds = gen_sinc(config.n_train, config.n_test, config.seed,
                                 noise_sigma=config.noise_sigma,
                                 test_distribution=config.test_distribution)
    models = {}
    if "elm" in config.algorithms:
        models["elm"], _ = train_elm(train_ds, config.nodes, seed=config.seed)
    if "eelm" in config.algorithms:
        models["eelm"], _ = train_eelm(
            train_ds, config.nodes, anchor_strategy=config.anchor_strategy,
            seed=config.seed)
    columns = {algo: np.concatenate([predict(models[algo], ds.inputs)[:, 0]
                                     for ds in (train_ds, test_ds)])
               for algo in models}
    n = config.n_train + config.n_test
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "target", "elm_pred", "eelm_pred"])
        xs = np.concatenate([train_ds.inputs[:, 0], test_ds.inputs[:, 0]])
        ys = np.concatenate([train_ds.targets[:, 0], test_ds.targets[:, 0]])
        preds = [columns.get(algo, np.full(n, np.nan))
                 for algo in ("elm", "eelm")]
        for row in zip(xs, ys, *preds):
            writer.writerow([repr(float(v)) for v in row])
    return columns


def assert_sinc_plot(plot, reference, columns):
    """``plot`` holds ``reference``'s bytes, and its prediction columns
    are ``columns``."""
    assert plot.read_bytes() == reference.read_bytes()
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))
    assert plot.read_bytes().count(b"\r\n") == len(rows)
    written = np.array(rows[1:], dtype=np.float64)
    for algo, column in columns.items():
        k = rows[0].index(f"{algo}_pred")
        assert np.array_equal(written[:, k], column)


def centroid_accuracy(train, test):
    centers = np.stack([
        train.inputs[train.targets[:, k] == 1.0].mean(axis=0)
        for k in range(train.n_outputs)])
    dist = np.linalg.norm(test.inputs[:, None, :] - centers[None, :, :],
                          axis=2)
    return float(np.mean(dist.argmin(axis=1) == test.targets.argmax(axis=1)))


def test_run_sinc_small(tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    config = ExperimentConfig(nodes=40, trials=2, seed=0, n_train=40,
                              n_test=30, out_path=str(out),
                              plot_path=str(plot))
    report = run_sinc(config)
    validate_report(report)
    assert report["experiment"] == "sinc"
    assert len(report["algorithms"]["elm"]["trials"]) == 2
    assert len(report["algorithms"]["eelm"]["trials"]) == 1
    # emission contract: one plot row per train and test point
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "target", "elm_pred", "eelm_pred"]
    assert len(rows) - 1 == 40 + 30
    reference = tmp_path / "reference.csv"
    columns = write_sinc_plot_reference(reference, config)
    assert list(columns) == ["elm", "eelm"]
    assert_sinc_plot(plot, reference, columns)
    assert json.loads(out.read_text())["schema"] == report["schema"]


def test_run_sinc_deterministic_modulo_clocks():
    config = ExperimentConfig(nodes=30, trials=1, seed=5, n_train=30,
                              n_test=20)
    r1 = run_sinc(config)
    r2 = run_sinc(config)
    for algo in ("elm", "eelm"):
        t1 = r1["algorithms"][algo]["trials"]
        t2 = r2["algorithms"][algo]["trials"]
        for a, b in zip(t1, t2):
            assert a["train_metric"] == b["train_metric"]
            assert a["test_metric"] == b["test_metric"]
            assert a["seed"] == b["seed"]


def test_run_dataset_toy_classification(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    schema = CsvSchema(target="label", task=CLASSIFICATION)
    config = ExperimentConfig(nodes=10, trials=3, seed=100,
                              csv_path=str(path), csv_schema=schema)
    report = run_dataset(config)
    validate_report(report)
    assert report["metric"] == "accuracy"
    assert report["dataset"]["n_samples"] == 40

    from eelm.datasets import load_csv
    data = load_csv(path, schema)
    for algo in ("elm", "eelm"):
        section = report["algorithms"][algo]
        assert len(section["trials"]) == 3
        assert section["failures"] == 0
        # sanity oracle: the centroid rule nails each split, the trained
        # networks must reach at least 0.9
        for record in section["trials"]:
            tr, te = split(data, 0.75, record["seed"])
            assert centroid_accuracy(tr, te) >= 0.9
            assert record["test_metric"] >= 0.9
    # three distinct seeded splits
    seeds = [r["seed"] for r in report["algorithms"]["elm"]["trials"]]
    assert len(set(seeds)) == 3
    # aggregate layout mirrors the comparison tables: metric and time
    # summaries for both phases
    agg = report["algorithms"]["eelm"]["aggregates"]
    for key in ("train_metric", "test_metric", "train_seconds",
                "test_seconds", "select_seconds"):
        assert {"mean", "std", "min", "max"} <= set(agg[key])
    assert agg["test_metric"]["best"] == agg["test_metric"]["max"]


def test_run_dataset_rejects_oversized_node_count(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    config = ExperimentConfig(nodes=31, trials=1, seed=0,
                              csv_path=str(path),
                              csv_schema=CsvSchema(target="label",
                                                   task=CLASSIFICATION))
    with pytest.raises(PreconditionError):
        run_dataset(config)


def test_run_node_sweep_plot_rows(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    plot = tmp_path / "sweep.csv"
    config = ExperimentConfig(node_sweep=(4, 8, 12), trials=2, seed=3,
                              csv_path=str(path),
                              csv_schema=CsvSchema(target="label",
                                                   task=CLASSIFICATION),
                              plot_path=str(plot))
    report = run_node_sweep(config)
    validate_report(report)
    assert [entry["nodes"] for entry in report["sweep"]] == [4, 8, 12]
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["algorithm", "nodes"]
    for algo in ("elm", "eelm"):
        mine = [r for r in body if r[0] == algo]
        assert [int(r[1]) for r in mine] == [4, 8, 12]


def test_sweep_plot_bytes_match_csv_writer(tmp_path):
    path = write_overflow_csv(tmp_path / "overflow.csv")
    plot = tmp_path / "sweep.csv"
    config = ExperimentConfig(node_sweep=(3, 7), trials=2, seed=0,
                              split_fraction=0.8, csv_path=str(path),
                              csv_schema=CsvSchema(target="y"),
                              plot_path=str(plot))
    report = run_node_sweep(config)
    keys = ("train_metric", "test_metric", "train_seconds", "test_seconds",
            "select_seconds")
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "nodes", *keys])
        for algo in ("elm", "eelm"):
            for entry in report["sweep"]:
                agg = entry["algorithms"][algo]["aggregates"]
                writer.writerow([algo, entry["nodes"], *(
                    "" if agg[key] is None else repr(agg[key]["mean"])
                    for key in keys)])
    assert plot.read_bytes() == reference.read_bytes()
    assert plot.read_bytes().count(b"\r\n") == 1 + 2 * 2
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # every EELM trial overflowed: its means are empty cells
    assert [row[2:] for row in rows if row[0] == "eelm"] == [[""] * 5] * 2
    assert all("" not in row for row in rows if row[0] == "elm")


def test_run_node_sweep_on_sinc():
    config = ExperimentConfig(algorithms=("eelm",), node_sweep=(10, 20),
                              trials=1, seed=0, n_train=30, n_test=10)
    report = run_node_sweep(config)
    validate_report(report)
    assert report["metric"] == "rmse"
    for entry in report["sweep"]:
        section = entry["algorithms"]["eelm"]
        assert section["failures"] == 0
        assert section["aggregates"]["select_seconds"]["mean"] >= 0.0


def without_timings(obj):
    """A report section with every ``*_seconds`` entry removed."""
    if isinstance(obj, dict):
        return {k: without_timings(v) for k, v in obj.items()
                if not k.endswith("_seconds")}
    if isinstance(obj, list):
        return [without_timings(v) for v in obj]
    return obj


def test_sinc_sweep_of_one_node_count_is_the_sinc_run():
    config = ExperimentConfig(nodes=15, node_sweep=(15,), trials=1, seed=4,
                              n_train=30, n_test=20, noise_sigma=0.1)
    sinc = run_sinc(config)
    sweep = run_node_sweep(config)
    assert (without_timings(sweep["sweep"][0]["algorithms"])
            == without_timings(sinc["algorithms"]))


def test_csv_sweep_of_one_node_count_is_the_dataset_run(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    config = ExperimentConfig(nodes=6, node_sweep=(6,), trials=3, seed=11,
                              csv_path=str(path),
                              csv_schema=CsvSchema(target="label",
                                                   task=CLASSIFICATION))
    dataset = run_dataset(config)
    sweep = run_node_sweep(config)
    assert (without_timings(sweep["sweep"][0]["algorithms"])
            == without_timings(dataset["algorithms"]))


def counting(monkeypatch, name):
    """Calls of bench's binding ``name``, recorded by argument tuple."""
    calls = []
    real = getattr(bench, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(bench, name, wrapper)
    return calls


def test_sweep_checks_every_node_count_before_any_fit(monkeypatch):
    fits = counting(monkeypatch, "train_elm")
    config = ExperimentConfig(node_sweep=(50, 100, 150, 300), trials=20,
                              n_train=200, n_test=20)
    with pytest.raises(PreconditionError, match="nodes=300"):
        run_node_sweep(config)
    assert fits == []


def test_sinc_sweep_draws_each_trial_once(monkeypatch):
    draws = counting(monkeypatch, "gen_sinc")
    config = ExperimentConfig(node_sweep=(4, 8, 12, 16), trials=3, seed=5,
                              n_train=30, n_test=10)
    report = run_node_sweep(config)
    assert [args[2] for args in draws] == [5, 6, 7]
    for entry in report["sweep"]:
        for section in entry["algorithms"].values():
            assert [r["seed"] for r in section["trials"]] == [5, 6, 7]


def test_csv_sweep_splits_each_trial_once(monkeypatch, tmp_path):
    splits = counting(monkeypatch, "split")
    path = write_toy_csv(tmp_path / "toy.csv")
    config = ExperimentConfig(node_sweep=(4, 8), trials=3, seed=2,
                              csv_path=str(path),
                              csv_schema=CsvSchema(target="label",
                                                   task=CLASSIFICATION))
    run_node_sweep(config)
    assert [args[2] for args in splits] == [2, 3, 4]


@pytest.mark.parametrize("fields", [
    {"n_train": 999}, {"n_test": 9}, {"noise_sigma": 5.0},
    {"test_distribution": "normal"},
])
def test_csv_sweep_rejects_sinc_settings(tmp_path, fields):
    path = write_toy_csv(tmp_path / "toy.csv")
    config = ExperimentConfig(node_sweep=(4,), csv_path=str(path),
                              csv_schema=CsvSchema(target="label"), **fields)
    with pytest.raises(PreconditionError, match=next(iter(fields))):
        run_node_sweep(config)


@pytest.mark.parametrize("fields", [
    {"split_fraction": 0.1}, {"csv_schema": CsvSchema(target="y")},
])
def test_sinc_sweep_rejects_csv_settings(fields):
    config = ExperimentConfig(node_sweep=(4,), n_train=10, n_test=5, **fields)
    with pytest.raises(PreconditionError, match=next(iter(fields))):
        run_node_sweep(config)


@pytest.mark.parametrize("fields", [
    {"csv_path": "nope.csv"}, {"split_fraction": 0.3},
    {"csv_schema": CsvSchema(target="y")},
    {"csv_path": "nope.csv", "split_fraction": 0.3},
])
def test_run_sinc_rejects_csv_settings(monkeypatch, fields):
    fits = counting(monkeypatch, "train_elm")
    config = ExperimentConfig(nodes=5, trials=1, n_train=10, n_test=5,
                              **fields)
    names = ", ".join(fields)
    with pytest.raises(PreconditionError,
                       match=f"^a sinc experiment does not use {names}$"):
        run_sinc(config)
    assert fits == []


@pytest.mark.parametrize("fields", [
    {"n_train": 999}, {"n_test": 9}, {"noise_sigma": 0.5},
    {"test_distribution": "normal"}, {"n_train": 999, "noise_sigma": 0.5},
])
def test_run_dataset_rejects_sinc_settings(monkeypatch, tmp_path, fields):
    loads = counting(monkeypatch, "load_csv")
    config = ExperimentConfig(nodes=5, trials=1,
                              csv_path=str(write_toy_csv(tmp_path / "t.csv")),
                              csv_schema=CsvSchema("label", CLASSIFICATION),
                              **fields)
    names = ", ".join(fields)
    with pytest.raises(PreconditionError,
                       match=f"^a dataset experiment does not use {names}$"):
        run_dataset(config)
    assert loads == []


def test_eelm_failures_are_counted_not_hidden(tmp_path):
    path = write_overflow_csv(tmp_path / "overflow.csv")
    config = ExperimentConfig(nodes=3, trials=2, seed=0, split_fraction=0.8,
                              csv_path=str(path),
                              csv_schema=CsvSchema(target="y"))
    report = run_dataset(config)
    validate_report(report)
    eelm = report["algorithms"]["eelm"]
    assert eelm["failures"] == 2
    assert all("Overflow" in r["error"] for r in eelm["trials"])
    assert eelm["aggregates"]["train_metric"] is None
    assert report["algorithms"]["elm"]["failures"] == 0
    assert not report_all_failed(report)


def test_validate_report_catches_corruption():
    config = ExperimentConfig(nodes=20, trials=1, seed=1, n_train=20,
                              n_test=10)
    report = run_sinc(config)
    broken = copy.deepcopy(report)
    broken["algorithms"]["elm"]["aggregates"]["train_metric"]["mean"] += 1.0
    with pytest.raises(FormatError):
        validate_report(broken)
    broken2 = copy.deepcopy(report)
    broken2["schema"] = "something-else/9"
    with pytest.raises(FormatError):
        validate_report(broken2)


def _sinc_report(sweep):
    config = ExperimentConfig(trials=2, seed=1, n_train=20, n_test=10)
    if sweep:
        return run_node_sweep(dataclasses.replace(config, node_sweep=(5,)))
    return run_sinc(dataclasses.replace(config, nodes=5))


def _elm(report):
    return report["algorithms"]["elm"]


@pytest.mark.parametrize("sweep, corrupt, where", [
    (False, lambda r: _elm(r).update(trials=5), "algorithms.elm.trials"),
    (False, lambda r: _elm(r)["aggregates"].update(train_metric=[1.0]),
     "algorithms.elm.aggregates.train_metric"),
    (False, lambda r: _elm(r)["aggregates"]["train_metric"].pop("std"),
     "algorithms.elm.aggregates.train_metric"),
    (False, lambda r: _elm(r)["aggregates"].pop("test_seconds"),
     "algorithms.elm.aggregates"),
    (False, lambda r: r["algorithms"].update(svm=_elm(r)), "algorithms.svm"),
    (False, lambda r: _elm(r).update(failures=0.0), "algorithms.elm.failures"),
    (True, lambda r: r["sweep"][0].pop("algorithms"), "sweep[0].algorithms"),
    (True, lambda r: r["sweep"].append(5), "sweep[1]"),
], ids=["trials-not-a-list", "aggregate-not-an-object",
        "aggregate-without-std", "aggregate-missing", "unknown-algorithm",
        "float-failures", "sweep-entry-without-algorithms",
        "sweep-entry-not-an-object"])
def test_validate_report_locates_every_malformed_part(sweep, corrupt, where):
    report = _sinc_report(sweep)
    validate_report(report)
    corrupt(report)
    with pytest.raises(FormatError, match=f"^invalid report at "
                                          f"{re.escape(where)}: "):
        validate_report(report)


def test_config_validation():
    with pytest.raises(PreconditionError):
        run_sinc(ExperimentConfig(nodes=None))
    with pytest.raises(PreconditionError):
        ExperimentConfig(nodes=10, trials=0).validate()
    with pytest.raises(PreconditionError):
        ExperimentConfig(nodes=10, algorithms=("svm",)).validate()
    with pytest.raises(PreconditionError):
        ExperimentConfig(nodes=10, split_fraction=1.0).validate()
    with pytest.raises(PreconditionError):
        run_dataset(ExperimentConfig(nodes=5))  # no csv source
    for fields in (dict(algorithms=()), dict(nodes=0), dict(node_sweep=()),
                   dict(node_sweep=(4, 0))):
        with pytest.raises(PreconditionError):
            ExperimentConfig(**fields).validate()
    with pytest.raises(PreconditionError, match="node count"):
        run_dataset(ExperimentConfig(csv_path="d.csv",
                                     csv_schema=CsvSchema("y")))
    with pytest.raises(PreconditionError, match="node_sweep"):
        run_node_sweep(ExperimentConfig(nodes=5))


def test_config_rejects_unknown_anchor_strategy(monkeypatch):
    fits = counting(monkeypatch, "train_elm")
    config = ExperimentConfig(nodes=10, trials=2, n_train=20, n_test=10,
                              anchor_strategy="bogus")
    with pytest.raises(PreconditionError, match="bogus"):
        run_sinc(config)
    assert fits == []


def test_config_rejects_anchor_strategy_without_eelm(monkeypatch, tmp_path):
    fits = counting(monkeypatch, "train_elm")
    csv_source = dict(csv_path=str(write_toy_csv(tmp_path / "toy.csv")),
                      csv_schema=CsvSchema("label", CLASSIFICATION))
    for runner, fields in ((run_sinc, dict(nodes=10)),
                           (run_dataset, dict(nodes=10, **csv_source)),
                           (run_node_sweep, dict(node_sweep=(10,)))):
        config = ExperimentConfig(algorithms=("elm",), trials=2,
                                  anchor_strategy="even", **fields)
        with pytest.raises(PreconditionError, match="'even'"):
            runner(config)
    assert fits == []
    ExperimentConfig(algorithms=("eelm",), anchor_strategy="even").validate()


def test_run_dataset_refuses_plot_data(monkeypatch, tmp_path):
    loads = counting(monkeypatch, "load_csv")
    plot = tmp_path / "plot.csv"
    config = ExperimentConfig(nodes=5, trials=2,
                              csv_path=str(write_toy_csv(tmp_path / "t.csv")),
                              csv_schema=CsvSchema("label", CLASSIFICATION),
                              plot_path=str(plot))
    with pytest.raises(PreconditionError, match="plot"):
        run_dataset(config)
    assert loads == []
    assert not plot.exists()


def test_missing_output_directory_fails_before_any_fit(monkeypatch,
                                                       tmp_path):
    fits = counting(monkeypatch, "train_elm")
    loads = counting(monkeypatch, "load_csv")
    missing = tmp_path / "missing"
    csv_source = dict(csv_path=str(write_toy_csv(tmp_path / "toy.csv")),
                      csv_schema=CsvSchema("label", CLASSIFICATION))
    for runner, fields, output in (
            (run_sinc, dict(nodes=10), "out_path"),
            (run_sinc, dict(nodes=10), "plot_path"),
            (run_dataset, dict(nodes=10, **csv_source), "out_path"),
            (run_node_sweep, dict(node_sweep=(10,), **csv_source),
             "out_path"),
            (run_node_sweep, dict(node_sweep=(10,)), "plot_path")):
        path = str(missing / "out.file")
        config = ExperimentConfig(trials=2, **fields, **{output: path})
        with pytest.raises(PreconditionError, match="directory"):
            runner(config)
    assert fits == [] and loads == []
    assert not missing.exists()
