"""Benchmark runners and report schema."""

import copy
import csv
import json

import numpy as np
import pytest

from eelm import bench
from eelm.bench import (ExperimentConfig, report_all_failed, run_dataset,
                        run_node_sweep, run_sinc, validate_report)
from eelm.datasets import CLASSIFICATION, CsvSchema, split
from eelm.errors import FormatError, PreconditionError
from eelm.models import train_elm


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


def test_sweep_checks_every_node_count_before_any_fit(monkeypatch):
    fits = []

    def counting_elm(*args, **kwargs):
        fits.append(args)
        return train_elm(*args, **kwargs)
    monkeypatch.setattr(bench, "train_elm", counting_elm)
    config = ExperimentConfig(node_sweep=(50, 100, 150, 300), trials=20,
                              n_train=200, n_test=20)
    with pytest.raises(PreconditionError, match="nodes=300"):
        run_node_sweep(config)
    assert fits == []


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


def test_eelm_failures_are_counted_not_hidden(tmp_path):
    # relative attribute gaps of 1e-40 overflow the embedding exponents;
    # the random-layer algorithm is unaffected
    path = tmp_path / "overflow.csv"
    rows = ["x1,x2,x3,x4,x5,x6,x7,x8,y"]
    values = [-1.0] + [k * 1e-40 for k in range(1, 10)]
    for i, v in enumerate(values):
        rows.append(",".join([repr(v)] * 8 + [str(i)]))
    path.write_text("\n".join(rows) + "\n")
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
