"""Command-line surface: subcommands, outputs, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from eelm import cli
from eelm.bench import ExperimentConfig
from eelm.cli import main
from eelm.datasets import CLASSIFICATION, REGRESSION, CsvSchema
from eelm.models import load_model, predict

from test_bench import (assert_sinc_plot, counting, write_overflow_csv,
                        write_sinc_plot_reference, write_toy_csv)


def test_sinc_subcommand(tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    code = main(["sinc", "--nodes", "30", "--n-train", "30", "--n-test", "20",
                 "--trials", "2", "--seed", "1", "--out", str(out),
                 "--plot-data", str(plot)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["experiment"] == "sinc"
    with open(plot, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 30 + 20


def test_sinc_single_algo(tmp_path):
    out = tmp_path / "r.json"
    plot = tmp_path / "plot.csv"
    code = main(["sinc", "--algo", "eelm", "--nodes", "20", "--n-train", "20",
                 "--n-test", "10", "--out", str(out), "--plot-data",
                 str(plot)])
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report["algorithms"]) == ["eelm"]
    # the ELM column of the plot is nan throughout
    reference = tmp_path / "reference.csv"
    config = ExperimentConfig(algorithms=("eelm",), nodes=20, n_train=20,
                              n_test=10)
    columns = write_sinc_plot_reference(reference, config)
    assert list(columns) == ["eelm"]
    assert_sinc_plot(plot, reference, columns)


def test_bench_subcommand(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    out = tmp_path / "report.json"
    code = main(["bench", "--csv", str(path), "--target", "label", "--task",
                 "cls", "--nodes", "8", "--trials", "3", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["experiment"] == "dataset"
    assert report["metric"] == "accuracy"


def test_sweep_subcommand(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    plot = tmp_path / "sweep.csv"
    code = main(["sweep", "--csv", str(path), "--target", "label", "--task",
                 "cls", "--nodes-sweep", "4,8", "--trials", "2",
                 "--plot-data", str(plot)])
    assert code == 0
    with open(plot, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2  # header + 2 algos x 2 node counts


def test_train_and_predict_round_trip(tmp_path):
    data_path = write_toy_csv(tmp_path / "toy.csv")
    model_path = tmp_path / "model.slfn"
    code = main(["train", "--csv", str(data_path), "--target", "label",
                 "--task", "cls", "--algo", "eelm", "--nodes", "10",
                 "--seed", "3", "--model-out", str(model_path)])
    assert code == 0

    features_path = tmp_path / "features.csv"
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.normal(0, 1, 6),
                              np.array([-3.0, -3, -3, 3, 3, 3])])
    with open(features_path, "w") as fh:
        fh.write("x1,x2\n")
        for row in points:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    preds_path = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(model_path), "--csv",
                 str(features_path), "--out", str(preds_path)])
    assert code == 0
    with open(preds_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pred_1", "pred_2"]
    written = np.array([[float(c) for c in row] for row in rows[1:]])
    model = load_model(model_path)
    assert np.array_equal(written, predict(model, points))


@pytest.mark.parametrize("argv, runner, expected", [
    (["sinc"], "run_sinc",
     ExperimentConfig(nodes=200, trials=50)),
    (["sinc", "--algo", "eelm", "--nodes", "30", "--n-train", "40",
      "--n-test", "25", "--noise", "0.5", "--test-dist", "normal",
      "--trials", "3", "--seed", "7", "--anchor-strategy", "even",
      "--out", "r.json", "--plot-data", "p.csv"], "run_sinc",
     ExperimentConfig(algorithms=("eelm",), nodes=30, trials=3, seed=7,
                      anchor_strategy="even", n_train=40, n_test=25,
                      noise_sigma=0.5, test_distribution="normal",
                      out_path="r.json", plot_path="p.csv")),
    (["bench", "--csv", "d.csv", "--target", "label", "--task", "cls",
      "--nodes", "8"], "run_dataset",
     ExperimentConfig(nodes=8, csv_path="d.csv",
                      csv_schema=CsvSchema("label", CLASSIFICATION))),
    (["bench", "--csv", "d.csv", "--target", "y1", "--target", "y2",
      "--nodes", "8", "--split", "0.5", "--algo", "elm", "--trials", "4",
      "--seed", "2", "--out", "r.json"],
     "run_dataset",
     ExperimentConfig(algorithms=("elm",), nodes=8, trials=4, seed=2,
                      split_fraction=0.5, csv_path="d.csv",
                      csv_schema=CsvSchema(("y1", "y2"), REGRESSION),
                      out_path="r.json")),
    (["sweep", "--nodes-sweep", "10,20"], "run_node_sweep",
     ExperimentConfig(node_sweep=(10, 20))),
    (["sweep", "--nodes-sweep", "5,", "--n-train", "50", "--n-test", "9",
      "--noise", "0.1", "--test-dist", "normal", "--trials", "2"],
     "run_node_sweep",
     ExperimentConfig(node_sweep=(5,), trials=2, n_train=50, n_test=9,
                      noise_sigma=0.1, test_distribution="normal")),
    (["sweep", "--nodes-sweep", "4,8", "--csv", "d.csv", "--target", "y",
      "--seed", "3"], "run_node_sweep",
     ExperimentConfig(node_sweep=(4, 8), seed=3, csv_path="d.csv",
                      csv_schema=CsvSchema("y", REGRESSION))),
])
def test_experiment_flags_build_the_config(monkeypatch, argv, runner,
                                           expected):
    class Captured(Exception):
        pass

    def capture(config):
        raise Captured(config)
    monkeypatch.setattr(cli, runner, capture)
    with pytest.raises(Captured) as exc_info:
        main(argv)
    assert exc_info.value.args == (expected,)


def test_exit_code_bad_flags():
    with pytest.raises(SystemExit) as exc_info:
        main(["sinc", "--nodes", "not-a-number"])
    assert exc_info.value.code == 2


def test_bench_rejects_plot_data(tmp_path, capsys):
    plot = tmp_path / "p.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(["bench", "--csv", str(write_toy_csv(tmp_path / "toy.csv")),
              "--target", "label", "--task", "cls", "--nodes", "5",
              "--trials", "2", "--plot-data", str(plot)])
    assert exc_info.value.code == 2
    assert "--plot-data" in capsys.readouterr().err
    assert not plot.exists()


def test_exit_code_config_error(tmp_path):
    path = write_toy_csv(tmp_path / "toy.csv")
    # more nodes than the training side of the split can supply
    code = main(["bench", "--csv", str(path), "--target", "label", "--task",
                 "cls", "--nodes", "31", "--trials", "1"])
    assert code == 2
    # --csv without --target
    code = main(["bench", "--csv", str(path), "--nodes", "5"])
    assert code == 2
    # zero trials
    code = main(["bench", "--csv", str(path), "--target", "label",
                 "--nodes", "5", "--trials", "0"])
    assert code == 2
    # more nodes than sinc training points, or than a sweep's split
    # leaves for training (15 of 20 rows)
    code = main(["sinc", "--nodes", "300", "--n-train", "200"])
    assert code == 2
    small = write_toy_csv(tmp_path / "small.csv", n_per_class=10)
    code = main(["sweep", "--csv", str(small), "--target", "label",
                 "--task", "cls", "--nodes-sweep", "30"])
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--n-train", "999"], ["--n-test", "9"], ["--noise", "5"],
    ["--test-dist", "normal"],
])
def test_csv_sweep_rejects_sinc_flags(tmp_path, capsys, flags):
    path = write_toy_csv(tmp_path / "toy.csv")
    code = main(["sweep", "--csv", str(path), "--target", "label",
                 "--nodes-sweep", "4", *flags])
    assert code == 2
    # named by the flag as typed, not by the config field it sets
    assert capsys.readouterr().err == (
        f"configuration error: a sweep over a CSV does not use {flags[0]}\n")


@pytest.mark.parametrize("flags", [
    ["--split", "0.1"], ["--target", "y"], ["--task", "cls"],
])
def test_sinc_sweep_rejects_csv_flags(capsys, flags):
    code = main(["sweep", "--nodes-sweep", "4", "--n-train", "10",
                 "--n-test", "5", *flags])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: a sweep over sinc does not use {flags[0]}\n")


@pytest.mark.parametrize("command", [
    ["sinc", "--nodes", "5", "--n-train", "10", "--n-test", "5"],
    ["bench", "--nodes", "5"],
    ["sweep", "--nodes-sweep", "5", "--n-train", "10", "--n-test", "5"],
    ["train", "--nodes", "5", "--model-out", "unused.slfn"],
])
def test_elm_alone_rejects_anchor_strategy(tmp_path, monkeypatch, capsys,
                                           command):
    monkeypatch.chdir(tmp_path)
    if command[0] in ("bench", "train"):
        command = [*command, "--csv", str(write_toy_csv(tmp_path / "t.csv")),
                   "--target", "label", "--task", "cls"]
    code = main([*command, "--algo", "elm", "--anchor-strategy", "even"])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: --algo elm does not use --anchor-strategy\n")
    assert not (tmp_path / "unused.slfn").exists()


@pytest.mark.parametrize("command", [
    ["sinc", "--nodes", "5", "--n-train", "10", "--n-test", "5"],
    ["bench", "--nodes", "5"],
    ["sweep", "--nodes-sweep", "5", "--n-train", "10", "--n-test", "5"],
    ["train", "--nodes", "5", "--algo", "elm", "--model-out", "m.slfn"],
    ["train", "--nodes", "5", "--algo", "eelm", "--model-out", "m.slfn"],
    # anchors that draw nothing: the model would still store the seed
    ["train", "--nodes", "5", "--algo", "eelm", "--anchor-strategy", "first",
     "--model-out", "m.slfn"],
    ["train", "--nodes", "5", "--algo", "eelm", "--anchor-strategy", "even",
     "--model-out", "m.slfn"],
])
def test_negative_seed_is_a_configuration_error(tmp_path, monkeypatch,
                                                capsys, command):
    monkeypatch.chdir(tmp_path)
    fits = [counting(monkeypatch, "train_elm"),
            counting(monkeypatch, "train_eelm")]
    if command[0] in ("bench", "train"):
        command = [*command, "--csv", str(write_toy_csv(tmp_path / "t.csv")),
                   "--target", "label", "--task", "cls"]
    assert main([*command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: seed must be >= 0, got -1\n")
    assert fits == [[], []]
    assert not (tmp_path / "m.slfn").exists()


def test_train_svd_failure_exits_4(tmp_path, monkeypatch, capsys):
    # each driver's failure: lstsq's for the tall 40 x 5 H, svd's for the
    # square 40 x 40 one
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    csv_path = str(write_toy_csv(tmp_path / "toy.csv"))
    for driver, nodes in (("lstsq", "5"), ("svd", "40")):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, driver, fail)
            code = main(["train", "--csv", csv_path, "--target", "label",
                         "--task", "cls", "--algo", "elm", "--nodes", nodes,
                         "--model-out", str(tmp_path / "m.slfn")])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: SVD did not converge")
        assert not (tmp_path / "m.slfn").exists()


def test_exit_code_data_error(tmp_path):
    code = main(["bench", "--csv", str(tmp_path / "missing.csv"), "--target",
                 "y", "--nodes", "5"])
    assert code == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,y\n1,x,3\n")
    code = main(["bench", "--csv", str(bad), "--target", "y", "--nodes", "1"])
    assert code == 3


def test_exit_code_all_trials_numeric_failure(tmp_path):
    # the constructive algorithm overflows on every trial; running it
    # alone must exit 4
    path = write_overflow_csv(tmp_path / "overflow.csv")
    code = main(["bench", "--csv", str(path), "--target", "y", "--algo",
                 "eelm", "--nodes", "3", "--trials", "2", "--split", "0.8"])
    assert code == 4


def test_train_rejects_unknown_model_path(tmp_path):
    code = main(["predict", "--model", str(tmp_path / "none.slfn"), "--csv",
                 str(tmp_path / "none.csv"), "--out",
                 str(tmp_path / "o.csv")])
    assert code == 3


def _trained_model(tmp_path):
    """A two-output (two-class) EELM model trained through the CLI."""
    model_path = tmp_path / "model.slfn"
    code = main(["train", "--csv", str(write_toy_csv(tmp_path / "toy.csv")),
                 "--target", "label", "--task", "cls", "--algo", "eelm",
                 "--nodes", "10", "--seed", "3", "--model-out",
                 str(model_path)])
    assert code == 0
    return model_path


def _predict_cli(tmp_path, model_path, text):
    features = tmp_path / "features.csv"
    features.write_text(text, encoding="utf-8")
    out = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(model_path), "--csv",
                 str(features), "--out", str(out)])
    return code, out


def test_predict_output_bytes_match_csv_writer(tmp_path):
    model_path = _trained_model(tmp_path)
    rng = np.random.default_rng(5)
    points = rng.normal(0.0, 2.0, (9, 2))
    text = "x1,x2\n" + "".join(f"{a!r},{b!r}\n"
                                for a, b in points.tolist())
    code, out = _predict_cli(tmp_path, model_path, text)
    assert code == 0
    scores = predict(load_model(model_path), points)
    assert scores.shape == (9, 2)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pred_1", "pred_2"])
        for row in scores:
            writer.writerow([repr(float(v)) for v in row])
    assert out.read_bytes() == reference.read_bytes()
    assert out.read_bytes().count(b"\r\n") == 10


def test_predict_ragged_row_is_a_data_error(tmp_path, capsys):
    model_path = _trained_model(tmp_path)
    capsys.readouterr()
    code, out = _predict_cli(tmp_path, model_path, "x1,x2\n1,2\n3\n")
    assert code == 3
    assert "line=2" in capsys.readouterr().err
    assert not out.exists()


def test_predict_non_numeric_cell_is_located(tmp_path, capsys):
    model_path = _trained_model(tmp_path)
    capsys.readouterr()
    code, _ = _predict_cli(tmp_path, model_path, "x1,x2\n1,2\n3,4\n5,six\n")
    assert code == 3
    err = capsys.readouterr().err
    assert "'six' is not numeric" in err
    assert "line=3, column=2" in err


@pytest.mark.parametrize("cell", ["inf", "nan", "-1e999"])
def test_predict_non_finite_cell_is_a_data_error(tmp_path, capsys, cell):
    model_path = _trained_model(tmp_path)
    capsys.readouterr()
    code, _ = _predict_cli(tmp_path, model_path, f"x1,x2\n1,2\n{cell},4\n")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "line=2, column=1" in err


def test_predict_header_without_rows_is_a_data_error(tmp_path, capsys):
    model_path = _trained_model(tmp_path)
    capsys.readouterr()
    code, out = _predict_cli(tmp_path, model_path, "x1,x2\n")
    assert code == 3
    assert "no data rows" in capsys.readouterr().err
    assert not out.exists()


def test_train_non_finite_cell_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("x1,x2,y\n1,2,3\n4,nan,6\n7,8,9\n")
    code = main(["train", "--csv", str(path), "--target", "y", "--nodes",
                 "2", "--model-out", str(tmp_path / "m.slfn")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "line=2, column=2" in err


def test_unwritable_output_exit_codes(tmp_path, capsys):
    model_path = _trained_model(tmp_path)
    features = tmp_path / "features.csv"
    features.write_text("x1,x2\n1,2\n")
    missing = tmp_path / "missing"
    capsys.readouterr()
    # train and predict lose one fit or one prediction: a data error
    for argv in (["predict", "--model", str(model_path), "--csv",
                  str(features), "--out", str(missing / "p.csv")],
                 ["train", "--csv", str(tmp_path / "toy.csv"), "--target",
                  "label", "--task", "cls", "--nodes", "5", "--model-out",
                  str(missing / "m.slfn")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write: ")
        assert f"path={missing}" in err
    # an experiment refuses the path before its trials
    assert main(["sinc", "--nodes", "20", "--n-train", "40", "--n-test",
                 "20", "--trials", "2", "--out",
                 str(missing / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not missing.exists()


def test_output_naming_a_directory_fails_before_any_fit(monkeypatch,
                                                        tmp_path, capsys):
    fits = counting(monkeypatch, "train_elm")
    adir = tmp_path / "adir"
    adir.mkdir()
    for flag in ("--out", "--plot-data"):
        assert main(["sinc", "--nodes", "20", "--n-train", "40", "--n-test",
                     "20", "--trials", "2", flag, str(adir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "is a directory" in err
    assert fits == []
    assert list(adir.iterdir()) == []


def test_output_in_an_unwritable_directory_fails_before_any_fit(
        monkeypatch, tmp_path, capsys):
    # os.access stands in for mode bits, which a superuser ignores
    fits = counting(monkeypatch, "train_elm")
    reads = counting(monkeypatch, "load_csv")
    locked = tmp_path / "locked"
    locked.mkdir()
    real_access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        os.fspath(path) != str(locked) and real_access(path, mode, **kwargs)))
    toy = str(write_toy_csv(tmp_path / "toy.csv"))
    for argv in (["sinc", "--nodes", "20", "--n-train", "40", "--n-test",
                  "20", "--trials", "2", "--out", str(locked / "r.json")],
                 ["sinc", "--nodes", "20", "--n-train", "40", "--n-test",
                  "20", "--trials", "2", "--plot-data",
                  str(locked / "p.csv")],
                 ["bench", "--csv", toy, "--target", "label", "--task", "cls",
                  "--nodes", "5", "--out", str(locked / "r.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "is not writable" in err
    assert fits == [] and reads == []
    assert list(locked.iterdir()) == []


def test_train_on_integer_data_beyond_float64_exits_4(tmp_path, capsys):
    x = np.random.default_rng(0).integers(1, 4, (500, 64))
    path = tmp_path / "ints.csv"
    header = ",".join([f"x{j}" for j in range(64)] + ["y"])
    np.savetxt(path, np.c_[x, x.sum(axis=1)], fmt="%d", delimiter=",",
               header=header, comments="")
    assert main(["train", "--csv", str(path), "--target", "y", "--nodes",
                 "50", "--model-out", str(tmp_path / "m.slfn")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: attribute ")
    assert not (tmp_path / "m.slfn").exists()
