"""Tests of the benchmark: its checks reject perturbed outputs, its
spans see every binding, and every workload runs at a tiny size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import eelm  # noqa: E402
import eelm.cli  # noqa: E402,F401
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from metrics import END_TO_END, per_layer_units  # noqa: E402


@pytest.fixture(scope="module")
def sinc_models():
    train, test = eelm.gen_sinc(200, 200, seed=3)
    elm, _ = eelm.train_elm(train, 200, seed=3)
    constructed, _ = eelm.train_eelm(train, 200, seed=3)
    return train, test, {"elm": elm, "eelm": constructed}


@pytest.mark.parametrize("algo", ["elm", "eelm"])
def test_prediction_check_rejects_one_prediction_off(sinc_models, algo):
    _, test, models = sinc_models
    m = models[algo]
    pred = eelm.predict(m, test.inputs)
    args = (m.node_weights, m.biases, m.output_weights, test.inputs)
    checks.check_predictions(*args, pred)
    # the largest prediction and a middling one (EELM predicts exactly 0
    # far from its anchors, where a relative change changes nothing)
    size = np.abs(pred[:, 0])
    order = np.flatnonzero(size > 1e-3 * size.max())
    order = order[np.argsort(size[order])]
    for i in (order[-1], order[len(order) // 2]):
        off = pred.copy()
        off[i, 0] *= 1.0 + 1e-6
        with pytest.raises(CheckFailed, match=f"row {i} "):
            checks.check_predictions(*args, off)


@pytest.mark.parametrize("algo", ["elm", "eelm"])
def test_least_squares_check_rejects_shifted_beta(sinc_models, algo):
    train, _, models = sinc_models
    m = models[algo]
    args = (m.node_weights, m.biases)
    rank = checks.check_least_squares(*args, m.output_weights, train.inputs,
                                      train.targets, algo == "eelm")
    assert (rank == 200) == (algo == "eelm")
    shifted = m.output_weights + 1e-6 * np.abs(m.output_weights).max()
    with pytest.raises(CheckFailed, match="least squares"):
        checks.check_least_squares(*args, shifted, train.inputs,
                                   train.targets, algo == "eelm")


def test_full_rank_check_rejects_repeated_node(sinc_models):
    train, _, models = sinc_models
    m = models["eelm"]
    w, b = m.node_weights.copy(), m.biases.copy()
    w[1], b[1] = w[0], b[0]
    with pytest.raises(CheckFailed, match="full column rank"):
        checks.check_least_squares(w, b, m.output_weights, train.inputs,
                                   train.targets, need_full_rank=True)


def test_sinc_target_check(sinc_models):
    train, _, _ = sinc_models
    checks.check_sinc_targets(train.inputs, train.targets)
    bad = train.targets.copy()
    bad[7, 0] += 1e-9
    with pytest.raises(CheckFailed, match="sinc targets"):
        checks.check_sinc_targets(train.inputs, bad)


def _captured_protocol(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inst = workload.setup(eelm, 5, tmp_path,
                          **workloads.SIZES[name]["tiny"])[0]
    capture = workloads.Capture()
    result = workload.run_pass(eelm, inst, 0, tmp_path, capture=capture)
    return workload, inst, result, capture


@pytest.mark.parametrize("name", ["sinc-protocol", "tabular-trials"])
def test_metric_check_rejects_altered_report(name, tmp_path):
    workload, inst, result, capture = _captured_protocol(name, tmp_path)
    found = workloads.check_protocol(workload, inst, result.report, capture)
    assert len(found["elm"]) == len(result.report["algorithms"]["elm"]
                                    ["trials"])
    record = result.report["algorithms"]["elm"]["trials"][1]
    record["test_metric"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="elm trial 1: test metric"):
        workloads.check_protocol(workload, inst, result.report, capture)


def test_served_prediction_check_rejects_altered_file(tmp_path):
    workload = workloads.WORKLOADS["large-fit"]
    inst = workload.setup(eelm, 5, tmp_path,
                          **workloads.SIZES["large-fit"]["tiny"])[0]
    result = workload.run_pass(eelm, inst, 0, tmp_path)
    errors = workloads.check_served(workload, inst, result.served)
    assert set(errors) == {"eelm", "elm"}
    result.served[1].predictions[3, 0] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="serving elm: predictions"):
        workloads.check_served(workload, inst, result.served)


def test_repeated_predicts_must_match_the_pass(tmp_path, monkeypatch):
    import run
    workload = workloads.WORKLOADS["large-fit"]
    inputs = run.Inputs(workload, "tiny", 5, tmp_path)
    inputs.eelm = eelm
    inputs.instances = workload.setup(eelm, 5, tmp_path,
                                      **workloads.SIZES["large-fit"]["tiny"])
    result = workload.run_pass(eelm, inputs.instances[0], 0, tmp_path)
    run.fill_predicts(inputs, [result], 0.0, lambda: None)
    assert [len(s.predict_s) for s in result.served] == [
        1 + run.MIN_FILL_ROUNDS] * 2
    read = workloads.read_predictions
    monkeypatch.setattr(workloads, "read_predictions",
                        lambda path: read(path) * (1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="eelm predict, repeated"):
        run.fill_predicts(inputs, [result], 0.0, lambda: None)


def test_answers_compare_outputs_not_timings(tmp_path):
    workload, inst, result, _ = _captured_protocol("tabular-trials",
                                                   tmp_path)
    again = workload.run_pass(eelm, inst, 0, tmp_path)
    assert workloads.same_answer(again.answer(), result.answer())
    again.served[0].predictions[0, 0] += 1e-3
    again._answer = None
    assert not workloads.same_answer(again.answer(), result.answer())


def test_pima_like_rows_are_distinct_and_never_all_zero():
    cells, label = workloads.pima_like(np.random.default_rng(0), 768)
    x = np.array([[float(c) for c in col] for col in cells]).T
    assert x.shape == (768, 8)
    assert len(np.unique(x, axis=0)) == 768
    assert (np.abs(x).sum(axis=1) > 0).all()
    assert ((x == 0).sum(axis=0)[[3, 4]] > 0).all()  # missing-value zeros
    assert 0.2 < label.mean() < 0.5


def test_spans_wrap_every_binding_and_restore():
    originals = {s: spans.span_function(s) for s in spans.SPANS}
    tracer = spans.Tracer()
    train, test = eelm.gen_sinc(30, 10, seed=1)
    with spans.wrapped(tracer.wrappers()):
        for span, func in originals.items():
            assert spans.span_function(span) is not func
        model, _ = eelm.models.train_eelm(train, 10, seed=1)
        eelm.bench.predict(model, test.inputs)
        eelm.predict(model, test.inputs)
    for span, func in originals.items():
        assert spans.span_function(span) is func
    assert eelm.predict is eelm.models.predict is eelm.cli.predict
    totals = tracer.totals()
    assert totals["models.predict"]["calls"] == 2
    assert totals["models.train_eelm"]["calls"] == 1
    assert totals["linalg.pinv_normal"]["calls"] == 1
    assert totals["linalg.pinv_normal"]["work"] == 30
    assert totals["models.build_hidden_matrix"]["work"] == 30 * 10 + 2 * 100
    # children's time is not the parent's self time
    train_span = next(r for r in tracer.records
                      if r[0] == "models.train_eelm")
    duration = train_span[3] - train_span[2]
    assert totals["models.train_eelm"]["self_s"] < duration


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == per_layer_units())


def _run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120, check=False)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_tiny(name, trace):
    proc = _run(["--workload", name, "--seed", "2", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = per_layer_units() if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["models.train_eelm.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(["--workload", "large-fit", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
