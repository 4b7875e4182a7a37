"""Training algorithms, prediction, and model serialization."""

import numpy as np
import pytest

from eelm.datasets import CLASSIFICATION, REGRESSION, Dataset, gen_sinc
from eelm.errors import (FormatError, NumericOverflowError, PreconditionError,
                         ShapeError)
from eelm.linalg import (numerical_rank, pinv_normal, pinv_svd,
                         strict_dominance_report)
from eelm import models
from eelm.models import (PREDICT_BLOCK_CELLS, SlfnModel, build_hidden_matrix,
                         load_model, predict, save_model, select_hidden_layer,
                         train_eelm, train_elm)


def regression_data(rng, n, d, m=1, name="toy"):
    return Dataset(name, REGRESSION, rng.uniform(-10, 10, (n, d)),
                   rng.uniform(-2, 2, (n, m)))


def test_hidden_matrix_zero_node_gives_ones():
    h = build_hidden_matrix(np.zeros((1, 3)), np.zeros(1),
                            np.arange(12.0).reshape(4, 3))
    assert np.array_equal(h, np.ones((4, 1)))


def test_hidden_matrix_elementwise_oracle():
    rng = np.random.default_rng(0)
    nodes = rng.normal(size=(2, 3))
    biases = rng.normal(size=2)
    inputs = rng.normal(size=(3, 3))
    h = build_hidden_matrix(nodes, biases, inputs)
    for i in range(3):
        for k in range(2):
            z = float(np.dot(nodes[k], inputs[i]) + biases[k])
            assert h[i, k] == pytest.approx(np.exp(-z * z), rel=1e-15)


def test_hidden_matrix_shape_checks():
    with pytest.raises(ShapeError):
        build_hidden_matrix(np.ones((2, 3)), np.ones(1), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        build_hidden_matrix(np.ones((2, 3)), np.ones(2), np.ones((4, 2)))


def test_hidden_matrix_overflow():
    with pytest.raises(NumericOverflowError):
        build_hidden_matrix(np.array([[1e308]]), np.zeros(1),
                            np.array([[1e10]]))


def test_train_elm_single_sample_exact():
    data = Dataset("one", REGRESSION, np.array([[2.0]]), np.array([[3.0]]))
    model, report = train_elm(data, 1, seed=5)
    h = float(build_hidden_matrix(model.node_weights, model.biases,
                                  data.inputs)[0, 0])
    assert model.output_weights[0, 0] == pytest.approx(3.0 / h, rel=1e-12)
    assert report.train_metric <= 1e-12
    assert report.pinv_path == "svd"


def test_train_elm_deterministic_under_seed():
    rng = np.random.default_rng(1)
    data = regression_data(rng, 30, 2)
    m1, _ = train_elm(data, 10, seed=42)
    m2, _ = train_elm(data, 10, seed=42)
    assert np.array_equal(m1.node_weights, m2.node_weights)
    assert np.array_equal(m1.biases, m2.biases)
    assert np.array_equal(m1.output_weights, m2.output_weights)
    m3, _ = train_elm(data, 10, seed=43)
    assert not np.array_equal(m1.node_weights, m3.node_weights)


def test_train_elm_validates_node_count():
    rng = np.random.default_rng(2)
    data = regression_data(rng, 5, 2)
    with pytest.raises(PreconditionError):
        train_elm(data, 6)
    with pytest.raises(PreconditionError):
        train_elm(data, 0)


def test_train_eelm_square_case_interpolates():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5):
        data = regression_data(rng, 25, d)
        model, report = train_eelm(data, 25, seed=1)
        resid = np.abs(predict(model, data.inputs) - data.targets).max()
        assert resid <= 1e-6 * np.abs(data.targets).max()
        assert report.pinv_path == "orthogonal-projection"
        assert report.hidden_matrix_rank_ok
        assert report.select_seconds <= report.train_seconds


def test_train_eelm_anchor_rows_dominant():
    rng = np.random.default_rng(4)
    data = regression_data(rng, 40, 3)
    model, _ = train_eelm(data, 12, anchor_strategy="random", seed=9)
    h = build_hidden_matrix(model.node_weights, model.biases, data.inputs)
    # recover the anchor rows: they are the ones whose activation hits
    # the peak value exactly
    anchor_rows = np.flatnonzero((h == 1.0).any(axis=1))
    assert anchor_rows.size == 12
    sub = h[anchor_rows]
    order = np.argsort(sub.argmax(axis=1))
    report = strict_dominance_report(sub[order])
    assert report.globally_dominant


def test_train_eelm_never_rank_deficient_across_datasets():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        n0 = int(rng.integers(2, min(n, 20) + 1))
        data = regression_data(rng, n, d)
        model, report = train_eelm(data, n0, seed=trial)
        assert report.hidden_matrix_rank_ok


def test_train_eelm_deterministic():
    rng = np.random.default_rng(6)
    data = regression_data(rng, 30, 2)
    m1, _ = train_eelm(data, 10, seed=7)
    m2, _ = train_eelm(data, 10, seed=7)
    for field in ("node_weights", "biases", "output_weights"):
        assert np.array_equal(getattr(m1, field), getattr(m2, field))


def test_train_eelm_strategies():
    rng = np.random.default_rng(7)
    data = regression_data(rng, 30, 2)
    for strategy in ("first", "random", "even"):
        model, _ = train_eelm(data, 8, anchor_strategy=strategy, seed=1)
        assert model.n_hidden == 8
    with pytest.raises(PreconditionError):
        train_eelm(data, 8, anchor_strategy="bogus")


def test_train_eelm_duplicate_anchors_rejected():
    inputs = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]])
    data = Dataset("dup", REGRESSION, inputs, np.zeros((3, 1)))
    with pytest.raises(PreconditionError):
        train_eelm(data, 3, anchor_strategy="first")
    dup1d = Dataset("dup1", REGRESSION, np.array([[1.0], [1.0], [2.0]]),
                    np.zeros((3, 1)))
    with pytest.raises(PreconditionError):
        train_eelm(dup1d, 3, anchor_strategy="first")


@pytest.mark.parametrize("inputs", [
    [[1.0], [2.0], [1.0]],                        # duplicate, d = 1
    [[1.0, 2.0], [3.0, 1.0], [1.0, 2.0]],         # duplicate, d = 2
    [[1.0, 0.0, 2.0, 5.0], [4.0, 1.0, 1.0, 0.5],
     [4.0, 1.0, 1.0, 0.5], [3.0, 3.0, 3.0, 3.0]],  # duplicate, d = 4
    [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [2.0, 1.0, 1.0]],  # all-zero, d = 3
])
def test_select_hidden_layer_rejects_degenerate_anchors(inputs):
    x = np.array(inputs)
    for strategy in ("first", "random", "even"):
        with pytest.raises(PreconditionError):
            select_hidden_layer(x, x.shape[0], anchor_strategy=strategy)


def test_train_eelm_multi_output_classification():
    rng = np.random.default_rng(8)
    inputs = np.vstack([rng.normal(-2, 0.5, (20, 2)),
                        rng.normal(2, 0.5, (20, 2))])
    targets = np.zeros((40, 2))
    targets[:20, 0] = 1.0
    targets[20:, 1] = 1.0
    data = Dataset("two-blob", CLASSIFICATION, inputs, targets,
                   class_labels=("a", "b"))
    model, report = train_eelm(data, 10, seed=2)
    assert model.output_dim == 2
    assert model.output_weights.shape == (10, 2)
    # narrow nodes fit anchors, not every sample: just require far
    # better than chance on this separable toy
    assert report.train_metric >= 0.6
    # the two output columns solve against the same hidden matrix
    h = build_hidden_matrix(model.node_weights, model.biases, data.inputs)
    assert np.allclose(model.output_weights,
                       pinv_normal(h) @ data.targets, atol=1e-10)


def test_elm_and_eelm_agree_on_square_interpolation():
    # with n == n0 and a nonsingular random layer both networks
    # interpolate the same training data
    rng = np.random.default_rng(12)
    data = regression_data(rng, 8, 2)
    elm_model, elm_report = train_elm(data, 8, seed=3)
    assert elm_report.hidden_matrix_rank_ok
    eelm_model, _ = train_eelm(data, 8, seed=3)
    for model in (elm_model, eelm_model):
        assert np.abs(predict(model, data.inputs)
                      - data.targets).max() <= 1e-6


def test_train_eelm_force_svd_cross_check():
    rng = np.random.default_rng(13)
    data = regression_data(rng, 30, 2)
    normal_model, normal_report = train_eelm(data, 12, seed=5)
    svd_model, svd_report = train_eelm(data, 12, seed=5, force_svd=True)
    assert normal_report.pinv_path == "orthogonal-projection"
    assert svd_report.pinv_path == "svd"
    assert svd_report.hidden_matrix_rank_ok
    assert np.allclose(normal_model.output_weights,
                       svd_model.output_weights, atol=1e-8)


@pytest.mark.parametrize("n_hidden", [200, 20])
def test_svd_fits_share_one_decomposition(n_hidden):
    # 200 nodes on the 200-point sinc grid leave H with numerical rank
    # about 53; 20 nodes give full rank
    train, _ = gen_sinc(200, 10, seed=0)
    model, report = train_elm(train, n_hidden, seed=3)
    h = build_hidden_matrix(model.node_weights, model.biases, train.inputs)
    assert np.array_equal(model.output_weights,
                          pinv_svd(h) @ train.targets)
    assert report.hidden_matrix_rank_ok == (numerical_rank(h) == n_hidden)
    assert report.hidden_matrix_rank_ok == (n_hidden == 20)

    model, report = train_eelm(train, n_hidden, seed=3, force_svd=True)
    h = build_hidden_matrix(model.node_weights, model.biases, train.inputs)
    assert np.array_equal(model.output_weights,
                          pinv_svd(h) @ train.targets)
    assert report.hidden_matrix_rank_ok == (numerical_rank(h) == n_hidden)


def test_pinv_normal_at_blocked_lapack_sizes():
    # 300 columns is past the sizes where OpenBLAS switches to its
    # blocked factorization and solve kernels
    rng = np.random.default_rng(14)
    data = regression_data(rng, 3000, 8)
    elm_nodes = (rng.uniform(-1.0, 1.0, (300, 8)), rng.uniform(-1.0, 1.0, 300))
    eelm_nodes = select_hidden_layer(data.inputs, 300, seed=2)
    for node_weights, biases in (elm_nodes, (eelm_nodes.node_weights,
                                             eelm_nodes.biases)):
        h = build_hidden_matrix(node_weights, biases, data.inputs)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[0] / s[-1] < 1e6
        assert np.abs(pinv_normal(h) - pinv_svd(h)).max() <= 1e-8


def test_predict_zero_weights():
    model = SlfnModel(2, 1, 3, np.zeros((3, 2)), np.zeros(3),
                      np.zeros((3, 1)), "elm", seed=0)
    assert np.array_equal(predict(model, np.ones((4, 2))), np.zeros((4, 1)))


def test_predict_vanishes_far_from_training_range():
    train, _ = gen_sinc(100, 10, seed=0)
    model, _ = train_eelm(train, 100, seed=0)
    far = predict(model, np.array([[-1000.0], [1000.0]]))
    assert np.abs(far).max() <= 1e-12


def test_predict_validates_dimensions():
    model = SlfnModel(2, 1, 1, np.ones((1, 2)), np.zeros(1), np.ones((1, 1)),
                      "eelm")
    with pytest.raises(ShapeError):
        predict(model, np.ones((3, 5)))


def _random_model(rng, n_hidden, d=3, m=2):
    return SlfnModel(d, m, n_hidden, rng.uniform(-1, 1, (n_hidden, d)),
                     rng.uniform(-1, 1, n_hidden),
                     rng.normal(size=(n_hidden, m)), "elm")


def _block_rows(n_hidden):
    return 64 * max(1, PREDICT_BLOCK_CELLS // (64 * n_hidden))


@pytest.mark.parametrize("n_hidden", [20, 1000, 3000])
def test_predict_around_one_block_equals_one_product(n_hidden):
    rng = np.random.default_rng(n_hidden)
    model = _random_model(rng, n_hidden)
    block = _block_rows(n_hidden)
    for n in (block - 1, block, block + 1):
        x = rng.normal(size=(n, 3))
        h = build_hidden_matrix(model.node_weights, model.biases, x)
        assert np.array_equal(predict(model, x), h @ model.output_weights)


@pytest.mark.parametrize("n_hidden", [20, 1000, 3000])
def test_predict_builds_hidden_matrix_in_blocks(monkeypatch, n_hidden):
    rng = np.random.default_rng(n_hidden)
    model = _random_model(rng, n_hidden)
    block = _block_rows(n_hidden)
    n = 3 * block + 7
    x = rng.normal(size=(n, 3))
    h = build_hidden_matrix(model.node_weights, model.biases, x)
    seen = []

    def counting(node_weights, biases, inputs):
        seen.append(len(inputs))
        return build_hidden_matrix(node_weights, biases, inputs)

    monkeypatch.setattr(models, "build_hidden_matrix", counting)
    got = predict(model, x)
    # the last block takes the remainder; H is never built whole
    assert seen == [block, block, block + 7]
    # BLAS may pick another kernel for a smaller product, so the blocks
    # agree with one product over all rows to rounding, not bit for bit
    bound = n_hidden * np.finfo(float).eps * (np.abs(h)
                                              @ np.abs(model.output_weights))
    assert (np.abs(got - h @ model.output_weights) <= bound).all()


def test_predict_no_rows():
    model = _random_model(np.random.default_rng(0), 5)
    assert predict(model, np.empty((0, 3))).shape == (0, 2)


def test_model_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    data = regression_data(rng, 20, 3, m=2)
    model, _ = train_eelm(data, 10, seed=4)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.input_dim == model.input_dim
    assert loaded.output_dim == model.output_dim
    assert loaded.n_hidden == model.n_hidden
    assert loaded.provenance == model.provenance
    assert loaded.seed == model.seed
    assert np.array_equal(loaded.node_weights, model.node_weights)
    assert np.array_equal(loaded.biases, model.biases)
    assert np.array_equal(loaded.output_weights, model.output_weights)


def test_model_file_truncation(tmp_path):
    rng = np.random.default_rng(10)
    data = regression_data(rng, 10, 2)
    model, _ = train_elm(data, 4, seed=1)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    text = path.read_text()
    clipped = tmp_path / "clipped.slfn"
    clipped.write_text(text[: len(text) // 2])
    with pytest.raises(FormatError):
        load_model(clipped)


def test_model_file_version_mismatch(tmp_path):
    path = tmp_path / "model.slfn"
    path.write_text("slfn-model/9\n")
    with pytest.raises(FormatError) as exc_info:
        load_model(path)
    message = str(exc_info.value)
    assert "slfn-model/1" in message and "slfn-model/9" in message


def test_model_file_bad_value_reports_offset(tmp_path):
    rng = np.random.default_rng(11)
    data = regression_data(rng, 10, 2)
    model, _ = train_elm(data, 3, seed=1)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    lines = path.read_text().splitlines()
    weights_at = lines.index("node_weights") + 1
    lines[weights_at] = "0xnot-a-float junk"
    bad = tmp_path / "bad.slfn"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc_info:
        load_model(bad)
    assert exc_info.value.offset is not None
    expected = sum(len(line) + 1 for line in lines[:weights_at])
    assert exc_info.value.offset == expected


def test_model_file_unknown_activation_reports_offset(tmp_path):
    rng = np.random.default_rng(12)
    data = regression_data(rng, 10, 2)
    model, _ = train_eelm(data, 3, seed=1)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    lines = path.read_text().splitlines()
    tag_at = lines.index("activation gaussian-rbf")
    lines[tag_at] = "activation sigmoid"
    bad = tmp_path / "bad.slfn"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc_info:
        load_model(bad)
    assert "sigmoid" in str(exc_info.value)
    assert exc_info.value.offset == sum(len(line) + 1
                                        for line in lines[:tag_at])
