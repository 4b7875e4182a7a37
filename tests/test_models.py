"""Training algorithms, prediction, and model serialization."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import eelm
from eelm.datasets import (CLASSIFICATION, REGRESSION, Dataset, gen_sinc,
                           split)
from eelm.errors import (FormatError, NumericalFailure, NumericOverflowError,
                         PreconditionError, ShapeError)
from eelm.linalg import (numerical_rank, pinv_normal, pinv_svd,
                         strict_dominance_report)
from eelm import linalg, models
from eelm.models import (SlfnModel, build_hidden_matrix, load_model, predict,
                         save_model, select_hidden_layer, train_eelm,
                         train_elm)
from eelm.ordering import (build_embedding, embed_or_identity,
                           invlex_sort_indices)
from eelm.selection import select_weights


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _workload_inputs(name, workdir):
    """Training and held-out inputs of instance 0 of a perfbench
    workload at its full size (seed 1), with its node count and seed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    inst = workloads.WORKLOADS[name].setup(
        eelm, 1, workdir, **workloads.SIZES[name]["full"])[0]
    return inst.train.inputs, inst.heldout_x, inst.nodes, inst.seed


@pytest.mark.parametrize("workload", ["sinc-protocol", "tabular-trials",
                                      "large-fit"])
def test_hidden_matrix_is_exp_bit_for_bit_on_workload_inputs(tmp_path,
                                                             workload):
    train, heldout, n_hidden, seed = _workload_inputs(workload, tmp_path)
    rng = np.random.default_rng(seed)  # train_elm's draw
    elm = (rng.uniform(-1.0, 1.0, (n_hidden, train.shape[1])),
           rng.uniform(-1.0, 1.0, n_hidden))
    constructed = select_hidden_layer(train, n_hidden, seed=seed)
    for nodes, biases in (elm, (constructed.node_weights,
                                constructed.biases)):
        for x in (train, heldout):
            # 1000-row blocks bound the memory of the reference
            for start in range(0, len(x), 1000):
                rows = x[start:start + 1000]
                z = rows @ nodes.T + biases
                assert np.array_equal(
                    build_hidden_matrix(nodes, biases, rows).view(np.uint64),
                    np.exp(-(z * z)).view(np.uint64))


@pytest.mark.parametrize("n_hidden", [20, 1000])
def test_hidden_matrix_over_several_blocks_is_the_elementwise_oracle(
        n_hidden):
    # multiples of 1/64 in [-2, 2]: every W_k . x_i + b_k is exact in
    # float64, whatever the order or fusion of BLAS's operations
    rng = np.random.default_rng(n_hidden)
    nodes = rng.integers(-128, 129, (n_hidden, 3)) / 64
    biases = rng.integers(-128, 129, n_hidden) / 64
    inputs = rng.integers(-128, 129, (3 * _block_rows(n_hidden) + 7, 3)) / 64
    assert len(linalg._row_slices(len(inputs), n_hidden)) == 3
    z = np.array([[math.fsum([*(row * node), bias])
                   for node, bias in zip(nodes, biases)] for row in inputs])
    h = build_hidden_matrix(nodes, biases, inputs)
    assert np.array_equal(h.view(np.uint64),
                          np.exp(-(z * z)).view(np.uint64))


def test_hidden_matrix_overflow_in_a_later_block():
    nodes = np.ones((1000, 2))
    inputs = np.zeros((3 * _block_rows(1000), 2))
    inputs[-1, 0] = 1e308
    inputs[-1, 1] = 1e308
    with pytest.raises(NumericOverflowError, match="overflowed"):
        build_hidden_matrix(nodes, np.zeros(1000), inputs)


def test_hidden_matrix_shape_checks():
    with pytest.raises(ShapeError):
        build_hidden_matrix(np.ones((2, 3)), np.ones(1), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        build_hidden_matrix(np.ones((2, 3)), np.ones(2), np.ones((4, 2)))


def test_hidden_matrix_overflow():
    with pytest.raises(NumericOverflowError):
        build_hidden_matrix(np.array([[1e308]]), np.zeros(1),
                            np.array([[1e10]]))


@pytest.mark.parametrize("flaw", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["node_weights", "biases", "inputs"])
def test_hidden_matrix_names_a_non_finite_argument(name, flaw):
    # linalg._as_matrix judges the arguments once the pre-activations of
    # a block are not finite: a flawed input only in the last of three
    args = {"node_weights": np.ones((1000, 2)), "biases": np.zeros(1000),
            "inputs": np.zeros((3 * _block_rows(1000), 2))}
    args[name].flat[-1] = flaw
    with pytest.raises(PreconditionError,
                       match=f"^{name} contains non-finite entries$"):
        build_hidden_matrix(**args)


@pytest.mark.parametrize("flaw", [np.nan, np.inf, -np.inf])
def test_predict_names_non_finite_inputs(flaw):
    model = _random_model(np.random.default_rng(3), 5)
    x = np.ones((3, 3))
    x[2, 1] = flaw
    with pytest.raises(PreconditionError,
                       match="^inputs contains non-finite entries$"):
        predict(model, x)


def test_train_elm_single_sample_exact():
    data = Dataset("one", REGRESSION, np.array([[2.0]]), np.array([[3.0]]))
    model, report = train_elm(data, 1, seed=5)
    h = float(build_hidden_matrix(model.node_weights, model.biases,
                                  data.inputs)[0, 0])
    assert model.output_weights[0, 0] == pytest.approx(3.0 / h, rel=1e-12)
    assert report.train_metric <= 1e-12
    assert report.pinv_path == "svd"


def test_output_weights_that_overflow_are_a_numeric_failure():
    # targets alternating +-1e308 on 40 points: ELM's beta overflows,
    # whichever solve found it; EELM's stays finite, and so does its RMSE
    x = np.linspace(-1.0, 1.0, 40)[:, None]
    y = np.where(np.arange(40) % 2 == 0, 1e308, -1e308)[:, None]
    data = Dataset("huge", REGRESSION, x, y)
    with pytest.raises(NumericOverflowError,
                       match="^output weights overflowed$"):
        train_elm(data, 20, seed=0)
    model, report = train_eelm(data, 20, seed=0)
    assert np.isfinite(model.output_weights).all()
    assert 1e307 < report.train_metric < 1e308


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_validator_judges_anchors_at_every_dimension(d):
    # the same flawed anchor sets get the same error at every d, through
    # the training step and through the embedding alone
    rows = np.arange(1.0, 6.0)[:, None] * np.linspace(1.0, 2.0, d)
    for flaw, message in ((np.nan, "samples contain non-finite entries"),
                          (np.inf, "samples contain non-finite entries"),
                          (None, "samples contain duplicates")):
        x = rows.copy()
        if flaw is None:
            x[3] = x[1]
        else:
            x[2, 0] = flaw
        for call in (lambda: select_hidden_layer(x, len(x), "first"),
                     lambda: embed_or_identity(x)):
            with pytest.raises(PreconditionError) as exc_info:
                call()
            assert type(exc_info.value) is PreconditionError
            assert str(exc_info.value) == message
    # the all-zero rule is the embedding's: a 1-D grid through 0.0 fits
    grid = np.linspace(-1.0, 1.0, 5)[:, None] * np.ones(d)
    if d == 1:
        params = select_hidden_layer(grid, len(grid), "first")
        assert np.isfinite(params.biases).all()
        assert np.array_equal(embed_or_identity(grid), np.ones(1))
    else:
        with pytest.raises(PreconditionError, match="all-zero"):
            select_hidden_layer(grid, len(grid), "first")


def test_float64_tie_of_sound_anchors_is_a_numeric_failure():
    # distinct integer rows in 64 attributes: the embedding needs more
    # digits than float64 holds, so two projections tie. That is a
    # numeric failure naming the attribute that decides the pair.
    x = np.random.default_rng(0).integers(1, 4, (500, 64)).astype(float)
    data = Dataset("int", REGRESSION, x, np.zeros((500, 1)))
    with pytest.raises(NumericOverflowError) as exc_info:
        train_eelm(data, 50, anchor_strategy="first")
    j = exc_info.value.attribute
    i = int(str(exc_info.value).split("sorted samples ")[1].split(" ")[0])
    assert str(exc_info.value).startswith(f"attribute {j}: ")
    anchors = x[:50][invlex_sort_indices(x[:50])]
    assert anchors[i + 1, j] != anchors[i, j]
    assert np.array_equal(anchors[i + 1, j + 1:], anchors[i, j + 1:])


@pytest.mark.parametrize("strategy", ["first", "random", "even"])
def test_select_hidden_layer_checks_node_count(strategy):
    x = np.random.default_rng(8).uniform(1.0, 2.0, (10, 3))
    for n_hidden in (0, -1, x.shape[0] + 1):
        with pytest.raises(PreconditionError, match="n_hidden"):
            select_hidden_layer(x, n_hidden, anchor_strategy=strategy)


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
def test_svd_fits_solve_against_the_targets(n_hidden):
    # 200 nodes on the 200-point sinc grid leave H with numerical rank
    # about 53; 20 nodes give full rank. Forming H's pseudoinverse
    # loses about five of float64's digits on the rank-deficient H (its
    # fitted values were up to 9e-6 off over ELM seeds 0-9), so the two
    # fits agree to 1e-4 on targets of size 1.
    train, _ = gen_sinc(200, 10, seed=0)
    model, report = train_elm(train, n_hidden, seed=3)
    h = build_hidden_matrix(model.node_weights, model.biases, train.inputs)
    assert np.abs(h @ model.output_weights
                  - h @ (pinv_svd(h) @ train.targets)).max() <= 1e-4
    assert report.hidden_matrix_rank_ok == (numerical_rank(h) == n_hidden)
    assert report.hidden_matrix_rank_ok == (n_hidden == 20)

    model, report = train_eelm(train, n_hidden, seed=3, force_svd=True)
    h = build_hidden_matrix(model.node_weights, model.biases, train.inputs)
    assert np.abs(h @ model.output_weights
                  - h @ (pinv_svd(h) @ train.targets)).max() <= 1e-4
    assert report.hidden_matrix_rank_ok == (numerical_rank(h) == n_hidden)


def test_elm_fits_sinc_to_the_least_squares_minimum():
    # the sinc targets lie in the span of H's kept singular vectors to
    # about 1e-11; a fit through the explicit pseudoinverse stopped at
    # 1e-6 to 4e-6
    train, _ = gen_sinc(200, 10, seed=0)
    rmse = [train_elm(train, 200, seed=seed)[1].train_metric
            for seed in range(30)]
    assert max(rmse) <= 1e-9


def test_svd_fit_of_an_all_zero_hidden_matrix():
    # every |z| is far above 27.3, where exp(-z^2) is exactly 0
    data = Dataset("far", REGRESSION, np.full((6, 1), 1e3), np.ones((6, 1)))
    model, report = train_elm(data, 3, seed=0)
    assert not build_hidden_matrix(model.node_weights, model.biases,
                                   data.inputs).any()
    assert np.array_equal(model.output_weights, np.zeros((3, 1)))
    assert not report.hidden_matrix_rank_ok


def test_svd_fit_that_does_not_converge_is_a_numerical_failure(monkeypatch):
    # each driver's LinAlgError: lstsq's for a tall H (10 x 4), svd's for
    # a square one (10 x 10)
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    data = regression_data(np.random.default_rng(4), 10, 2)
    for driver, nodes in (("lstsq", 4), ("svd", 10)):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, driver, fail)
            with pytest.raises(NumericalFailure, match="did not converge"):
                train_elm(data, nodes)
            with pytest.raises(NumericalFailure, match="did not converge"):
                train_eelm(data, nodes, force_svd=True)


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
    model = SlfnModel(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 1)), "elm",
                      seed=0)
    assert np.array_equal(predict(model, np.ones((4, 2))), np.zeros((4, 1)))


def test_predict_vanishes_far_from_training_range():
    train, _ = gen_sinc(100, 10, seed=0)
    model, _ = train_eelm(train, 100, seed=0)
    far = predict(model, np.array([[-1000.0], [1000.0]]))
    assert np.abs(far).max() <= 1e-12


def test_predict_validates_dimensions():
    model = SlfnModel(np.ones((1, 2)), np.zeros(1), np.ones((1, 1)), "eelm")
    with pytest.raises(ShapeError):
        predict(model, np.ones((3, 5)))


# every public entry of the numeric core with an array argument, each
# given the array ``a`` in its place, and the name it reports
_ARRAY_ENTRIES = {
    "build_hidden_matrix(node_weights)": ("node_weights", lambda a:
        build_hidden_matrix(a, np.zeros(len(a)), np.ones((4, a.shape[-1])))),
    "build_hidden_matrix(inputs)": ("inputs", lambda a:
        build_hidden_matrix(np.ones((2, 1)), np.zeros(2), a)),
    "select_hidden_layer": ("inputs", lambda a: select_hidden_layer(a, 1)),
    "predict": ("inputs", lambda a: predict(
        SlfnModel(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), "eelm"), a)),
    "invlex_sort_indices": ("samples", invlex_sort_indices),
    "build_embedding": ("samples", build_embedding),
    "embed_or_identity": ("samples", embed_or_identity),
    "select_weights": ("anchors", lambda a:
        select_weights(a, np.ones(a.shape[-1]))),
}


@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRIES))
@pytest.mark.parametrize("shape", [(3, 0), (1, 0), (3,)])
def test_every_array_argument_is_checked_by_one_rule(entry, shape):
    # linalg._as_2d: 2-D with at least one column, or a ShapeError that
    # names the argument and its shape
    name, call = _ARRAY_ENTRIES[entry]
    with pytest.raises(ShapeError, match=rf"^{name} must be 2-D with at "
                                         rf"least one column, got shape"):
        call(np.ones(shape))


def _random_model(rng, n_hidden, d=3, m=2):
    return SlfnModel(rng.uniform(-1, 1, (n_hidden, d)),
                     rng.uniform(-1, 1, n_hidden),
                     rng.normal(size=(n_hidden, m)), "elm")


def _block_rows(n_hidden):
    """Rows of a whole row block of H: the first of several slices."""
    return linalg._row_slices(3 * linalg.BLOCK_CELLS, n_hidden)[0].stop


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


def test_model_sizes_are_read_off_its_arrays():
    model = _random_model(np.random.default_rng(16), 4, d=3, m=2)
    assert (model.n_hidden, model.input_dim, model.output_dim) == (4, 3, 2)
    assert model.node_weights.shape == (model.n_hidden, model.input_dim)
    assert model.biases.shape == (model.n_hidden,)
    assert model.output_weights.shape == (model.n_hidden, model.output_dim)
    assert [f.name for f in dataclasses.fields(SlfnModel) if f.init] == [
        "node_weights", "biases", "output_weights", "provenance", "seed"]


@pytest.mark.parametrize("node_weights, biases, output_weights", [
    (np.ones((0, 2)), np.ones(0), np.ones((0, 1))),  # no node
    (np.ones((3, 0)), np.ones(3), np.ones((3, 1))),  # no input
    (np.ones((3, 2)), np.ones(3), np.ones((3, 0))),  # no output
    (np.ones((3, 2)), np.ones(2), np.ones((3, 1))),  # a bias short
    (np.ones((3, 2)), np.ones(4), np.ones((3, 1))),  # a bias over
    (np.ones((3, 2)), np.ones(3), np.ones((2, 1))),  # output rows != nodes
    (np.ones(2), np.ones(1), np.ones((1, 1))),       # 1-D node weights
    (np.ones((3, 2)), np.ones(3), np.ones(3)),       # 1-D output weights
])
def test_model_rejects_arrays_that_are_not_a_network(node_weights, biases,
                                                     output_weights):
    with pytest.raises(ShapeError):
        SlfnModel(node_weights, biases, output_weights, "elm", seed=0)


@pytest.mark.parametrize("name", ["node_weights", "biases", "output_weights"])
def test_model_names_its_non_finite_array(name):
    arrays = {"node_weights": np.ones((3, 2)), "biases": np.ones(3),
              "output_weights": np.ones((3, 1))}
    arrays[name].flat[-1] = np.nan
    with pytest.raises(PreconditionError,
                       match=f"^{name} contains non-finite entries$"):
        SlfnModel(**arrays, provenance="elm")


def _three_class_classifier():
    rng = np.random.default_rng(17)
    inputs = rng.normal(0.0, 1.0, (30, 2))
    targets = np.eye(3)[np.arange(30) % 3]
    data = Dataset("three-class", CLASSIFICATION, inputs, targets,
                   class_labels=("a", "b", "c"))
    return train_eelm(data, 6, seed=5)[0]


@pytest.mark.parametrize("make", [
    # the smallest network the file format admits
    lambda: SlfnModel(np.array([[0.5]]), np.array([-0.25]),
                      np.array([[3.0]]), "eelm", seed=0),
    _three_class_classifier,
    lambda: _random_model(np.random.default_rng(18), 3),
], ids=["one-node", "classifier", "no-seed"])
def test_model_save_load_save_is_byte_identical(tmp_path, make):
    model = make()
    first, second = tmp_path / "first.slfn", tmp_path / "second.slfn"
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert (loaded.n_hidden, loaded.input_dim, loaded.output_dim) == (
        model.n_hidden, model.input_dim, model.output_dim)
    assert loaded.seed == model.seed


def test_negative_seed_is_a_precondition_error():
    data = regression_data(np.random.default_rng(19), 10, 2)
    draws = [lambda: train_elm(data, 3, seed=-1),
             lambda: gen_sinc(10, 5, seed=-1),
             lambda: split(data, 0.5, seed=-3)]
    # the anchor strategies that draw nothing refuse it too: a model
    # stores its seed
    for strategy in models.ANCHOR_STRATEGIES:
        draws += [lambda s=strategy: train_eelm(data, 3, s, seed=-1),
                  lambda s=strategy: select_hidden_layer(data.inputs, 3, s,
                                                         -2)]
    draws.append(lambda: SlfnModel(np.ones((1, 2)), np.zeros(1),
                                   np.ones((1, 1)), "eelm", seed=-1))
    for draw in draws:
        with pytest.raises(PreconditionError, match="seed must be >= 0"):
            draw()


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "1", None])
def test_a_seed_that_is_not_an_integer_is_a_precondition_error(seed):
    data = regression_data(np.random.default_rng(19), 10, 2)
    draws = [lambda: train_elm(data, 3, seed=seed),
             lambda: train_eelm(data, 3, seed=seed),
             lambda: train_eelm(data, 3, "first", seed=seed)]
    if seed is not None:  # a model without a seed stores none
        draws.append(lambda: SlfnModel(np.ones((1, 2)), np.zeros(1),
                                       np.ones((1, 1)), "eelm", seed=seed))
    for draw in draws:
        with pytest.raises(PreconditionError, match="seed must be an integer"):
            draw()


def test_a_numpy_integer_seed_trains_and_round_trips(tmp_path):
    data = regression_data(np.random.default_rng(19), 10, 2)
    for train in (train_elm, train_eelm):
        model, _ = train(data, 3, seed=np.int64(4))
        same, _ = train(data, 3, seed=4)
        assert np.array_equal(model.output_weights, same.output_weights)
        save_model(model, tmp_path / "model.slfn")
        assert load_model(tmp_path / "model.slfn").seed == 4


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


def test_model_file_cut_before_a_section_reports_its_end(tmp_path):
    rng = np.random.default_rng(14)
    model, _ = train_elm(regression_data(rng, 10, 2), 3, seed=1)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    text = path.read_text()
    clipped = tmp_path / "clipped.slfn"
    clipped.write_text(text[:text.index("node_weights")])
    with pytest.raises(FormatError, match="file truncated while reading "
                                          "node_weights") as exc_info:
        load_model(clipped)
    assert exc_info.value.offset == clipped.stat().st_size


def test_model_without_seed_round_trips(tmp_path):
    model = _random_model(np.random.default_rng(15), 4)
    assert model.seed is None
    path = tmp_path / "model.slfn"
    save_model(model, path)
    assert "seed none" in path.read_text().splitlines()
    loaded = load_model(path)
    assert loaded.seed is None
    assert np.array_equal(loaded.output_weights, model.output_weights)


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


# a bad or negative seed, an unknown provenance, a hex float too large
# for float64, an infinite or NaN weight (float.fromhex reads both), a
# dimension below 1, a misspelt key and a misspelt section are each
# reported as a FormatError at their own line
@pytest.mark.parametrize("near, shift, replacement", [
    ("seed 1", 0, "seed x"),
    ("seed 1", 0, "seed -1"),
    ("input_dim 2", 0, "input_dim 0"),
    ("seed 1", 0, "sed 1"),
    ("biases", 0, "bias"),
    ("provenance elm", 0, "provenance svm"),
    ("end", -1, "0x1p99999"),
    ("node_weights", 1, "0x1p0 inf"),
    ("biases", 1, "0x1p0 0x1p0 nan"),
    ("end", -1, "-inf"),
])
def test_model_file_bad_line_reports_its_offset(tmp_path, near, shift,
                                                replacement):
    rng = np.random.default_rng(13)
    model, _ = train_elm(regression_data(rng, 10, 2), 3, seed=1)
    path = tmp_path / "model.slfn"
    save_model(model, path)
    lines = path.read_text().splitlines()
    bad_at = lines.index(near) + shift
    lines[bad_at] = replacement
    bad = tmp_path / "bad.slfn"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=replacement.split()[-1]) as exc_info:
        load_model(bad)
    assert exc_info.value.offset == sum(len(line) + 1
                                        for line in lines[:bad_at])


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
