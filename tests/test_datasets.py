"""CSV loading, the sinc generator, splits, and metrics."""

import math

import numpy as np
import pytest

from eelm.datasets import (CLASSIFICATION, REGRESSION, CsvSchema, Dataset,
                           _one_hot_encode, classification_rate, gen_sinc,
                           load_csv, minmax_scale, rmse, sinc, split)
from eelm.errors import FormatError, PreconditionError, ShapeError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_regression(tmp_path):
    path = write(tmp_path, "r.csv", "a,b,y\n1,2,10\n3,4,20\n5,6,30\n")
    data = load_csv(path, CsvSchema(target="y"))
    assert data.task == REGRESSION
    assert data.n_samples == 3 and data.n_features == 2 and data.n_outputs == 1
    assert np.array_equal(data.inputs, [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(data.targets, [[10], [20], [30]])


def test_load_csv_classification_first_seen_order(tmp_path):
    path = write(tmp_path, "c.csv", "x,label\n0.5,a\n1.5,b\n2.5,a\n")
    data = load_csv(path, CsvSchema(target="label", task=CLASSIFICATION))
    assert data.class_labels == ("a", "b")
    assert np.array_equal(data.targets, [[1, 0], [0, 1], [1, 0]])


def test_load_csv_bad_cell_location(tmp_path):
    path = write(tmp_path, "bad.csv", "a,b,y\n1,x,3\n")
    with pytest.raises(FormatError) as exc_info:
        load_csv(path, CsvSchema(target="y"))
    assert exc_info.value.line == 1
    assert exc_info.value.column == 2


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "ragged.csv", "a,b,y\n1,2,3\n4,5\n")
    with pytest.raises(FormatError) as exc_info:
        load_csv(path, CsvSchema(target="y"))
    assert exc_info.value.line == 2


def test_load_csv_parses_cells_as_float_does(tmp_path):
    cells = [" 1.5 ", "1_0", "\uff11\uff12", "+.5", "1e-320"]
    path = write(tmp_path, "odd.csv", "a,y\n" + "".join(
        f"{c},{k}\n" for k, c in enumerate(cells)))
    data = load_csv(path, CsvSchema(target="y"))
    assert data.inputs[:, 0].tolist() == [float(c) for c in cells]
    for k, cell in enumerate(["0x10", ""], start=1):
        path = write(tmp_path, f"bad{k}.csv", f"a,b,y\n1,2,3\n4,{cell},6\n")
        with pytest.raises(FormatError) as exc_info:
            load_csv(path, CsvSchema(target="y"))
        assert (exc_info.value.line, exc_info.value.column) == (2, 2)
        assert "not numeric" in str(exc_info.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = write(tmp_path, "nf.csv", f"a,b,y\n1,2,3\n4,{cell},6\n")
    with pytest.raises(FormatError) as exc_info:
        load_csv(path, CsvSchema(target="y"))
    assert (exc_info.value.line, exc_info.value.column) == (2, 2)
    assert "not finite" in str(exc_info.value)
    # a regression target too
    path = write(tmp_path, "nft.csv", f"y,a\n{cell},1\n3,2\n")
    with pytest.raises(FormatError) as exc_info:
        load_csv(path, CsvSchema(target="y"))
    assert (exc_info.value.line, exc_info.value.column) == (1, 1)
    assert "target cell" in str(exc_info.value)


def test_load_csv_class_labels_may_read_as_non_finite(tmp_path):
    path = write(tmp_path, "lab.csv", "x,label\n0.5,nan\n1.5,inf\n")
    data = load_csv(path, CsvSchema(target="label", task=CLASSIFICATION))
    assert data.class_labels == ("nan", "inf")


def test_load_csv_reports_the_first_bad_cell(tmp_path):
    # attribute cells are checked row by row before any target cell
    path = write(tmp_path, "two.csv", "a,y,b\n1,x,2\n3,4,nan\n5,6,z\n")
    with pytest.raises(FormatError) as exc_info:
        load_csv(path, CsvSchema(target="y"))
    assert (exc_info.value.line, exc_info.value.column) == (2, 3)
    assert "not finite" in str(exc_info.value)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_csv(tmp_path / "nope.csv", CsvSchema(target="y"))


def test_load_csv_missing_target_column(tmp_path):
    path = write(tmp_path, "m.csv", "a,b\n1,2\n")
    with pytest.raises(FormatError):
        load_csv(path, CsvSchema(target="y"))


def test_load_csv_reads_a_utf8_byte_order_mark_as_one(tmp_path):
    # as spreadsheets write "CSV UTF-8": the mark precedes the first
    # header cell, here the target
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,x2,y\r\n1,2,3\r\n4,5,6\r\n")
    data = load_csv(path, CsvSchema(target="x1"))
    assert np.array_equal(data.targets, [[1], [4]])
    assert np.array_equal(data.inputs, [[2, 3], [5, 6]])


def test_load_csv_multi_target_regression(tmp_path):
    path = write(tmp_path, "m2.csv", "a,y1,y2\n1,2,3\n4,5,6\n")
    data = load_csv(path, CsvSchema(target=("y1", "y2")))
    assert data.n_outputs == 2
    assert np.array_equal(data.targets, [[2, 3], [5, 6]])


@pytest.mark.parametrize("header", ["y,x,y", "x,y,y", " y,x,y "])
def test_load_csv_header_that_repeats_a_name_is_a_format_error(tmp_path,
                                                               header):
    # the second y would be read as an attribute
    path = write(tmp_path, "dup.csv", f"{header}\n1,2,3\n4,5,6\n")
    with pytest.raises(FormatError, match="^header column 'y' is given "
                                          "twice: path="):
        load_csv(path, CsvSchema(target="y"))


@pytest.mark.parametrize("target", [("y", "y"), ("y", "z", "y")])
def test_load_csv_target_named_twice_is_a_precondition_error(tmp_path,
                                                             target):
    path = write(tmp_path, "t.csv", "x,y,z\n1,2,3\n4,5,6\n")
    with pytest.raises(PreconditionError,
                       match="^target 'y' is given twice$"):
        load_csv(path, CsvSchema(target=target))


def test_one_hot_round_trip():
    labels = ["red", "blue", "red", "green", "blue"]
    rows, classes = _one_hot_encode(labels)
    assert classes == ["red", "blue", "green"]


def test_sinc_values():
    assert sinc(np.array([0.0]))[0] == 1.0
    assert abs(sinc(np.array([math.pi]))[0]) <= 1e-15
    # independent evaluation at an arbitrary point
    assert sinc(np.array([2.3]))[0] == pytest.approx(math.sin(2.3) / 2.3,
                                                     rel=1e-15)


def test_gen_sinc_grid():
    train, test = gen_sinc(200, 50, seed=0)
    x = train.inputs[:, 0]
    assert x[0] == -10.0 and x[-1] == 10.0
    assert np.allclose(np.diff(x), 20.0 / 199.0, atol=1e-12)
    assert test.n_samples == 50
    assert (np.abs(test.inputs) <= 30.0).all()
    nz = x != 0
    assert np.abs(train.targets[nz, 0] - np.sin(x[nz]) / x[nz]).max() <= 1e-15


def test_gen_sinc_noise_and_determinism():
    t1, _ = gen_sinc(50, 10, seed=3, noise_sigma=0.1)
    t2, _ = gen_sinc(50, 10, seed=3, noise_sigma=0.1)
    clean, _ = gen_sinc(50, 10, seed=3)
    assert np.array_equal(t1.targets, t2.targets)
    assert not np.array_equal(t1.targets, clean.targets)
    assert np.array_equal(t1.inputs, clean.inputs)


def test_gen_sinc_normal_test_distribution():
    _, test = gen_sinc(10, 500, seed=4, test_distribution="normal")
    x = test.inputs[:, 0]
    assert (np.abs(x) <= 30.0).all()
    # a scaled truncated normal concentrates mass near zero
    assert np.mean(np.abs(x) <= 10.0) > 0.5
    with pytest.raises(PreconditionError):
        gen_sinc(10, 10, seed=0, test_distribution="cauchy")


@pytest.mark.parametrize("n_test", [1, 7, 200, 5000])
def test_gen_sinc_normal_matches_draw_until_accepted(n_test):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        expected = np.empty(n_test)
        for i in range(n_test):
            z = rng.standard_normal()
            while abs(z) > 3.0:
                z = rng.standard_normal()
            expected[i] = 10.0 * z
        _, test = gen_sinc(10, n_test, seed=seed, test_distribution="normal")
        assert np.array_equal(test.inputs[:, 0], expected)


def test_gen_sinc_validation():
    with pytest.raises(PreconditionError):
        gen_sinc(1, 10, seed=0)
    with pytest.raises(PreconditionError):
        gen_sinc(10, 10, seed=0, noise_sigma=-1.0)


@pytest.mark.parametrize("noise", [math.nan, math.inf])
def test_gen_sinc_refuses_noise_that_is_not_a_finite_number(noise):
    # NaN would add no noise (nan > 0 is false); inf would fail later as
    # "non-finite values" without naming the setting
    with pytest.raises(PreconditionError, match="noise_sigma must be a "
                                                "finite number >= 0"):
        gen_sinc(10, 10, seed=0, noise_sigma=noise)


def test_split_sizes_and_partition():
    rng = np.random.default_rng(0)
    data = Dataset("t", REGRESSION, rng.normal(size=(4, 2)),
                   rng.normal(size=(4, 1)))
    train, test = split(data, 0.75, seed=1)
    assert train.n_samples == 3 and test.n_samples == 1
    merged = np.vstack([train.inputs, test.inputs])
    assert np.array_equal(np.sort(merged, axis=0),
                          np.sort(data.inputs, axis=0))


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(1)
    data = Dataset("t", REGRESSION, rng.normal(size=(40, 3)),
                   rng.normal(size=(40, 1)))
    a1, b1 = split(data, 0.6, seed=9)
    a2, b2 = split(data, 0.6, seed=9)
    assert np.array_equal(a1.inputs, a2.inputs)
    assert np.array_equal(b1.inputs, b2.inputs)
    a3, _ = split(data, 0.6, seed=10)
    assert a3.n_samples == a1.n_samples
    assert not np.array_equal(a3.inputs, a1.inputs)


def test_split_degenerate():
    data = Dataset("t", REGRESSION, np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(PreconditionError):
        split(data, 0.5, seed=0)
    big = Dataset("t", REGRESSION, np.ones((10, 1)), np.ones((10, 1)))
    with pytest.raises(PreconditionError):
        split(big, 1.5, seed=0)


def test_rmse_examples():
    assert rmse(np.ones((3, 2)), np.ones((3, 2))) == 0.0
    assert rmse(np.zeros((2, 1)), np.array([[3.0], [4.0]])) == \
        pytest.approx(math.sqrt(12.5))
    base = np.random.default_rng(2).normal(size=(5, 2))
    assert rmse(base + 0.7, base) == pytest.approx(0.7)
    with pytest.raises(ShapeError):
        rmse(np.ones((2, 2)), np.ones((3, 2)))


def test_rmse_of_finite_inputs_is_finite_or_inf_without_a_warning():
    # the suite turns warnings into errors; none of these may warn
    assert rmse([[1e200]], [[0.0]]) == 1e200  # the square overflows
    # the difference overflows too, the root does not: 2e308 / sqrt(4)
    assert rmse([[1e308], [0.0], [0.0], [0.0]],
                [[-1e308], [0.0], [0.0], [0.0]]) == 1e308
    assert rmse([[1e308]], [[-1e308]]) == math.inf
    # inputs whose squares stay finite keep the direct formula's bits
    rng = np.random.default_rng(3)
    for scale in (1e-300, 1.0, 1e150):
        p, t = rng.normal(size=(2, 50, 3)) * scale
        assert rmse(p, t) == float(np.sqrt(np.mean((p - t) ** 2)))


def test_classification_rate_examples():
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert classification_rate(t, t) == 1.0
    assert classification_rate(t[::-1], t) == 0.0
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert classification_rate(p, t) == 0.5
    # tie scores resolve to the lowest index
    tie = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert classification_rate(tie, t) == 0.5
    with pytest.raises(ShapeError):
        classification_rate(np.ones((2, 1)), np.ones((2, 1)))


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset("x", REGRESSION, np.ones((2, 2)), np.ones((3, 1)))
    with pytest.raises(PreconditionError):
        Dataset("x", REGRESSION, np.array([[np.nan]]), np.ones((1, 1)))
    with pytest.raises(PreconditionError):
        Dataset("x", CLASSIFICATION, np.ones((2, 2)),
                np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(PreconditionError):
        Dataset("x", "clustering", np.ones((1, 1)), np.ones((1, 1)))


@pytest.mark.parametrize("inputs, targets", [
    (np.ones((5, 0)), np.ones((5, 1))),
    (np.ones((5, 2)), np.ones((5, 0))),
])
def test_dataset_needs_an_attribute_and_a_target_column(inputs, targets):
    with pytest.raises(ShapeError, match="at least one column"):
        Dataset("x", REGRESSION, inputs, targets)


@pytest.mark.parametrize("flaw", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["inputs", "targets"])
def test_dataset_names_its_non_finite_array(name, flaw):
    arrays = {"inputs": np.ones((3, 2)), "targets": np.ones((3, 1))}
    arrays[name][1, 0] = flaw
    with pytest.raises(PreconditionError,
                       match=f"^{name} contains non-finite entries$"):
        Dataset("x", REGRESSION, **arrays)


def test_dataset_without_rows_is_a_shape_error():
    with pytest.raises(ShapeError, match="^inputs has no rows"):
        Dataset("x", REGRESSION, np.ones((0, 2)), np.ones((0, 1)))


def test_minmax_scale():
    data = Dataset("x", REGRESSION,
                   np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]),
                   np.zeros((3, 1)))
    scaled = minmax_scale(data)
    assert np.array_equal(scaled.inputs[:, 0], [-1.0, 1.0, 0.0])
    # constant attribute lands on the midpoint
    assert np.array_equal(scaled.inputs[:, 1], [0.0, 0.0, 0.0])
    assert np.array_equal(scaled.targets, data.targets)
