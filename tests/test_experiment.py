import numpy as np
import pytest

from slummap.ccf import DegenerateDataError
from slummap.experiment import (
    CSV_HEADER,
    FeatureTable,
    assemble_table,
    evaluate,
    fit_scaler,
    format_percent,
    report_csv_row,
    run_experiment,
    scale_matrix,
    split_train_test,
    undersample_balance,
)
from slummap.fixtures import make_two_texture_scene
from slummap.raster import FeatureRaster, LabelMask
from slummap.texture import GlcmParams

from .oracles import confusion_oracle


def make_table(n0: int, n1: int, d: int = 3, seed: int = 0) -> FeatureTable:
    rng = np.random.default_rng(seed)
    n = n0 + n1
    labels = np.concatenate([np.zeros(n0, dtype=np.uint8), np.ones(n1, dtype=np.uint8)])
    labels = labels[rng.permutation(n)]
    return FeatureTable(
        features=rng.normal(size=(n, d)),
        labels=labels,
        feature_names=[f"f{i}" for i in range(d)],
    )


def row_ids(table: FeatureTable) -> list[tuple[float, ...]]:
    """Rows of make_table's tables are unique, so a row identifies its sample."""
    return [tuple(row) for row in table.features.tolist()]


# ---------------------------------------------------------------------------
# assemble_table
# ---------------------------------------------------------------------------


def test_assemble_all_valid_row_major():
    values = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
    fr = FeatureRaster(feature_names=["a"], values=values, valid=np.ones((2, 2), bool))
    mask = LabelMask(labels=np.array([[0, 1], [1, 0]], dtype=np.uint8))
    table = assemble_table(fr, mask)
    assert table.n_rows == 4
    assert table.features[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert table.labels.tolist() == [0, 1, 1, 0]


def test_assemble_respects_window_borders():
    h = w = 20
    valid = np.zeros((h, w), bool)
    valid[9:11, 9:11] = True  # the 2x2 centre a 19-window leaves on a 20x20 scene
    values = np.zeros((1, h, w), dtype=np.float32)
    values[:, ~valid] = np.nan
    fr = FeatureRaster(feature_names=["a"], values=values, valid=valid)
    mask = LabelMask(labels=np.zeros((h, w), dtype=np.uint8))
    assert assemble_table(fr, mask).n_rows == 4


def test_assemble_rejects_empty_and_mismatched():
    values = np.full((1, 2, 2), np.nan, dtype=np.float32)
    fr = FeatureRaster(feature_names=["a"], values=values, valid=np.zeros((2, 2), bool))
    mask = LabelMask(labels=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="no usable pixels"):
        assemble_table(fr, mask)
    small = LabelMask(labels=np.zeros((2, 3), dtype=np.uint8))
    good = FeatureRaster(
        feature_names=["a"],
        values=np.zeros((1, 2, 2), np.float32),
        valid=np.ones((2, 2), bool),
    )
    with pytest.raises(ValueError, match="mask"):
        assemble_table(good, small)


# ---------------------------------------------------------------------------
# undersample_balance
# ---------------------------------------------------------------------------


def test_balance_reduces_majority_to_minority():
    table = make_table(100, 50)
    balanced = undersample_balance(table, seed=0)
    assert balanced.class_counts() == (50, 50)


def test_balance_noop_when_already_balanced():
    table = make_table(40, 40)
    assert undersample_balance(table, seed=0) is table


def test_balance_typical_scene_imbalance():
    table = make_table(780, 220)
    balanced = undersample_balance(table, seed=0)
    assert balanced.class_counts() == (220, 220)


def test_balance_preserves_row_order_and_is_subset():
    table = make_table(30, 10, seed=4)
    balanced = undersample_balance(table, seed=0)
    original = row_ids(table)
    kept = row_ids(balanced)
    positions = [original.index(r) for r in kept]
    assert positions == sorted(positions)
    assert set(kept) <= set(original)


def test_balance_requires_both_classes():
    with pytest.raises(DegenerateDataError):
        undersample_balance(make_table(10, 0), seed=0)


def test_balance_seed_changes_selection():
    table = make_table(60, 20, seed=1)
    a = undersample_balance(table, seed=0)
    b = undersample_balance(table, seed=1)
    same = undersample_balance(table, seed=0)
    assert row_ids(a) == row_ids(same)
    assert row_ids(a) != row_ids(b)


# ---------------------------------------------------------------------------
# split_train_test
# ---------------------------------------------------------------------------


def test_split_sizes_100():
    train, test = split_train_test(make_table(60, 40), seed=0)
    assert (train.n_rows, test.n_rows) == (80, 20)


def test_split_sizes_5():
    train, test = split_train_test(make_table(3, 2), seed=0)
    assert (train.n_rows, test.n_rows) == (4, 1)
    assert len(set(row_ids(train)) | set(row_ids(test))) == 5


def test_split_is_deterministic_and_disjoint():
    table = make_table(50, 50, seed=2)
    a_train, a_test = split_train_test(table, seed=0)
    b_train, b_test = split_train_test(table, seed=0)
    assert row_ids(a_train) == row_ids(b_train)
    assert row_ids(a_test) == row_ids(b_test)
    train_set = set(row_ids(a_train))
    test_set = set(row_ids(a_test))
    assert not train_set & test_set
    assert len(train_set | test_set) == table.n_rows


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        split_train_test(make_table(1, 0), seed=0)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scaler_on_one_two_three():
    table = FeatureTable(
        features=np.array([[1.0], [2.0], [3.0]]),
        labels=np.array([0, 1, 0], dtype=np.uint8),
        feature_names=["f0"],
    )
    stats = fit_scaler(table)
    assert stats.means[0] == pytest.approx(2.0)
    assert stats.stds[0] == pytest.approx(1.0)
    scaled = scale_matrix(stats, table.features)
    assert scaled[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_scaled_train_has_zero_mean_unit_std():
    table = make_table(200, 100, d=5, seed=3)
    stats = fit_scaler(table)
    scaled = scale_matrix(stats, table.features)
    assert np.abs(scaled.mean(axis=0)).max() < 1e-9
    assert np.abs(scaled.std(axis=0, ddof=1) - 1).max() < 1e-9


def test_constant_columns_scale_to_zero():
    features = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
    table = FeatureTable(
        features=features,
        labels=np.zeros(10, dtype=np.uint8),
        feature_names=["const", "ramp"],
    )
    stats = fit_scaler(table)
    assert stats.constant_columns.tolist() == [True, False]
    scaled = scale_matrix(stats, table.features)
    assert (scaled[:, 0] == 0).all()


def test_test_set_outliers_never_touch_scaler():
    table = make_table(50, 50, seed=6)
    train, test = split_train_test(table, seed=0)
    stats = fit_scaler(train)
    test.features[0] = 1e9  # extreme outlier in the test block
    stats_after = fit_scaler(train)
    assert np.array_equal(stats.means, stats_after.means)
    assert np.array_equal(stats.stds, stats_after.stds)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_perfect_prediction():
    truth = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    report = evaluate(truth, truth)
    assert report.slum_accuracy == 1.0
    assert report.non_slum_accuracy == 1.0
    assert report.slum_iou == 1.0
    assert report.non_slum_iou == 1.0
    assert report.mean_iou == 1.0
    assert format_percent(report.mean_iou) == "100.0"


def test_evaluate_half_wrong():
    pred = np.array([1, 1, 0, 0], dtype=np.uint8)
    truth = np.array([1, 0, 1, 0], dtype=np.uint8)
    report = evaluate(pred, truth)
    assert report.counts() == {
        "true_positive": 1,
        "false_positive": 1,
        "false_negative": 1,
        "true_negative": 1,
    }
    assert format_percent(report.slum_accuracy) == "50.0"
    assert format_percent(report.slum_iou) == "33.3"
    assert format_percent(report.mean_iou) == "33.3"


def test_evaluate_report_shaped_like_the_medellin_glcm_row():
    # Confusion counts chosen to land on the published-style percentages.
    tp, fn = 952, 48  # slum recall 95.2
    tn, fp = 979, 21  # non-slum recall 97.9
    pred = np.concatenate([np.ones(tp), np.zeros(fn), np.zeros(tn), np.ones(fp)])
    truth = np.concatenate([np.ones(tp + fn), np.zeros(tn + fp)])
    report = evaluate(pred, truth)
    assert format_percent(report.slum_accuracy) == "95.2"
    assert format_percent(report.non_slum_accuracy) == "97.9"
    assert format_percent(report.slum_iou) == "93.2"
    assert format_percent(report.non_slum_iou) == "93.4"
    row = report_csv_row("medellin", "glcm", report)
    assert row.startswith("medellin,glcm,95.2,97.9,")
    assert CSV_HEADER.split(",")[2:7] == ["acc_slum", "acc_non", "iou_slum", "iou_non", "miou"]


def test_evaluate_absent_class_reports_none():
    pred = np.array([1, 0, 1], dtype=np.uint8)
    truth = np.array([1, 1, 1], dtype=np.uint8)
    report = evaluate(pred, truth)
    assert report.non_slum_accuracy is None
    assert report.non_slum_iou is None
    assert report.mean_iou == report.slum_iou
    assert format_percent(report.non_slum_iou) == ""


def test_evaluate_matches_confusion_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, 2, size=n)
        truth = rng.integers(0, 2, size=n)
        report = evaluate(pred, truth)
        expected = confusion_oracle(pred.tolist(), truth.tolist())
        assert report.true_positive == expected["tp"]
        assert report.false_positive == expected["fp"]
        assert report.false_negative == expected["fn"]
        assert report.true_negative == expected["tn"]
        if report.slum_iou is not None:
            assert report.slum_iou <= report.slum_accuracy + 1e-15
        if report.non_slum_iou is not None:
            assert report.non_slum_iou <= report.non_slum_accuracy + 1e-15


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        evaluate(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        evaluate(np.array([]), np.array([]))


def test_format_percent_rounds_half_up():
    assert format_percent(0.335) == "33.5"
    assert format_percent(0.33349) == "33.3"
    assert format_percent(1 / 3) == "33.3"
    assert format_percent(None) == ""


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_scene():
    return make_two_texture_scene(size=48)


def test_run_experiment_glcm_beats_spectral_on_texture_scene(small_scene):
    stack, mask = small_scene
    params = GlcmParams(window=5)
    glcm = run_experiment(stack, mask, "glcm", glcm_params=params, master_seed=0)
    spectral = run_experiment(stack, mask, "spectral", master_seed=0)
    assert glcm.report.mean_iou > spectral.report.mean_iou
    assert glcm.report.mean_iou >= 0.90
    assert spectral.report.mean_iou <= 0.60
    assert glcm.prediction.valid.sum() == 44 * 44
    assert set(glcm.timings) >= {"extract", "balance", "split", "scale", "train", "total"}
    assert glcm.report.seconds > 0


def test_run_experiment_is_deterministic(small_scene):
    stack, mask = small_scene
    params = GlcmParams(window=5)
    a = run_experiment(stack, mask, "glcm", glcm_params=params, master_seed=0)
    b = run_experiment(stack, mask, "glcm", glcm_params=params, master_seed=0)
    assert np.array_equal(a.prediction.labels, b.prediction.labels)
    assert a.report.counts() == b.report.counts()
    from slummap.ccf import model_to_dict

    assert model_to_dict(a.model) == model_to_dict(b.model)


def test_run_experiment_rejects_misaligned_scene(small_scene):
    stack, _ = small_scene
    bad_mask = LabelMask(labels=np.zeros((10, 10), dtype=np.uint8))
    with pytest.raises(Exception, match="pre-aligned"):
        run_experiment(stack, bad_mask, "spectral")


def test_run_experiment_unknown_technique(small_scene):
    stack, mask = small_scene
    with pytest.raises(ValueError, match="technique"):
        run_experiment(stack, mask, "wavelet")
