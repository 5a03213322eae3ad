import copy
import hashlib
import importlib.util
import json
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slummap import ccf, experiment
from slummap.ccf import DegenerateDataError, ForestParams, predict
from slummap.experiment import (
    CSV_HEADER,
    MetricsReport,
    ModelFormatError,
    Pipeline,
    evaluate,
    extract_features,
    fit_scaler,
    format_percent,
    load_pipeline,
    predict_scene,
    report_csv_row,
    report_to_dict,
    run_experiment,
    save_pipeline,
    scale_matrix,
    split_train_test,
    undersample_balance,
)
from slummap.fixtures import make_two_texture_scene
from slummap.raster import BandStack, DimensionMismatchError, LabelMask
from slummap.rng import BALANCE_STREAM, FOREST_STREAM, SPLIT_STREAM, derive_key, stream
from slummap.texture import GlcmParams

from .oracles import (
    apply_tree_oracle,
    balance_oracle,
    confusion_oracle,
    preorder_right,
    split_oracle,
    version_1_document,
    version_2_document,
    version_3_document,
    version_4_document,
)


def make_labels(n0: int, n1: int, seed: int = 0) -> np.ndarray:
    labels = np.concatenate([np.zeros(n0, dtype=np.uint8), np.ones(n1, dtype=np.uint8)])
    return labels[np.random.default_rng(seed).permutation(n0 + n1)]


def class_counts(labels: np.ndarray) -> tuple[int, int]:
    ones = int(labels.sum())
    return labels.shape[0] - ones, ones


# ---------------------------------------------------------------------------
# undersample_balance
# ---------------------------------------------------------------------------


def test_balance_reduces_majority_to_minority():
    labels = make_labels(100, 50)
    assert class_counts(labels[undersample_balance(labels, seed=0)]) == (50, 50)


def test_balance_noop_when_already_balanced():
    kept = undersample_balance(make_labels(40, 40), seed=0)
    assert kept.tolist() == list(range(80))


def test_balance_typical_scene_imbalance():
    labels = make_labels(780, 220)
    assert class_counts(labels[undersample_balance(labels, seed=0)]) == (220, 220)


def test_balance_preserves_row_order_and_is_subset():
    labels = make_labels(30, 10, seed=4)
    kept = undersample_balance(labels, seed=0)
    assert np.all(np.diff(kept) > 0)
    assert 0 <= kept[0] and kept[-1] < labels.shape[0]
    assert set(np.nonzero(labels == 1)[0]) <= set(kept.tolist())


def test_balance_requires_both_classes():
    with pytest.raises(DegenerateDataError):
        undersample_balance(make_labels(10, 0), seed=0)


def test_balance_seed_changes_selection():
    labels = make_labels(60, 20, seed=1)
    a = undersample_balance(labels, seed=0)
    assert np.array_equal(a, undersample_balance(labels, seed=0))
    assert not np.array_equal(a, undersample_balance(labels, seed=1))


# Unequal classes, so the majority-sampling branch runs.
_UNEQUAL_LABELS = st.lists(st.sampled_from([0, 1]), min_size=3, max_size=120).filter(
    lambda labels: 0 < sum(labels) < len(labels) and 2 * sum(labels) != len(labels)
)


@settings(max_examples=200, deadline=None)
@given(labels=_UNEQUAL_LABELS, seed=st.integers(0, 2**64 - 1))
def test_balance_and_split_equal_plain_python_oracles(labels, seed):
    kept = undersample_balance(np.array(labels, dtype=np.uint8), seed=seed)
    assert kept.tolist() == balance_oracle(stream(seed, BALANCE_STREAM), labels)
    train_pos, test_pos = split_train_test(kept.shape[0], seed=seed)
    expected_train, expected_test = split_oracle(stream(seed, SPLIT_STREAM), kept.shape[0])
    assert train_pos.tolist() == expected_train
    assert test_pos.tolist() == expected_test


# ---------------------------------------------------------------------------
# split_train_test
# ---------------------------------------------------------------------------


def test_split_sizes_100():
    train, test = split_train_test(100, seed=0)
    assert (train.shape[0], test.shape[0]) == (80, 20)


def test_split_sizes_5():
    train, test = split_train_test(5, seed=0)
    assert (train.shape[0], test.shape[0]) == (4, 1)
    assert sorted(train.tolist() + test.tolist()) == list(range(5))


def test_split_is_deterministic_and_disjoint():
    a_train, a_test = split_train_test(100, seed=0)
    b_train, b_test = split_train_test(100, seed=0)
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_test, b_test)
    assert np.all(np.diff(a_train) > 0) and np.all(np.diff(a_test) > 0)
    assert not set(a_train.tolist()) & set(a_test.tolist())
    assert len(set(a_train.tolist()) | set(a_test.tolist())) == 100


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        split_train_test(1, seed=0)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scaler_on_one_two_three():
    x = np.array([[1.0], [2.0], [3.0]])
    stats = fit_scaler(x)
    assert stats.means[0] == pytest.approx(2.0)
    assert stats.stds[0] == pytest.approx(1.0)
    assert scale_matrix(stats, x)[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_scaled_train_has_zero_mean_unit_std():
    x = np.random.default_rng(3).normal(size=(300, 5))
    scaled = scale_matrix(fit_scaler(x), x)
    assert np.abs(scaled.mean(axis=0)).max() < 1e-9
    assert np.abs(scaled.std(axis=0, ddof=1) - 1).max() < 1e-9


def test_constant_columns_scale_to_zero():
    x = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
    stats = fit_scaler(x)
    assert stats.constant_columns.tolist() == [True, False]
    assert (scale_matrix(stats, x)[:, 0] == 0).all()


def test_test_set_outliers_never_touch_scaler():
    x = np.random.default_rng(6).normal(size=(100, 3))
    train, test = split_train_test(100, seed=0)
    stats = fit_scaler(x[train])
    x[test[0]] = 1e9  # extreme outlier in a test row
    stats_after = fit_scaler(x[train])
    assert np.array_equal(stats.means, stats_after.means)
    assert np.array_equal(stats.stds, stats_after.stds)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 40),
    columns=st.integers(1, 5),
    block=st.integers(1, 9),
    layout=st.sampled_from("CF"),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_scaler_is_bit_equal_to_the_plain_expressions(
    rows, columns, block, layout, dtype, seed
):
    # Heavy-tailed values round differently under any other order of addition,
    # and blocks of at most 9 rows put several block edges in most matrices.
    x = np.random.default_rng(seed).standard_cauchy(size=(rows, columns)) * 1e3
    x = np.asarray(x, dtype=dtype, order=layout)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "_GATHER_PIXELS", block)
        stats = fit_scaler(x)
    assert stats.means.tobytes() == x.mean(axis=0).astype(np.float64).tobytes()
    assert stats.stds.tobytes() == x.std(axis=0, ddof=1).astype(np.float64).tobytes()


@pytest.mark.parametrize("rows", [4095, 4096, 4097, 3 * 4096 + 1])
def test_fit_scaler_is_bit_equal_across_its_own_block_edges(rows):
    assert experiment._GATHER_PIXELS == 4096
    x = np.random.default_rng(rows).standard_cauchy(size=(rows, 28))
    stats = fit_scaler(x)
    assert stats.means.tobytes() == x.mean(axis=0).tobytes()
    assert stats.stds.tobytes() == x.std(axis=0, ddof=1).tobytes()


def test_fit_scaler_makes_no_full_size_temporary():
    x = np.random.default_rng(5).normal(size=(40_000, 28))  # 8.96 MB
    tracemalloc.start()
    try:
        fit_scaler(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 8  # one block of 4,096 rows is 0.92 MB


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_scale_matrix_is_bit_equal_to_the_plain_expression(dtype, layout):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(257, 6)) * [1.0, 1e-3, 5e4, 1.0, 1.0, 3.0]
    x = np.asarray(x, dtype=dtype, order=layout)
    x[:, 3] = 2.5  # a constant column
    x[:, 5] = -0.0  # a constant column of -0.0, which still scales to +0.0
    stats = fit_scaler(x.astype(np.float64))
    before = x.copy()
    scaled = scale_matrix(stats, x)
    expected = (x.astype(np.float64) - stats.means) / np.where(stats.stds > 0, stats.stds, 1.0)
    expected[:, stats.constant_columns] = 0.0
    assert scaled.dtype == np.float64 and scaled.flags.f_contiguous
    assert np.ascontiguousarray(scaled).tobytes() == np.ascontiguousarray(expected).tobytes()
    assert np.array_equal(x, before) and x.flags[f"{layout}_CONTIGUOUS"]


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
    row = report_csv_row("medellin", "glcm", report, 12.34)
    assert row.startswith("medellin,glcm,95.2,97.9,")
    assert CSV_HEADER.split(",")[2:7] == ["acc_slum", "acc_non", "iou_slum", "iou_non", "miou"]
    assert list(report_to_dict(report)["percent"]) == CSV_HEADER.split(",")[2:7]
    assert row == "medellin,glcm,95.2,97.9,93.2,93.4,93.3,12.3"


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


_COUNT = st.just(0) | st.integers(0, 10**6)


@settings(max_examples=300, deadline=None)
@given(tp=_COUNT, fp=_COUNT, fn=_COUNT, tn=_COUNT)
def test_report_metrics_are_their_definitions_over_the_four_counts(tp, fp, fn, tn):
    # Recall is |pred & truth| / |truth| per class, IoU |pred & truth| / |pred | truth|,
    # and a class absent from the truth has neither; mean IoU averages the defined ones.
    report = MetricsReport(tp, fp, fn, tn)
    assert [f.name for f in fields(report)] == list(report.counts())
    per_class = {}
    for name, hit, truth, pred in (
        ("slum", tp, tp + fn, tp + fp),
        ("non_slum", tn, tn + fp, tn + fn),
    ):
        union = truth + pred - hit
        per_class[name] = (hit / truth, hit / union) if truth else (None, None)
    assert (report.slum_accuracy, report.slum_iou) == per_class["slum"]
    assert (report.non_slum_accuracy, report.non_slum_iou) == per_class["non_slum"]
    ious = [iou for _, iou in per_class.values() if iou is not None]
    assert report.mean_iou == (sum(ious) / len(ious) if ious else None)
    with pytest.raises(AttributeError):
        report.mean_iou = 1.0


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
    assert glcm.timings["total"] > 0


def test_run_experiment_is_deterministic(small_scene):
    stack, mask = small_scene
    params = GlcmParams(window=5)
    a = run_experiment(stack, mask, "glcm", glcm_params=params, master_seed=0)
    b = run_experiment(stack, mask, "glcm", glcm_params=params, master_seed=0)
    assert np.array_equal(a.prediction.labels, b.prediction.labels)
    assert a.report.counts() == b.report.counts()
    trees_a, trees_b = (
        [[getattr(t, f.name).tobytes() for f in fields(t)] for t in r.model.trees] for r in (a, b)
    )
    assert trees_a == trees_b


def _crop_of_the_two_texture_scene():
    # Columns 0-39 of the 64-pixel scene: a run where two predictions of the
    # same test pixels, batched differently, once disagreed.
    stack, mask = make_two_texture_scene(size=64)
    crop = BandStack(band_names=stack.band_names, samples=stack.samples[:, :, :40])
    return crop, LabelMask(labels=mask.labels[:, :40])


@pytest.mark.parametrize("technique", ["spectral", "glcm"])
def test_test_split_report_scores_the_map(technique):
    stack, mask = _crop_of_the_two_texture_scene()
    result = run_experiment(stack, mask, technique, GlcmParams(window=5), master_seed=3)
    rows, cols = np.nonzero(result.prediction.valid & mask.valid)
    labels = mask.labels[rows, cols]
    kept = undersample_balance(labels, seed=3)
    test = kept[split_train_test(kept.shape[0], seed=3)[1]]
    from_map = evaluate(result.prediction.labels[rows[test], cols[test]], labels[test])
    assert result.report.counts() == from_map.counts()


@pytest.mark.parametrize("technique, predicted", [("spectral", 48 * 48), ("glcm", 44 * 44)])
def test_run_experiment_predicts_each_valid_pixel_once(
    small_scene, monkeypatch, technique, predicted
):
    calls = []

    def counting_predict(model, x):
        calls.append(x.shape[0])
        return predict(model, x)

    monkeypatch.setattr(experiment, "predict", counting_predict)
    stack, mask = small_scene
    result = run_experiment(stack, mask, technique, glcm_params=GlcmParams(window=5))
    assert calls == [predicted]
    assert result.prediction.valid.sum() == predicted


def test_assemble_all_valid_row_major():
    # Balancing and splitting pick rows of the usable pixels in row-major order,
    # so the scaler equals one fitted on the same picks from a plain gather.
    rng = np.random.default_rng(5)
    samples = rng.integers(0, 65536, size=(2, 6, 7), dtype=np.uint16)
    labels = (rng.random((6, 7)) < 0.3).astype(np.uint8)
    stack = BandStack(band_names=["B2", "B3"], samples=samples)
    result = run_experiment(
        stack, LabelMask(labels=labels), "spectral", forest=ForestParams(n_trees=1)
    )
    pixels = [(r, c) for r in range(6) for c in range(7)]
    x = np.array([[float(samples[b, r, c]) for b in range(2)] for r, c in pixels])
    y = np.array([labels[r, c] for r, c in pixels], dtype=np.uint8)
    assert class_counts(y)[0] != class_counts(y)[1]
    kept = undersample_balance(y, seed=0)
    train, test = split_train_test(kept.shape[0], seed=0)
    expected = fit_scaler(x[kept[train]])
    assert (result.train_size, result.test_size) == (train.shape[0], test.shape[0])
    assert np.array_equal(result.scaler.means, expected.means)
    assert np.array_equal(result.scaler.stds, expected.stds)


def test_assemble_respects_window_borders():
    # A 19-window leaves the 2x2 centre of a 20x20 scene: columns 9 and 10,
    # one on each side of the class boundary.
    stack, mask = make_two_texture_scene(size=20)
    result = run_experiment(stack, mask, "glcm", glcm_params=GlcmParams(window=19))
    assert (result.train_size, result.test_size) == (3, 1)
    assert result.prediction.valid.sum() == 4


def test_assemble_rejects_empty_and_mismatched(small_scene):
    stack, mask = small_scene
    unlabelled = LabelMask(labels=mask.labels, valid=np.zeros_like(mask.valid))
    with pytest.raises(ValueError, match="no usable pixels"):
        run_experiment(stack, unlabelled, "spectral")
    with pytest.raises(ValueError, match="pre-aligned"):
        run_experiment(stack, LabelMask(labels=mask.labels[:, :-2]), "spectral")


def test_run_experiment_rejects_misaligned_scene(small_scene):
    stack, _ = small_scene
    bad_mask = LabelMask(labels=np.zeros((10, 10), dtype=np.uint8))
    with pytest.raises(Exception, match="pre-aligned"):
        run_experiment(stack, bad_mask, "spectral")


def test_run_experiment_unknown_technique(small_scene):
    stack, mask = small_scene
    with pytest.raises(ValueError, match="technique"):
        run_experiment(stack, mask, "wavelet")


@pytest.mark.parametrize("seed", [2**64, -1])
def test_seeds_outside_64_bits_raise(small_scene, seed):
    # Reduced mod 2^64 they would rerun seed 0 or 2^64 - 1 under another name.
    with pytest.raises(ValueError, match="master seed"):
        derive_key(seed, FOREST_STREAM, 0)
    stack, mask = small_scene
    with pytest.raises(ValueError, match="master seed"):
        run_experiment(stack, mask, "spectral", forest=ForestParams(n_trees=1), master_seed=seed)
    assert derive_key(2**64 - 1, FOREST_STREAM, 0) != derive_key(0, FOREST_STREAM, 0)


@pytest.fixture(scope="module")
def spectral_result(small_scene):
    return run_experiment(*small_scene, "spectral", forest=ForestParams(n_trees=1))


def test_predict_scene_rejects_features_that_are_not_the_models(small_scene, spectral_result):
    stack, _ = small_scene
    model, scaler = spectral_result.model, spectral_result.scaler
    reverse = BandStack(band_names=stack.band_names[::-1], samples=stack.samples[::-1])
    features = extract_features(reverse, "spectral")
    message = "feature 0 is 'B12' where the model has 'B2'"
    with pytest.raises(DimensionMismatchError, match=message):
        predict_scene(features, None, model, scaler)
    four = extract_features(BandStack(stack.band_names[:4], stack.samples[:4]), "spectral")
    with pytest.raises(DimensionMismatchError, match="expects 10 features but .* produced 4"):
        predict_scene(four, None, model, scaler)


def test_predict_scene_rejects_a_mask_of_another_size(spectral_result):
    # Checked before any pixel is routed, not left to the scoring's broadcast.
    features = extract_features(make_two_texture_scene(24)[0], "spectral")
    mask = LabelMask(labels=np.zeros((24, 22), dtype=np.uint8))
    with pytest.raises(DimensionMismatchError, match="mask is 22x24 but the features are 24x24"):
        predict_scene(features, mask, spectral_result.model, spectral_result.scaler)


def test_predict_scene_without_a_valid_pixel_maps_nothing(small_scene, spectral_result):
    stack, mask = small_scene
    features = extract_features(stack, "spectral")
    features.valid[:] = False
    model, scaler = spectral_result.model, spectral_result.scaler
    prediction, report = predict_scene(features, mask, model, scaler)
    assert not prediction.valid.any() and not prediction.labels.any()
    assert report is None


def test_predict_scene_holds_at_most_one_and_a_half_feature_matrices():
    # numpy reports its buffers to tracemalloc. The one full-size array is the
    # scaled matrix, gathered feature by feature: 1.47 matrices at the peak,
    # where routing adds the root's (N, lambda) block (6 / 28 of it), the
    # pixel indices and per-tree vectors of N values. A float32 gather beside
    # the matrix read 1.68; widening, subtracting and dividing into separate
    # arrays, and copying every row at the root, peaked at 3.1 matrices.
    stack, mask = make_two_texture_scene(64)
    result = run_experiment(stack, mask, "glcm", forest=ForestParams(n_trees=3))
    features = extract_features(make_two_texture_scene(96)[0], "glcm")
    matrix_bytes = int(features.valid.sum()) * len(features.feature_names) * 8
    tracemalloc.start()
    try:
        predict_scene(features, None, result.model, result.scaler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * matrix_bytes


def test_run_experiment_trains_on_a_column_major_matrix_it_frees_before_the_map(
    small_scene, monkeypatch
):
    # The forest reads the training matrix column-major: scaling writes it so,
    # and train_forest then copies nothing. The map stage does not need it.
    seen = {}

    def spy_train(x, *args, **kwargs):
        seen["column_major"] = x.flags.f_contiguous and not x.flags.c_contiguous
        seen["matrix"] = weakref.ref(x)
        return ccf.train_forest(x, *args, **kwargs)

    def spy_predict_scene(*args):
        seen["alive_at_map"] = seen["matrix"]() is not None
        return predict_scene(*args)

    monkeypatch.setattr(experiment, "train_forest", spy_train)
    monkeypatch.setattr(experiment, "predict_scene", spy_predict_scene)
    run_experiment(*small_scene, "glcm", glcm_params=GlcmParams(window=5))
    assert seen == {"column_major": True, "matrix": seen["matrix"], "alive_at_map": False}


def _run_outputs(stack, mask, technique, path):
    """The saved model bytes, map, scaler and both reports of one run."""
    params = GlcmParams(window=5) if technique == "glcm" else None
    result = run_experiment(stack, mask, technique, params)
    save_pipeline(Pipeline(technique, params, result.scaler, result.model), path)
    return (path.read_bytes(), result.prediction.labels.tobytes(),
            result.prediction.valid.tobytes(), result.scaler.means.tobytes(),
            result.scaler.stds.tobytes(), result.report, result.full_report)


@pytest.mark.parametrize("technique", ["spectral", "glcm"])
def test_the_gathers_block_size_moves_no_output(technique, monkeypatch, tmp_path):
    # The README demo scene: about 12,300 training rows, three default blocks.
    stack, mask = make_two_texture_scene(128)
    default = _run_outputs(stack, mask, technique, tmp_path / "default.json")
    for pixels in (1, 7):
        monkeypatch.setattr(experiment, "_GATHER_PIXELS", pixels)
        assert _run_outputs(stack, mask, technique, tmp_path / f"{pixels}.json") == default


def test_an_irregular_pixel_set_is_scaled_and_scored_pixel_by_pixel():
    # Holes in the mask, most of them on the slum side, leave unbalanced labels
    # at scattered flat indices; a plain per-pixel gather of the same picks
    # must give the same scaler, and the map at the test picks the same report.
    stack, mask = make_two_texture_scene(48)
    rng = np.random.default_rng(11)
    valid = rng.random(mask.labels.shape) < np.where(mask.labels == 1, 0.5, 0.9)
    mask = LabelMask(labels=mask.labels, valid=valid)
    params = GlcmParams(window=5)
    result = run_experiment(stack, mask, "glcm", params, master_seed=4)
    features = extract_features(stack, "glcm", params)
    usable = features.valid & mask.valid
    pixels = [(r, c) for r in range(48) for c in range(48) if usable[r, c]]
    x = np.array([[float(v) for v in features.values[:, r, c]] for r, c in pixels])
    y = np.array([mask.labels[r, c] for r, c in pixels], dtype=np.uint8)
    assert class_counts(y)[0] > 1.2 * class_counts(y)[1]
    kept = undersample_balance(y, seed=4)
    train_pos, test_pos = split_train_test(kept.shape[0], seed=4)
    expected = fit_scaler(x[kept[train_pos]])
    assert np.array_equal(result.scaler.means, expected.means)
    assert np.array_equal(result.scaler.stds, expected.stds)
    test = [pixels[i] for i in kept[test_pos]]
    from_map = evaluate(np.array([result.prediction.labels[p] for p in test]),
                        np.array([mask.labels[p] for p in test]))
    assert result.report == from_map and result.test_size == len(test)


# ---------------------------------------------------------------------------
# the model file
# ---------------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**65), 2**65) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def glcm_model_doc(small_scene, tmp_path_factory):
    stack, mask = small_scene
    params = GlcmParams(window=5)
    result = run_experiment(stack, mask, "glcm", params, ForestParams(n_trees=2))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_pipeline(Pipeline("glcm", params, result.scaler, result.model), path)
    return json.loads(path.read_text(encoding="utf-8"))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=_JSON_VALUES)
def test_model_file_loads_only_what_saves_back_to_the_same_bytes(
    glcm_model_doc, tmp_path_factory, data, value
):
    # One value at any depth of a saved document becomes any JSON value.
    doc = copy.deepcopy(glcm_model_doc)
    holder, key, target = None, None, doc
    for _ in range(data.draw(st.integers(0, 8), label="depth")):
        if type(target) not in (dict, list) or not target:
            break
        keys = sorted(target) if type(target) is dict else range(len(target))
        holder, key = target, data.draw(st.sampled_from(keys), label="key")
        target = holder[key]
    if holder is None:
        doc = value
    else:
        holder[key] = value
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(_dump(doc), encoding="utf-8")
    try:
        pipeline = load_pipeline(path)
    except ModelFormatError:
        return
    save_pipeline(pipeline, path)
    assert path.read_text(encoding="utf-8") == _dump(doc)


@settings(max_examples=500, deadline=None)
@given(
    trees=st.lists(st.lists(st.booleans(), max_size=12), min_size=1, max_size=4),
    flip=st.integers(-1, 40),
    data=st.data(),
)
def test_shape_check_accepts_exactly_the_leaves_that_parse_as_one_tree_per_size(
    trees, flip, data
):
    # Each list of draws spells one preorder tree: while a subtree is open a
    # draw makes the next node a leaf (True) or a split, and leaves close the
    # rest. One flag may then flip, and the sizes may be cut anywhere.
    flags, sizes = [], []
    for draws in trees:
        tree, open_subtrees = [], 1
        for leaf in draws + [True] * (len(draws) + 1):
            if not open_subtrees:
                break
            tree.append(leaf)
            open_subtrees += -1 if leaf else 1
        flags += tree
        sizes.append(len(tree))
    if flip < len(flags):
        flags[flip] = not flags[flip]
    if len(flags) > 1 and data.draw(st.booleans(), label="recut"):
        cuts = data.draw(st.sets(st.integers(1, len(flags) - 1), max_size=4), label="cuts")
        sizes = np.diff([0, *sorted(cuts), len(flags)]).tolist()
    starts = np.cumsum(sizes) - sizes
    if any(preorder_right(flags[start : start + size]) is None for start, size in zip(starts, sizes)):
        with pytest.raises(ModelFormatError, match="one full binary tree"):
            experiment._check_shape(np.array(flags), sizes)
    else:
        experiment._check_shape(np.array(flags), sizes)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 120),
    d=st.integers(1, 4),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_grown_trees_pass_the_shape_check_and_route_as_their_parsed_children(n, d, levels, seed):
    # The grower stores no child index; its leaves, the nodes with counts,
    # must spell one preorder tree each, the loader must accept them, and the
    # router must send the training rows where the parsed children do.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, d)).astype(np.float64)
    y = rng.integers(0, 2, size=n).astype(np.uint8)
    y[:2] = [0, 1]
    trees = ccf.train_forest(x, y, ForestParams(n_trees=3), master_seed=seed).trees
    leaves = [tree.class_counts.any(axis=1) for tree in trees]
    assert all(preorder_right(leaf.tolist()) is not None for leaf in leaves)
    experiment._check_shape(np.concatenate(leaves), [len(leaf) for leaf in leaves])
    for tree in trees:
        assert ccf.apply_tree(tree, x).tolist() == apply_tree_oracle(tree, x).tolist()


# sha256 of a small noisy model's file as saved (version 5), and of the same
# document in the version 4, 3, 2 and 1 layouts, which is what those writers gave
# for it: a one-ulp drift of any projection or threshold changes all five.
_MODEL_SHA256 = {
    "glcm": (
        "e4a3f27d3155c9dd283b840ef5b878d63128c8a14a3ef406644316079942aefa",
        "357ec3e5945c19bf79b7e5331c5c81e97f3b16b2758425d08b13480691a9fc53",
        "b151fdd3f272ff95a78b579355b4699d06ffccafbaec85981197187a9539ac30",
        "ec0389c35171115aeedf03ab3d019498f0579c94de36a4da2bcd53190a343643",
        "45a4c5375ee8f9df23c04ca7666505f1b87f65af7151e63857536b2ce738a9b1",
    ),
    "spectral": (
        "b39442c0a70297de21f8315c8fa28535f9b296bf294ccafc65f28a7003f1a7e0",
        "a5fe3f7c4212ebd691dbbd1653e3d75836edf75fffcb33e9f9571f1f7aac627e",
        "536cfb7195eff483b1fcf3703c3f1d0021e62a6e6f5a51198b7815ed0606f339",
        "663e649582437782bbb76d318acf36681969a2368e204917e98e798f012ccd22",
        "9894359d708c461914af910b6f30e569f4cdd1b928d6f230ca7a0e8bb3f58d08",
    ),
}


@pytest.mark.parametrize("technique", sorted(_MODEL_SHA256))
def test_saved_model_bytes_are_pinned(technique, tmp_path):
    stack, mask = make_two_texture_scene(24)
    noise = np.random.default_rng(1).integers(-15000, 15000, size=stack.samples.shape)
    stack = BandStack(stack.band_names, np.clip(stack.samples + noise, 0, 65535).astype(np.uint16))
    params = GlcmParams(window=5) if technique == "glcm" else None
    result = run_experiment(stack, mask, technique, params)
    path = tmp_path / "model.json"
    save_pipeline(Pipeline(technique, params, result.scaler, result.model), path)
    raw = path.read_bytes()
    saved, version_4, version_3, version_2, version_1 = _MODEL_SHA256[technique]
    as_version_4 = version_4_document(json.loads(raw))
    assert hashlib.sha256(_dump(as_version_4).encode()).hexdigest() == version_4
    as_version_3 = version_3_document(as_version_4)
    assert hashlib.sha256(_dump(as_version_3).encode()).hexdigest() == version_3
    as_version_2 = version_2_document(as_version_3)
    assert hashlib.sha256(_dump(as_version_2).encode()).hexdigest() == version_2
    as_version_1 = _dump(version_1_document(as_version_2)).encode()
    assert hashlib.sha256(as_version_1).hexdigest() == version_1
    assert hashlib.sha256(raw).hexdigest() == saved


def test_perfbench_record_counts_through_the_node_view(monkeypatch):
    # The benchmark counts nodes, leaves and depth through CcTree.nodes and
    # ccf.tree_depth; its seed-1 record is read here, never written.
    root = Path(__file__).resolve().parents[1] / "perfbench"
    expected = json.loads((root / "expected_seed1.json").read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    for name in ("glcm-noisy", "spectral-noisy"):
        w = workloads.WORKLOADS[name]
        stack, mask = workloads.noisy_scene(w.size, 1)
        model = run_experiment(stack, mask, w.technique, w.glcm_params, jobs=w.jobs).model
        counts = {
            "ccf.nodes": sum(len(tree.nodes) for tree in model.trees),
            "ccf.leaves": sum(node.is_leaf for tree in model.trees for node in tree.nodes),
            "ccf.max_depth": max(ccf.tree_depth(tree) for tree in model.trees),
        }
        assert counts == {key: expected[name]["counts"][key] for key in counts}, name
