"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its tolerance and runtime budget."""

import math
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np

from slummap.ccf import RIDGE, cca_fit, predict, train_forest
from slummap.experiment import evaluate, run_experiment
from slummap.fixtures import make_two_texture_scene, write_demo_scene
from slummap.texture import MEASURES, GlcmParams, _band_measures

from .oracles import confusion_oracle, glcm_oracle, haralick_oracle, lda_direction_oracle


def report(criterion: str, elapsed: float, budget: float | None = None) -> None:
    budget_note = f" (budget {budget:.0f}s)" if budget is not None else ""
    print(f"[criterion] {criterion}: PASS in {elapsed:.2f}s{budget_note}")


def _kernel(image, direction: int, levels: int, window: int) -> dict[str, np.ndarray]:
    """The co-occurrence kernel's seven planes for one direction, by measure name."""
    params = GlcmParams(levels=levels, window=window, directions=(direction,))
    planes = _band_measures(np.asarray(image)[np.newaxis], params)
    return dict(zip(MEASURES, planes[0]))


def test_c1_glcm_matches_bruteforce_oracle_on_1000_windows():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    windows = 0
    while windows < 1000:
        window = int(rng.choice([3, 5, 7]))
        h = window + int(rng.integers(0, 3))
        w = window + int(rng.integers(0, 3))
        levels = int(rng.integers(2, 5))
        image = rng.integers(0, levels, size=(h, w)).astype(np.int32)
        for direction in (0, 45, 90, 135):
            kernel = _kernel(image, direction, levels, window)
            for r in range(h - window + 1):
                for c in range(w - window + 1):
                    win = image[r : r + window, c : c + window].tolist()
                    expected = haralick_oracle(glcm_oracle(win, direction, levels))
                    for name in MEASURES:
                        assert abs(kernel[name][r, c] - expected[name]) <= 1e-9, name
        windows += (h - window + 1) * (w - window + 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        f"1 GLCM kernel vs oracle ({windows} windows, <=7x7, <=4 levels, 4 directions)",
        elapsed,
        10.0,
    )


def test_c2_haralick_hand_values():
    t0 = time.perf_counter()
    tol = 1e-12

    # A constant image: the point mass p[0, 0] = 1.
    point = _kernel(np.zeros((3, 3)), 0, levels=2, window=3)
    assert abs(point["second_moment"][0, 0] - 1.0) <= tol
    assert abs(point["contrast"][0, 0]) <= tol
    assert abs(point["homogeneity"][0, 0] - 1.0) <= tol
    assert abs(point["entropy"][0, 0]) <= tol
    assert abs(point["mean"][0, 0]) <= tol
    assert abs(point["variance"][0, 0]) <= tol
    assert point["correlation"][0, 0] == 0.0

    # Every row 0,0,1,1,0: horizontal pairs (0,0), (0,1), (1,1), (1,0) equally
    # often, the uniform matrix at 0 degrees.
    uniform = _kernel(np.tile([0, 0, 1, 1, 0], (5, 1)), 0, levels=2, window=5)
    assert abs(uniform["second_moment"][0, 0] - 0.25) <= tol
    assert abs(uniform["contrast"][0, 0] - 0.5) <= tol
    assert abs(uniform["homogeneity"][0, 0] - 0.75) <= tol
    assert abs(uniform["entropy"][0, 0] - math.log(4)) <= tol
    assert abs(uniform["mean"][0, 0] - 0.5) <= tol
    assert abs(uniform["variance"][0, 0] - 0.25) <= tol
    assert abs(uniform["correlation"][0, 0]) <= tol

    # A checkerboard: every horizontal pair differs, the anti-diagonal matrix.
    anti = _kernel(np.indices((3, 3)).sum(axis=0) % 2, 0, levels=2, window=3)
    assert abs(anti["contrast"][0, 0] - 1.0) <= tol
    assert abs(anti["second_moment"][0, 0] - 0.5) <= tol
    assert abs(anti["homogeneity"][0, 0] - 0.5) <= tol
    assert abs(anti["mean"][0, 0] - 0.5) <= tol
    assert abs(anti["variance"][0, 0] - 0.25) <= tol
    assert abs(anti["correlation"][0, 0] + 1.0) <= tol

    report("2 Haralick hand values (three worked images, 1e-12)", time.perf_counter() - t0)


def _one_minus_abs_cos(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - abs(float(a @ b)) / math.sqrt(float(a @ a) * float(b @ b))


def test_c3_cca_direction_matches_lda_oracle_and_is_affine_invariant():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    for trial in range(500):
        n = int(rng.integers(10, 120))
        d = int(rng.integers(1, 7))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = cca_fit(x, y)
        oracle = lda_direction_oracle(x.tolist(), y.tolist(), RIDGE)
        assert _one_minus_abs_cos(w, oracle) <= 1e-9

        if d >= 2:
            while True:
                a = rng.normal(size=(d, d))
                if np.linalg.cond(a) < 100:
                    break
            shifted = x @ a + rng.normal(size=d)
            # The rows' projections agree up to an affine map.
            z = x @ w
            z_shifted = shifted @ cca_fit(shifted, y)
            assert _one_minus_abs_cos(z - z.mean(), z_shifted - z_shifted.mean()) <= 1e-6
    elapsed = time.perf_counter() - t0
    report("3 CCA direction vs LDA oracle and affine invariance (500 instances)", elapsed)


def test_c4_ccf_blobs_xor_and_serialized_determinism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    # separable blobs, n = 200, held out 40
    x = np.vstack(
        [
            rng.normal(loc=(0.0, 0.0), scale=0.5, size=(100, 2)),
            rng.normal(loc=(5.0, 5.0), scale=0.5, size=(100, 2)),
        ]
    )
    y = np.repeat([0, 1], 100).astype(np.uint8)
    perm = rng.permutation(200)
    x, y = x[perm], y[perm]
    model = train_forest(x[:160], y[:160], master_seed=0)
    labels, _ = predict(model, x[160:])
    assert (labels == y[160:]).all(), "held-out accuracy on separable blobs must be 1.0"

    # XOR layout: training accuracy 1.0
    centres = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    xor_x = np.vstack([c + 0.05 * rng.normal(size=(25, 2)) for c in centres])
    xor_y = np.repeat([0, 0, 1, 1], 25).astype(np.uint8)
    xor_model = train_forest(xor_x, xor_y, master_seed=0)
    xor_labels, _ = predict(xor_model, xor_x)
    assert (xor_labels == xor_y).all(), "training accuracy on the XOR layout must be 1.0"

    # identical tree arrays, bit for bit, across two runs with seed 0
    doc_a, doc_b = (
        [[getattr(t, f.name).tobytes() for f in fields(t)] for t in model.trees]
        for model in (train_forest(x[:160], y[:160], master_seed=0) for _ in range(2))
    )
    assert doc_a == doc_b

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("4 CCF sanity (blobs held-out 1.0, XOR training 1.0, seed-0 determinism)", elapsed, 30.0)


def test_c5_metric_identities_on_10000_random_pairs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(10000):
        n = int(rng.integers(1, 50))
        pred = rng.integers(0, 2, size=n)
        truth = rng.integers(0, 2, size=n)
        rep = evaluate(pred, truth)
        expected = confusion_oracle(pred.tolist(), truth.tolist())
        assert (rep.true_positive, rep.false_positive) == (expected["tp"], expected["fp"])
        assert (rep.false_negative, rep.true_negative) == (expected["fn"], expected["tn"])
        defined = []
        if rep.slum_iou is not None:
            assert rep.slum_iou <= rep.slum_accuracy + 1e-15
            precision_den = rep.true_positive + rep.false_positive
            if precision_den:
                assert rep.slum_iou <= rep.true_positive / precision_den + 1e-15
            defined.append(rep.slum_iou)
        if rep.non_slum_iou is not None:
            assert rep.non_slum_iou <= rep.non_slum_accuracy + 1e-15
            defined.append(rep.non_slum_iou)
        assert rep.mean_iou == sum(defined) / len(defined)
    elapsed = time.perf_counter() - t0
    report("5 metric identities vs confusion oracle (10000 pairs)", elapsed)


def test_c6_two_texture_scene_glcm_beats_spectral():
    t0 = time.perf_counter()
    stack, mask = make_two_texture_scene(size=128)
    glcm = run_experiment(
        stack, mask, "glcm", glcm_params=GlcmParams(window=5), master_seed=0
    )
    spectral = run_experiment(stack, mask, "spectral", master_seed=0)
    glcm_miou = 100.0 * glcm.report.mean_iou
    spectral_miou = 100.0 * spectral.report.mean_iou
    assert glcm_miou >= 95.0, f"glcm mean IoU {glcm_miou:.1f} < 95"
    assert spectral_miou <= 60.0, f"spectral mean IoU {spectral_miou:.1f} > 60"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        f"6 headline reproduction (glcm {glcm_miou:.1f} >= 95, "
        f"spectral {spectral_miou:.1f} <= 60)",
        elapsed,
        300.0,
    )


def test_c7_experiment_subcommand_is_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    config = write_demo_scene(tmp_path, size=48, window=5)
    out = tmp_path / "out"
    deterministic = (
        "two-texture_glcm_report.json",  # structured report (metrics + counts)
        "two-texture_glcm_map.pgm",  # prediction map
        "two-texture_glcm_model.json",  # persisted pipeline
        "config.used",  # effective configuration echo
    )
    snapshots = []
    for _run in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "slummap",
                "experiment",
                "--config",
                str(config),
                "--seed",
                "0",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        snapshots.append(
            {name: (out / name).read_bytes() for name in deterministic}
            | {"report.csv": (out / "report.csv").read_text().splitlines()}
        )
    a, b = snapshots
    for name in deterministic:
        assert a[name] == b[name], name
    # the csv mirror is identical apart from its measured wall-clock column
    assert [r.rsplit(",", 1)[0] for r in a["report.csv"]] == [
        r.rsplit(",", 1)[0] for r in b["report.csv"]
    ]
    elapsed = time.perf_counter() - t0
    report("7 experiment subcommand determinism (byte-identical reports and maps)", elapsed)
