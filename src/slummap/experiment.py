"""The comparison protocol: sample, balance, split, scale, train, score.

One experiment takes an aligned scene (imagery + binary ground truth), one
feature technique (raw spectral values or windowed GLCM texture), and a
master seed, and produces per-class accuracy (recall), per-class IoU, mean
IoU, a trained forest and a full-scene prediction map. Stage order is fixed:
extract -> assemble -> balance -> split -> scale -> train -> predict ->
evaluate. The primary metrics come from the balanced held-out split;
full-image metrics over every scorable pixel are reported separately.

All randomness derives from the master seed through the documented
sub-streams (see :mod:`slummap.rng`): balancing uses BALANCE_STREAM, the
partition SPLIT_STREAM and tree induction FOREST_STREAM.

The model file is this module's alone: save_pipeline writes a Pipeline as one
canonical JSON document (version 5), and load_pipeline reads only what it writes.
Its trees are ``tree_sizes``, the node counts, and ``arrays``: each CcTree array
joined over the trees as standard base64 of its little-endian int64 or float64
bytes. The leaves (nodes with counts) fix each tree's shape; the loader checks it,
and stores no child index. The writer is the one definition of the document:
load_pipeline builds a Pipeline through the checks that carry meaning (the parameter
constructors, the seed range, the tree arrays' bytes and shape; see load_pipeline)
and rejects the file unless that Pipeline writes back the same document less
``arrays``. Version 1 to 4 files need a retrain.
"""

from __future__ import annotations

import binascii
import json
import math
import time
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from .ccf import (
    CcfModel,
    CcTree,
    DegenerateDataError,
    ForestParams,
    predict,
    train_forest,
    training_params,
)
from .raster import BandStack, DimensionMismatchError, FeatureRaster, LabelMask, ensure_aligned
from .rng import BALANCE_STREAM, SPLIT_STREAM, stream
from .texture import GlcmParams, extract_spectral, extract_texture

TECHNIQUES = ("spectral", "glcm")

TRAIN_FRACTION = 0.8  # the 80/20 train/test split of the protocol
# Pixels _gather reads at a time: every feature of a block of them, so that
# each block of matrix rows is written whole.
_GATHER_PIXELS = 2**12

# The comparison table's percent columns, each with the MetricsReport metric it shows.
PERCENT_COLUMNS = (
    ("acc_slum", "slum_accuracy"),
    ("acc_non", "non_slum_accuracy"),
    ("iou_slum", "slum_iou"),
    ("iou_non", "non_slum_iou"),
    ("miou", "mean_iou"),
)
CSV_HEADER = ",".join(["location", "technique", *(c for c, _ in PERCENT_COLUMNS), "seconds"])


@dataclass
class ScalerStats:
    """Per-column mean and sample standard deviation (divisor N-1)."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if (self.stds < 0).any():
            raise ValueError("standard deviations cannot be negative")

    @property
    def constant_columns(self) -> np.ndarray:
        return self.stds == 0


@dataclass(frozen=True)
class MetricsReport:
    """The confusion counts of a binary labelling, slum (1) positive; every metric
    is a read-only function of them. Per-class accuracy is recall. Metrics of a
    class absent from the truth are None, never zero. Fractions are kept at full
    precision; rounding to one decimal happens only when formatting. A report
    holds no time: a run's is in ExperimentResult.timings."""

    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int

    @property
    def slum_accuracy(self) -> float | None:
        tp, fn = self.true_positive, self.false_negative
        return tp / (tp + fn) if tp + fn > 0 else None

    @property
    def non_slum_accuracy(self) -> float | None:
        tn, fp = self.true_negative, self.false_positive
        return tn / (tn + fp) if tn + fp > 0 else None

    @property
    def slum_iou(self) -> float | None:
        tp, fp, fn = self.true_positive, self.false_positive, self.false_negative
        return tp / (tp + fp + fn) if tp + fn > 0 else None

    @property
    def non_slum_iou(self) -> float | None:
        tn, fn, fp = self.true_negative, self.false_negative, self.false_positive
        return tn / (tn + fn + fp) if tn + fp > 0 else None

    @property
    def mean_iou(self) -> float | None:
        defined = [v for v in (self.slum_iou, self.non_slum_iou) if v is not None]
        return sum(defined) / len(defined) if defined else None

    def counts(self) -> dict[str, int]:
        return asdict(self)


def format_percent(fraction: float | None) -> str:
    """Fraction -> percentage with one decimal, round half up; None -> ''."""
    if fraction is None:
        return ""
    quantized = Decimal(repr(fraction * 100.0)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return str(quantized)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def undersample_balance(labels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Ascending row indices that trim the majority class to the minority count.

    The minority class is kept whole; majority rows are drawn without
    replacement from the BALANCE_STREAM of ``seed``.
    """
    n1 = int(labels.sum())
    n0 = labels.shape[0] - n1
    if n0 == 0 or n1 == 0:
        raise DegenerateDataError("both classes must be present to balance")
    if n0 == n1:
        return np.arange(labels.shape[0])
    majority = 0 if n0 > n1 else 1
    majority_positions = np.nonzero(labels == majority)[0]
    rng = stream(seed, BALANCE_STREAM)
    chosen = rng.sample_without_replacement(majority_positions.shape[0], min(n0, n1))
    keep = labels != majority
    keep[majority_positions[chosen]] = True
    return np.nonzero(keep)[0]


def split_train_test(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive random partition of range(n) into ascending train and
    test positions, with round(n * TRAIN_FRACTION) train positions."""
    if n < 2:
        raise ValueError("need at least two rows to split")
    n_train = int(n * TRAIN_FRACTION + 0.5)
    n_train = max(1, min(n_train, n - 1))  # both parts stay non-empty
    perm = np.arange(n)
    stream(seed, SPLIT_STREAM).shuffle(perm)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def fit_scaler(x: np.ndarray) -> ScalerStats:
    """Column means and sample standard deviations of an (N, D) matrix,
    bit-equal to ``x.mean(axis=0)`` and ``x.std(axis=0, ddof=1)``.

    On a row-major x of more than one column, numpy's axis-0 sums add the
    rows one by one, in order. The squared deviations are then summed in
    blocks of _GATHER_PIXELS rows, each block's first row carrying the sum so
    far, which adds them in the same order, so no full-size ``x - mean`` is
    made. Any other x (one column, where numpy sums pairwise, or a
    column-major one) takes the plain expression.
    """
    n = x.shape[0]
    if n < 1:
        raise ValueError("cannot fit a scaler on an empty matrix")
    means = x.mean(axis=0)
    if n == 1:
        stds = np.zeros_like(means)
    elif x.shape[1] == 1 or not x.flags.c_contiguous:
        stds = x.std(axis=0, ddof=1)
    else:
        total = None
        for start in range(0, n, _GATHER_PIXELS):
            block = x[start : start + _GATHER_PIXELS] - means
            np.square(block, out=block)
            if total is not None:
                block[0] += total
            total = np.add.reduce(block, axis=0)
            del block  # before the next block is made
        stds = np.sqrt(total / (n - 1))
    return ScalerStats(means=means, stds=stds)


def scale_matrix(stats: ScalerStats, features: np.ndarray) -> np.ndarray:
    """(v - mean) / std per column; constant columns (std 0) map to 0.

    Returns a new column-major float64 matrix, the layout the forest reads,
    and leaves ``features`` as it is. It is the only full-size array made:
    float32 values are widened inside the subtraction, which is exact, and
    the division and zeroing run in place, so the result is bit-equal to
    ``(features.astype(np.float64) - means) / divisor``.
    """
    return _scale(stats, features, np.empty(features.shape, order="F"))


def _scale(stats: ScalerStats, features: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scale_matrix's arithmetic into the float64 matrix ``out``, which may
    be ``features`` itself."""
    np.subtract(features, stats.means, out=out)
    out /= np.where(stats.stds > 0, stats.stds, 1.0)
    out[:, stats.constant_columns] = 0.0
    return out


def _gather(features: FeatureRaster, pixels: np.ndarray) -> np.ndarray:
    """The row-major (len(pixels), F) float64 matrix of the features at flat pixel
    indices, the one way feature rows are built: _GATHER_PIXELS rows at a time,
    each block widened exactly from float32, so no full-size float32 copy is made."""
    planes = features.values.reshape(len(features.feature_names), -1)
    matrix = np.empty((pixels.size, planes.shape[0]))
    for start in range(0, pixels.size, _GATHER_PIXELS):
        block = pixels[start : start + _GATHER_PIXELS]
        matrix[start : start + block.size] = planes[:, block].T
    return matrix


def evaluate(pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """The confusion counts of binary label vectors, as a MetricsReport."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth lengths disagree")
    if pred.size == 0:
        raise ValueError("nothing to evaluate")
    for arr, name in ((pred, "prediction"), (truth, "truth")):
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError(f"{name} labels must be binary")
    # bin 2*pred + truth: 0 true negative, 1 false negative, 2 false positive, 3 true positive
    tn, fn, fp, tp = map(int, np.bincount((2 * pred + truth).astype(np.intp), minlength=4))
    return MetricsReport(tp, fp, fn, tn)


# ---------------------------------------------------------------------------
# end-to-end experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    location: str
    technique: str
    report: MetricsReport  # balanced held-out split (headline comparison)
    full_report: MetricsReport  # every scorable pixel of the scene
    prediction: LabelMask
    model: CcfModel
    scaler: ScalerStats
    timings: dict[str, float]
    train_size: int
    test_size: int


def extract_features(
    stack: BandStack,
    technique: str,
    glcm_params: GlcmParams | None = None,
    jobs: int = 1,
) -> FeatureRaster:
    if technique == "spectral":
        return extract_spectral(stack)
    if technique == "glcm":
        return extract_texture(stack, glcm_params, jobs=jobs)
    raise ValueError(f"unknown technique {technique!r}; choose from {TECHNIQUES}")


def run_experiment(
    stack: BandStack,
    mask: LabelMask,
    technique: str = "glcm",
    glcm_params: GlcmParams | None = None,
    forest: ForestParams = ForestParams(),
    master_seed: int = 0,
    jobs: int = 1,
    location: str = "scene",
) -> ExperimentResult:
    """Run the full protocol on one scene and one technique.

    A pixel set is one array of flat (row-major) pixel indices. The training
    rows and the map's rows come from one block gather (_gather), and the test
    split is scored from the map. Seconds per stage and in total are in ``timings``.

    Both parallel stages run in up to ``jobs`` processes, the caller and
    children forked for that stage alone, and each forks only when its work
    pays for the fork: extraction when the bands take more than one kernel
    pass (from 65x65 up at the defaults), each process taking whole band
    groups, and training when the trees after the first would take longer
    than ccf._FORK_BREAK_EVEN_S, each process taking whole trees. The choice
    never reaches an output: every one is bit-identical for any ``jobs``.
    """
    ensure_aligned(stack, mask)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    t0 = time.perf_counter()
    features = extract_features(stack, technique, glcm_params, jobs=jobs)
    timings["extract"] = time.perf_counter() - t0

    # The flat indices of the pixels usable in both inputs, in row-major
    # order; balancing and splitting only pick positions into them.
    t0 = time.perf_counter()
    usable = np.flatnonzero(features.valid & mask.valid)
    if usable.size == 0:
        raise ValueError("no usable pixels: every pixel is invalid in one input")
    labels = mask.labels.ravel()[usable]
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kept = undersample_balance(labels, seed=master_seed)
    timings["balance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_pos, test_pos = split_train_test(kept.shape[0], seed=master_seed)
    train_rows, test_rows = kept[train_pos], kept[test_pos]
    timings["split"] = time.perf_counter() - t0

    # fit_scaler reads the row-major gather, as its axis-0 sums round by
    # layout; the forest reads a column-major matrix, so scaling writes one.
    t0 = time.perf_counter()
    train_x = _gather(features, usable[train_rows])
    scaler = fit_scaler(train_x)
    train_x = scale_matrix(scaler, train_x)
    timings["scale"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = train_forest(
        train_x,
        labels[train_rows],
        forest,
        master_seed=master_seed,
        feature_names=list(features.feature_names),
        jobs=jobs,
    )
    del train_x  # the map stage does not read it, so its peak need not hold it
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prediction, full_report = predict_scene(features, mask, model, scaler)
    timings["map"] = time.perf_counter() - t0

    # Scored from the map, not a second predict: BLAS can round another batch differently.
    t0 = time.perf_counter()
    report = evaluate(prediction.labels.ravel()[usable[test_rows]], labels[test_rows])
    timings["predict"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    return ExperimentResult(
        location=location,
        technique=technique,
        report=report,
        full_report=full_report,
        prediction=prediction,
        model=model,
        scaler=scaler,
        timings=timings,
        train_size=train_rows.shape[0],
        test_size=test_rows.shape[0],
    )


def predict_scene(
    features: FeatureRaster,
    mask: LabelMask | None,
    model: CcfModel,
    scaler: ScalerStats,
) -> tuple[LabelMask, MetricsReport | None]:
    """Predict every feature-valid pixel; score against the mask if given. A raster
    without the model's features, by name and in order, or a mask of another
    height or width raises DimensionMismatchError.

    The one full-size array is the float64 matrix of the valid pixels,
    row-major, the layout routing reads fastest: _gather builds it as it
    builds the training rows, and it is scaled in place, bit-equal to
    scale_matrix."""
    expected, got = model.feature_names, features.feature_names
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        detail = "" if first is None else (
            f": feature {first} is {got[first]!r} where the model has {expected[first]!r}"
        )
        raise DimensionMismatchError(
            f"model expects {len(expected)} features but extraction produced {len(got)}{detail}"
        )
    if mask is not None and (mask.height, mask.width) != (features.height, features.width):
        raise DimensionMismatchError(
            f"mask is {mask.width}x{mask.height} but the features are "
            f"{features.width}x{features.height}"
        )
    pixels = np.flatnonzero(features.valid)
    matrix = _gather(features, pixels)
    labels, _ = predict(model, _scale(scaler, matrix, matrix))
    labels_grid = np.zeros((features.height, features.width), dtype=np.uint8)
    labels_grid.reshape(-1)[pixels] = labels
    prediction = LabelMask(labels=labels_grid, valid=features.valid.copy())
    full_report = None
    if mask is not None:
        scorable = features.valid & mask.valid
        if scorable.any():
            full_report = evaluate(labels_grid[scorable], mask.labels[scorable])
    return prediction, full_report


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def report_csv_row(location: str, technique: str, report: MetricsReport, seconds: float) -> str:
    """One row of the comparison table (columns as in CSV_HEADER)."""
    percent = report_to_dict(report)["percent"].values()
    return ",".join([location, technique, *percent, f"{seconds:.1f}"])


def report_to_dict(report: MetricsReport) -> dict:
    """Deterministic structured form of a report (no timing fields)."""
    return {
        "confusion": report.counts(),
        "slum": {"accuracy": report.slum_accuracy, "iou": report.slum_iou},
        "non_slum": {"accuracy": report.non_slum_accuracy, "iou": report.non_slum_iou},
        "mean_iou": report.mean_iou,
        "percent": {c: format_percent(getattr(report, metric)) for c, metric in PERCENT_COLUMNS},
    }


def result_to_dict(result: ExperimentResult) -> dict:
    """Deterministic structured report for one experiment run."""
    return {
        "location": result.location,
        "technique": result.technique,
        "train_size": result.train_size,
        "test_size": result.test_size,
        "feature_count": len(result.model.feature_names),
        "training_params": result.model.training_params,
        "test_split": report_to_dict(result.report),
        "full_image": report_to_dict(result.full_report)
        if result.full_report is not None
        else None,
    }


# ---------------------------------------------------------------------------
# the model file: save_pipeline writes it, load_pipeline reads it back
# ---------------------------------------------------------------------------

PIPELINE_FORMAT = "slummap-pipeline"
PIPELINE_VERSION = 5

# Every CcTree array, and the type of its packed values
_PACKED = dict(feature="<i8", projection="<f8", threshold="<f8", class_counts="<i8")


class ModelFormatError(ValueError):
    """Persisted model document is malformed or has an unsupported version."""


@dataclass
class Pipeline:
    """Everything needed to reproduce predictions on a fresh scene."""

    technique: str
    glcm_params: GlcmParams | None  # given exactly when technique is "glcm"
    scaler: ScalerStats
    model: CcfModel

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        if (self.technique == "glcm") != (self.glcm_params is not None):
            raise ValueError("glcm_params must be given for glcm and only for glcm")
        if self.glcm_params and self.model.feature_names != self.glcm_params.feature_names():
            raise ValueError("a glcm model's feature_names must be its glcm_params' features")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _header(pipeline: Pipeline) -> dict:
    """The model document of a pipeline, less its packed tree ``arrays``."""
    model = pipeline.model
    return {
        "format": PIPELINE_FORMAT,
        "version": PIPELINE_VERSION,
        "technique": pipeline.technique,
        "glcm_params": asdict(pipeline.glcm_params) if pipeline.glcm_params else None,
        "scaler": {"means": pipeline.scaler.means.tolist(), "stds": pipeline.scaler.stds.tolist()},
        "feature_names": list(model.feature_names),
        "training_params": model.training_params,
        "tree_sizes": [len(tree.threshold) for tree in model.trees],
    }


def save_pipeline(pipeline: Pipeline, path: str | Path) -> None:
    trees = pipeline.model.trees
    doc = _header(pipeline)
    doc["arrays"] = {
        k: binascii.b2a_base64(np.concatenate([getattr(t, k) for t in trees], dtype=kind),
                               newline=False).decode("ascii") for k, kind in _PACKED.items()
    }
    Path(path).write_text(_canonical(doc) + "\n", encoding="utf-8")


def _unpack(text: str, kind: str, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The array of this shape and type that text holds as canonical base64."""
    try:
        raw = binascii.a2b_base64(text)  # which skips characters outside the alphabet
        if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
            raise ValueError  # text held such characters, or padding bits that are not zero
    except ValueError:  # also bad padding, or a character outside ASCII
        raise ModelFormatError(f"{what} must be canonical base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise ModelFormatError(f"{what} must hold {8 * math.prod(shape)} bytes, not {len(raw)}")
    array = np.frombuffer(raw, kind).reshape(shape)
    if kind == "<f8" and not np.isfinite(array).all():
        raise ModelFormatError(f"{what} must hold finite floats")
    return array


def _check_shape(leaf: np.ndarray, sizes: list[int]) -> None:
    """Raise ModelFormatError unless the joined leaf flags spell one full binary tree per
    size: with a split +1 and a leaf -1, a tree's running sum first drops below 0 at its end."""
    step = np.where(leaf, -1, 1)
    before = np.cumsum(step) - step  # over all trees joined, so each starts one lower
    starts = np.cumsum(sizes) - sizes
    in_tree = before + step - np.repeat(before[starts], sizes)
    if not np.array_equal(np.flatnonzero(in_tree < 0), starts + sizes - 1):
        raise ModelFormatError("each tree's leaves must close one full binary tree in preorder")


def _trees(sizes: list[int], packed: dict[str, str], lam: int, d: int) -> list[CcTree]:
    """The packed trees, each array decoded and checked once over all trees joined.

    A leaf, a node whose counts are not both 0, holds counts >= 0 summing in
    int64 and zero split fields. The leaves close one full binary tree per size
    (_check_shape), and a split's feature indices lie in [0, d) and rise
    strictly along its subset, as grow_tree draws them.
    """
    widths = dict(feature=(lam,), projection=(lam,), class_counts=(2,))
    joined = {k: _unpack(packed[k], kind, (sum(sizes), *widths.get(k, ())), k)
              for k, kind in _PACKED.items()}
    counts = joined["class_counts"]
    leaf = counts.any(axis=1)
    # A sum past int64 wraps to a negative one.
    if (counts < 0).any() or (counts[leaf].sum(axis=1) <= 0).any():
        raise ModelFormatError("a leaf's counts must be >= 0 and sum in int64")
    at_leaves = (joined["feature"][leaf], joined["projection"][leaf], joined["threshold"][leaf])
    if any(a.any() or np.signbit(a).any() for a in at_leaves):
        raise ModelFormatError("a leaf's split fields must be 0")
    _check_shape(leaf, sizes)
    if not ((0 <= joined["feature"]) & (joined["feature"] < d)).all():
        raise ModelFormatError(f"feature index outside [0, {d})")
    if (np.diff(joined["feature"][~leaf], axis=1) <= 0).any():
        raise ModelFormatError("a split's feature subset must be strictly increasing")
    ends = np.cumsum(sizes).tolist()
    return [CcTree(**{k: a[end - size : end] for k, a in joined.items()})
            for size, end in zip(sizes, ends)]


def load_pipeline(path: str | Path) -> Pipeline:
    """Read a file save_pipeline wrote; anything else raises ModelFormatError.

    The Pipeline built from the document must write back the same document,
    less ``arrays``, value for value (spacing and key order may differ).
    Building it checks what a write-back cannot see: the version (1 to 4
    need a retrain); the ForestParams, GlcmParams, ScalerStats and Pipeline
    constructors; master_seed, an int in [0, 2**64 - 1]; n_trees tree sizes
    >= 1; string feature names; one finite scaler mean and std per feature;
    exactly the four ``arrays``, each the canonical base64 of exactly the
    bytes the node counts imply, its floats finite, and its trees as _trees
    checks them, one full binary preorder tree per size.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        version = doc.get("version") if type(doc) is dict else None
        if type(version) is not int or doc.get("format") != PIPELINE_FORMAT:
            raise ModelFormatError(f"not a {PIPELINE_FORMAT} document")
        if version != PIPELINE_VERSION:
            raise ModelFormatError(
                f"version {version} files are no longer read (this slummap reads "
                f"version {PIPELINE_VERSION}); retrain the model"
            )
        names, sizes, written = doc["feature_names"], doc["tree_sizes"], doc["training_params"]
        d, seed = len(names), written["master_seed"]
        if not all(type(name) is str for name in names):
            raise ModelFormatError("feature_names must be strings")
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ModelFormatError("master_seed must be an int in [0, 2**64 - 1]")
        forest = ForestParams(
            written["n_trees"], written["min_node_size"], written["n_candidate_features"]
        )
        if len(sizes) != forest.n_trees or min(sizes) < 1:
            raise ModelFormatError(f"tree_sizes must hold n_trees = {forest.n_trees} sizes >= 1")
        if type(doc["arrays"]) is not dict or doc["arrays"].keys() != _PACKED.keys():
            raise ModelFormatError(f"arrays must hold exactly the keys {sorted(_PACKED)}")
        params = training_params(forest, d, seed)
        trees = _trees(sizes, doc["arrays"], params["n_candidate_features"], d)
        scaler = ScalerStats(doc["scaler"]["means"], doc["scaler"]["stds"])
        if scaler.means.shape != (d,) or scaler.stds.shape != (d,) or not (
                np.isfinite(scaler.means).all() and np.isfinite(scaler.stds).all()):
            raise ModelFormatError(f"scaler must hold {d} finite means and stds")
        glcm = None if doc["glcm_params"] is None else GlcmParams(**doc["glcm_params"])
        pipeline = Pipeline(doc["technique"], glcm, scaler, CcfModel(trees, names, params))
        header, built = {k: v for k, v in doc.items() if k != "arrays"}, _header(pipeline)
        if _canonical(header) != _canonical(built):
            differ = [k for k in sorted(header.keys() | built.keys())
                      if _canonical(header.get(k)) != _canonical(built.get(k))]
            raise ModelFormatError(f"not as save_pipeline writes it: {', '.join(differ)}")
        return pipeline
    except KeyError as exc:
        raise ModelFormatError(f"{path}: unreadable model file: no key {exc}") from exc
    except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        # Also invalid UTF-8, JSON or nesting too deep to parse, a value of a type
        # the code above cannot read, and the ModelFormatErrors above, to add the path.
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
