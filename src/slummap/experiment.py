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

The model file is this module's alone: save_pipeline writes a Pipeline as
one flat, canonical JSON document (version 2) with each tree as its CcTree
arrays, and load_pipeline accepts only what it writes; version 1 needs a retrain.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
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
)
from .raster import BandStack, DimensionMismatchError, FeatureRaster, LabelMask, ensure_aligned
from .rng import BALANCE_STREAM, SPLIT_STREAM, stream
from .texture import GlcmParams, extract_spectral, extract_texture

TECHNIQUES = ("spectral", "glcm")

TRAIN_FRACTION = 0.8  # the 80/20 train/test split of the protocol

CSV_HEADER = "location,technique,acc_slum,acc_non,iou_slum,iou_non,miou,seconds"


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


@dataclass
class MetricsReport:
    """Confusion counts and derived metrics; slum (1) is the positive class.

    Per-class accuracy is recall. Metrics of a class absent from the truth
    are None (absent), never zero. Fractions are kept at full precision;
    rounding to one decimal happens only when formatting.
    """

    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int
    slum_accuracy: float | None
    non_slum_accuracy: float | None
    slum_iou: float | None
    non_slum_iou: float | None
    mean_iou: float | None
    seconds: float = 0.0

    def counts(self) -> dict[str, int]:
        return {
            "true_positive": self.true_positive,
            "false_positive": self.false_positive,
            "false_negative": self.false_negative,
            "true_negative": self.true_negative,
        }


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
    """Column means and sample standard deviations of an (N, D) matrix."""
    if x.shape[0] < 1:
        raise ValueError("cannot fit a scaler on an empty matrix")
    means = x.mean(axis=0)
    if x.shape[0] == 1:
        stds = np.zeros_like(means)
    else:
        stds = x.std(axis=0, ddof=1)
    return ScalerStats(means=means, stds=stds)


def scale_matrix(stats: ScalerStats, features: np.ndarray) -> np.ndarray:
    """(v - mean) / std per column; constant columns (std 0) map to 0."""
    divisor = np.where(stats.stds > 0, stats.stds, 1.0)
    scaled = (features - stats.means) / divisor
    scaled[:, stats.constant_columns] = 0.0
    return scaled


def evaluate(pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Per-class recall and IoU plus mean IoU from binary label vectors."""
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

    slum_present = tp + fn > 0
    non_present = tn + fp > 0
    slum_accuracy = tp / (tp + fn) if slum_present else None
    slum_iou = tp / (tp + fp + fn) if slum_present else None
    non_slum_accuracy = tn / (tn + fp) if non_present else None
    non_slum_iou = tn / (tn + fn + fp) if non_present else None
    defined = [v for v in (slum_iou, non_slum_iou) if v is not None]
    mean_iou = sum(defined) / len(defined) if defined else None
    return MetricsReport(
        true_positive=tp,
        false_positive=fp,
        false_negative=fn,
        true_negative=tn,
        slum_accuracy=slum_accuracy,
        non_slum_accuracy=non_slum_accuracy,
        slum_iou=slum_iou,
        non_slum_iou=non_slum_iou,
        mean_iou=mean_iou,
    )


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

    Both parallel stages run in ``jobs`` processes, the caller and children
    forked for that stage alone: extraction splits the bands into groups and
    training whole trees.
    """
    ensure_aligned(stack, mask)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    t0 = time.perf_counter()
    features = extract_features(stack, technique, glcm_params, jobs=jobs)
    timings["extract"] = time.perf_counter() - t0

    # The pixels usable in both inputs, in row-major order; balancing and
    # splitting only pick indices into them.
    t0 = time.perf_counter()
    usable = features.valid & mask.valid
    if not usable.any():
        raise ValueError("no usable pixels: every pixel is invalid in one input")
    rows, cols = np.nonzero(usable)
    labels = mask.labels[rows, cols]
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kept = undersample_balance(labels, seed=master_seed)
    timings["balance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_pos, test_pos = split_train_test(kept.shape[0], seed=master_seed)
    train_rows, test_rows = kept[train_pos], kept[test_pos]
    timings["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_x = features.values[:, rows[train_rows], cols[train_rows]].T.astype(np.float64)
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
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prediction, full_report = predict_scene(features, mask, model, scaler)
    timings["map"] = time.perf_counter() - t0

    # Scored from the map, not a second predict: BLAS can round another batch differently.
    t0 = time.perf_counter()
    report = evaluate(prediction.labels[rows[test_rows], cols[test_rows]], labels[test_rows])
    timings["predict"] = time.perf_counter() - t0

    report.seconds = time.perf_counter() - t_start
    timings["total"] = report.seconds
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
    without the model's features, by name and in order, raises DimensionMismatchError."""
    expected, got = model.feature_names, features.feature_names
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        detail = "" if first is None else (
            f": feature {first} is {got[first]!r} where the model has {expected[first]!r}"
        )
        raise DimensionMismatchError(
            f"model expects {len(expected)} features but extraction produced {len(got)}{detail}"
        )
    rows, cols = np.nonzero(features.valid)
    labels_grid = np.zeros((features.height, features.width), dtype=np.uint8)
    matrix = scale_matrix(scaler, features.values[:, rows, cols].T.astype(np.float64))
    labels, _ = predict(model, matrix)
    labels_grid[rows, cols] = labels
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


def report_csv_row(location: str, technique: str, report: MetricsReport) -> str:
    """One row of the comparison table (columns as in CSV_HEADER)."""
    percent = report_to_dict(report)["percent"].values()
    return ",".join([location, technique, *percent, f"{report.seconds:.1f}"])


def report_to_dict(report: MetricsReport) -> dict:
    """Deterministic structured form of a report (no timing fields)."""
    return {
        "confusion": report.counts(),
        "slum": {
            "accuracy": report.slum_accuracy,
            "iou": report.slum_iou,
        },
        "non_slum": {
            "accuracy": report.non_slum_accuracy,
            "iou": report.non_slum_iou,
        },
        "mean_iou": report.mean_iou,
        # the CSV_HEADER columns between technique and seconds, in order
        "percent": {
            "acc_slum": format_percent(report.slum_accuracy),
            "acc_non": format_percent(report.non_slum_accuracy),
            "iou_slum": format_percent(report.slum_iou),
            "iou_non": format_percent(report.non_slum_iou),
            "miou": format_percent(report.mean_iou),
        },
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
PIPELINE_VERSION = 2

# The JSON type save_pipeline writes for each value, in _typed's terms; _trees
# checks the trees.
_GLCM = dict(levels=int, window=int, directions=[int], bands=[str], measures=[str])
_TRAINING = dict(n_trees=int, n_candidate_features=int, min_node_size=int, master_seed=int)
_PIPELINE = dict(
    format=str, version=int, technique=str, glcm_params=object,  # None or _GLCM
    scaler={"means": [float], "stds": [float]}, feature_names=[str], training_params=_TRAINING,
    trees=[dict],
)


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


def save_pipeline(pipeline: Pipeline, path: str | Path) -> None:
    model = pipeline.model
    doc = {
        "format": PIPELINE_FORMAT,
        "version": PIPELINE_VERSION,
        "technique": pipeline.technique,
        "glcm_params": asdict(pipeline.glcm_params) if pipeline.glcm_params else None,
        "scaler": {"means": pipeline.scaler.means.tolist(), "stds": pipeline.scaler.stds.tolist()},
        "feature_names": list(model.feature_names),
        "training_params": model.training_params,
        "trees": [{f.name: getattr(t, f.name).tolist() for f in fields(t)} for t in model.trees],
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def _typed(value, kind, what: str):
    """value, if it has the JSON type kind; ModelFormatError if not. kind is int
    or str, matched by ``type(value) is kind`` (True is no int), float for a
    finite float, [kind] for a list, {key: kind} for an object with exactly
    those keys, or object for any value."""
    if type(kind) is list:
        for item in _typed(value, list, what):
            _typed(item, kind[0], what)
    elif type(kind) is dict:
        if _typed(value, dict, what).keys() != kind.keys():
            raise ModelFormatError(f"{what} must hold exactly the keys {sorted(kind)}")
        for key, item_kind in kind.items():
            _typed(value[key], item_kind, key)
    elif kind is not object and (
        type(value) is not kind or (kind is float and not math.isfinite(value))
    ):
        expected = "a finite float" if kind is float else f"of type {kind.__name__}"
        raise ModelFormatError(f"{what} must be {expected}, not {value!r:.40}")
    return value


def _array(value, kind: type, width: int | None, what: str) -> np.ndarray:
    """A JSON list of kind values (width None) or of rows of width of them, as an
    int64 or finite float64 array; ModelFormatError if it is anything else."""
    values = rows = _typed(value, list, what)
    if width is not None:
        if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
            raise ModelFormatError(f"{what} must be a list of rows of {width} values")
        values = [v for row in rows for v in row]
    if set(map(type, values)) - {kind}:
        raise ModelFormatError(f"{what} must hold only values of type {kind.__name__}")
    try:
        array = np.array(values, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:
        raise ModelFormatError(f"{what} holds an integer outside int64") from None
    if kind is float and not np.isfinite(array).all():
        raise ModelFormatError(f"{what} must hold finite floats")
    return array if width is None else array.reshape(len(rows), width)


def _trees(docs: list[dict], lam: int, d: int) -> list[CcTree]:
    """The trees as save_pipeline writes them, each array checked once over all
    trees joined end to end."""
    arrays = dict(
        feature=(int, lam), projection=(float, lam), threshold=(float, None),
        left=(int, None), right=(int, None), class_counts=(int, 2),
    )
    sizes = [len(_typed(doc.get("threshold"), list, "threshold")) for doc in docs]
    for doc, size in zip(docs, sizes):
        if doc.keys() != arrays.keys() or size == 0:
            raise ModelFormatError(f"a tree must hold exactly the keys {sorted(arrays)}, not empty")
        if any(len(_typed(doc[k], list, k)) != size for k in arrays):
            raise ModelFormatError("a tree's arrays must all have one row per node")
    joined = {k: _array([v for t in docs for v in t[k]], *kind, k) for k, kind in arrays.items()}
    n = np.repeat(sizes, sizes)  # per node: the size of its tree and its index there
    node = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    left, right = joined["left"], joined["right"]
    leaf = (left == -1) & (right == -1)
    if not (leaf | ((node < left) & (left < n) & (node < right) & (right < n))).all():
        raise ModelFormatError("a split's children must come after it in its tree, a leaf's be -1")
    if not ((0 <= joined["feature"]) & (joined["feature"] < d)).all():
        raise ModelFormatError(f"feature index outside [0, {d})")
    if (np.diff(joined["feature"][~leaf], axis=1) <= 0).any():
        raise ModelFormatError("a split's feature subset must be strictly increasing")
    counts = joined["class_counts"]
    # A sum past int64 wraps to a negative one.
    if (counts[leaf] < 0).any() or (counts[leaf].sum(axis=1) <= 0).any():
        raise ModelFormatError("a leaf needs two counts >= 0, not both 0, summing in int64")
    at_leaves = (joined["feature"][leaf], joined["projection"][leaf], joined["threshold"][leaf])
    if counts[~leaf].any() or any(a.any() or np.signbit(a).any() for a in at_leaves):
        raise ModelFormatError("a leaf's split fields and a split's counts must be 0")
    cuts = np.cumsum(sizes)[:-1]
    columns = [np.split(joined[k], cuts) for k in arrays]
    return [CcTree(**dict(zip(arrays, tree))) for tree in zip(*columns)]


def load_pipeline(path: str | Path) -> Pipeline:
    """Read a file save_pipeline wrote, which saves back to the same bytes.

    Anything else raises ModelFormatError, a version 1 file included. The
    training_params are valid ForestParams with master_seed in [0, 2**64 - 1].
    There are training_params["n_trees"] trees, each of whose feature subsets
    is n_candidate_features wide, in [1, len(feature_names)]. Child indices lie
    after their split and inside the tree (so routing terminates), feature
    indices in [0, len(feature_names)) and strictly increasing along a split's
    subset, as grow_tree draws them; a leaf holds counts >= 0, not both 0,
    whose sum fits int64, and zero split fields, and a split zero counts;
    glcm_params is in the canonical form GlcmParams gives it.
    """
    try:
        doc = _typed(json.loads(Path(path).read_text(encoding="utf-8")), dict, "document")
        if doc.get("format") != PIPELINE_FORMAT or type(doc.get("version")) is not int:
            raise ModelFormatError(f"not a {PIPELINE_FORMAT} document")
        if doc["version"] != PIPELINE_VERSION:
            raise ModelFormatError(
                f"version {doc['version']} files are no longer read (this slummap reads "
                f"version {PIPELINE_VERSION}); retrain the model"
            )
        _typed(doc, _PIPELINE, "document")
        names, params = doc["feature_names"], doc["training_params"]
        d, lam = len(names), params["n_candidate_features"]
        ForestParams(params["n_trees"], params["min_node_size"], lam)
        if lam > d:
            raise ModelFormatError(f"n_candidate_features must lie in [1, {d}]")
        if not 0 <= params["master_seed"] < 2**64:
            raise ModelFormatError("master_seed must lie in [0, 2**64 - 1]")
        if len(doc["trees"]) != params["n_trees"]:
            raise ModelFormatError(
                f"the file holds {len(doc['trees'])} trees, not n_trees = {params['n_trees']}"
            )
        model = CcfModel(_trees(doc["trees"], lam, d), names, params)
        means, stds = np.array(doc["scaler"]["means"]), np.array(doc["scaler"]["stds"])
        if means.shape != (d,) or stds.shape != (d,):
            raise ModelFormatError(f"scaler must hold {d} means and stds")
        glcm_params = None
        if doc["glcm_params"] is not None:
            glcm_doc = _typed(doc["glcm_params"], _GLCM, "glcm_params")
            written = {k: tuple(v) if type(v) is list else v for k, v in glcm_doc.items()}
            glcm_params = GlcmParams(**written)
            if asdict(glcm_params) != written:
                raise ModelFormatError("glcm_params must list directions and measures canonically")
        return Pipeline(doc["technique"], glcm_params, ScalerStats(means, stds), model)
    except (RecursionError, ValueError) as exc:
        # Also invalid UTF-8, JSON or nesting too deep to parse; and the
        # ModelFormatErrors above, to add the path.
        raise ModelFormatError(f"{path}: unreadable model file: {exc}") from exc
