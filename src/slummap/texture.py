"""Texture and spectral feature extraction.

Texture features follow the classic grey-level co-occurrence recipe: each
band is quantized once to a small grey-level alphabet, a symmetric co-occurrence
matrix is counted per direction inside a sliding window, and seven scalar
measures are evaluated per matrix and averaged over the directions. Spectral
features are simply the raw band values.

Windows are never padded: pixels whose window overhangs the image border are
marked invalid and excluded from sampling and scoring downstream.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .raster import BandStack, FeatureRaster

# (row, col) offset of the second pixel of a pair, per direction in degrees.
DIRECTION_OFFSETS = {0: (0, 1), 45: (-1, 1), 90: (-1, 0), 135: (-1, -1)}

# Fixed measure order; feature rasters list bands in parameter order and
# measures in this order, named "<band>_<measure>".
MEASURES = (
    "second_moment",
    "contrast",
    "correlation",
    "homogeneity",
    "entropy",
    "mean",
    "variance",
)

DEFAULT_LEVELS = 32
DEFAULT_WINDOW = 19
DEFAULT_BANDS = ("B2", "B3", "B4", "B8")


class DegenerateWindowError(ValueError):
    """Window too small to contain any pixel pair at the requested offset."""


@dataclass
class GlcmParams:
    levels: int = DEFAULT_LEVELS
    window: int = DEFAULT_WINDOW
    directions: tuple[int, ...] = (0, 45, 90, 135)
    bands: tuple[str, ...] = DEFAULT_BANDS
    measures: tuple[str, ...] = MEASURES

    def __post_init__(self):
        self.bands = tuple(self.bands)
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 3")
        if not self.directions:
            raise ValueError("at least one direction is required")
        for d in self.directions:
            if d not in DIRECTION_OFFSETS:
                raise ValueError(f"unknown direction {d}; choose from {sorted(DIRECTION_OFFSETS)}")
        if not self.bands:
            raise ValueError("at least one band is required")
        if not self.measures:
            raise ValueError("at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
        # bands keep caller order; directions and measures are canonicalized
        self.directions = tuple(sorted(set(self.directions)))
        self.measures = tuple(m for m in MEASURES if m in set(self.measures))

    def feature_names(self) -> list[str]:
        return [f"{band}_{measure}" for band in self.bands for measure in self.measures]

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "window": self.window,
            "directions": list(self.directions),
            "bands": list(self.bands),
            "measures": list(self.measures),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GlcmParams":
        return cls(
            levels=int(doc["levels"]),
            window=int(doc["window"]),
            directions=tuple(int(d) for d in doc["directions"]),
            bands=tuple(str(b) for b in doc["bands"]),
            measures=tuple(str(m) for m in doc["measures"]),
        )


@dataclass
class CooccurrenceMatrix:
    """Symmetric joint relative frequencies of grey-level pairs."""

    levels: int
    p: np.ndarray  # (levels, levels) float64, entries sum to 1

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.shape != (self.levels, self.levels):
            raise ValueError("p must be a levels x levels grid")
        if (self.p < 0).any():
            raise ValueError("p entries must be non-negative")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise ValueError("p entries must sum to 1")
        if not np.array_equal(self.p, self.p.T):
            raise ValueError("p must be exactly symmetric")


@dataclass
class HaralickFeatures:
    second_moment: float
    contrast: float
    correlation: float
    homogeneity: float
    entropy: float
    mean: float
    variance: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, m) for m in MEASURES], dtype=np.float64)


def quantize(band: np.ndarray, levels: int) -> np.ndarray:
    """Equal-width binning over the band's global min..max.

    q(v) = min(levels-1, floor((v - min) * levels / (max - min + 1))).
    A constant band quantizes to all zeros. Monotone in v.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    band = np.asarray(band)
    lo = int(band.min())
    hi = int(band.max())
    scaled = (band.astype(np.int64) - lo) * levels // (hi - lo + 1)
    return np.minimum(scaled, levels - 1).astype(np.int32)


def _direction_codes(quantized: np.ndarray, direction: int, levels: int) -> np.ndarray:
    """Pair-code image for a direction; entry (r, c) encodes the pair whose
    first pixel sits at quantized[r + max(0,-dr), c + max(0,-dc)]."""
    dr, dc = DIRECTION_OFFSETS[direction]
    h, w = quantized.shape
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    first = quantized[r0:r1, c0:c1].astype(np.int64)
    second = quantized[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return first * levels + second


def _pair_counts(window: np.ndarray, direction: int, levels: int) -> np.ndarray:
    """Symmetrized integer pair counts for one direction over one window."""
    codes = _direction_codes(window, direction, levels)
    counts = np.bincount(codes.ravel(), minlength=levels * levels).reshape(levels, levels)
    return counts + counts.T


def cooccurrence(window: np.ndarray, direction: int, levels: int | None = None) -> CooccurrenceMatrix:
    """Normalized symmetric co-occurrence matrix of a window at one direction."""
    window = np.asarray(window)
    if direction not in DIRECTION_OFFSETS:
        raise ValueError(f"unknown direction {direction}")
    if levels is None:
        levels = int(window.max()) + 1
    if window.min() < 0 or window.max() >= levels:
        raise ValueError("window entries must lie in [0, levels)")
    counts = _pair_counts(window, direction, levels)
    total = counts.sum()
    if total == 0:
        raise DegenerateWindowError(
            f"window of shape {window.shape} holds no pixel pair at {direction} degrees"
        )
    return CooccurrenceMatrix(levels=levels, p=counts / total)


@functools.lru_cache(maxsize=16)
def _measure_weights(levels: int) -> np.ndarray:
    """Read-only (levels^2, 5) contraction weights shared by every Haralick
    evaluation at a level count. Columns: (i-j)^2, 1/(1+(i-j)^2), i, i^2,
    i*j, flattened over the (i, j) grid."""
    i = np.repeat(np.arange(levels, dtype=np.float64), levels).reshape(levels, levels)
    j = i.T
    diff2 = (i - j) ** 2
    weights = np.stack([diff2, 1.0 / (1.0 + diff2), i, i * i, i * j], axis=-1)
    weights = weights.reshape(levels * levels, 5)
    weights.flags.writeable = False
    return weights


def _haralick_stack(p: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Seven measures for a stack of normalized matrices, shape (k, L, L) -> (k, 7).

    Variance and correlation use the expansions sum(i^2 p) - mu^2 and
    (sum(i j p) - mu^2) / var; rounding can push an exactly-zero variance
    microscopically negative, so it is clamped at 0 (which also triggers the
    correlation := 0 convention for degenerate matrices).
    """
    flat = p.reshape(p.shape[0], -1)
    contracted = flat @ weights
    contrast = contracted[:, 0]
    homogeneity = contracted[:, 1]
    mean = contracted[:, 2]
    variance = np.maximum(contracted[:, 3] - mean * mean, 0.0)
    cross = contracted[:, 4] - mean * mean
    second_moment = (flat * flat).sum(axis=1)
    entropy = -(flat * np.log(np.where(flat > 0, flat, 1.0))).sum(axis=1)
    correlation = np.where(variance > 0, cross / np.where(variance > 0, variance, 1.0), 0.0)
    return np.stack(
        [second_moment, contrast, correlation, homogeneity, entropy, mean, variance], axis=1
    )


def haralick(m: CooccurrenceMatrix) -> HaralickFeatures:
    """Second moment, contrast, correlation, homogeneity, entropy, mean, variance.

    Entropy uses the natural logarithm with 0*ln 0 = 0; correlation of a
    zero-variance matrix is defined as 0.
    """
    values = _haralick_stack(m.p[np.newaxis], _measure_weights(m.levels))[0]
    return HaralickFeatures(*(float(v) for v in values))


def extract_spectral(stack: BandStack) -> FeatureRaster:
    """One feature per band per pixel: the raw sample value as a real."""
    values = stack.samples.astype(np.float32)
    valid = np.ones((stack.height, stack.width), dtype=bool)
    return FeatureRaster(feature_names=list(stack.band_names), values=values, valid=valid)


def _band_rows(
    quantized: np.ndarray, params: GlcmParams, rows: range
) -> np.ndarray:
    """Direction-averaged measures for the requested window-centre rows.

    Returns (len(rows), width - window + 1, n_measures) float64. Row/column
    indices are centre positions offset by the window radius. Window counts
    come from integer column-histogram prefix sums, so every window's pair
    counts are exactly those of a direct per-window enumeration.
    """
    levels = params.levels
    radius = params.window // 2
    h, w = quantized.shape
    n_dir = len(params.directions)
    weights = _measure_weights(levels)
    measure_idx = [MEASURES.index(m) for m in params.measures]

    codes = []
    for direction in params.directions:
        dr, dc = DIRECTION_OFFSETS[direction]
        codes.append((_direction_codes(quantized, direction, levels), abs(dr), abs(dc)))

    n_cols = w - 2 * radius
    out = np.empty((len(rows), n_cols, len(measure_idx)), dtype=np.float64)
    bins = levels * levels
    for out_r, r in enumerate(rows):
        per_dir_counts = []
        for code_img, adr, adc in codes:
            # Rows of the pair-code image covered by windows centred on row r.
            slab = code_img[r - radius : r + radius + 1 - adr]
            slab_w = slab.shape[1]
            col_codes = np.arange(slab_w, dtype=np.int64) * bins + slab
            col_hist = np.bincount(col_codes.ravel(), minlength=slab_w * bins)
            col_hist = col_hist.reshape(slab_w, bins)
            prefix = np.zeros((slab_w + 1, bins), dtype=np.int64)
            np.cumsum(col_hist, axis=0, out=prefix[1:])
            win_w = 2 * radius + 1 - adc
            counts = prefix[win_w : win_w + n_cols] - prefix[:n_cols]
            counts = counts.reshape(n_cols, levels, levels)
            per_dir_counts.append(counts + counts.swapaxes(1, 2))
        stacked = np.stack(per_dir_counts, axis=1).astype(np.float64)
        totals = stacked.sum(axis=(2, 3), keepdims=True)
        p = (stacked / totals).reshape(n_cols * n_dir, levels, levels)
        per_direction = _haralick_stack(p, weights).reshape(n_cols, n_dir, len(MEASURES))
        out[out_r] = per_direction.sum(axis=1)[:, measure_idx] / n_dir
    return out


def _band_rows_task(args) -> np.ndarray:
    quantized, params, start, stop = args
    return _band_rows(quantized, params, range(start, stop))


def extract_texture(stack: BandStack, params: GlcmParams | None = None, jobs: int = 1) -> FeatureRaster:
    """Windowed GLCM features for the selected bands.

    Each band is quantized globally, then for every pixel whose window fits
    inside the image one co-occurrence matrix is counted per direction and
    the selected measures are averaged over directions. Emits
    len(bands) * len(measures) planes named "<band>_<measure>"; border pixels
    (within window//2 of any edge) are invalid. Results are independent of
    ``jobs`` (each row is computed in isolation).
    """
    if params is None:
        params = GlcmParams()
    for band in params.bands:
        if band not in stack.band_names:
            raise KeyError(f"unknown band {band!r}; stack holds {stack.band_names}")
    radius = params.window // 2
    h, w = stack.height, stack.width
    n_features = len(params.bands) * len(params.measures)
    values = np.full((n_features, h, w), np.nan, dtype=np.float32)
    valid = np.zeros((h, w), dtype=bool)
    if h < params.window or w < params.window:
        return FeatureRaster(feature_names=params.feature_names(), values=values, valid=valid)

    valid[radius : h - radius, radius : w - radius] = True
    centre_rows = range(radius, h - radius)
    n_measures = len(params.measures)

    for b, band in enumerate(params.bands):
        quantized = quantize(stack.band(band), params.levels)
        if jobs > 1:
            chunk = math.ceil(len(centre_rows) / (4 * jobs))
            spans = [
                (centre_rows[k], min(centre_rows[k] + chunk, centre_rows[-1] + 1))
                for k in range(0, len(centre_rows), chunk)
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                blocks = list(
                    pool.map(_band_rows_task, [(quantized, params, s, e) for s, e in spans])
                )
            block = np.concatenate(blocks, axis=0)
        else:
            block = _band_rows(quantized, params, centre_rows)
        planes = block.transpose(2, 0, 1).astype(np.float32)
        values[b * n_measures : (b + 1) * n_measures, radius : h - radius, radius : w - radius] = planes

    return FeatureRaster(feature_names=params.feature_names(), values=values, valid=valid)
