"""Texture and spectral feature extraction.

Texture features follow the classic grey-level co-occurrence recipe: each
band is quantized once to a small grey-level alphabet, a symmetric co-occurrence
matrix is counted per direction inside a sliding window, and seven scalar
measures are evaluated per matrix and averaged over the directions. Spectral
features are simply the raw band values.

Windows are never padded: pixels whose window overhangs the image border are
marked invalid and excluded from sampling and scoring downstream.

Second moment and entropy need each window's runs of equal pair keys, found
one output row of windows at a time in one of two ways. With K distinct keys
in a band-direction's key image and n pairs per window:

- K <= 2n: sliding counts. A dense (windows x K) count table moves down the
  image; each step adds the entering key row and subtracts the leaving one
  (a running histogram, as in Huang, Yang & Tang's 1979 median filter).
- K > 2n: every window's keys are copied and sorted.

Both list the runs in the same order, so the per-window sums and every output
bit are the same whichever runs; only the time differs. Measured on noisy 64²
scenes on a 2-core Xeon, sliding counts took 0.3-0.86x the sorting time at
K <= 2n, 0.92x at K = 2.6n and 1.08-1.2x at K = 3.7-3.9n; at K = 20n and
K = 170n (window 5, 32 and 300 levels) they took 1.5x and 7x.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pool import TaskPool
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
# A u16 band holds at most 2**16 distinct values, so more levels add nothing;
# the cap also keeps the int64 pair keys |a-b|*levels + min(a,b) exact.
MAX_LEVELS = 2**16


@dataclass
class GlcmParams:
    levels: int = DEFAULT_LEVELS
    window: int = DEFAULT_WINDOW
    directions: tuple[int, ...] = (0, 45, 90, 135)
    bands: tuple[str, ...] = DEFAULT_BANDS
    measures: tuple[str, ...] = MEASURES

    def __post_init__(self):
        self.bands = tuple(self.bands)
        _check_levels(self.levels)
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be odd and >= 3")
        if not self.directions:
            raise ValueError("directions must not be empty")
        for d in self.directions:
            if d not in DIRECTION_OFFSETS:
                raise ValueError(
                    f"directions: unknown angle {d}; choose from {sorted(DIRECTION_OFFSETS)}"
                )
        if not self.bands:
            raise ValueError("bands must not be empty")
        if len(set(self.bands)) < len(self.bands):
            raise ValueError(f"bands must be distinct, got {self.bands}")
        if not self.measures:
            raise ValueError("measures must not be empty")
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"measures: unknown measure {m!r}; choose from {MEASURES}")
        # bands keep caller order; directions and measures are canonicalized
        self.directions = tuple(sorted(set(self.directions)))
        self.measures = tuple(m for m in MEASURES if m in set(self.measures))

    def feature_names(self) -> list[str]:
        return [f"{band}_{measure}" for band in self.bands for measure in self.measures]


def _check_levels(levels: int) -> None:
    if not 2 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [2, {MAX_LEVELS}], got {levels}")


def quantize(band: np.ndarray, levels: int) -> np.ndarray:
    """Equal-width binning over the band's global min..max.

    q(v) = min(levels-1, floor((v - min) * levels / (max - min + 1))).
    A constant band quantizes to all zeros. Monotone in v.
    """
    _check_levels(levels)
    band = np.asarray(band)
    lo = int(band.min())
    hi = int(band.max())
    scaled = (band.astype(np.int64) - lo) * levels // (hi - lo + 1)
    return np.minimum(scaled, levels - 1).astype(np.int32)


def _pair_images(quantized: np.ndarray, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-pixel images of every pair at a direction, as int64.
    Entry (r, c) is the pair whose first pixel sits at
    quantized[r + max(0,-dr), c + max(0,-dc)]."""
    dr, dc = DIRECTION_OFFSETS[direction]
    h, w = quantized.shape
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    first = quantized[r0:r1, c0:c1].astype(np.int64)
    second = quantized[r0 + dr : r1 + dr, c0 + dc : c1 + dc].astype(np.int64)
    return first, second


def _pair_keys(first: np.ndarray, second: np.ndarray, levels: int) -> np.ndarray:
    """|a-b|*levels + min(a,b) per pair: one key per unordered pair, below
    ``levels`` exactly on the diagonal. At least 16 bits, because numpy
    sorts uint8 rows far slower than uint16 rows."""
    return (np.abs(first - second) * levels + np.minimum(first, second)).astype(
        np.promote_types(np.min_scalar_type(levels * levels - 1), np.uint16)
    )


def extract_spectral(stack: BandStack) -> FeatureRaster:
    """One feature per band per pixel: the raw sample value as a real."""
    values = stack.samples.astype(np.float32)
    valid = np.ones((stack.height, stack.width), dtype=bool)
    return FeatureRaster(feature_names=list(stack.band_names), values=values, valid=valid)


def _box_sums(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Sum of every height x width window of an image, from one integral image."""
    integral = np.zeros((image.shape[0] + 1, image.shape[1] + 1), dtype=image.dtype)
    np.cumsum(image, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    return (
        integral[height:, width:]
        - integral[:-height, width:]
        - integral[height:, :-width]
        + integral[:-height, :-width]
    )


def _run_measures(
    keys: np.ndarray, height: int, width: int, levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Second moment and entropy of every height x width window of a pair-key image.

    ``keys`` holds each pair's _pair_keys key. Each window's equal keys form
    runs: an off-diagonal run of length u fills two cells of the symmetric
    count matrix with u each, a diagonal run one cell with 2u.
    With K distinct keys in the image and n pairs per window, the runs come
    from sliding counts when K <= 2n and from sorting each window otherwise;
    both list them in the same order, so the sums are bit-identical.
    """
    n = height * width
    distinct = _distinct(keys)
    if distinct.size <= 2 * n:
        runs = _sliding_runs(keys, distinct, height, width, levels)
    else:
        runs = _sorted_runs(keys, height, width, levels)
    out_shape = (keys.shape[0] - height + 1, keys.shape[1] - width + 1)
    return _measures_of_runs(runs, n, out_shape)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in ascending order. np.unique hashes integers,
    which took several times longer than this sort."""
    flat = np.sort(keys, axis=None)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _measures_of_runs(runs, n: int, out_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Second moment and entropy of every window from a run finder's rows."""
    total = 2 * n
    u = np.arange(n + 1, dtype=np.float64)
    # Per run, indexed by diagonal * (n+1) + u: the sum over the cells it
    # fills of count^2 and of p ln p, with p = count / total.
    per_run = np.concatenate(
        [
            np.stack([2 * u * u, 2 * (u / total) * np.log(np.maximum(u, 1) / total)], axis=1),
            np.stack([4 * u * u, (2 * u / total) * np.log(np.maximum(2 * u, 1) / total)], axis=1),
        ]
    )
    second_moment = np.empty(out_shape)
    entropy = np.empty(out_shape)
    for r, (index, window_starts) in enumerate(runs):
        terms = np.take(per_run, index, axis=0)
        sums = np.add.reduceat(terms, window_starts)
        second_moment[r] = sums[:, 0] / (total * total)
        entropy[r] = -sums[:, 1]
    return second_moment, entropy


def _sorted_runs(keys: np.ndarray, height: int, width: int, levels: int):
    """Per output row, the runs of every window found by sorting its keys.

    Yields (index, window_starts): each run's row of the per-run table,
    window-major in ascending key order, and the position in that list of
    every window's first run.
    """
    n = height * width
    out_h, out_w = keys.shape[0] - height + 1, keys.shape[1] - width + 1
    windows = sliding_window_view(keys, (height, width))
    window_starts = np.arange(out_w) * n
    row = np.empty((out_w, n), dtype=keys.dtype)
    starts = np.ones((out_w, n), dtype=bool)
    for r in range(out_h):
        np.copyto(row.reshape(out_w, height, width), windows[r])
        row.sort(axis=1)
        np.not_equal(row[:, 1:], row[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        length = np.empty_like(first)
        np.subtract(first[1:], first[:-1], out=length[:-1])
        length[-1] = starts.size - first[-1]
        diagonal = np.take(row, first) < levels
        yield length + diagonal * (n + 1), first.searchsorted(window_starts)


def _sliding_runs(
    keys: np.ndarray, distinct: np.ndarray, height: int, width: int, levels: int
):
    """Per output row, the runs of every window found from sliding counts.

    Yields what _sorted_runs yields. ``distinct`` holds the image's K distinct
    keys in ascending order. One (out_w, K) table over them holds, per window
    and key, count + (n+1)*diagonal: the key's per-run table row once the
    key occurs. Moving down one output row adds the entering key row's
    out_w*width cells and subtracts the leaving row's, so the occupied
    cells, read window-major, are the sorted runs.
    """
    n = height * width
    k = distinct.size
    out_w = keys.shape[1] - width + 1
    empty = np.tile((distinct < levels) * (n + 1), out_w).astype(np.intp)
    cells = empty.copy()
    # Window c holds columns c..c+width-1 of every key row it spans.
    columns = (np.arange(out_w)[:, np.newaxis] + np.arange(width)).ravel()
    window_offsets = np.repeat(np.arange(out_w) * k, width)
    window_starts = np.arange(out_w) * k
    # Key row i's cells sit in slot i % height until row i + height evicts them.
    inside = np.empty((height, out_w * width), dtype=np.intp)
    occupied = np.empty(cells.shape, dtype=bool)
    for i in range(keys.shape[0]):
        index = inside[i % height]
        if i >= height:
            np.subtract.at(cells, index, 1)
        np.take(distinct.searchsorted(keys[i]), columns, out=index)
        index += window_offsets
        np.add.at(cells, index, 1)
        if i >= height - 1:
            np.not_equal(cells, empty, out=occupied)
            nonzero = np.flatnonzero(occupied)
            yield np.take(cells, nonzero), nonzero.searchsorted(window_starts)


def _direction_measures(quantized: np.ndarray, direction: int, params: GlcmParams) -> np.ndarray:
    """All seven measures, in MEASURES order, of every window at one direction.

    Returns (7, height - window + 1, width - window + 1) float64. A window
    holds n pairs and its symmetric matrix T = 2n counts. The five measures
    linear in p are exact integer box sums over per-pair images divided by n
    or T (homogeneity's box sum is float64). Entropy uses the natural
    logarithm with 0 ln 0 = 0. Variance and correlation use the expansions
    sum(i^2 p) - mu^2 and (sum(i j p) - mu^2) / variance; rounding can push
    an exactly-zero variance microscopically negative, so it is clamped at 0,
    and the correlation of a zero-variance window is 0 by convention.
    """
    dr, dc = DIRECTION_OFFSETS[direction]
    height, width = params.window - abs(dr), params.window - abs(dc)
    n = height * width
    total = 2 * n
    a, b = _pair_images(quantized, direction)
    diff2 = (a - b) ** 2

    contrast = _box_sums(diff2, height, width) / n
    homogeneity = _box_sums(1.0 / (1.0 + diff2), height, width) / n
    mean = _box_sums(a + b, height, width) / total
    variance = np.maximum(_box_sums(a * a + b * b, height, width) / total - mean * mean, 0.0)
    cross = _box_sums(a * b, height, width) / n - mean * mean
    correlation = np.where(variance > 0, cross / np.where(variance > 0, variance, 1.0), 0.0)

    second_moment, entropy = _run_measures(
        _pair_keys(a, b, params.levels), height, width, params.levels
    )
    return np.stack(
        [second_moment, contrast, correlation, homogeneity, entropy, mean, variance]
    )


def _band_measures(quantized: np.ndarray, params: GlcmParams) -> np.ndarray:
    """Selected measures of one quantized band averaged over the directions,
    (n_measures, height - window + 1, width - window + 1) float64."""
    # sum() starts from 0, so a zero average is +0.0 even if every term is -0.0.
    summed = sum(_direction_measures(quantized, d, params) for d in params.directions)
    measure_idx = [MEASURES.index(m) for m in params.measures]
    return summed[measure_idx] / len(params.directions)


def extract_texture(
    stack: BandStack,
    params: GlcmParams | None = None,
    jobs: int = 1,
    pool: TaskPool | None = None,
) -> FeatureRaster:
    """Windowed GLCM features for the selected bands.

    Each band is quantized globally, then for every pixel whose window fits
    inside the image one co-occurrence matrix is counted per direction and
    the selected measures are averaged over directions. Emits
    len(bands) * len(measures) planes named "<band>_<measure>"; border pixels
    (within window//2 of any edge) are invalid. Whole bands are split between
    the processes of ``pool``, or of a pool of ``jobs`` processes made for
    this call, so results are bit-identical for any ``jobs``.
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
    n_measures = len(params.measures)
    tasks = [(quantize(stack.band(band), params.levels), params) for band in params.bands]
    with nullcontext(pool) if pool is not None else TaskPool(jobs, len(tasks)) as pool:
        for b, block in enumerate(pool.map(_band_measures, tasks)):
            values[b * n_measures : (b + 1) * n_measures, radius : h - radius, radius : w - radius] = block
    return FeatureRaster(feature_names=params.feature_names(), values=values, valid=valid)
