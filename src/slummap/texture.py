"""Texture and spectral feature extraction.

Texture features follow the classic grey-level co-occurrence recipe: each
band is quantized once to a small grey-level alphabet, a symmetric co-occurrence
matrix is counted per direction inside a sliding window, and seven scalar
measures are evaluated per matrix and averaged over the directions. Spectral
features are simply the raw band values.

Windows are never padded: pixels whose window overhangs the image border are
marked invalid and excluded from sampling and scoring downstream.

Every per-window sum is an exact integer, so a pixel's features depend only
on its own window: not on its strip, the bands it is computed with, the
scene's size or the order of summation. The five measures linear in the
co-occurrence matrix are int64 box sums, homogeneity's in units of 2**-40.
Second moment and entropy come from one kernel for any number K of distinct
pair keys, _key_sums: a (windows x K) count table moves down the image,
adding the entering key row and subtracting the leaving one (a running
histogram, as in Huang, Yang & Tang's 1979 median filter), and every pair
that enters or leaves steps its window's sums of squared cells and of c ln c,
the latter in fixed point. One pass at one direction serves a stack of bands
of at most _GROUP_PIXELS pixels: each band keeps its own K key ids, and each
key-row step of the table, each block step and each box sum runs once for
the whole stack. The table holds at most _TABLE_CELLS cells (2 MB) unless one
band's K alone is more; the other temporaries are blocks of _BLOCK_CELLS
pairs, reused down the image. On noisy scenes (2-core Xeon, numpy 2.4.6)
the median four-band extract took, against one pass per band: 40 against
57 ms at 64² and the defaults; 27 against 44 ms at window 5; 37 against
43 ms at 300 levels and window 5; 51 against 53 ms at 300 levels and
window 13; 0.70 against 0.78 s at 256², which goes one band per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .pool import fork_map
from .raster import BandStack, DimensionMismatchError, FeatureRaster

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
# Homogeneity sums rint(2**40 / (1 + d**2)) per pair, so a window of n pairs
# sums below 2**63 while n < 2**23: every window up to 2895 wide.
_HOMOGENEITY_UNIT = 2.0**40
MAX_WINDOW = 2895
# Cells of one count table (2 MB of intp): wider tables take their bands and
# window columns in slabs.
_TABLE_CELLS = 2**18
# Pairs per block of key rows whose steps are summed at once.
_BLOCK_CELLS = 2**13
# Pixels of one band group, the stack that one kernel pass serves. The
# kernel's temporaries grow with it while the saving in numpy calls shrinks
# with the scene: four bands share a pass up to 64x64, and from 91x91 up
# bands go one at a time.
_GROUP_PIXELS = 2**14


@dataclass
class GlcmParams:
    levels: int = DEFAULT_LEVELS
    window: int = DEFAULT_WINDOW
    directions: tuple[int, ...] = (0, 45, 90, 135)
    bands: tuple[str, ...] = DEFAULT_BANDS
    measures: tuple[str, ...] = MEASURES

    def __post_init__(self):
        self.bands = tuple(self.bands)
        # ints, as the model file holds them: a float window would fail in slicing
        for name in ("levels", "window"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        _check_levels(self.levels)
        if not 3 <= self.window <= MAX_WINDOW or self.window % 2 == 0:
            raise ValueError(f"window must be odd and lie in [3, {MAX_WINDOW}], got {self.window}")
        if not self.directions:
            raise ValueError("directions must not be empty")
        for d in self.directions:
            if type(d) is not int or d not in DIRECTION_OFFSETS:
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
    """First- and second-pixel images of every pair at a direction, as int64,
    of an image or a (bands, rows, columns) stack. Entry (..., r, c) is the
    pair whose first pixel sits at quantized[..., r + max(0,-dr), c + max(0,-dc)]."""
    dr, dc = DIRECTION_OFFSETS[direction]
    h, w = quantized.shape[-2:]
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    first = quantized[..., r0:r1, c0:c1].astype(np.int64)
    second = quantized[..., r0 + dr : r1 + dr, c0 + dc : c1 + dc].astype(np.int64)
    return first, second


def _pair_keys(first: np.ndarray, second: np.ndarray, levels: int) -> np.ndarray:
    """|a-b|*levels + min(a,b) per pair: one key per unordered pair, below
    ``levels`` exactly on the diagonal, in the smallest unsigned type."""
    return (np.abs(first - second) * levels + np.minimum(first, second)).astype(
        np.min_scalar_type(levels * levels - 1)
    )


def extract_spectral(stack: BandStack) -> FeatureRaster:
    """One feature per band per pixel: the raw sample value as a real."""
    values = stack.samples.astype(np.float32)
    valid = np.ones((stack.height, stack.width), dtype=bool)
    return FeatureRaster(feature_names=list(stack.band_names), values=values, valid=valid)


def _box_sums(images: list, shape: tuple, height: int, width: int) -> np.ndarray:
    """Sum of every height x width window of each (bands, rows, columns) int64
    image of the given shape, from one stacked integral image. Each image is
    made by calling its entry of images just before its cumulative sum, so
    only one is held at a time. The sums are exact even where the cumulative
    sums wrap."""
    bands, h, w = shape
    integral = np.zeros((len(images), bands, h + 1, w + 1), dtype=np.int64)
    for image, plane in zip(images, integral):
        np.cumsum(image(), axis=1, out=plane[:, 1:, 1:])
    np.cumsum(integral[..., 1:, 1:], axis=3, out=integral[..., 1:, 1:])
    return (
        integral[..., height:, width:]
        - integral[..., :-height, width:]
        - integral[..., height:, :-width]
        + integral[..., :-height, :-width]
    )


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each key's index among its band's distinct keys, and each band's
    distinct keys in ascending order. One argsort; np.unique and searchsorted
    took 3-4x longer."""
    flat = keys.reshape(len(keys), -1)
    order = np.argsort(flat, axis=1, kind="stable")
    ordered = np.take_along_axis(flat, order, axis=1)
    first = np.ones(flat.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    ids = np.empty(flat.shape, dtype=np.intp)
    np.put_along_axis(ids, order, np.cumsum(first, axis=1) - 1, axis=1)
    return ids.reshape(keys.shape), [row[new] for row, new in zip(ordered, first)]


def _entropy_shift(n: int) -> int:
    """The s with 2n ln(2n) * 2**s < 2**62, which bounds a window's
    fixed-point entropy sum: no cell count exceeds the total 2n."""
    return 62 - math.frexp(2 * n * math.log(2 * n))[1]


def _key_terms(n: int) -> np.ndarray:
    """What one key with count u adds to a window of n pairs, exactly:
    (2, 2, n + 1) int64 indexed by (sum, on the diagonal, u). Sum 0 is the
    key's sum of squared matrix cells, sum 1 its sum of c ln c in fixed point,
    rint(2**s * c ln c) with s = _entropy_shift(n). An off-diagonal key fills
    two cells with u each, a diagonal key one cell with 2u."""
    cell = np.stack([np.arange(n + 1), 2 * np.arange(n + 1)])
    per_key = np.array([[2], [1]])
    entropy = np.rint(2.0 ** _entropy_shift(n) * (per_key * cell * np.log(np.maximum(cell, 1))))
    return np.stack([per_key * cell * cell, entropy.astype(np.int64)])


def _ranks(keys: np.ndarray, width: int) -> np.ndarray:
    """rank[r, o, b, c]: how many of keys[b, r, c : c + o] equal
    keys[b, r, c + o], so the equal keys of a window row are numbered 0, 1,
    ... from the left. A view of a (width, bands, rows, columns) table of
    running equality counts."""
    bands, h, w = keys.shape
    equal = np.zeros((width, bands, h, w), dtype=np.min_scalar_type(width))
    for d in range(1, width):
        np.equal(keys[..., d:], keys[..., :-d], out=equal[d, ..., d:])
        equal[d] += equal[d - 1]
    s = equal.itemsize
    return as_strided(
        equal, (h, width, bands, w - width + 1), (w * s, (bands * h * w + 1) * s, h * w * s, s)
    )


def _slabs(sizes: np.ndarray, columns: int):
    """(b0, b1, c0, c1) per count table: bands b0..b1 and window columns
    c0..c1. A table holds at most _TABLE_CELLS cells unless one band's K keys
    alone need more: bands join it while the K cells of each of their window
    columns fit, and a band too wide for one table alone takes its columns
    in slabs, one column at the least."""
    b0 = 0
    while b0 < len(sizes):
        b1, per_column = b0 + 1, sizes[b0]
        while b1 < len(sizes) and (per_column + sizes[b1]) * columns <= _TABLE_CELLS:
            per_column += sizes[b1]
            b1 += 1
        slab = max(1, _TABLE_CELLS // per_column)
        for c0 in range(0, columns, slab):
            yield b0, b1, c0, min(columns, c0 + slab)
        b0 = b1


def _key_sums(keys: np.ndarray, height: int, width: int, levels: int) -> np.ndarray:
    """The two _key_terms sums over the keys of every height x width window of
    each band of a (bands, rows, columns) pair-key stack, exact:
    (2, bands, rows - height + 1, columns - width + 1) int64.

    The count table holds a key's count plus n + 1 if it is diagonal, so a
    cell's value indexes ``steps``, each sum's change as a count moves from u
    to u + 1 (negated for a pair that leaves). One take per step reads the
    leaving cells after their subtraction and the entering cells before their
    addition; a pair's step sits at that value plus its rank among the equal
    keys of its window row. Steps are summed per window in blocks of rows,
    then down the image. Each band keeps its own K_b dense key ids, and one
    table holds K_b cells per window column of each of its bands, so every
    step of a key row serves all bands of a slab (see _slabs) at once.
    """
    n = height * width
    key_terms = _key_terms(n)
    change = np.diff(key_terms, axis=-1, append=key_terms[..., -1:]).reshape(2, -1)
    # steps[i, z]: sum z's step at index i, so one take reads both sums.
    steps = np.concatenate([change, -change], axis=1).T.copy()
    ids, distinct = _dense_ids(keys)
    rank = _ranks(keys, width)
    bands, hk = keys.shape[:2]
    out_w = rank.shape[3]
    sizes = np.array([d.size for d in distinct])
    # windows[r, o, b, c] = ids[b, r, c + o], the pairs of every window row
    windows = sliding_window_view(ids, out_w, axis=2).transpose(1, 2, 0, 3)
    sums = np.empty((bands, hk, out_w, 2), dtype=np.int64)
    slabs = list(_slabs(sizes, out_w))
    # One table buffer serves every slab; each band holds its columns in turn.
    cells_needed = max(sizes[b0:b1].sum() * (c1 - c0) for b0, b1, c0, c1 in slabs)
    buffer = np.empty(cells_needed, dtype=np.intp)
    for b0, b1, c0, c1 in slabs:
        cols = c1 - c0
        starts = np.concatenate(([0], np.cumsum(sizes[b0:b1]))) * cols
        table = buffer[: starts[-1]]
        for b, s0, s1 in zip(range(b0, b1), starts, starts[1:]):
            table[s0:s1].reshape(cols, -1)[:] = np.where(distinct[b] < levels, n + 1, 0)
        # The first cell of each band's window column.
        offsets = starts[:-1, np.newaxis] + np.arange(cols) * sizes[b0:b1, np.newaxis]
        rows = max(1, _BLOCK_CELLS // (offsets.size * width))
        # Per step the leaving row's cells, then the entering row's. Steps
        # before row `height` evict nothing and read cell 0 in its place.
        cells = np.zeros((rows, 2, width, b1 - b0, cols), dtype=np.intp)
        index = np.empty_like(cells)
        gathered = np.empty(cells.shape + (2,), dtype=np.int64)
        slab = (..., slice(b0, b1), slice(c0, c1))
        for i0 in range(0, hk, rows):
            i1 = min(hk, i0 + rows)
            e0 = min(i1, max(i0, height))
            np.add(windows[e0 - height : i1 - height][slab], offsets, out=cells[e0 - i0 : i1 - i0, 0])
            np.add(windows[i0:i1][slab], offsets, out=cells[: i1 - i0, 1])
            for k in range(i1 - i0):
                if k >= e0 - i0:
                    np.subtract.at(table, cells[k, 0], 1)
                # mode="clip" because every cell is in range, and "raise" buffers out.
                np.take(table, cells[k], out=index[k], mode="clip")
                np.add.at(table, cells[k, 1], 1)
            index[: e0 - i0, 0] = n
            index[e0 - i0 : i1 - i0, 0] += rank[e0 - height : i1 - height][slab]
            index[e0 - i0 : i1 - i0, 0] += 2 * (n + 1)
            index[: i1 - i0, 1] += rank[i0:i1][slab]
            np.take(steps, index[: i1 - i0], axis=0, out=gathered[: i1 - i0], mode="clip")
            np.einsum("isobcz->bicz", gathered[: i1 - i0], out=sums[b0:b1, i0:i1, c0:c1])
    np.cumsum(sums, axis=1, out=sums)
    return np.moveaxis(sums[:, height - 1 :], -1, 0)


def _direction_measures(quantized: np.ndarray, direction: int, params: GlcmParams) -> np.ndarray:
    """The selected measures, in params.measures order, of every window of
    each band of a (bands, height, width) stack at one direction.

    Returns (bands, n_measures, height - window + 1, width - window + 1)
    float64. A window holds n pairs and its symmetric matrix T = 2n counts.
    Entropy uses the natural logarithm with 0 ln 0 = 0, as
    ln T - sum(c ln c) / T. Variance and correlation use the expansions
    sum(i^2 p) - mu^2 and (sum(i j p) - mu^2) / variance; rounding can push an
    exactly-zero variance microscopically negative, so it is clamped at 0, and
    the correlation of a zero-variance window is 0 by convention. The key
    kernel runs only if second moment or entropy is selected.
    """
    dr, dc = DIRECTION_OFFSETS[direction]
    height, width = params.window - abs(dr), params.window - abs(dc)
    n = height * width
    total = 2 * n
    planes = {}
    # The key kernel first, while the linear measures' temporaries are not yet live.
    if "second_moment" in params.measures or "entropy" in params.measures:
        keys = _pair_keys(*_pair_images(quantized, direction), params.levels)
        squares, entropy_sums = _key_sums(keys, height, width, params.levels)
        planes["second_moment"] = squares / (total * total)
        planes["entropy"] = math.log(total) - entropy_sums * 2.0 ** -_entropy_shift(n) / total
    a, b = _pair_images(quantized, direction)
    images = [
        lambda: (a - b) ** 2,
        lambda: np.rint(_HOMOGENEITY_UNIT / (1.0 + (a - b) ** 2)).astype(np.int64),
        lambda: a + b,
        lambda: a * a + b * b,
        lambda: a * b,
    ]
    linear = _box_sums(images, a.shape, height, width)
    mean = linear[2] / total
    variance = np.maximum(linear[3] / total - mean * mean, 0.0)
    cross = linear[4] / n - mean * mean
    planes.update(
        contrast=linear[0] / n,
        correlation=np.where(variance > 0, cross / np.where(variance > 0, variance, 1.0), 0.0),
        homogeneity=linear[1] / (_HOMOGENEITY_UNIT * n),
        mean=mean,
        variance=variance,
    )
    return np.stack([planes[m] for m in params.measures], axis=1)


def _band_measures(quantized: np.ndarray, params: GlcmParams) -> np.ndarray:
    """Selected measures of each band of a quantized (bands, height, width)
    stack averaged over the directions,
    (bands, n_measures, height - window + 1, width - window + 1) float64."""
    # sum() starts from 0, so a zero average is +0.0 even if every term is -0.0.
    summed = sum(_direction_measures(quantized, d, params) for d in params.directions)
    return summed / len(params.directions)


def extract_texture(
    stack: BandStack,
    params: GlcmParams | None = None,
    jobs: int = 1,
) -> FeatureRaster:
    """Windowed GLCM features for the selected bands.

    Each band is quantized globally, then for every pixel whose window fits
    inside the image one co-occurrence matrix is counted per direction and
    the selected measures are averaged over directions. Emits
    len(bands) * len(measures) planes named "<band>_<measure>"; border pixels
    (within window//2 of any edge) are invalid. A band the stack lacks, or a
    window larger than the stack, raises DimensionMismatchError. The bands
    are dealt into groups, band i to group i % k, and each group is one task:
    one kernel pass per direction serves a whole group. There are ``jobs``
    groups, or more where a group would hold over _GROUP_PIXELS pixels, but
    no more than bands; fork_map splits them between ``jobs`` processes
    forked for this call. Every window sum is an exact integer, so a band's
    features do not depend on its group, and results are bit-identical for
    any ``jobs``.
    """
    if params is None:
        params = GlcmParams()
    h, w = stack.height, stack.width
    missing = next((band for band in params.bands if band not in stack.band_names), None)
    if missing:
        raise DimensionMismatchError(
            f"[glcm] band {missing!r} is not in the scene (it holds {','.join(stack.band_names)})"
        )
    if params.window > min(h, w):
        raise DimensionMismatchError(
            f"[glcm] window {params.window} is larger than the {w}x{h} scene"
        )
    radius = params.window // 2
    n_bands, n_measures = len(params.bands), len(params.measures)
    values = np.full((n_bands, n_measures, h, w), np.nan, dtype=np.float32)
    valid = np.zeros((h, w), dtype=bool)
    valid[radius : h - radius, radius : w - radius] = True
    quantized = np.stack([quantize(stack.band(band), params.levels) for band in params.bands])
    per_group = max(1, _GROUP_PIXELS // (h * w))
    groups = min(n_bands, max(jobs, -(-n_bands // per_group)))
    tasks = [(quantized[s::groups], params) for s in range(groups)]
    for s, block in enumerate(fork_map(_band_measures, tasks, jobs)):
        for b, planes in zip(range(s, n_bands, groups), block):
            values[b, :, radius : h - radius, radius : w - radius] = planes
    return FeatureRaster(
        feature_names=params.feature_names(),
        values=values.reshape(n_bands * n_measures, h, w),
        valid=valid,
    )
