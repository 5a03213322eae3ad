"""Texture and spectral feature extraction.

Texture features follow the classic grey-level co-occurrence recipe: each
band is quantized once to a small grey-level alphabet, a symmetric co-occurrence
matrix is counted per direction inside a sliding window, and seven scalar
measures are evaluated per matrix and averaged over the directions. Spectral
features are simply the raw band values.

Windows are never padded: pixels whose window overhangs the image border are
marked invalid and excluded from sampling and scoring downstream.

Every per-window sum is an exact integer, so a pixel's features depend only
on its own window and on its band's min..max over the scene (quantize): not
on its strip, the bands it is computed with or the order of summation.
Through that range a band's two most extreme samples move every pixel: one
corner pixel at 65535 flips 50% of a clean 64 x 64 map (ROADMAP item 17).
The five measures linear in the co-occurrence matrix are int64 box sums,
homogeneity's in units of 2**-40: sums of a + b and of a^2 + b^2 from two
pixel integral images that every direction shares, and per direction those
of a * b and of homogeneity. Second moment and entropy come from one kernel
for any number K of distinct pair keys, _key_sums: a (windows x K) count
table takes the top window of each column at once, and its sums of squared
cells and of c ln c (in fixed point) are read off the table. It then moves
down the image, adding the entering key row and subtracting the leaving one
(a running histogram, as in Huang, Yang & Tang's 1979 median filter), and
each pair that enters or leaves steps its window's sums.

One kernel pass serves a stack of key images of one shape: the bands of a
group at every direction whose key image and window have that shape (see
_passes). 45 and 135 degrees always share a pass; 90 degrees, transposed,
shares 0 degrees' window (19 x 18 at the defaults), and on square scenes its
key image too. Each image keeps its own K key ids, numbered by one sort, and
each key-row step of the table, each block step and each box sum runs once
for the whole stack. A pass holds at most _GROUP_PIXELS band-direction
pixels, and few bytes for each: table counts in the smallest type that holds
2n + width (16 bits at the defaults), key ids in 16 bits up to 65,536 pairs
an image, 8-bit ranks for only a chunk of rows and the window above it
(_RANK_BYTES), and int64 sums for only the output rows. The table holds at
most _TABLE_CELLS cells unless one image's K alone is more, and the other
temporaries are blocks of _BLOCK_CELLS pairs, reused down the image. A
default 64² extract peaks at 2.41 MB traced (2.87 MB with one pass per
direction). At this size the kernel's cost is the number of numpy calls a
pass makes, not its band-directions, so fewer and larger passes are faster
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# Cells of one count table: 1 MB of the default window's 16-bit counts, 2 MB
# of the 32-bit counts of windows over 181 wide. Wider tables take their
# images and window columns in slabs.
_TABLE_CELLS = 2**19
# Pairs per block of key rows whose steps are summed at once.
_BLOCK_CELLS = 2**13
# Bytes of the rank planes of one chunk of key rows and the window before it.
_RANK_BYTES = 2**18
# Band-direction pixels of one kernel pass: a band group's bands, times the
# most directions that share a pass, times the scene's pixels. The kernel's
# temporaries grow with it while the saving in numpy calls shrinks with the
# scene: at the four default directions four bands share each pass up to
# 64x64, and from 91x91 up bands go one at a time.
_GROUP_PIXELS = 2**15


@dataclass
class GlcmParams:
    levels: int = DEFAULT_LEVELS
    window: int = DEFAULT_WINDOW
    directions: tuple[int, ...] = (0, 45, 90, 135)
    bands: tuple[str, ...] = DEFAULT_BANDS
    measures: tuple[str, ...] = MEASURES

    def __post_init__(self):
        # a bare string would split into its characters, and a scalar fail to iterate
        for name in ("directions", "bands", "measures"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple, set, frozenset)) or not value:
                raise ValueError(f"{name} must be a non-empty list, tuple or set, got {value!r}")
        self.bands = tuple(self.bands)
        # ints, as the model file holds them: a float window would fail in slicing
        for name in ("levels", "window"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        _check_levels(self.levels)
        if not 3 <= self.window <= MAX_WINDOW or self.window % 2 == 0:
            raise ValueError(f"window must be odd and lie in [3, {MAX_WINDOW}], got {self.window}")
        for d in self.directions:
            if type(d) is not int or d not in DIRECTION_OFFSETS:
                raise ValueError(
                    f"directions: unknown angle {d}; choose from {sorted(DIRECTION_OFFSETS)}"
                )
        if not all(isinstance(band, str) for band in self.bands):
            raise ValueError(f"bands must be names, got {self.bands}")
        if len(set(self.bands)) < len(self.bands):
            raise ValueError(f"bands must be distinct, got {self.bands}")
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
    A constant band quantizes to all zeros. Monotone in v. One extreme sample
    widens every bin, and so moves every GLCM feature (ROADMAP item 17).
    """
    _check_levels(levels)
    band = np.asarray(band)
    lo = int(band.min())
    hi = int(band.max())
    scaled = (band.astype(np.int64) - lo) * levels // (hi - lo + 1)
    return np.minimum(scaled, levels - 1).astype(np.int32)


def _pair_images(quantized: np.ndarray, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-pixel images of every pair at a direction, as views
    of an image or a (bands, rows, columns) stack. Entry (..., r, c) is the
    pair whose first pixel sits at quantized[..., r + max(0,-dr), c + max(0,-dc)]."""
    dr, dc = DIRECTION_OFFSETS[direction]
    h, w = quantized.shape[-2:]
    r0, r1 = max(0, -dr), h - max(0, dr)
    c0, c1 = max(0, -dc), w - max(0, dc)
    return quantized[..., r0:r1, c0:c1], quantized[..., r0 + dr : r1 + dr, c0 + dc : c1 + dc]


def _pair_keys(first: np.ndarray, second: np.ndarray, levels: int) -> np.ndarray:
    """|a-b|*levels + min(a,b) per pair: one key per unordered pair, below
    ``levels`` exactly on the diagonal, in the smallest unsigned type."""
    keys = np.abs(np.subtract(first, second, dtype=np.int64))
    keys *= levels
    keys += np.minimum(first, second)
    return keys.astype(np.min_scalar_type(levels * levels - 1))


def extract_spectral(stack: BandStack) -> FeatureRaster:
    """One feature per band per pixel: the raw sample value as a real."""
    values = stack.samples.astype(np.float32)
    valid = np.ones((stack.height, stack.width), dtype=bool)
    return FeatureRaster(feature_names=list(stack.band_names), values=values, valid=valid)


def _pair_box_sums(a: np.ndarray, b: np.ndarray, height: int, width: int) -> np.ndarray:
    """Sums of a * b and of homogeneity's rint(2**40 / (1 + (a - b)**2)) over
    every height x width window of the pairs of first- and second-pixel
    images a and b, (2, bands, rows - height + 1, columns - width + 1) int64,
    from one integral image that each is written straight into. The sums are
    exact even where the cumulative sums wrap."""
    bands, h, w = a.shape
    integral = np.zeros((2, bands, h + 1, w + 1), dtype=np.int64)
    np.multiply(a, b, out=integral[0, :, 1:, 1:], dtype=np.int64)
    # (a - b)**2 + 1 is exact in float64, as it was in int64.
    d = np.subtract(a, b, dtype=np.float64)
    np.square(d, out=d)
    d += 1.0
    np.divide(_HOMOGENEITY_UNIT, d, out=d)
    integral[1, :, 1:, 1:] = np.rint(d, out=d)
    del d
    np.cumsum(integral[..., 1:, 1:], axis=2, out=integral[..., 1:, 1:])
    np.cumsum(integral[..., 1:, 1:], axis=3, out=integral[..., 1:, 1:])
    return _box(integral, 0, 0, height, width, (h - height + 1, w - width + 1))


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each key's index among its image's distinct keys, and each image's
    distinct keys in ascending order. One row-wise stable argsort, then flat
    indexing: each run of equal sorted keys gets its index in its image, and
    one assignment scatters those back. np.unique took 3-4x longer."""
    stack, size = len(keys), keys[0].size
    order = np.argsort(keys.reshape(stack, size), axis=1, kind="stable")
    order += np.arange(0, stack * size, size)[:, np.newaxis]
    ordered = keys.ravel().take(order.ravel())
    new = np.empty(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    new[::size] = True
    # Where each run of equal keys starts, and which run opens each image.
    starts = np.flatnonzero(new)
    opens = np.searchsorted(starts, np.arange(0, ordered.size, size))
    within = np.arange(starts.size) - np.repeat(opens, np.diff(opens, append=starts.size))
    ids = np.empty(keys.shape, dtype=np.min_scalar_type(size - 1))
    within = within.astype(ids.dtype)
    ids.ravel()[order.ravel()] = np.repeat(within, np.diff(starts, append=ordered.size))
    return ids, np.split(ordered[starts], opens[1:])


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
    each image of a (stack, rows, columns) pair-key stack, exact:
    (2, stack, rows - height + 1, columns - width + 1) int64.

    The count table holds a key's count plus n + 1 if it is diagonal, so a
    cell's value indexes its two sums in _key_terms, and ``steps``, each
    sum's change as a count moves from u to u + 1, then the same negated for
    a pair that leaves. The first window's key rows enter the table at once,
    and the first output row sums its cells' terms over the keys. After it,
    one take per key row reads the leaving cells after their subtraction and
    the entering cells before their addition; a pair's step sits at that
    value plus its rank among the equal keys of its window row. Steps are
    summed per window in blocks of rows, then down the image. Each image
    keeps its own K_b dense key ids, and one table holds K_b cells per window
    column of each of its images, so every step of a key row serves all
    images of a slab (see _slabs) at once. Table counts are in the smallest
    type that holds 2n + width: 16 bits for windows up to 181 wide.

    The ranks are made a chunk of key rows at a time, and held only for the
    chunk and the ``height`` rows before it, which are the rows that leave
    while it enters. One strided view reads each side's ids, and one each
    side's ranks, so both sides of a block take one add apiece.
    """
    n = height * width
    key_terms = _key_terms(n)
    change = np.diff(key_terms, axis=-1, append=key_terms[..., -1:]).reshape(2, -1)
    # steps[i, z]: sum z's step at index i; leaving pairs read from 2(n + 1) on.
    steps = np.concatenate([change, -change], axis=1).T.copy()
    leaving_steps = steps[2 * (n + 1) :]
    ids, distinct = _dense_ids(keys)
    stack, hk, wk = keys.shape
    out_w = wk - width + 1
    sizes = np.array([d.size for d in distinct])
    sums = np.empty((hk - height + 1, stack, out_w, 2), dtype=np.int64)
    slabs = list(_slabs(sizes, out_w))
    # One table buffer serves every slab; each image holds its columns in turn.
    cells_needed = max(sizes[b0:b1].sum() * (c1 - c0) for b0, b1, c0, c1 in slabs)
    # Table values and step indices stay below 2n + width.
    buffer = np.empty(cells_needed, dtype=np.min_scalar_type(2 * n + width))
    one = buffer.dtype.type(1)  # a Python 1 sends ufunc.at down a slow casting path
    for b0, b1, c0, c1 in slabs:
        cols, images = c1 - c0, b1 - b0
        starts = np.concatenate(([0], np.cumsum(sizes[b0:b1]))) * cols
        table = buffer[: starts[-1]]
        for b, s0, s1 in zip(range(b0, b1), starts, starts[1:]):
            table[s0:s1].reshape(cols, -1)[:] = np.where(distinct[b] < levels, n + 1, 0)
        # The first cell of each image's window column; as int32 the add that
        # makes the cells buffers less and runs faster than as intp.
        offsets = starts[:-1, np.newaxis] + np.arange(cols) * sizes[b0:b1, np.newaxis]
        offsets = offsets.astype(np.int32)
        rows = max(1, _BLOCK_CELLS // (offsets.size * width))
        # Ranks are made for chunks of key rows, at least a window's height
        # and a block, so the rows that leave while a chunk enters are the
        # `height` before it; together they fill _RANK_BYTES if they can.
        row_bytes = width * images * (cols + width - 1)
        chunk = min(hk, max(height, rows, _RANK_BYTES // row_bytes - height))
        # pairs[k, s, o, b, c]: the id of pair o of window row k + s * height
        # of (b, c), which leaves (s = 0) or enters (s = 1) at step k + height.
        slab_ids = ids[b0:b1, :, c0 : c1 + width - 1]
        sb, sr, sc = slab_ids.strides
        pairs = as_strided(
            slab_ids, (hk - height, 2, width, images, cols), (sr, height * sr, sc, sb, sc)
        )
        # Running equality counts of the `height` key rows before a chunk, then
        # of the chunk: rank[k, s, o, b, c] counts the keys of window row
        # k + s * height of (b, c) before pair o that equal it, as a view of
        # equal[k + s * height, o, b, c + o].
        equal = np.zeros(
            (height + chunk, width, images, cols + width - 1), np.min_scalar_type(width)
        )
        e0, e1, e2, e3 = equal.strides
        rank = as_strided(
            equal, (chunk, 2, width, images, cols), (e0, height * e0, e1 + e3, e2, e3)
        )
        # Per step the leaving row's cells, then the entering row's, and
        # their values in the table; the steps that the pairs read, side
        # first, so that each side's take writes one block and one reduction
        # sums both sides of a window row. The cells and the gathered steps
        # also hold each key's terms in some window columns of one image.
        block_cells = rows * 2 * width * images * cols
        room = max(block_cells, sizes[b0:b1].max())
        cells_buffer, gathered_buffer = np.empty(room, np.intp), np.empty(2 * room, np.int64)
        cells = cells_buffer[:block_cells].reshape(rows, 2, width, images, cols)
        values = np.empty(cells.shape, dtype=buffer.dtype)
        index = np.empty((2, width, rows, images, cols), dtype=np.intp)
        gathered = gathered_buffer[: 2 * block_cells].reshape(index.shape + (2,))
        # The first window's key rows enter 2 * rows at a time, and the first
        # output row sums its cells' terms.
        first = as_strided(slab_ids, (height, width, images, cols), (sr, sc, sb, sc))
        for i0 in range(0, height, 2 * rows):
            entering = cells.reshape(2 * rows, width, images, cols)[: height - i0]
            np.add(first[i0 : i0 + 2 * rows], offsets, out=entering)
            np.add.at(table, entering, one)
        for b, s0, s1 in zip(range(b0, b1), starts, starts[1:]):
            for c in range(0, cols, room // sizes[b]):
                part = table[s0:s1].reshape(cols, -1)[c : c + room // sizes[b]]
                at = cells_buffer[: part.size].reshape(part.shape)
                at[:] = part  # as intp, which take would otherwise allocate
                found = gathered_buffer[: 2 * part.size].reshape((2,) + part.shape)
                key_terms.reshape(2, -1).take(at, axis=1, out=found, mode="clip")
                np.add.reduce(found, axis=2, out=sums[0, b, c0 + c : c0 + c + len(part)].T)
        for j0 in range(0, hk, chunk):
            j1 = min(hk, j0 + chunk)
            equal[:height] = equal[chunk:]
            new = equal[height : height + j1 - j0]
            rows_keys = keys[b0:b1, j0:j1, c0 : c1 + width - 1].transpose(1, 0, 2)
            for d in range(1, width):
                np.equal(rows_keys[..., d:], rows_keys[..., :-d], out=new[:, d, :, d:])
                new[:, d, :, d:] += new[:, d - 1, :, d:]
            # Blocks stay inside a chunk and start from the first row that evicts.
            for i0 in range(max(j0, height), j1, rows):
                i1 = min(j1, i0 + rows)
                m = i1 - i0
                np.add(pairs[i0 - height : i1 - height], offsets, out=cells[:m])
                for k in range(m):
                    np.subtract.at(table, cells[k, 0], one)
                    # mode="clip" because every cell is in range, and "raise" buffers out.
                    table.take(cells[k], out=values[k], mode="clip")
                    np.add.at(table, cells[k, 1], one)
                block = index[:, :, :m]
                np.add(values[:m], rank[i0 - j0 : i1 - j0], out=block.transpose(2, 0, 1, 3, 4))
                leaving_steps.take(block[0], axis=0, out=gathered[0, :, :m], mode="clip")
                steps.take(block[1], axis=0, out=gathered[1, :, :m], mode="clip")
                out = sums[i0 - height + 1 : i1 - height + 1, b0:b1, c0:c1]
                np.add.reduce(gathered[:, :, :m], axis=(0, 1), out=out)
    np.cumsum(sums, axis=0, out=sums)
    return sums.transpose(3, 1, 0, 2)


def _pixel_sums(quantized: np.ndarray) -> np.ndarray:
    """Integral images of the pixel values and of their squares,
    (2, bands, rows + 1, columns + 1) int64: every direction's sums of a + b
    and of a^2 + b^2 are box sums of these, exact as in _pair_box_sums."""
    bands, h, w = quantized.shape
    integral = np.zeros((2, bands, h + 1, w + 1), dtype=np.int64)
    integral[0, :, 1:, 1:] = quantized
    np.square(integral[0], out=integral[1])
    np.cumsum(integral[:, :, 1:, 1:], axis=2, out=integral[:, :, 1:, 1:])
    np.cumsum(integral[:, :, 1:, 1:], axis=3, out=integral[:, :, 1:, 1:])
    return integral


def _box(integral: np.ndarray, top: int, left: int, height: int, width: int, shape) -> np.ndarray:
    """Sum of the height x width box whose corner sits at (r + top, c + left),
    for every (r, c) of the given output shape."""
    out_h, out_w = shape
    bottom, right = top + height, left + width
    out = np.subtract(
        integral[..., bottom : bottom + out_h, right : right + out_w],
        integral[..., top : top + out_h, right : right + out_w],
    )
    out -= integral[..., bottom : bottom + out_h, left : left + out_w]
    out += integral[..., top : top + out_h, left : left + out_w]
    return out


def _window(direction: int, window: int) -> tuple[int, int]:
    """Pair rows and columns of one window at a direction."""
    dr, dc = DIRECTION_OFFSETS[direction]
    return window - abs(dr), window - abs(dc)


def _passes(directions, h: int, w: int, window: int) -> list[tuple[int, ...]]:
    """The directions of each key-kernel pass over an h x w image: those
    whose key images, with 90 degrees transposed, and windows have the same
    shape. 45 and 135 degrees always share one; 0 and 90 do on square images."""
    passes: dict[tuple, list[int]] = {}
    for d in directions:
        height, width = _window(d, window)
        dr, dc = DIRECTION_OFFSETS[d]
        shape = (h - abs(dr), w - abs(dc), height, width)
        if d == 90:
            shape = (shape[1], shape[0], width, height)
        passes.setdefault(shape, []).append(d)
    return [tuple(p) for p in passes.values()]


def _all_key_sums(quantized: np.ndarray, params: GlcmParams) -> dict[int, np.ndarray]:
    """Each direction's two _key_sums, (2, bands, out_h, out_w) int64, from
    one kernel pass per group of _passes."""
    bands, h, w = quantized.shape
    found = {}
    for directions in _passes(params.directions, h, w, params.window):
        keys = [_pair_keys(*_pair_images(quantized, d), params.levels) for d in directions]
        keys = np.concatenate(
            [image.transpose(0, 2, 1) if d == 90 else image for d, image in zip(directions, keys)]
        )
        height, width = _window(directions[0], params.window)
        if directions[0] == 90:
            height, width = width, height
        sums = _key_sums(keys, height, width, params.levels)
        del keys
        for i, d in enumerate(directions):
            part = sums[:, i * bands : (i + 1) * bands]
            found[d] = part.transpose(0, 1, 3, 2) if d == 90 else part
    return found


def _direction_planes(
    quantized: np.ndarray, direction: int, params: GlcmParams, key_sums, pixels
):
    """Yield (k, plane) for each selected measure at one direction: plane k
    of params.measures over every window of each band of a (bands, height,
    width) stack, (bands, height - window + 1, width - window + 1) float64.

    ``key_sums`` is the direction's two _key_sums, or None if neither second
    moment nor entropy is selected, and ``pixels`` the stack's _pixel_sums. A
    window holds n pairs and its symmetric matrix T = 2n counts. Entropy uses
    the natural logarithm with 0 ln 0 = 0, as ln T - sum(c ln c) / T. Contrast
    is sum(a^2 + b^2) - 2 sum(ab) over n. Variance and correlation use the
    expansions sum(i^2 p) - mu^2 and (sum(i j p) - mu^2) / variance; rounding
    can push an exactly-zero variance microscopically negative, so it is
    clamped at 0, and the correlation of a zero-variance window is 0 by
    convention.
    """
    dr, dc = DIRECTION_OFFSETS[direction]
    height, width = _window(direction, params.window)
    n = height * width
    total = 2 * n
    shape = tuple(side - params.window + 1 for side in quantized.shape[1:])
    selected = {measure: k for k, measure in enumerate(params.measures)}
    if key_sums is not None:
        squares, entropy_sums = key_sums
        if "second_moment" in selected:
            yield selected["second_moment"], squares / (total * total)
        if "entropy" in selected:
            entropy = math.log(total) - entropy_sums * 2.0 ** -_entropy_shift(n) / total
            yield selected["entropy"], entropy
            del entropy
        del key_sums, squares, entropy_sums
    cross_sums, homogeneity = _pair_box_sums(*_pair_images(quantized, direction), height, width)
    r0, c0 = max(0, -dr), max(0, -dc)
    # Sums of a + b and of a^2 + b^2: the first pixels' box plus the second's.
    pair_sums, pair_squares = pixel_boxes = _box(pixels, r0, c0, height, width, shape)
    pixel_boxes += _box(pixels, r0 + dr, c0 + dc, height, width, shape)
    del pixel_boxes
    if "contrast" in selected:
        yield selected["contrast"], (pair_squares - 2 * cross_sums) / n
    if "homogeneity" in selected:
        yield selected["homogeneity"], homogeneity / (_HOMOGENEITY_UNIT * n)
    mean = pair_sums / total
    variance = np.maximum(pair_squares / total - mean * mean, 0.0)
    cross = cross_sums / n
    cross -= mean * mean  # in place: one temporary more here was the extract's peak
    del pair_sums, pair_squares, cross_sums, homogeneity
    if "mean" in selected:
        yield selected["mean"], mean
    del mean
    if "variance" in selected:
        yield selected["variance"], variance
    if "correlation" in selected:
        positive = variance > 0
        np.divide(cross, np.where(positive, variance, 1.0), out=cross)
        yield selected["correlation"], np.where(positive, cross, 0.0)


def _band_measures(quantized: np.ndarray, params: GlcmParams) -> np.ndarray:
    """Selected measures of each band of a quantized (bands, height, width)
    stack averaged over the directions,
    (bands, n_measures, height - window + 1, width - window + 1) float64.

    The key kernel runs first, if second moment or entropy is selected, while
    nothing else is held. One accumulator, zero at the start, then takes each
    direction's planes in direction order, which rounds as sum() over the
    directions does, and is divided by their number."""
    quantized = np.asarray(quantized, dtype=np.int32)  # as quantize() makes it
    bands, h, w = quantized.shape
    key_kernel = "second_moment" in params.measures or "entropy" in params.measures
    key_sums = _all_key_sums(quantized, params) if key_kernel else {}
    pixels = _pixel_sums(quantized)
    summed = np.zeros((bands, len(params.measures), h - params.window + 1, w - params.window + 1))
    for direction in params.directions:
        # The generator holds the direction's key sums only while it needs them.
        planes = _direction_planes(
            quantized, direction, params, key_sums.pop(direction, None), pixels
        )
        for k, plane in planes:
            summed[:, k] += plane
            del plane  # before the next plane is made
    summed /= len(params.directions)
    return summed


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
    one kernel pass per group of _passes serves a whole group. There are as
    few groups as keep each pass within _GROUP_PIXELS band-direction pixels,
    whatever ``jobs`` is, and fork_map splits them between up to ``jobs``
    processes forked for this call. So a scene whose bands fit one pass (up
    to 64x64 at the defaults) is extracted in the caller, with no fork: at
    that size a pass over half the bands costs about as much as one over all
    of them, so splitting it would only double the work. Every window sum is
    an exact integer, so a band's features do not depend on its group, and
    results are bit-identical for any ``jobs``.
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
    most = max(len(directions) for directions in _passes(params.directions, h, w, params.window))
    per_group = max(1, _GROUP_PIXELS // (h * w * most))
    groups = -(-n_bands // per_group)
    tasks = [(quantized[s::groups], params) for s in range(groups)]
    for s, block in enumerate(fork_map(_band_measures, tasks, jobs)):
        for b, planes in zip(range(s, n_bands, groups), block):
            values[b, :, radius : h - radius, radius : w - radius] = planes
    return FeatureRaster(
        feature_names=params.feature_names(),
        values=values.reshape(n_bands * n_measures, h, w),
        valid=valid,
    )
