import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slummap import texture
from slummap.fixtures import make_two_texture_scene
from slummap.raster import BandStack, DimensionMismatchError, FeatureRaster
from slummap.texture import (
    DIRECTION_OFFSETS,
    MEASURES,
    GlcmParams,
    MAX_WINDOW,
    _band_measures,
    _dense_ids,
    _key_sums,
    _key_terms,
    _pair_images,
    _pair_keys,
    _passes,
    extract_spectral,
    extract_texture,
    quantize,
)

from .oracles import direction_measures_oracle, glcm_oracle, haralick_oracle


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def test_quantize_constant_band_is_all_zero():
    band = np.full((4, 4), 777, dtype=np.uint16)
    assert (quantize(band, 32) == 0).all()


def test_quantize_identity_when_bins_have_width_one():
    band = np.arange(16, dtype=np.uint16).reshape(4, 4)
    assert np.array_equal(quantize(band, 16), band.astype(np.int32))


def test_quantize_levels_capped_at_two_to_the_16():
    band = np.array([0, 1, 40000, 65535], dtype=np.uint16)
    assert np.array_equal(quantize(band, 2**16), band.astype(np.int32))
    with pytest.raises(ValueError, match="levels"):
        quantize(band, 2**16 + 1)


def test_quantize_full_range_evaluation():
    band = np.array([0, 2047, 2048, 65535], dtype=np.uint16)
    q = quantize(band, 32)
    assert q[0] == 0
    assert q[1] == 0
    assert q[2] == 1
    assert q[3] == 31


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(np.uint16, st.integers(2, 40), elements=st.integers(0, 65535)),
    levels=st.integers(2, 64),
)
def test_quantize_is_monotone_and_in_range(values, levels):
    q = quantize(values, levels)
    assert q.min() >= 0 and q.max() <= levels - 1
    order = np.argsort(values, kind="stable")
    assert (np.diff(q[order]) >= 0).all()


def test_quantize_surjective_when_band_spans_range():
    # A band with >= levels distinct values spanning its range hits every level.
    full = np.linspace(0, 65535, 4096).astype(np.uint16)
    assert set(quantize(full, 32).tolist()) == set(range(32))
    exact = np.arange(0, 64, dtype=np.uint16)
    assert set(quantize(exact, 32).tolist()) == set(range(32))


# ---------------------------------------------------------------------------
# co-occurrence kernel
# ---------------------------------------------------------------------------


def _measures(image, direction: int, levels: int, window: int = 3) -> dict[str, np.ndarray]:
    """The kernel's seven planes for one direction, by measure name."""
    params = GlcmParams(levels=levels, window=window, directions=(direction,))
    planes = _band_measures(np.asarray(image)[np.newaxis], params)
    return dict(zip(MEASURES, planes[0]))


def _oracle_planes(image: np.ndarray, direction: int, levels: int, window: int):
    """haralick_oracle(glcm_oracle()) of every window, by measure name."""
    out_h, out_w = image.shape[0] - window + 1, image.shape[1] - window + 1
    planes = {m: np.empty((out_h, out_w)) for m in MEASURES}
    for r in range(out_h):
        for c in range(out_w):
            win = image[r : r + window, c : c + window].tolist()
            for m, value in haralick_oracle(glcm_oracle(win, direction, levels)).items():
                planes[m][r, c] = value
    return planes


def _windowed_oracle(image: np.ndarray, params: GlcmParams) -> np.ndarray:
    """Direction average of the oracle for every window, in params.measures order."""
    per_dir = [_oracle_planes(image, d, params.levels, params.window) for d in params.directions]
    return np.stack([sum(p[m] for p in per_dir) / len(per_dir) for m in params.measures])


def _images_with_window(max_side: int = 8):
    """Quantized images of 4 levels with an odd window that fits them."""
    return st.integers(1, (max_side - 1) // 2).flatmap(
        lambda half: st.tuples(
            hnp.arrays(
                np.int32,
                st.tuples(st.integers(2 * half + 1, max_side), st.integers(2 * half + 1, max_side)),
                elements=st.integers(0, 3),
            ),
            st.just(2 * half + 1),
        )
    )


@pytest.mark.parametrize("direction", [0, 45, 90, 135])
def test_cooccurrence_constant_window(direction):
    f = _measures(np.full((3, 3), 5), direction, levels=8)
    assert f["second_moment"][0, 0] == 1.0
    assert f["entropy"][0, 0] == 0.0
    assert f["mean"][0, 0] == 5.0
    assert f["contrast"][0, 0] == 0.0
    assert f["variance"][0, 0] == 0.0
    assert f["correlation"][0, 0] == 0.0


def test_cooccurrence_two_row_window_horizontal():
    # Rows of 0s and 1s: every horizontal pair repeats a value, p = diag(2/3, 1/3).
    f = _measures([[0, 0, 0], [1, 1, 1], [0, 0, 0]], 0, levels=2)
    assert f["second_moment"][0, 0] == pytest.approx(5 / 9, abs=1e-12)
    assert f["contrast"][0, 0] == 0.0
    assert f["mean"][0, 0] == pytest.approx(1 / 3, abs=1e-12)


def test_cooccurrence_two_row_window_vertical():
    # The same rows: every vertical pair is (0, 1), p[0, 1] = p[1, 0] = 1/2.
    f = _measures([[0, 0, 0], [1, 1, 1], [0, 0, 0]], 90, levels=2)
    assert f["second_moment"][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert f["contrast"][0, 0] == pytest.approx(1.0, abs=1e-12)
    assert f["mean"][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert f["correlation"][0, 0] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(case=_images_with_window(), direction=st.sampled_from([0, 45, 90, 135]))
def test_cooccurrence_matches_oracle_and_invariants(case, direction):
    """Every window against the oracle; turning the image by 180 degrees
    reverses every pair, which the symmetric matrix must not notice."""
    image, window = case
    kernel = _measures(image, direction, 4, window)
    turned = _measures(np.rot90(image, 2), direction, 4, window)
    expected = _oracle_planes(image, direction, 4, window)
    for name in MEASURES:
        assert np.abs(kernel[name] - expected[name]).max() <= 1e-9, name
        assert np.abs(kernel[name] - np.rot90(turned[name], 2)).max() <= 1e-12, name


# ---------------------------------------------------------------------------
# Haralick measures
# ---------------------------------------------------------------------------


def test_haralick_point_mass():
    for direction in (0, 45, 90, 135):
        f = _measures(np.zeros((3, 3), dtype=np.int32), direction, levels=2)
        assert f["second_moment"][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert f["contrast"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert f["homogeneity"][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert f["entropy"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert f["mean"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert f["variance"][0, 0] == pytest.approx(0.0, abs=1e-12)
        assert f["correlation"][0, 0] == 0.0  # zero-variance convention


def test_haralick_uniform_2x2():
    # Every row is 0,0,1,1,0: the horizontal and both diagonal pairs are
    # (0,0), (0,1), (1,1) and (1,0) equally often.
    image = np.tile([0, 0, 1, 1, 0], (5, 1))
    for direction in (0, 45, 135):
        f = _measures(image, direction, levels=2, window=5)
        assert f["second_moment"][0, 0] == pytest.approx(0.25, abs=1e-12)
        assert f["contrast"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f["homogeneity"][0, 0] == pytest.approx(0.75, abs=1e-12)
        assert f["entropy"][0, 0] == pytest.approx(math.log(4), abs=1e-12)
        assert f["mean"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f["variance"][0, 0] == pytest.approx(0.25, abs=1e-12)
        assert f["correlation"][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_haralick_anti_diagonal():
    # A checkerboard: every horizontal and vertical pair differs.
    checkerboard = np.indices((3, 3)).sum(axis=0) % 2
    for direction in (0, 90):
        f = _measures(checkerboard, direction, levels=2)
        assert f["contrast"][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert f["second_moment"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f["homogeneity"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f["mean"][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert f["variance"][0, 0] == pytest.approx(0.25, abs=1e-12)
        assert f["correlation"][0, 0] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(case=_images_with_window())
def test_haralick_ranges_and_oracle(case):
    """Every window in range at every direction; the direction average equal
    to the oracle's."""
    image, window = case
    params = GlcmParams(levels=4, window=window)
    for direction in params.directions:
        f = _measures(image, direction, 4, window)
        assert (f["second_moment"] > 0.0).all() and (f["second_moment"] <= 1.0 + 1e-12).all()
        assert (f["homogeneity"] > 0.0).all() and (f["homogeneity"] <= 1.0 + 1e-12).all()
        assert (f["entropy"] >= -1e-12).all() and (f["entropy"] <= 2 * math.log(4) + 1e-12).all()
        assert (f["contrast"] >= 0.0).all()
        assert (np.abs(f["correlation"]) <= 1.0 + 1e-9).all()
        assert (f["variance"] >= 0.0).all()
    kernel = _band_measures(image[np.newaxis], params)[0]
    assert np.abs(kernel - _windowed_oracle(image, params)).max() <= 1e-9


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _stack_from_grid(grid: np.ndarray, bands=("B2", "B3", "B4", "B8")) -> BandStack:
    samples = np.stack([grid] * len(bands)).astype(np.uint16)
    return BandStack(band_names=list(bands), samples=samples)


def test_extract_texture_constant_image():
    stack = _stack_from_grid(np.full((9, 9), 123, dtype=np.uint16))
    params = GlcmParams(window=5)
    fr = extract_texture(stack, params)
    assert fr.feature_names == params.feature_names()
    inner = fr.valid
    assert inner[2:-2, 2:-2].all() and inner.sum() == 25
    for band in params.bands:
        for measure, value in [("contrast", 0.0), ("entropy", 0.0), ("second_moment", 1.0)]:
            plane = fr.values[fr.feature_names.index(f"{band}_{measure}")]
            assert np.allclose(plane[fr.valid], value, atol=1e-12)


def test_extract_texture_19x19_has_single_valid_pixel():
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 65536, size=(19, 19), dtype=np.uint16)
    fr = extract_texture(_stack_from_grid(grid), GlcmParams())
    assert fr.valid.sum() == 1
    assert fr.valid[9, 9]
    assert np.isfinite(fr.values[:, 9, 9]).all()
    assert np.isnan(fr.values[:, 0, 0]).all()


def test_extract_texture_two_texture_contrast_ordering():
    # Left half checkerboard (every horizontal/vertical neighbour differs),
    # right half constant: deep-left contrast must exceed deep-right contrast.
    h = w = 25
    grid = np.zeros((h, w), dtype=np.uint16)
    rr, cc = np.indices((h, w))
    left = cc < w // 2
    grid[left] = np.where((rr + cc)[left] % 2 == 0, 10000, 50000)
    grid[~left] = 30000
    params = GlcmParams(window=5, bands=("B2",))
    fr = extract_texture(_stack_from_grid(grid, bands=("B2",)), params)
    contrast = fr.values[fr.feature_names.index("B2_contrast")]
    deep_left = contrast[10:15, 4:8]
    deep_right = contrast[10:15, 18:22]
    assert deep_left.min() > deep_right.max()

    # independent check of one deep-left pixel against the oracle
    r, c = 12, 5
    q = quantize(grid, params.levels)
    win = q[r - 2 : r + 3, c - 2 : c + 3]
    per_dir = [
        haralick_oracle(glcm_oracle(win.tolist(), d, params.levels))["contrast"]
        for d in params.directions
    ]
    assert contrast[r, c] == pytest.approx(sum(per_dir) / 4, rel=1e-6)


def test_extract_texture_matches_windowed_oracle_everywhere():
    rng = np.random.default_rng(7)
    grid = rng.integers(0, 65536, size=(9, 9), dtype=np.uint16)
    params = GlcmParams(levels=4, window=3, bands=("B2",))
    fr = extract_texture(_stack_from_grid(grid, bands=("B2",)), params)
    q = quantize(grid, 4)
    for r in range(1, 8):
        for c in range(1, 8):
            win = q[r - 1 : r + 2, c - 1 : c + 2].tolist()
            per_dir = [haralick_oracle(glcm_oracle(win, d, 4)) for d in params.directions]
            for k, measure in enumerate(params.measures):
                expected = sum(f[measure] for f in per_dir) / len(per_dir)
                assert fr.values[k, r, c] == pytest.approx(expected, abs=1e-6)


def test_extract_texture_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(texture, "_GROUP_PIXELS", 1)  # one band a group, so jobs=3 forks
    rng = np.random.default_rng(3)
    grid = rng.integers(0, 65536, size=(15, 12), dtype=np.uint16)
    stack = _stack_from_grid(grid, bands=("B2", "B3"))
    params = GlcmParams(levels=8, window=5, bands=("B2", "B3"))
    serial = extract_texture(stack, params, jobs=1)
    parallel = extract_texture(stack, params, jobs=3)
    assert np.array_equal(serial.valid, parallel.valid)
    assert np.array_equal(
        serial.values[:, serial.valid], parallel.values[:, parallel.valid]
    )


def _assert_kernel_matches_oracle(
    samples: np.ndarray, params: GlcmParams
) -> FeatureRaster:
    """Every valid pixel of every band, float64 kernel against the oracle to
    1e-9, and the float32 raster equal to the kernel's values."""
    stack = BandStack(band_names=list(params.bands), samples=samples)
    fr = extract_texture(stack, params)
    n_measures = len(params.measures)
    for b, band in enumerate(params.bands):
        quantized = quantize(stack.band(band), params.levels)
        kernel = _band_measures(quantized[np.newaxis], params)[0]
        assert np.abs(kernel - _windowed_oracle(quantized, params)).max() <= 1e-9
        planes = fr.values[b * n_measures : (b + 1) * n_measures]
        expected = kernel.reshape(n_measures, -1).astype(np.float32)
        assert np.array_equal(planes[:, fr.valid], expected)
    return fr


def test_extract_texture_matches_oracle_at_default_parameters():
    rng = np.random.default_rng(11)
    stripes = np.where(np.arange(23)[:, np.newaxis] % 2 == 0, 10000, 50000)
    noise = rng.integers(-15000, 15000, size=(2, 23, 21))
    samples = np.clip(stripes + noise, 0, 65535).astype(np.uint16)
    params = GlcmParams(bands=("B2", "B3"))
    assert (params.levels, params.window, params.directions) == (32, 19, (0, 45, 90, 135))
    serial = _assert_kernel_matches_oracle(samples, params)
    stack = BandStack(band_names=["B2", "B3"], samples=samples)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(texture, "_GROUP_PIXELS", 1)  # one band a group, so jobs=2 forks
        parallel = extract_texture(stack, params, jobs=2)
    assert parallel.values.tobytes() == serial.values.tobytes()


def test_extract_texture_pair_keys_do_not_overflow_at_300_levels():
    # 300^2 pair keys exceed 16 bits, so a 16-bit key would merge distinct pairs.
    samples = np.random.default_rng(5).integers(0, 65536, size=(1, 12, 11), dtype=np.uint16)
    params = GlcmParams(levels=300, window=5, bands=("B2",))
    _assert_kernel_matches_oracle(samples, params)


def test_extract_texture_values_are_pinned_on_the_noisy_benchmark_scene():
    # The perfbench scene: any change to a single bit of any feature fails here.
    fr = extract_texture(_noisy_scene(64, 1), GlcmParams())
    assert fr.values.dtype == np.float32 and fr.values.shape == (28, 64, 64)
    assert (
        hashlib.sha256(fr.values.tobytes()).hexdigest()
        == "3cd40511140b730541e2bcf95339a7030368d2988d72b08523ef80bca867733b"
    )


def _noisy_scene(side: int, seed: int) -> BandStack:
    """The perfbench scene: the two-texture fixture plus seeded noise."""
    stack, _ = make_two_texture_scene(side)
    noise = np.random.default_rng(seed).integers(-15000, 15000, size=stack.samples.shape)
    samples = np.clip(stack.samples.astype(np.int64) + noise, 0, 65535).astype(np.uint16)
    return BandStack(band_names=stack.band_names, samples=samples)


class _Draws:
    """Stands in for st.data() in an @example: returns the given values in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    levels=st.sampled_from([2, 4, 32, 300]),
    direction=st.sampled_from(sorted(DIRECTION_OFFSETS)),
    window=st.sampled_from([3, 5, 7]),
)
# Key images exactly one window tall, so no row evicts: 7 x 6 at 0 degrees,
# 6 x 6 at 45, 6 x 7 at 90.
@example(data=None, levels=32, direction=0, window=7)
@example(data=None, levels=32, direction=45, window=7)
@example(data=None, levels=2, direction=90, window=7)
def test_key_sums_equal_bruteforce_counts(data, levels, direction, window):
    """Every window's int64 sums against np.unique counts of its keys, exactly."""
    if data is None:  # an explicit example: a 7 x 7 image of seeded noise
        data = _Draws((7, 7), 2024)
    shape = data.draw(st.tuples(st.integers(window, 14), st.integers(window, 14)))
    # Seeded noise gives many distinct keys; 2 levels repeat keys in every row.
    seed = data.draw(st.integers(0, 2**32 - 1))
    image = np.random.default_rng(seed).integers(0, levels, size=shape, dtype=np.int32)
    keys = _pair_keys(*_pair_images(image, direction), levels)
    dr, dc = DIRECTION_OFFSETS[direction]
    height, width = window - abs(dr), window - abs(dc)
    terms = _key_terms(height * width)
    sums = _key_sums(keys[np.newaxis], height, width, levels)[:, 0]
    assert sums.dtype == np.int64
    expected = np.empty_like(sums)
    for r in range(sums.shape[1]):
        for c in range(sums.shape[2]):
            key, count = np.unique(keys[r : r + height, c : c + width], return_counts=True)
            expected[:, r, c] = terms[:, (key < levels).astype(int), count].sum(axis=1)
    assert np.array_equal(sums, expected)


@settings(max_examples=150, deadline=None)
@given(
    levels=st.sampled_from([2, 32, 300]),
    picks=hnp.arrays(
        np.uint8, hnp.array_shapes(min_dims=3, max_dims=3, max_side=9), elements=st.integers(0, 5)
    ),
    pool=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
# One image; one distinct key in every image; one pair a row.
@example(levels=32, picks=np.zeros((1, 4, 5), np.uint8), pool=[3, 9])
@example(levels=300, picks=np.zeros((3, 2, 2), np.uint8), pool=[89_999])
@example(levels=2, picks=np.arange(12, dtype=np.uint8).reshape(2, 6, 1) % 4, pool=[0, 1, 2, 3])
def test_dense_ids_number_each_image_as_np_unique(levels, picks, pool):
    """Image by image, the ids and distinct keys are np.unique's inverse and
    values, for the uint8, uint16 and uint32 keys of 2, 32 and 300 levels."""
    dtype = np.min_scalar_type(levels * levels - 1)
    keys = (np.array(pool) % (levels * levels))[picks % len(pool)].astype(dtype)
    ids, distinct = _dense_ids(keys)
    assert ids.shape == keys.shape and ids.dtype == np.min_scalar_type(keys[0].size - 1)
    assert len(distinct) == len(keys)
    for image, image_ids, image_distinct in zip(keys, ids, distinct):
        unique, inverse = np.unique(image, return_inverse=True)
        assert image_distinct.dtype == dtype and np.array_equal(image_distinct, unique)
        assert np.array_equal(image_ids, inverse.reshape(image.shape))


@pytest.mark.parametrize(("levels", "window"), [(32, 19), (300, 5), (4, 19)])
def test_small_count_table_and_blocks_keep_features_byte_identical(monkeypatch, levels, window):
    stack = _noisy_scene(40, 2)
    params = GlcmParams(levels=levels, window=window)
    whole = extract_texture(stack, params)
    # One kernel pass serves all four bands. 600 cells make slabs of one to
    # three window columns of one band at (32, 19) and (300, 5), and tables
    # of two or four whole bands at (4, 19); one key row per block.
    monkeypatch.setattr(texture, "_TABLE_CELLS", 600)
    monkeypatch.setattr(texture, "_BLOCK_CELLS", 1)
    sliced = extract_texture(stack, params)
    assert sliced.values.tobytes() == whole.values.tobytes()


@pytest.mark.parametrize(("levels", "window"), [(32, 7), (300, 5)])
def test_band_features_do_not_depend_on_their_group(monkeypatch, levels, window):
    """A band's features are the same bytes whichever bands share its kernel
    pass, and whichever process computes it: all five, itself alone, the
    uneven groups of a two-band budget in one to three processes, or one band
    per group under a pixel budget of 1 in one or two."""
    bands = ("B1", "B2", "B3", "B4", "B5")
    rng = np.random.default_rng(9)
    stripes = np.where(np.arange(41)[:, np.newaxis] % 3 == 0, 12000, 40000)
    noise = rng.integers(-15000, 15000, size=(len(bands), 41, 37))
    samples = np.clip(stripes + noise, 0, 65535).astype(np.uint16)
    stack = BandStack(band_names=list(bands), samples=samples)
    params = GlcmParams(levels=levels, window=window, bands=bands)
    together = extract_texture(stack, params).values
    alone = np.concatenate(
        [
            extract_texture(stack, GlcmParams(levels=levels, window=window, bands=(band,))).values
            for band in bands
        ]
    )
    assert alone.tobytes() == together.tobytes()
    # Two bands of the 45/135-degree pass, the largest: groups (B1, B4), (B2, B5), (B3).
    monkeypatch.setattr(texture, "_GROUP_PIXELS", 2 * 2 * 41 * 37)
    for jobs in (1, 2, 3):
        assert extract_texture(stack, params, jobs=jobs).values.tobytes() == together.tobytes()
    monkeypatch.setattr(texture, "_GROUP_PIXELS", 1)
    for jobs in (1, 2):
        assert extract_texture(stack, params, jobs=jobs).values.tobytes() == together.tobytes()


def test_key_kernel_is_skipped_without_second_moment_or_entropy(monkeypatch):
    stack = _noisy_scene(32, 4)
    everything = extract_texture(stack, GlcmParams(window=7))

    def refuse(*args):
        raise AssertionError("the key kernel ran")

    monkeypatch.setattr(texture, "_key_sums", refuse)
    params = GlcmParams(window=7, measures=("contrast", "mean"))
    some = extract_texture(stack, params)
    planes = [everything.feature_names.index(name) for name in params.feature_names()]
    assert some.values.tobytes() == everything.values[planes].tobytes()
    with pytest.raises(AssertionError, match="key kernel"):
        extract_texture(stack, GlcmParams(window=7, measures=("entropy",)))


@pytest.mark.parametrize(("levels", "window"), [(32, 19), (300, 5)])
def test_strip_features_equal_whole_scene_rows(levels, window):
    """Each pixel's float64 measures depend on its own window only, not on
    the strip of rows it is computed with."""
    params = GlcmParams(levels=levels, window=window)
    quantized = quantize(_noisy_scene(48, 3).band("B3"), levels)
    whole = _band_measures(quantized[np.newaxis], params)[0]
    out_h = whole.shape[1]
    assert out_h % 7 != 0
    for strip in (1, 7, out_h):
        for r0 in range(0, out_h, strip):
            rows = quantized[r0 : r0 + strip + window - 1]
            strip_measures = _band_measures(rows[np.newaxis], params)[0]
            assert np.array_equal(strip_measures, whole[:, r0 : r0 + strip])


@settings(max_examples=40, deadline=None)
@given(case=_images_with_window(max_side=7))
def test_direction_average_is_rotation_invariant(case):
    """Turning an image by 90 degrees permutes the four directions, so the
    direction averages turn with it."""
    image, window = case
    params = GlcmParams(levels=4, window=window)
    turned = _band_measures(np.rot90(image)[np.newaxis], params)[0]
    kernel = _band_measures(image[np.newaxis], params)[0]
    assert np.abs(np.rot90(kernel, axes=(1, 2)) - turned).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bands=st.integers(1, 3),
    levels=st.sampled_from([2, 4, 32]),
    window=st.sampled_from([3, 5]),
    directions=st.sets(st.sampled_from(sorted(DIRECTION_OFFSETS)), min_size=1),
    measures=st.sets(st.sampled_from(MEASURES), min_size=1),
)
def test_band_measures_equal_the_sum_of_direction_measures(
    seed, bands, levels, window, directions, measures
):
    """The in-place accumulator rounds as sum() over the directions does."""
    quantized = np.random.default_rng(seed).integers(0, levels, size=(bands, 9, 11))
    params = GlcmParams(levels=levels, window=window, directions=directions, measures=measures)
    per_direction = [direction_measures_oracle(quantized, d, params) for d in params.directions]
    expected = sum(per_direction) / len(params.directions)
    assert _band_measures(quantized, params).tobytes() == expected.tobytes()


def test_band_measures_average_negative_zeros_to_positive_zero(monkeypatch):
    # sum() starts from the integer 0, so -0.0 in every direction sums to +0.0.
    planes = np.full((1, 7, 3, 3), -0.0)
    monkeypatch.setattr(
        texture, "_direction_planes", lambda *args: ((k, plane) for k, plane in enumerate(planes[0]))
    )
    params = GlcmParams(window=3)
    expected = sum(planes for _ in params.directions) / len(params.directions)
    got = _band_measures(np.zeros((1, 5, 5), dtype=np.int32), params)
    assert not np.signbit(expected).any()
    assert got.tobytes() == expected.tobytes()


def test_directions_share_a_pass_when_their_shapes_match():
    # The 90 degree keys, transposed, have 0 degrees' window; their key images
    # match only on square scenes. 45 and 135 degrees always match.
    assert _passes((0, 45, 90, 135), 64, 64, 19) == [(0, 90), (45, 135)]
    assert _passes((0, 45, 90, 135), 64, 63, 19) == [(0,), (45, 135), (90,)]
    assert _passes((90, 135), 20, 9, 3) == [(90,), (135,)]


@pytest.mark.parametrize("budget", [None, 1])
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    side=st.integers(9, 20),
    other=st.one_of(st.none(), st.integers(9, 20)),
    bands=st.integers(1, 3),
    levels=st.sampled_from([2, 4, 32, 300]),
    window=st.sampled_from([3, 5, 7]),
    directions=st.sets(st.sampled_from(sorted(DIRECTION_OFFSETS)), min_size=1),
    measures=st.sets(st.sampled_from(MEASURES), min_size=1),
)
def test_grouped_passes_equal_one_pass_per_direction_and_band(
    budget, seed, side, other, bands, levels, window, directions, measures
):
    """Extraction with directions sharing kernel passes by shape equals the
    per-direction oracle run one band at a time, byte for byte, at the
    default budgets and with every budget at 1: one-column tables, one key
    row per block, rank chunks one window high, one band per group."""
    h, w = side, side if other is None else other
    names = tuple(f"B{i}" for i in range(bands))
    samples = np.random.default_rng(seed).integers(0, 65536, size=(bands, h, w), dtype=np.uint16)
    params = GlcmParams(
        levels=levels, window=window, directions=directions, bands=names, measures=measures
    )
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            for name in ("_TABLE_CELLS", "_BLOCK_CELLS", "_RANK_BYTES", "_GROUP_PIXELS"):
                patch.setattr(texture, name, budget)
        got = extract_texture(BandStack(band_names=list(names), samples=samples), params)
    r = window // 2
    expected = np.full((bands, len(params.measures), h, w), np.nan, dtype=np.float32)
    for b in range(bands):
        quantized = quantize(samples[b], levels)[np.newaxis]
        per_direction = [direction_measures_oracle(quantized, d, params) for d in params.directions]
        expected[b, :, r : h - r, r : w - r] = (sum(per_direction) / len(params.directions))[0]
    assert got.values.tobytes() == expected.reshape(got.values.shape).tobytes()


# tracemalloc's peak for the same call when the kernel stepped its first
# window's rows like every other, measured on numpy 2.4.6, which reports its
# buffers to tracemalloc.
STEPPED_FIRST_WINDOW_PEAK = 2_430_979


def test_extract_peak_memory_is_no_more_than_with_a_stepped_first_window():
    stack = _noisy_scene(64, 1)
    extract_texture(stack, GlcmParams())
    tracemalloc.start()
    try:
        extract_texture(stack, GlcmParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STEPPED_FIRST_WINDOW_PEAK


def test_extract_spectral_identity_and_dimension():
    samples = np.arange(10, dtype=np.uint16).reshape(10, 1, 1)
    stack = BandStack(band_names=[f"X{i}" for i in range(10)], samples=samples)
    fr = extract_spectral(stack)
    assert fr.values[:, 0, 0].tolist() == [float(v) for v in range(10)]
    assert len(fr.feature_names) == 10
    assert fr.valid.all()

    single = BandStack(
        band_names=["B2"], samples=np.array([[[5, 6], [7, 8]]], dtype=np.uint16)
    )
    fr2 = extract_spectral(single)
    assert fr2.valid.sum() == 4
    assert fr2.values.shape == (1, 2, 2)


def test_unknown_band_is_rejected():
    stack = _stack_from_grid(np.zeros((5, 5), dtype=np.uint16), bands=("B2",))
    with pytest.raises(DimensionMismatchError, match="B11"):
        extract_texture(stack, GlcmParams(window=3, bands=("B11",)))


def test_scene_smaller_than_the_window_is_rejected():
    stack = _stack_from_grid(np.zeros((5, 8), dtype=np.uint16), bands=("B2",))
    with pytest.raises(DimensionMismatchError, match="window 7 is larger than the 8x5 scene"):
        extract_texture(stack, GlcmParams(window=7, bands=("B2",)))
    # A window as large as the scene's short side leaves one row of valid pixels.
    assert extract_texture(stack, GlcmParams(window=5, bands=("B2",))).valid.sum() == 4


def test_glcm_params_validation():
    with pytest.raises(ValueError):
        GlcmParams(levels=1)
    with pytest.raises(ValueError, match="levels"):
        GlcmParams(levels=2**16 + 1)  # past 2**16 a u16 band gains nothing
    assert GlcmParams(levels=2**16).levels == 2**16
    with pytest.raises(ValueError):
        GlcmParams(window=4)
    # Past MAX_WINDOW a window's fixed-point homogeneity sum could overflow int64.
    assert MAX_WINDOW == 2895 and GlcmParams(window=MAX_WINDOW).window == MAX_WINDOW
    with pytest.raises(ValueError, match="window"):
        GlcmParams(window=MAX_WINDOW + 2)
    with pytest.raises(ValueError):
        GlcmParams(directions=())
    with pytest.raises(ValueError):
        GlcmParams(directions=(30,))
    with pytest.raises(ValueError):
        GlcmParams(measures=("energy",))
    # Non-integers used to pass: a fractional level count extracted features,
    # and a float window failed later in slicing.
    rows = [("levels", 7.5), ("levels", np.int64(8)), ("window", 5.0), ("window", True)]
    for field, value in rows:
        with pytest.raises(ValueError, match=field):
            GlcmParams(**{field: value})
    with pytest.raises(ValueError, match="directions"):
        GlcmParams(directions=(45.0,))
    # A bare string would split into characters ("B2" into bands B and 2), and
    # a bare angle would raise a TypeError.
    rows = [("bands", "B2"), ("measures", "mean"), ("directions", 0), ("bands", None)]
    for field, value in rows:
        with pytest.raises(ValueError, match=f"{field} must be a non-empty list, tuple or set"):
            GlcmParams(**{field: value})
    assert GlcmParams(bands=["B2"], directions=[0], measures=["mean"]).bands == ("B2",)
    names = GlcmParams(bands=("B4", "B2"), measures=("contrast", "mean")).feature_names()
    assert names == ["B4_contrast", "B4_mean", "B2_contrast", "B2_mean"]
