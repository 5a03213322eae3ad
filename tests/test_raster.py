import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slummap.raster import (
    BYTE_ORDER,
    HEADER_KEYS,
    LAYOUT,
    SENTINEL2_BANDS,
    BandStack,
    FeatureRaster,
    LabelMask,
    RasterFormatError,
    ensure_aligned,
    format_key_values,
    load_band_stack,
    load_label_mask,
    load_prediction_map,
    read_key_values,
    save_band_stack,
    save_feature_raster,
    save_label_mask,
    save_prediction_map,
)
from slummap.raster import _load_planes, _parse_header


def test_round_trip_identity_small_stack(tmp_path):
    samples = np.array([[[0, 1], [2, 3]]], dtype=np.uint16)
    stack = BandStack(band_names=["B2"], samples=samples)
    save_band_stack(stack, tmp_path / "scene.hdr")
    loaded = load_band_stack(tmp_path / "scene.hdr")
    assert loaded.band_names == ["B2"]
    assert np.array_equal(loaded.samples, samples)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    n_bands=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_is_byte_identical(tmp_path_factory, width, height, n_bands, seed):
    tmp_path = tmp_path_factory.mktemp("rt")
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 65536, size=(n_bands, height, width), dtype=np.uint16)
    names = [f"B{i+2}" for i in range(n_bands)]
    save_band_stack(BandStack(band_names=names, samples=samples), tmp_path / "s.hdr")
    first = (tmp_path / "s.bin").read_bytes()
    loaded = load_band_stack(tmp_path / "s.hdr")
    save_band_stack(loaded, tmp_path / "t.hdr")
    assert (tmp_path / "t.bin").read_bytes() == first
    assert (tmp_path / "t.hdr").read_bytes() == (tmp_path / "s.hdr").read_bytes()
    assert np.array_equal(loaded.samples, samples)


def test_sentinel2_band_order_is_preserved(tmp_path):
    samples = np.zeros((10, 2, 2), dtype=np.uint16)
    save_band_stack(BandStack(band_names=list(SENTINEL2_BANDS), samples=samples), tmp_path / "p.hdr")
    assert tuple(load_band_stack(tmp_path / "p.hdr").band_names) == SENTINEL2_BANDS


def test_size_mismatch_is_rejected(tmp_path):
    (tmp_path / "bad.hdr").write_text(
        "width = 4\nheight = 4\nbands = A,B\ndtype = u16\n"
        "byte_order = little\nlayout = band-sequential row-major\n"
    )
    (tmp_path / "bad.bin").write_bytes(np.zeros(30, dtype="<u2").tobytes())
    with pytest.raises(RasterFormatError, match="corrupt"):
        load_band_stack(tmp_path / "bad.hdr")


def test_missing_files_and_unsupported_dtype(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_band_stack(tmp_path / "nope.hdr")

    (tmp_path / "f.hdr").write_text(
        "width = 1\nheight = 1\nbands = A\ndtype = f64\n"
        "byte_order = little\nlayout = band-sequential row-major\n"
    )
    (tmp_path / "f.bin").write_bytes(b"\x00" * 8)
    with pytest.raises(RasterFormatError, match="dtype"):
        load_band_stack(tmp_path / "f.hdr")

    (tmp_path / "g.hdr").write_text(
        "width = 1\nheight = 1\nbands = A\ndtype = u8\n"
        "byte_order = little\nlayout = band-sequential row-major\n"
    )
    (tmp_path / "g.bin").write_bytes(b"\x00")
    with pytest.raises(RasterFormatError, match="u16"):
        load_band_stack(tmp_path / "g.hdr")


def test_band_names_must_be_unique_and_nonempty():
    samples = np.zeros((2, 1, 1), dtype=np.uint16)
    with pytest.raises(ValueError):
        BandStack(band_names=["A", "A"], samples=samples)
    with pytest.raises(ValueError):
        BandStack(band_names=["A", ""], samples=samples)


def test_duplicate_band_names_in_header_are_a_format_error(tmp_path):
    save_band_stack(BandStack(["B2", "B3"], np.zeros((2, 1, 1), dtype=np.uint16)), tmp_path / "s.hdr")
    header = tmp_path / "s.hdr"
    header.write_text(header.read_text().replace("B2,B3", "B2,B2"))
    with pytest.raises(RasterFormatError, match="unique"):
        load_band_stack(header)


def test_repeated_header_key_is_a_format_error(tmp_path):
    # A stale width before the real one used to be overwritten silently.
    save_band_stack(BandStack(["B2"], np.zeros((1, 2, 3), dtype=np.uint16)), tmp_path / "s.hdr")
    header = tmp_path / "s.hdr"
    header.write_text("width = 999\n" + header.read_text())
    with pytest.raises(RasterFormatError, match=r"s\.hdr:2: duplicate key 'width'"):
        load_band_stack(header)


def test_label_mask_all_zero_and_fraction(tmp_path):
    mask = LabelMask(labels=np.zeros((10, 10), dtype=np.uint8))
    save_label_mask(mask, tmp_path / "m.hdr")
    loaded = load_label_mask(tmp_path / "m.hdr")
    assert loaded.labels[loaded.valid].mean() == 0.0
    assert loaded.valid.all()


def test_label_mask_rejects_values_above_one(tmp_path):
    grid = np.zeros((1, 4, 4), dtype=np.uint8)
    grid[0, 2, 2] = 255
    from slummap.raster import _write_planes

    _write_planes(tmp_path / "m.hdr", ["labels"], grid, "u8")
    with pytest.raises(RasterFormatError, match="255"):
        load_label_mask(tmp_path / "m.hdr")


@pytest.mark.parametrize(
    ("make", "field", "value"),
    [
        (lambda v: BandStack(["B2"], np.full((1, 2, 2), v)), "samples", 70000),
        (lambda v: BandStack(["B2"], np.full((1, 2, 2), v)), "samples", -1),
        (lambda v: BandStack(["B2"], np.full((1, 2, 2), v)), "samples", 2.7),
        (lambda v: LabelMask(np.full((2, 2), v)), "labels", 256),
        (lambda v: LabelMask(np.full((2, 2), v)), "labels", 0.6),
    ],
    ids=["samples-70000", "samples-minus-one", "samples-2.7", "labels-256", "labels-0.6"],
)
def test_in_memory_rasters_reject_values_their_type_cannot_hold(make, field, value):
    # A cast would have wrapped or truncated them: 70000 to 4464, -1 to
    # 65535, 2.7 to 2, and 256 and 0.6 to a non-slum 0.
    with pytest.raises(ValueError, match=rf"^{field} must be uint(8|16) values, got {value}$"):
        make(value)


def test_in_memory_rasters_keep_exact_values_and_stored_arrays():
    assert BandStack(["B2"], np.full((1, 2, 2), 65535.0)).samples.dtype == np.uint16
    assert LabelMask(np.ones((2, 2), dtype=bool)).labels.tolist() == [[1, 1], [1, 1]]
    samples = np.zeros((1, 2, 2), dtype=np.uint16)
    labels = np.zeros((2, 2), dtype=np.uint8)
    assert BandStack(["B2"], samples).samples is samples
    assert LabelMask(labels).labels is labels


def test_label_mask_22_percent_scene(tmp_path):
    labels = np.zeros(100, dtype=np.uint8)
    labels[:22] = 1
    mask = LabelMask(labels=labels.reshape(10, 10))
    save_label_mask(mask, tmp_path / "m.hdr")
    loaded = load_label_mask(tmp_path / "m.hdr")
    assert loaded.labels[loaded.valid].mean() == pytest.approx(0.22)


def test_prediction_map_encoding(tmp_path):
    all_slum = LabelMask(labels=np.ones((2, 2), dtype=np.uint8))
    save_prediction_map(all_slum, tmp_path / "a.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == b"P5\n2 2\n255\n" + b"\xff" * 4

    all_non = LabelMask(labels=np.zeros((2, 2), dtype=np.uint8))
    save_prediction_map(all_non, tmp_path / "b.pgm")
    assert (tmp_path / "b.pgm").read_bytes().endswith(b"\x00" * 4)

    mixed = LabelMask(
        labels=np.array([[1, 0], [0, 1]], dtype=np.uint8),
        valid=np.array([[True, True], [False, True]]),
    )
    save_prediction_map(mixed, tmp_path / "c.pgm")
    assert (tmp_path / "c.pgm").read_bytes().endswith(bytes([255, 0, 128, 255]))

    back = load_prediction_map(tmp_path / "c.pgm")
    assert np.array_equal(back.labels, np.array([[1, 0], [0, 1]]))
    assert np.array_equal(back.valid, mixed.valid)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P5\n-2 -2\n255\n" + b"\xff" * 4, "width and height must be >= 1"),
        (b"P5\n-1 -4\n255\n" + b"\xff" * 4, "width and height must be >= 1"),
        (b"P5\n0 0\n255\n", "width and height must be >= 1"),
        (b"P5\n0 3\n255\n", "width and height must be >= 1"),
        (b"P5\n2 -1\n255\n", "width and height must be >= 1"),
        (b"P6\n2 2\n255\n" + b"\xff" * 4, "not a P5 greymap"),
        (b"P5\n2 2 2\n255\n" + b"\xff" * 4, "malformed P5 header"),
        (b"P5\n2 2\n65535\n" + b"\xff" * 4, "expected maxval 255"),
        (b"P5\n2 2\n255\n" + b"\xff" * 3, "payload size"),
        (b"P5\n2 2\n255\n" + b"\xff\xff\xff\x01", "byte outside"),
    ],
)
def test_malformed_prediction_map_is_a_format_error(tmp_path, raw, message):
    (tmp_path / "m.pgm").write_bytes(raw)
    with pytest.raises(RasterFormatError, match=message):
        load_prediction_map(tmp_path / "m.pgm")


def test_feature_raster_round_trip_with_invalid_pixels(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    valid = np.array([[True, False], [True, True]])
    fr = FeatureRaster(feature_names=["a", "b"], values=values, valid=valid)
    save_feature_raster(fr, tmp_path / "f.hdr")
    # No reader of feature rasters ships; check the payload as written.
    names, planes = _load_planes(tmp_path / "f.hdr", "f32")
    assert names == ["a", "b"]
    assert np.array_equal(planes[:, valid], values[:, valid])
    assert np.isnan(planes[:, ~valid]).all()


def test_feature_raster_is_written_a_plane_at_a_time_as_the_whole_array_was(tmp_path):
    # The bytes are those of the whole array with NaN at invalid pixels, but
    # the writer holds no more than a plane or two of them at a time.
    values = np.random.default_rng(0).normal(size=(28, 64, 64)).astype(np.float32)
    valid = np.zeros((64, 64), dtype=bool)
    valid[3:-3, 3:-3] = True  # a window's invalid border
    fr = FeatureRaster(feature_names=[f"f{i}" for i in range(28)], values=values, valid=valid)
    tracemalloc.start()
    try:
        save_feature_raster(fr, tmp_path / "f.hdr")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    filled = values.copy()
    filled[:, ~valid] = np.float32(np.nan)
    assert (tmp_path / "f.bin").read_bytes() == filled.astype("<f4").tobytes()
    assert peak < 3 * values[0].nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_raster_rejects_a_non_finite_valid_value(bad):
    values = np.zeros((3, 2, 2), dtype=np.float32)
    valid = np.array([[True, False], [True, True]])
    values[:, 0, 1] = bad  # an invalid pixel may hold anything
    FeatureRaster(feature_names=["a", "b", "c"], values=values, valid=valid)
    values[2, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        FeatureRaster(feature_names=["a", "b", "c"], values=values, valid=valid)


def test_loaded_rasters_are_read_only(tmp_path):
    samples = np.zeros((1, 2, 2), dtype=np.uint16)
    save_band_stack(BandStack(band_names=["B2"], samples=samples), tmp_path / "s.hdr")
    loaded = load_band_stack(tmp_path / "s.hdr")
    with pytest.raises(ValueError):
        loaded.samples[0, 0, 0] = 1

    save_label_mask(LabelMask(labels=np.zeros((2, 2), dtype=np.uint8)), tmp_path / "m.hdr")
    mask = load_label_mask(tmp_path / "m.hdr")
    with pytest.raises(ValueError):
        mask.labels[0, 0] = 1


def test_dimension_agreement_enforced():
    stack = BandStack(band_names=["A"], samples=np.zeros((1, 3, 3), dtype=np.uint16))
    mask = LabelMask(labels=np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(RasterFormatError, match="pre-aligned"):
        ensure_aligned(stack, mask)


_VALID_HEADER = (
    "width = 1\nheight = 1\nbands = A\ndtype = u8\n"
    "byte_order = little\nlayout = band-sequential row-major\n"
)


def _one_line(exclude: str = ""):
    """Text the reader gives back as written: no line breaks, no outer whitespace."""
    chars = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=exclude)
    return st.text(chars, max_size=8).filter(lambda s: s == s.strip())


def _is_section_line(line: str) -> bool:
    line = line.strip()
    return line.startswith("[") and line.endswith("]")


@st.composite
def _header_with_section(draw) -> bytes:
    """A valid header with one ``[name]`` line inserted anywhere."""
    lines = _VALID_HEADER.splitlines()
    section = "[" + draw(_one_line()) + "]"
    lines.insert(draw(st.integers(0, len(lines))), section)
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200), st.text().map(str.encode), _header_with_section()
    )
)
def test_parse_header_fuzz_parses_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.hdr"
    path.write_bytes(data)
    try:
        fields = _parse_header(path)
    except RasterFormatError:
        return
    assert set(HEADER_KEYS) <= set(fields)
    assert not any(map(_is_section_line, data.decode().splitlines()))


def test_section_line_in_header_is_a_format_error(tmp_path):
    save_label_mask(LabelMask(labels=np.zeros((1, 1), dtype=np.uint8)), tmp_path / "m.hdr")
    header = tmp_path / "m.hdr"
    assert header.read_text() == _VALID_HEADER.replace("bands = A", "bands = labels")
    header.write_text(header.read_text() + "[extra]\n")
    with pytest.raises(RasterFormatError, match=r"section \[extra\]"):
        load_label_mask(header)


# ---------------------------------------------------------------------------
# the key = value syntax that headers and run configs share
# ---------------------------------------------------------------------------


def test_read_key_values_groups_keys_under_sections(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# note\n a = 1 \n\n[one]\nb=2=3\n[ two ]\n[one]\nb =\n")
    assert read_key_values(path, ValueError) == [
        (None, {"a": "1"}),
        ("one", {"b": "2=3"}),
        ("two", {}),
        ("one", {"b": ""}),
    ]
    path.write_text("[one]\nb = 1\n[two]\nc = 1\nc = 2\n")
    with pytest.raises(KeyError, match=r"kv\.txt:5: duplicate key 'c' in \[two\]"):
        read_key_values(path, KeyError)
    path.write_text("[one]\nb\n")
    with pytest.raises(KeyError, match=r"kv\.txt:2: expected 'key = value'"):
        read_key_values(path, KeyError)
    path.write_bytes(b"a = \xff\n")
    with pytest.raises(KeyError, match="not UTF-8"):
        read_key_values(path, KeyError)


# A key has no "=" and does not start a comment; a key starting with "[" and a
# value ending with "]" would make a section line.
_FIELDS = st.dictionaries(
    _one_line(exclude="=").filter(lambda key: not key.startswith("#")), _one_line(), max_size=4
).filter(lambda fields: not any(k.startswith("[") and v.endswith("]") for k, v in fields.items()))


@settings(max_examples=300, deadline=None)
@given(
    leading=st.one_of(st.none(), _FIELDS.filter(bool)),
    named=st.lists(st.tuples(_one_line(), _FIELDS), max_size=4),
)
def test_read_key_values_reads_back_what_format_key_values_wrote(
    tmp_path_factory, leading, named
):
    sections = ([] if leading is None else [(None, leading)]) + named
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    path.write_text(format_key_values(sections), encoding="utf-8")
    read = read_key_values(path, ValueError)
    assert [(name, list(fields.items())) for name, fields in read] == [
        (name, list(fields.items())) for name, fields in sections
    ]


_SIZE_VALUES = st.one_of(st.integers(-1, 3).map(str), st.integers(1, 2).map(str), st.text(max_size=4))
_HEADER_VALUES = {
    "width": _SIZE_VALUES,
    "height": _SIZE_VALUES,
    "bands": st.one_of(
        st.sampled_from(["B2", "B2,B3", "B2,B2", "labels", " , ", ""]), st.text(max_size=6)
    ),
    "dtype": st.sampled_from(["u16", "u8", "f32", "f64"]),
    # Mostly the supported value, so that loads reach the later checks.
    "byte_order": st.sampled_from([BYTE_ORDER] * 3 + ["big"]),
    "layout": st.sampled_from([LAYOUT] * 3 + ["band-interleaved"]),
}


@st.composite
def _raster_files(draw) -> tuple[str, bytes]:
    """A header of mostly well-formed fields plus a payload, usually of the implied size."""
    header = draw(st.fixed_dictionaries(_HEADER_VALUES))
    for key in draw(st.sets(st.sampled_from(HEADER_KEYS), max_size=1)):
        del header[key]
    lines = [f"{key} = {value}" for key, value in header.items()]
    if draw(st.integers(0, 3)) == 0:
        extra = st.one_of(st.text(max_size=12), st.text(max_size=6).map("[{}]".format))
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    try:
        n_bands = len([name for name in header["bands"].split(",") if name.strip()])
        size = int(header["width"]) * int(header["height"]) * n_bands
        size *= {"u8": 1, "u16": 2, "f32": 4}.get(header["dtype"], 1)
    except (KeyError, ValueError):
        size = 0
    size = max(0, min(size, 64) + draw(st.sampled_from([0, 0, 1, -1])))
    payload = draw(st.one_of(st.just(bytes(size)), st.binary(min_size=size, max_size=size)))
    return "\n".join(lines), payload


@settings(max_examples=300, deadline=None)
@given(files=_raster_files())
def test_load_rasters_fuzz_load_or_raise_format_error(tmp_path_factory, files):
    path = tmp_path_factory.getbasetemp() / "fuzz_raster.hdr"
    path.write_text(files[0], encoding="utf-8")
    path.with_suffix(".bin").write_bytes(files[1])
    has_section = any(map(_is_section_line, files[0].splitlines()))
    for load in (load_band_stack, load_label_mask):
        try:
            load(path)
        except RasterFormatError:
            pass
        else:
            assert not has_section
