"""Raster data model and the on-disk interchange format.

Scenes travel as a two-file pair: a plain-text header and a raw binary
payload with the same basename and a ``.bin`` extension. The payload is
little-endian, band-sequential, row-major. The header is ``key = value``
lines with no ``[section]`` line. Its keys:

    width      = 4
    height     = 4
    bands      = B2,B3,B4
    dtype      = u16          (u16 imagery, u8 masks, f32 feature rasters)
    byte_order = little
    layout     = band-sequential row-major

The ``key = value`` syntax, which run configs share, has one reader,
:func:`read_key_values`, and one writer, :func:`format_key_values`.

Loading never rescales or corrects sample values; prediction maps are written
as binary greymaps (P5, maxval 255) with slum = 255, non-slum = 0 and
invalid = 128.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sentinel-2 bands kept after dropping the three low-resolution ones, in the
# order scene headers are expected to declare them.
SENTINEL2_BANDS = ("B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B11", "B12")

HEADER_KEYS = ("width", "height", "bands", "dtype", "byte_order", "layout")
LAYOUT = "band-sequential row-major"
BYTE_ORDER = "little"

_DTYPES = {"u16": np.dtype("<u2"), "u8": np.dtype("<u1"), "f32": np.dtype("<f4")}

# (section, {key: value}) pairs; the section of keys before any [name] line is None.
KeyValues = list[tuple[str | None, dict[str, str]]]

MAP_SLUM = 255
MAP_NON_SLUM = 0
MAP_INVALID = 128


class RasterFormatError(ValueError):
    """Malformed header, corrupt payload, or unsupported encoding."""


class DimensionMismatchError(ValueError):
    """A raster lacks a band, a size or a feature that its consumer needs."""


def _stored_as(values, dtype, field: str) -> np.ndarray:
    """values as a C-contiguous array of dtype, without a pass over them if
    they have that type already; ValueError naming the field if one of them
    does not fit it exactly (a cast would wrap or truncate it)."""
    values = np.asarray(values)
    if values.dtype == dtype:
        return np.ascontiguousarray(values)
    with np.errstate(invalid="ignore"):
        stored = np.ascontiguousarray(values, dtype=dtype)
    wrong = stored != values
    if wrong.any():
        value = values[wrong].flat[0].item()
        raise ValueError(f"{field} must be {np.dtype(dtype).name} values, got {value!r}")
    return stored


@dataclass
class BandStack:
    """Multi-band image: ``samples[b, r, c]`` are u16 sensor digital numbers."""

    band_names: list[str]
    samples: np.ndarray  # (bands, height, width) uint16

    def __post_init__(self):
        self.samples = _stored_as(self.samples, np.uint16, "samples")
        if self.samples.ndim != 3:
            raise ValueError("samples must be a (bands, height, width) grid")
        if self.samples.shape[0] != len(self.band_names):
            raise ValueError("band count does not match band_names")
        if not self.band_names or any(not n for n in self.band_names):
            raise ValueError("band names must be non-empty")
        if len(set(self.band_names)) != len(self.band_names):
            raise ValueError("band names must be unique")

    @property
    def height(self) -> int:
        return self.samples.shape[1]

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    def band(self, name: str) -> np.ndarray:
        return self.samples[self.band_names.index(name)]


@dataclass
class LabelMask:
    """Binary ground truth (1 = slum) plus a per-pixel validity channel."""

    labels: np.ndarray  # (height, width) uint8, values in {0, 1}
    valid: np.ndarray | None = None  # (height, width) bool

    def __post_init__(self):
        self.labels = _stored_as(self.labels, np.uint8, "labels")
        if self.labels.ndim != 2:
            raise ValueError("labels must be a (height, width) grid")
        if self.labels.max(initial=0) > 1:
            raise ValueError("labels may only hold 0 or 1")
        if self.valid is None:
            self.valid = np.ones(self.labels.shape, dtype=bool)
        self.valid = np.ascontiguousarray(self.valid, dtype=bool)
        if self.valid.shape != self.labels.shape:
            raise ValueError("valid grid must match label grid dimensions")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass
class FeatureRaster:
    """Per-pixel real-valued features; invalid pixels hold NaN in every plane."""

    feature_names: list[str]
    values: np.ndarray  # (features, height, width) float32
    valid: np.ndarray  # (height, width) bool

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ValueError("values must be a (features, height, width) grid")
        if self.values.shape[0] != len(self.feature_names):
            raise ValueError("feature count does not match feature_names")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        self.valid = np.ascontiguousarray(self.valid, dtype=bool)
        if self.valid.shape != self.values.shape[1:]:
            raise ValueError("valid grid must match value grid dimensions")
        # Plane by plane: one plane's valid values, not every feature's, are copied.
        if not all(np.isfinite(plane[self.valid]).all() for plane in self.values):
            raise ValueError("values must be finite wherever valid")

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def ensure_aligned(stack: BandStack, mask: LabelMask) -> None:
    """Reject imagery/mask pairs whose dimensions disagree (no auto-repair)."""
    if (stack.height, stack.width) != (mask.height, mask.width):
        raise RasterFormatError(
            f"imagery is {stack.width}x{stack.height} but mask is "
            f"{mask.width}x{mask.height}; inputs must be pre-aligned"
        )


def _payload_path(header_path: Path) -> Path:
    return header_path.with_suffix(".bin")


def read_key_values(path: str | Path, error: type[Exception]) -> KeyValues:
    """The ``(section, {key: value})`` pairs of a UTF-8 text file, in order.

    Blank and ``#`` lines are skipped, keys and values are stripped, and keys
    before the first ``[name]`` line form a section named None. Non-UTF-8
    text, a malformed line or a key repeated in its section raises ``error``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    sections: KeyValues = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), {}))
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if not sections:
            sections.append((None, {}))
        name, fields = sections[-1]
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            where = "" if name is None else f" in [{name}]"
            raise error(f"{path}:{lineno}: duplicate key {key!r}{where}")
        fields[key] = value.strip()
    return sections


def format_key_values(sections: list[tuple[str | None, dict[str, object]]]) -> str:
    """The text :func:`read_key_values` reads back as ``sections``, values as
    ``str(value)``; only the first section may be named None (no ``[name]`` line)."""
    return "\n".join(
        ("" if name is None else f"[{name}]\n")
        + "".join(f"{key} = {value}\n" for key, value in fields.items())
        for name, fields in sections
    )


def _parse_header(header_path: Path) -> dict[str, str]:
    sections = read_key_values(header_path, RasterFormatError)
    named = [name for name, _ in sections if name is not None]
    if named:
        raise RasterFormatError(f"{header_path}: section [{named[0]}] in a raster header")
    fields = sections[0][1] if sections else {}
    missing = [k for k in HEADER_KEYS if k not in fields]
    if missing:
        raise RasterFormatError(f"{header_path}: missing header keys {missing}")
    if fields["byte_order"] != BYTE_ORDER:
        raise RasterFormatError(f"{header_path}: unsupported byte_order {fields['byte_order']!r}")
    if fields["layout"] != LAYOUT:
        raise RasterFormatError(f"{header_path}: unsupported layout {fields['layout']!r}")
    return fields


def _load_planes(header_path: str | Path, expect_dtype: str) -> tuple[list[str], np.ndarray]:
    header_path = Path(header_path)
    if not header_path.exists():
        raise FileNotFoundError(f"header not found: {header_path}")
    fields = _parse_header(header_path)
    if fields["dtype"] not in _DTYPES:
        raise RasterFormatError(f"{header_path}: unsupported dtype {fields['dtype']!r}")
    if fields["dtype"] != expect_dtype:
        raise RasterFormatError(
            f"{header_path}: dtype {fields['dtype']!r} where {expect_dtype!r} is required"
        )
    try:
        width = int(fields["width"])
        height = int(fields["height"])
    except ValueError:
        raise RasterFormatError(f"{header_path}: width/height must be integers") from None
    if width < 1 or height < 1:
        raise RasterFormatError(f"{header_path}: width and height must be >= 1")
    names = [n.strip() for n in fields["bands"].split(",") if n.strip()]
    if not names:
        raise RasterFormatError(f"{header_path}: no band names declared")
    if len(set(names)) != len(names):
        raise RasterFormatError(f"{header_path}: band names must be unique")

    payload = _payload_path(header_path)
    if not payload.exists():
        raise FileNotFoundError(f"payload not found: {payload}")
    raw = payload.read_bytes()
    dtype = _DTYPES[expect_dtype]
    expected = width * height * len(names) * dtype.itemsize
    if len(raw) != expected:
        raise RasterFormatError(
            f"{payload}: holds {len(raw)} bytes but header implies {expected} "
            "(corrupt scene?)"
        )
    planes = np.frombuffer(raw, dtype=dtype).reshape(len(names), height, width)
    return names, planes


def _write_planes(header_path: str | Path, names: list[str], planes: np.ndarray, dtype: str,
                  invalid: np.ndarray | None = None) -> None:
    header_path = Path(header_path)
    header = {
        "width": planes.shape[2],
        "height": planes.shape[1],
        "bands": ",".join(names),
        "dtype": dtype,
        "byte_order": BYTE_ORDER,
        "layout": LAYOUT,
    }
    header_path.write_text(format_key_values([(None, header)]), encoding="utf-8")
    with _payload_path(header_path).open("wb") as payload:
        for plane in planes:  # one at a time, NaN where invalid: no full-size copy
            plane = plane if invalid is None else np.where(invalid, np.float32(np.nan), plane)
            payload.write(np.ascontiguousarray(plane, dtype=_DTYPES[dtype]).data)


def _freeze(*arrays: np.ndarray) -> None:
    # loaded rasters are shared read-only across workers
    for arr in arrays:
        arr.flags.writeable = False


def load_band_stack(header_path: str | Path) -> BandStack:
    names, planes = _load_planes(header_path, "u16")
    # the payload view is read-only already; a copy would double the scene's memory
    stack = BandStack(band_names=names, samples=planes)
    _freeze(stack.samples)
    return stack


def save_band_stack(stack: BandStack, header_path: str | Path) -> None:
    _write_planes(header_path, stack.band_names, stack.samples, "u16")


def load_label_mask(header_path: str | Path) -> LabelMask:
    names, planes = _load_planes(header_path, "u8")
    if len(names) != 1:
        raise RasterFormatError(f"{header_path}: a label mask must hold exactly one band")
    labels = planes[0]
    bad = labels > 1
    if bad.any():
        value = int(labels[bad][0])
        raise RasterFormatError(
            f"{header_path}: label value {value} outside {{0,1}} "
            "(null or unknown class codes are rejected)"
        )
    mask = LabelMask(labels=labels)
    _freeze(mask.labels, mask.valid)
    return mask


def save_label_mask(mask: LabelMask, header_path: str | Path) -> None:
    _write_planes(header_path, ["labels"], mask.labels[np.newaxis], "u8")


def save_feature_raster(raster: FeatureRaster, header_path: str | Path) -> None:
    _write_planes(header_path, raster.feature_names, raster.values, "f32", ~raster.valid)


def save_prediction_map(mask: LabelMask, path: str | Path) -> None:
    """Write a P5 greymap: slum 255, non-slum 0, invalid 128."""
    payload = np.where(mask.labels == 1, MAP_SLUM, MAP_NON_SLUM).astype(np.uint8)
    payload[~mask.valid] = MAP_INVALID
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + payload.tobytes())


def load_prediction_map(path: str | Path) -> LabelMask:
    """Read back a prediction map written by :func:`save_prediction_map`."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise RasterFormatError(f"{path}: not a P5 greymap")
    try:
        width, height = (int(t) for t in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise RasterFormatError(f"{path}: malformed P5 header") from None
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: width and height must be >= 1")
    if maxval != 255:
        raise RasterFormatError(f"{path}: expected maxval 255, got {maxval}")
    payload = np.frombuffer(parts[3], dtype=np.uint8)
    if payload.size != width * height:
        raise RasterFormatError(f"{path}: payload size does not match dimensions")
    grid = payload.reshape(height, width)
    known = np.isin(grid, (MAP_SLUM, MAP_NON_SLUM, MAP_INVALID))
    if not known.all():
        raise RasterFormatError(f"{path}: byte outside {{0, 128, 255}}")
    return LabelMask(labels=(grid == MAP_SLUM).astype(np.uint8), valid=grid != MAP_INVALID)
