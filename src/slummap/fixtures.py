"""Synthetic scenes for demos and tests.

The two-texture scene is built so texture is the only class signal: the
non-slum half is a one-pixel checkerboard and the slum half is built from
one-pixel horizontal stripes, both using the same two intensity values in an
exact 50/50 mix. Per-pixel intensity histograms are therefore identical
across classes (raw spectral features carry no information), while windowed
co-occurrence statistics separate the halves cleanly. ``write_demo_scene``
writes the scene and mask as raster pairs and the run config through
``raster.format_key_values``, the writer of ``config.used``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import (
    SENTINEL2_BANDS, BandStack, LabelMask, format_key_values, save_band_stack, save_label_mask
)

TEXTURED_BANDS = ("B2", "B3", "B4", "B8")
LOW, HIGH, FLAT = 10000, 50000, 30000


def make_two_texture_scene(size: int = 128) -> tuple[BandStack, LabelMask]:
    """A size x size scene: left half checkerboard (non-slum), right half
    horizontal stripes (slum). ``size`` must be even so both halves hold the
    two intensities in an exact 50/50 ratio."""
    if size < 8 or size % 2:
        raise ValueError("size must be even and at least 8")
    rows, cols = np.indices((size, size))
    left = cols < size // 2
    checker = np.where((rows + cols) % 2 == 0, LOW, HIGH)
    stripes = np.where(rows % 2 == 0, LOW, HIGH)
    textured = np.where(left, checker, stripes).astype(np.uint16)

    samples = np.empty((len(SENTINEL2_BANDS), size, size), dtype=np.uint16)
    for b, band in enumerate(SENTINEL2_BANDS):
        samples[b] = textured if band in TEXTURED_BANDS else FLAT
    stack = BandStack(band_names=list(SENTINEL2_BANDS), samples=samples)
    mask = LabelMask(labels=(~left).astype(np.uint8))
    return stack, mask


def write_demo_scene(directory: str | Path, size: int = 128, window: int = 5) -> Path:
    """Write the scene, its mask and a ready-to-run config; returns the config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stack, mask = make_two_texture_scene(size)
    image, labels = directory / "scene.hdr", directory / "mask.hdr"
    save_band_stack(stack, image)
    save_label_mask(mask, labels)
    config = directory / "demo.cfg"
    run = {"technique": "glcm", "seed": 0, "out": directory / "out"}
    scene = {"location": "two-texture", "image": image, "mask": labels}
    sections = [("run", run), ("glcm", {"window": window}), ("scene", scene)]
    config.write_text(format_key_values(sections), encoding="utf-8")
    return config


if __name__ == "__main__":  # pragma: no cover
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "demo"
    path = write_demo_scene(target)
    print(f"wrote demo scene and config: {path}")
