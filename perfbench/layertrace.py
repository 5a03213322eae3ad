"""Per-layer spans and counters, recorded by wrapping slummap's public functions.

Nothing inside slummap knows about the trace. While a :class:`Tracer` is
active, each wrapped function is replaced in every slummap module namespace
that holds it (``experiment.predict`` as well as ``ccf.predict``), and the two
RNG draw methods are replaced on ``Pcg32``. Leaving the ``with`` block puts
every original back. Spans and counts only accumulate in memory; the caller
decides when to read and print them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

from slummap import ccf, experiment, raster, rng, texture

COUNTERS = (
    "ccf.cca_calls",
    "ccf.cca_degenerate",
    "ccf.route_rows",
    "rng.draw_calls",
    "rng.draws",
    "raster.bytes_read",
    "raster.bytes_written",
)


def _slummap_modules():
    return [m for n, m in list(sys.modules.items()) if n == "slummap" or n.startswith("slummap.")]


def _file_bytes(header_path) -> int:
    header = Path(header_path)
    return header.stat().st_size + header.with_suffix(".bin").stat().st_size


class Tracer:
    """Accumulates seconds per span name and integer counts per counter name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._grow_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, span: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[span] += time.perf_counter() - t0
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _grow(self, fn):
        timed = self._timed("ccf.grow", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._grow_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._grow_depth -= 1

        return wrapper

    def _cca(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["ccf.cca_calls"] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except ccf.DegenerateDataError:
                self.counts["ccf.cca_degenerate"] += 1
                raise
            finally:
                self.seconds["ccf.cca"] += time.perf_counter() - t0

        return wrapper

    def _draw(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.seconds["rng.draw"] += dt
            if self._grow_depth:
                self.seconds["rng.draw_in_grow"] += dt
            self.counts["rng.draw_calls"] += 1
            self.counts["rng.draws"] += len(result)
            return result

        return wrapper

    def _count_rows(self, _result, _tree, x, *args, **kwargs):
        self.counts["ccf.route_rows"] += len(x)

    def _count_read(self, _result, header_path, *args, **kwargs):
        self.counts["raster.bytes_read"] += _file_bytes(header_path)

    def _count_written(self, _result, _mask, path, *args, **kwargs):
        self.counts["raster.bytes_written"] += Path(path).stat().st_size

    # -- install / restore --------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for module in _slummap_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        functions = [
            (texture.extract_texture, self._timed("texture.extract", texture.extract_texture)),
            (texture.quantize, self._timed("texture.quantize", texture.quantize)),
            (ccf.train_forest, self._timed("ccf.train", ccf.train_forest)),
            (ccf.grow_tree, self._grow(ccf.grow_tree)),
            (ccf.cca_fit, self._cca(ccf.cca_fit)),
            (ccf.apply_tree, self._timed("ccf.route", ccf.apply_tree, self._count_rows)),
            (ccf.predict, self._timed("ccf.predict", ccf.predict)),
            (experiment.save_pipeline, self._timed("experiment.save_pipeline", experiment.save_pipeline)),
            (experiment.load_pipeline, self._timed("experiment.load_pipeline", experiment.load_pipeline)),
            (raster.load_band_stack, self._timed("raster.load", raster.load_band_stack, self._count_read)),
            (raster.save_prediction_map, self._timed("raster.save", raster.save_prediction_map, self._count_written)),
        ]
        try:
            for original, replacement in functions:
                self._patch_everywhere(original, replacement)
            for method in ("bootstrap_indices", "sample_without_replacement"):
                original = vars(rng.Pcg32)[method]
                self._restore.append((rng.Pcg32, method, original))
                setattr(rng.Pcg32, method, self._draw(original))
        except BaseException:
            self._undo()
            raise
        return self

    def _undo(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._undo()
