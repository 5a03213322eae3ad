"""Command-line interface.

Subcommands: extract, train, predict, evaluate, experiment. Scene-driven
commands read a config in the raster headers' ``key = value`` syntax
(``raster.read_key_values``), with every key under a ``[section]`` line and
the sections and keys of ``CONFIG_KEYS``. ``[scene]`` may repeat; the
experiment report gets one row per scene. Flags override ``[run]`` values.
``main`` creates the output directory before a config command runs and then
writes the effective config (``echo_config``) to ``config.used``. Exit codes:
0 success, 2 configuration errors, 3 I/O errors, 4 degenerate data (single
class), 5 feature-dimension mismatch. The library decides whether a scene
fits its settings or model, raising ``DimensionMismatchError``; a config
command reports that as a configuration error naming the scene's location.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ccf import DegenerateDataError, ForestParams
from .experiment import (
    CSV_HEADER,
    TECHNIQUES,
    ModelFormatError,
    Pipeline,
    evaluate,
    extract_features,
    format_percent,
    load_pipeline,
    predict_scene,
    report_csv_row,
    report_to_dict,
    result_to_dict,
    run_experiment,
    save_pipeline,
)
from .raster import (
    DimensionMismatchError,
    RasterFormatError,
    ensure_aligned,
    format_key_values,
    load_band_stack,
    load_label_mask,
    load_prediction_map,
    read_key_values,
    save_feature_raster,
    save_prediction_map,
)
from .texture import GlcmParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_DIMENSION = 5


class ConfigError(ValueError):
    pass


@dataclass
class SceneConfig:
    location: str
    image: Path
    mask: Path


@dataclass
class RunConfig:
    scenes: list[SceneConfig] = field(default_factory=list)
    technique: str = "glcm"
    seed: int = 0
    out: Path = Path("out")
    jobs: int = 1
    glcm: GlcmParams = field(default_factory=GlcmParams)
    forest: ForestParams = field(default_factory=ForestParams)

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ValueError(f"technique must be 'spectral' or 'glcm', got {self.technique!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64 - 1], got {self.seed}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _list_of(parse):
    def parse_list(text: str) -> tuple:
        items = [item.strip() for item in text.split(",")]
        if not all(items):
            raise ValueError(f"empty item in the list {text!r}")
        return tuple(map(parse, items))

    return parse_list


def _int_or_auto(text: str) -> int | None:
    return None if text == "auto" else int(text)


def _no_nul(parse):
    def parse_text(text: str):
        if "\0" in text:
            raise ValueError("the value holds a NUL character")
        return parse(text)

    return parse_text


def _location(text: str) -> str:
    """A scene's files are named after its location, so it is one path
    component, and it fills one report.csv cell, so it holds no comma, no
    line break and no quote, which CSV readers take to join fields."""
    for char in {",", '"', "/", os.sep, os.altsep} - {None}:
        if char in text:
            raise ValueError(f"the location holds {char!r}")
    if "".join(text.splitlines()) != text:
        raise ValueError("the location holds a line break")
    return _no_nul(str)(text)


# The config file format. Each section is one dataclass: [run] RunConfig,
# [glcm] GlcmParams, [forest] ForestParams and [scene] SceneConfig. Each key is
# one of its fields, with the parser of the value text. load_config reads and
# echo_config writes by this table, in this order.
CONFIG_KEYS = {
    "run": {"technique": str, "seed": int, "out": _no_nul(Path), "jobs": int},
    "glcm": {
        "levels": int,
        "window": int,
        "directions": _list_of(int),
        "bands": _list_of(str),
        "measures": _list_of(str),
    },
    "forest": {"n_trees": int, "min_node_size": int, "n_candidate_features": _int_or_auto},
    "scene": {"location": _location, "image": Path, "mask": Path},
}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    config = RunConfig()
    seen: set[str] = set()
    for name, fields in read_key_values(path, ConfigError):
        if name is None:
            raise ConfigError(f"{path}: key {next(iter(fields))!r} outside any [section]")
        parsers = CONFIG_KEYS.get(name)
        if parsers is None:
            raise ConfigError(f"{path}: unknown section [{name}]")
        if name != "scene" and name in seen:
            raise ConfigError(f"{path}: duplicate section [{name}]")
        seen.add(name)
        values = {}
        for key, value in fields.items():
            if key not in parsers:
                raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
            try:
                values[key] = parsers[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{name}] {key}: {exc}") from None
        if name == "scene" and values.keys() != parsers.keys():
            missing = next(key for key in parsers if key not in values)
            raise ConfigError(f"{path}: [scene] is missing the key {missing!r}")
        try:
            if name == "run":
                config = replace(config, **values)
            elif name == "glcm":
                config.glcm = GlcmParams(**values)
            elif name == "forest":
                config.forest = ForestParams(**values)
            else:
                config.scenes.append(SceneConfig(**values))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad [{name}] section: {exc}") from None
    return config


def apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """The config with the [run] values given as flags replaced."""
    try:
        flags = {
            key: parse(getattr(args, key))
            for key, parse in CONFIG_KEYS["run"].items()
            if getattr(args, key, None) is not None
        }
        return replace(config, **flags)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def validate_config(config: RunConfig) -> None:
    if not config.scenes:
        raise ConfigError("config declares no [scene] section")
    for scene in config.scenes:
        if [other.location for other in config.scenes].count(scene.location) > 1:
            raise ConfigError(f"[scene] location {scene.location!r} names more than one scene")
        for key, value in vars(scene).items():
            if isinstance(value, Path) and not value.exists():
                raise ConfigError(f"[scene] {scene.location!r}: {key} not found: {value}")


def _echo_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, Path):
        return str(value.resolve())
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return str(value)


def echo_config(config: RunConfig) -> str:
    """The effective config in the file format; loading it gives the same config."""
    sections = [("run", config), ("glcm", config.glcm), ("forest", config.forest)]
    sections += [("scene", scene) for scene in config.scenes]
    return format_key_values(
        [
            (name, {key: _echo_value(getattr(params, key)) for key in CONFIG_KEYS[name]})
            for name, params in sections
        ]
    )


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _prefix(scene: SceneConfig, technique: str) -> str:
    return f"{scene.location}_{technique}"


@contextmanager
def _load_scene(scene: SceneConfig):
    """The scene's imagery and mask, for a ``with`` body; a DimensionMismatchError
    raised there, a scene the run's settings do not fit, is a config error."""
    stack = load_band_stack(scene.image)
    mask = load_label_mask(scene.mask)
    ensure_aligned(stack, mask)
    try:
        yield stack, mask
    except DimensionMismatchError as exc:
        raise ConfigError(f"scene {scene.location!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_extract(config: RunConfig) -> None:
    for scene in config.scenes:
        with _load_scene(scene) as (stack, _):
            t0 = time.perf_counter()
            features = extract_features(stack, config.technique, config.glcm, jobs=config.jobs)
            elapsed = time.perf_counter() - t0
        target = config.out / f"{_prefix(scene, config.technique)}_features.hdr"
        save_feature_raster(features, target)
        print(
            f"{scene.location}: wrote {len(features.feature_names)} features "
            f"({int(features.valid.sum())} valid pixels) to {target} in {elapsed:.2f}s"
        )


def _train_pipeline(config: RunConfig, scene: SceneConfig):
    """The shared extract->...->train path used by both train and experiment."""
    with _load_scene(scene) as (stack, mask):
        result = run_experiment(
            stack,
            mask,
            technique=config.technique,
            glcm_params=config.glcm,
            forest=config.forest,
            master_seed=config.seed,
            jobs=config.jobs,
            location=scene.location,
        )
    pipeline = Pipeline(
        technique=config.technique,
        glcm_params=config.glcm if config.technique == "glcm" else None,
        scaler=result.scaler,
        model=result.model,
    )
    return result, pipeline


def cmd_train(config: RunConfig) -> None:
    for scene in config.scenes:
        result, pipeline = _train_pipeline(config, scene)
        target = config.out / f"{_prefix(scene, config.technique)}_model.json"
        save_pipeline(pipeline, target)
        print(
            f"{scene.location}: trained {len(result.model.trees)} trees on "
            f"{result.train_size} rows -> {target}"
        )


def cmd_experiment(config: RunConfig) -> None:
    out = config.out
    csv_rows = [CSV_HEADER]
    for scene in config.scenes:
        result, pipeline = _train_pipeline(config, scene)
        prefix = _prefix(scene, config.technique)
        save_pipeline(pipeline, out / f"{prefix}_model.json")
        save_prediction_map(result.prediction, out / f"{prefix}_map.pgm")
        _write_json(out / f"{prefix}_report.json", result_to_dict(result))
        _write_json(
            out / f"{prefix}_timings.json",
            {stage: round(seconds, 6) for stage, seconds in result.timings.items()},
        )
        seconds = result.timings["total"]
        csv_rows.append(report_csv_row(scene.location, config.technique, result.report, seconds))
        print(
            f"{scene.location} ({config.technique}): "
            f"mean IoU {format_percent(result.report.mean_iou)}%, {seconds:.1f}s"
        )
    (out / "report.csv").write_text("\n".join(csv_rows) + "\n", encoding="utf-8")


_CONFIG_COMMANDS = {"extract": cmd_extract, "train": cmd_train, "experiment": cmd_experiment}


def cmd_predict(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    pipeline = load_pipeline(args.model)
    stack = load_band_stack(args.image)
    features = extract_features(stack, pipeline.technique, pipeline.glcm_params, jobs=args.jobs)
    prediction, _ = predict_scene(features, None, pipeline.model, pipeline.scaler)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "map.pgm"
    save_prediction_map(prediction, target)
    print(f"wrote {target} ({int(prediction.valid.sum())} predicted pixels)")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    prediction = load_prediction_map(args.pred)
    truth = load_label_mask(args.truth)
    if (prediction.height, prediction.width) != (truth.height, truth.width):
        raise DimensionMismatchError(
            f"prediction map is {prediction.width}x{prediction.height} but truth is "
            f"{truth.width}x{truth.height}"
        )
    scorable = prediction.valid & truth.valid
    if not scorable.any():
        raise DegenerateDataError("no pixel is valid in both prediction and truth")
    report = evaluate(prediction.labels[scorable], truth.labels[scorable])
    row = report_csv_row(args.location, "map", report, time.perf_counter() - t0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
    _write_json(out / "report.json", report_to_dict(report))
    print(f"mean IoU {format_percent(report.mean_iou)}% -> {out / 'report.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


_JOBS_HELP = (
    "up to N processes: the caller plus workers, forked for a parallel stage only "
    "where its work pays for the fork (GLCM bands that take more than one kernel "
    "pass, trees that would take over 0.1 s after the first); outputs are "
    "bit-identical for any N"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slummap",
        description="Compare spectral and GLCM texture features for slum detection "
        "with a canonical correlation forest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--technique", choices=("spectral", "glcm"))
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--jobs", type=int, default=None, metavar="N", help=_JOBS_HELP + " (default 1)"
        )

    add_config_flags(sub.add_parser("extract", help="write feature rasters per scene"))
    add_config_flags(sub.add_parser("train", help="train and persist one model per scene"))
    add_config_flags(
        sub.add_parser("experiment", help="full protocol: metrics, map and model per scene")
    )

    p_predict = sub.add_parser("predict", help="predict a scene with a persisted model")
    p_predict.add_argument("--model", required=True, help="pipeline model file")
    p_predict.add_argument("--image", required=True, help="scene image header")
    p_predict.add_argument("--out", required=True, help="output directory")
    p_predict.add_argument(
        "--jobs", type=int, default=1, metavar="N", help=_JOBS_HELP + " (default 1)"
    )

    p_eval = sub.add_parser("evaluate", help="score a prediction map against ground truth")
    p_eval.add_argument("--pred", required=True, help="prediction map (P5 greymap)")
    p_eval.add_argument("--truth", required=True, help="ground-truth mask header")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument(
        "--location", default="scene", type=_location, help="label for the report row"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in _CONFIG_COMMANDS:
            config = apply_overrides(load_config(args.config), args)
            validate_config(config)
            config.out.mkdir(parents=True, exist_ok=True)
            _CONFIG_COMMANDS[args.command](config)
            (config.out / "config.used").write_text(echo_config(config), encoding="utf-8")
            return EXIT_OK
        if args.command == "predict":
            return cmd_predict(args)
        return cmd_evaluate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionMismatchError as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (FileNotFoundError, RasterFormatError, ModelFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
