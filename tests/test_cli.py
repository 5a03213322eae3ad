import base64
import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slummap.ccf import ForestParams
from slummap.cli import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    SceneConfig,
    echo_config,
    load_config,
    main,
    validate_config,
)
from slummap.experiment import _PACKED
from slummap.fixtures import make_two_texture_scene, write_demo_scene
from slummap.raster import (
    BandStack,
    LabelMask,
    load_band_stack,
    read_key_values,
    save_band_stack,
    save_label_mask,
)
from slummap.texture import MEASURES, GlcmParams

from .oracles import (
    version_1_document,
    version_2_document,
    version_3_document,
    version_4_document,
)


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "slummap", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    config = write_demo_scene(root, size=48, window=5)
    return {"root": root, "config": config}


@pytest.fixture(scope="module")
def experiment_out(demo):
    out = demo["root"] / "exp"
    proc = run_cli("experiment", "--config", str(demo["config"]), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("experiment", "--help").returncode == 0


def test_unknown_flag_exits_two():
    assert run_cli("experiment", "--frobnicate").returncode == 2
    # predict takes its technique from the model file only.
    proc = run_cli(
        "predict", "--model", "m.json", "--image", "s.hdr", "--out", "o", "--technique", "glcm"
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --technique glcm" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["extract", "train", "experiment", "predict"])
def test_jobs_below_one_exits_two(command, jobs, demo, experiment_out, tmp_path):
    if command == "predict":
        model = experiment_out / "two-texture_glcm_model.json"
        inputs = ["--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
    else:
        inputs = ["--config", str(demo["config"])]
    proc = run_cli(command, *inputs, "--out", str(tmp_path / "o"), "--jobs", jobs)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "config error: jobs must be >= 1\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_exits_two(seed, demo, tmp_path):
    # derive_key keeps the seed modulo 2**64, so 2**64 would silently rerun seed 0.
    proc = run_cli(
        "extract", "--config", str(demo["config"]), "--out", str(tmp_path / "o"), "--seed", seed
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"config error: seed must lie in [0, 2**64 - 1], got {seed}\n"


def test_nul_in_out_flag_exits_two(demo, tmp_path, capsys):
    # A shell cannot pass NUL in argv, but main(argv) can.
    assert main(["extract", "--config", str(demo["config"]), "--out", f"{tmp_path}/o\0ut"]) == 2
    assert capsys.readouterr().err == "config error: the value holds a NUL character\n"


@pytest.mark.parametrize("location", ["city/north", "../x"])
def test_location_with_a_path_separator_exits_two_before_any_output(
    location, demo, tmp_path, capsys
):
    # Files are named after the location: "city/north" would need a missing
    # directory after training, "../x" would write beside --out.
    config = tmp_path / "run.cfg"
    text = demo["config"].read_text().replace("location = two-texture", f"location = {location}")
    config.write_text(text)
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o" / "out")]) == 2
    message = capsys.readouterr().err
    assert message.startswith("config error:") and message.count("\n") == 1
    assert "[scene] location" in message
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "command, location",
    [
        pytest.param("experiment", "Rio, Brazil", id="experiment"),
        pytest.param("evaluate", "a,b", id="evaluate"),
        # A line break wrote a row holding only "city", then one for "fake".
        pytest.param("evaluate", "city\nfake", id="evaluate-newline"),
        pytest.param("evaluate", "city\r", id="evaluate-return"),
        pytest.param("evaluate", "city\u2028fake", id="evaluate-line-separator"),
        # A leading quote makes CSV readers join the fields up to the next one.
        pytest.param("evaluate", '"city', id="evaluate-quote"),
    ],
)
def test_location_with_a_comma_exits_two_before_any_output(
    command, location, demo, experiment_out, tmp_path
):
    # The location fills one report.csv cell: a comma used to write a ninth field.
    out = tmp_path / "o"
    if command == "experiment":
        config = tmp_path / "run.cfg"
        text = demo["config"].read_text()
        config.write_text(text.replace("location = two-texture", f"location = {location}"))
        args = ["--config", str(config)]
    else:
        pred = experiment_out / "two-texture_glcm_map.pgm"
        truth = demo["root"] / "mask.hdr"
        args = ["--pred", str(pred), "--truth", str(truth), "--location", location]
    proc = run_cli(command, *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "location" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_extract_glcm_counts_and_files(demo):
    out = demo["root"] / "feats"
    proc = run_cli("extract", "--config", str(demo["config"]), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "28 features" in proc.stdout
    assert (out / "two-texture_glcm_features.hdr").exists()
    assert (out / "two-texture_glcm_features.bin").exists()


def test_extract_spectral_feature_count(demo):
    out = demo["root"] / "feats_spectral"
    proc = run_cli(
        "extract",
        "--config",
        str(demo["config"]),
        "--technique",
        "spectral",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "10 features" in proc.stdout


def test_missing_mask_key_exits_two(tmp_path, demo):
    config = tmp_path / "bad.cfg"
    config.write_text(
        "[scene]\nlocation = x\nimage = {}\n".format(demo["root"] / "scene.hdr")
    )
    proc = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "mask" in proc.stderr


def test_missing_scene_file_exits_two(tmp_path):
    config = tmp_path / "gone.cfg"
    config.write_text(
        "[scene]\nlocation = x\nimage = /nonexistent/i.hdr\nmask = /nonexistent/m.hdr\n"
    )
    proc = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "not found" in proc.stderr


def test_experiment_outputs(experiment_out):
    report_csv = (experiment_out / "report.csv").read_text().splitlines()
    assert report_csv[0] == "location,technique,acc_slum,acc_non,iou_slum,iou_non,miou,seconds"
    assert len(report_csv) == 2
    assert report_csv[1].startswith("two-texture,glcm,")
    assert (experiment_out / "two-texture_glcm_map.pgm").exists()
    assert (experiment_out / "two-texture_glcm_model.json").exists()
    assert (experiment_out / "two-texture_glcm_timings.json").exists()
    assert (experiment_out / "config.used").exists()
    report = json.loads((experiment_out / "two-texture_glcm_report.json").read_text())
    assert report["location"] == "two-texture"
    assert report["feature_count"] == 28
    assert float(report["test_split"]["percent"]["miou"]) >= 90.0


def test_experiment_rerun_is_deterministic(demo, experiment_out):
    out2 = demo["root"] / "exp2"
    proc = run_cli("experiment", "--config", str(demo["config"]), "--out", str(out2))
    assert proc.returncode == 0, proc.stderr
    for name in (
        "two-texture_glcm_map.pgm",
        "two-texture_glcm_model.json",
        "two-texture_glcm_report.json",
    ):
        assert (out2 / name).read_bytes() == (experiment_out / name).read_bytes(), name
    # the csv is identical apart from the measured wall-clock column
    rows_a = (experiment_out / "report.csv").read_text().splitlines()
    rows_b = (out2 / "report.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[0] for r in rows_a] == [r.rsplit(",", 1)[0] for r in rows_b]


@pytest.mark.parametrize("command", ["extract", "train", "experiment"])
def test_experiment_rerun_from_config_echo(command, demo, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    proc = run_cli(command, "--config", str(demo["config"]), "--out", str(first))
    assert proc.returncode == 0, proc.stderr
    echo = first / "config.used"
    assert load_config(echo) == replace(load_config(demo["config"]), out=first)
    proc = run_cli(command, "--config", str(echo), "--out", str(second))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in second.iterdir())
    # config.used names its own out; report.csv and the timings hold wall-clock seconds
    unequal = ("config.used", "report.csv", "two-texture_glcm_timings.json")
    for path in first.iterdir():
        if path.name not in unequal:
            assert (second / path.name).read_bytes() == path.read_bytes(), path.name


def test_two_city_batch_writes_two_rows(demo, tmp_path):
    config = tmp_path / "batch.cfg"
    config.write_text(
        "\n".join(
            [
                "[run]",
                "technique = spectral",
                f"out = {tmp_path / 'out'}",
                "[scene]",
                "location = city-a",
                f"image = {demo['root'] / 'scene.hdr'}",
                f"mask = {demo['root'] / 'mask.hdr'}",
                "[scene]",
                "location = city-b",
                f"image = {demo['root'] / 'scene.hdr'}",
                f"mask = {demo['root'] / 'mask.hdr'}",
            ]
        )
    )
    proc = run_cli("experiment", "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("city-a,spectral,")
    assert rows[2].startswith("city-b,spectral,")


def test_repeated_location_exits_two_before_any_output(demo, tmp_path):
    config = tmp_path / "twice.cfg"
    text = demo["config"].read_text(encoding="utf-8")
    config.write_text(text + "\n" + text[text.index("[scene]") :], encoding="utf-8")
    proc = run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "[scene] location 'two-texture'" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_predict_reproduces_experiment_map(demo, experiment_out, tmp_path):
    proc = run_cli(
        "predict",
        "--model",
        str(experiment_out / "two-texture_glcm_model.json"),
        "--image",
        str(demo["root"] / "scene.hdr"),
        "--out",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "map.pgm").read_bytes() == (
        experiment_out / "two-texture_glcm_map.pgm"
    ).read_bytes()


def test_predict_map_does_not_depend_on_jobs(demo, experiment_out, tmp_path):
    maps = []
    for jobs in ("1", "2", "3"):
        model = experiment_out / "two-texture_glcm_model.json"
        inputs = ["--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
        proc = run_cli("predict", *inputs, "--out", str(tmp_path / jobs), "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        maps.append((tmp_path / jobs / "map.pgm").read_bytes())
    assert maps[1] == maps[0]
    assert maps[2] == maps[0]


@pytest.fixture(scope="module")
def spectral_model(demo):
    """A spectral model trained on the 10-band demo scene."""
    out = demo["root"] / "spectral"
    proc = run_cli(
        "train", "--config", str(demo["config"]), "--technique", "spectral", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    return out / "two-texture_spectral_model.json"


def test_predict_wrong_technique_exits_five(demo, spectral_model, tmp_path):
    """A spectral model trained on the 10-band scene cannot map 4 of its bands."""
    stack = load_band_stack(demo["root"] / "scene.hdr")
    four = BandStack(band_names=list(stack.band_names[:4]), samples=stack.samples[:4])
    save_band_stack(four, tmp_path / "s.hdr")
    proc = run_cli(
        "predict",
        "--model",
        str(spectral_model),
        "--image",
        str(tmp_path / "s.hdr"),
        "--out",
        str(tmp_path / "o"),
    )
    assert proc.returncode == 5, proc.stderr
    assert "expects 10 features" in proc.stderr and "produced 4" in proc.stderr


def test_predict_reordered_bands_exits_five(demo, spectral_model, tmp_path):
    """The same 10 bands in reverse order would feed each band to another's splits."""
    stack = load_band_stack(demo["root"] / "scene.hdr")
    reverse = BandStack(band_names=stack.band_names[::-1], samples=stack.samples[::-1])
    save_band_stack(reverse, tmp_path / "s.hdr")
    proc = run_cli(
        "predict",
        "--model",
        str(spectral_model),
        "--image",
        str(tmp_path / "s.hdr"),
        "--out",
        str(tmp_path / "o"),
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("dimension mismatch:")
    assert proc.stderr.count("\n") == 1
    assert "expects 10 features" in proc.stderr and "produced 10" in proc.stderr
    assert "feature 0 is 'B12' where the model has 'B2'" in proc.stderr
    assert not (tmp_path / "o" / "map.pgm").exists()


def test_evaluate_matches_full_image_report(demo, experiment_out, tmp_path):
    proc = run_cli(
        "evaluate",
        "--pred",
        str(experiment_out / "two-texture_glcm_map.pgm"),
        "--truth",
        str(demo["root"] / "mask.hdr"),
        "--out",
        str(tmp_path),
        "--location",
        "two-texture",
    )
    assert proc.returncode == 0, proc.stderr
    standalone = json.loads((tmp_path / "report.json").read_text())
    from_experiment = json.loads(
        (experiment_out / "two-texture_glcm_report.json").read_text()
    )
    assert standalone == from_experiment["full_image"]


def test_evaluate_map_with_negative_dimensions_exits_three(demo, tmp_path):
    # -2 x -2 multiplies to the 4 payload bytes that follow it.
    (tmp_path / "map.pgm").write_bytes(b"P5\n-2 -2\n255\n" + b"\xff" * 4)
    args = ["--pred", str(tmp_path / "map.pgm"), "--truth", str(demo["root"] / "mask.hdr")]
    proc = run_cli("evaluate", *args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("i/o error:") and proc.stderr.count("\n") == 1
    assert "width and height must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_single_class_scene_exits_four(tmp_path):
    stack, _ = make_two_texture_scene(size=48)
    save_band_stack(stack, tmp_path / "scene.hdr")
    save_label_mask(
        LabelMask(labels=np.zeros((48, 48), dtype=np.uint8)), tmp_path / "mask.hdr"
    )
    config = tmp_path / "deg.cfg"
    config.write_text(
        "\n".join(
            [
                "[run]",
                "technique = spectral",
                f"out = {tmp_path / 'out'}",
                "[scene]",
                "location = flat",
                f"image = {tmp_path / 'scene.hdr'}",
                f"mask = {tmp_path / 'mask.hdr'}",
            ]
        )
    )
    proc = run_cli("experiment", "--config", str(config))
    assert proc.returncode == 4
    assert "degenerate" in proc.stderr


def test_corrupt_scene_exits_three(demo, tmp_path):
    hdr = (demo["root"] / "scene.hdr").read_text()
    (tmp_path / "scene.hdr").write_text(hdr)
    (tmp_path / "scene.bin").write_bytes(b"\x00" * 10)  # truncated payload
    config = tmp_path / "bad.cfg"
    config.write_text(
        "\n".join(
            [
                "[run]",
                f"out = {tmp_path / 'out'}",
                "[scene]",
                "location = broken",
                f"image = {tmp_path / 'scene.hdr'}",
                f"mask = {demo['root'] / 'mask.hdr'}",
            ]
        )
    )
    proc = run_cli("experiment", "--config", str(config))
    assert proc.returncode == 3
    assert "i/o error" in proc.stderr


def test_unknown_config_key_exits_two(demo, tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("[run]\ntechniqe = glcm\n")
    proc = run_cli("experiment", "--config", str(config))
    assert proc.returncode == 2
    assert "techniqe" in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_trees", "0"),
        ("n_candidate_features", "-3"),
        ("min_node_size", "0"),
        ("n_trees", "5\nn_trees = 6"),  # the last value used to win silently
    ],
    ids=["n_trees-0", "n_candidate_features--3", "min_node_size-0", "duplicate-key"],
)
def test_bad_forest_config_exits_two(key, value, demo, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(demo["config"].read_text() + f"\n[forest]\n{key} = {value}\n")
    proc = run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["extract", "train", "experiment"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[glcm]\n", "[glcm]\nbands = B2,B9\n", "[glcm] band 'B9' is not in the scene"),
        ("window = 5", "window = 201", "[glcm] window 201 is larger than the 48x48 scene"),
    ],
    ids=["unknown-band", "window-too-large"],
)
def test_glcm_scene_mismatch_exits_two(command, old, new, message, demo, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(demo["config"].read_text().replace(old, new))
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_window_past_the_fixed_point_limit_exits_two(demo, tmp_path):
    # 2897 * 2896 pairs reach 2**23, where a fixed-point homogeneity sum could overflow.
    config = tmp_path / "wide.cfg"
    config.write_text(demo["config"].read_text().replace("window = 5", "window = 2897"))
    proc = run_cli("extract", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "[glcm]" in proc.stderr and "2895" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_predict_scene_missing_band_exits_five(demo, experiment_out, tmp_path):
    stack = load_band_stack(demo["root"] / "scene.hdr")
    keep = [name != "B8" for name in stack.band_names]
    names = [name for name, k in zip(stack.band_names, keep) if k]
    save_band_stack(BandStack(band_names=names, samples=stack.samples[keep]), tmp_path / "s.hdr")
    proc = run_cli(
        "predict",
        "--model",
        str(experiment_out / "two-texture_glcm_model.json"),
        "--image",
        str(tmp_path / "s.hdr"),
        "--out",
        str(tmp_path / "o"),
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("dimension mismatch:")
    assert proc.stderr.count("\n") == 1
    assert "'B8'" in proc.stderr


def test_predict_scene_smaller_than_window_exits_five(demo, experiment_out, tmp_path):
    stack = load_band_stack(demo["root"] / "scene.hdr")
    small = BandStack(band_names=list(stack.band_names), samples=stack.samples[:, :4, :8])
    save_band_stack(small, tmp_path / "s.hdr")
    proc = run_cli(
        "predict",
        "--model",
        str(experiment_out / "two-texture_glcm_model.json"),
        "--image",
        str(tmp_path / "s.hdr"),
        "--out",
        str(tmp_path / "o"),
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("dimension mismatch:")
    assert proc.stderr.count("\n") == 1
    assert "window 5" in proc.stderr and "8x4" in proc.stderr
    assert not (tmp_path / "o" / "map.pgm").exists()


def test_non_utf8_config_and_header_exit_cleanly(demo, tmp_path):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_bytes(b"\xff\xfe[run]\n")
    proc = run_cli("experiment", "--config", str(bad_config))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1

    config = tmp_path / "run.cfg"
    config.write_text(
        demo["config"].read_text(encoding="utf-8").replace(
            str(demo["root"] / "scene.hdr"), str(tmp_path / "scene.hdr")
        ),
        encoding="utf-8",
    )
    (tmp_path / "scene.hdr").write_bytes(b"\xff\xfewidth = 3\n")
    proc = run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("i/o error:") and proc.stderr.count("\n") == 1


def test_key_outside_sections_exits_two_and_header_section_exits_three(demo, tmp_path):
    text = demo["config"].read_text(encoding="utf-8").replace(
        str(demo["root"] / "scene.hdr"), str(tmp_path / "scene.hdr")
    )
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\n" + text, encoding="utf-8")
    proc = run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1
    assert "'seed' outside any [section]" in proc.stderr

    config.write_text(text, encoding="utf-8")
    header = (demo["root"] / "scene.hdr").read_text(encoding="utf-8")
    (tmp_path / "scene.hdr").write_text(header + "[extra]\n", encoding="utf-8")
    (tmp_path / "scene.bin").write_bytes((demo["root"] / "scene.bin").read_bytes())
    proc = run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("i/o error:") and proc.stderr.count("\n") == 1
    assert "section [extra]" in proc.stderr


def _unpacked(doc: dict) -> dict[str, np.ndarray]:
    """The packed tree arrays of a model document, decoded into writable arrays."""
    lam = doc["training_params"]["n_candidate_features"]
    widths = {"feature": (lam,), "projection": (lam,), "class_counts": (2,)}
    return {
        key: np.frombuffer(base64.b64decode(text), _PACKED[key])
        .reshape(-1, *widths.get(key, ())).copy()
        for key, text in doc["arrays"].items()
    }


def _packed(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    """The arrays packed as a model document holds them: base64 of little-endian bytes."""
    return {
        key: base64.b64encode(np.ascontiguousarray(a, _PACKED[key])).decode("ascii")
        for key, a in arrays.items()
    }


def _craft_model(case: str, doc: dict) -> bytes:
    """The experiment's model file, damaged in one way."""
    if case == "json-array":
        return b"[]"
    if case == "not-utf8":
        return b"\xff\xfe" + json.dumps(doc).encode()
    if case == "deeply-nested":
        return b"[" * 100_000 + b"]" * 100_000
    arrays = _unpacked(doc)
    feature, projection, threshold = arrays["feature"], arrays["projection"], arrays["threshold"]
    counts = arrays["class_counts"]
    split = int(np.flatnonzero(~counts.any(axis=1))[0])  # the first tree's root
    leaf = int(np.flatnonzero(counts.any(axis=1))[0])
    sizes = doc["tree_sizes"]
    if case == "even-window":
        doc["glcm_params"]["window"] = 4
    elif case == "short-scaler":
        doc["scaler"]["means"].pop()
    elif case == "tree-closes-early":
        # a split becomes a leaf, so the first tree ends before its last node
        feature[split], projection[split], threshold[split] = 0, 0.0, 0.0
        counts[split] = [1, 0]
    elif case == "tree-never-closes":
        # a leaf becomes a split, so the first tree needs nodes past its size
        feature[leaf] = np.arange(feature.shape[1])
        projection[leaf], threshold[leaf] = 1.0, 0.5
        counts[leaf] = [0, 0]
    elif case == "sizes-cross-trees":
        sizes[:2] = [sizes[0] + 2, sizes[1] - 2]
    elif case == "negative-feature":
        feature[split, 0] = -1
    elif case == "nested-format":
        # the version 1 layout's nested forest document
        doc["model"] = {"format": "ccf-model", "version": 1, "trees": doc.pop("arrays")}
    elif case == "unknown-technique":
        doc["technique"] = "lidar"
    elif case == "empty-tree":
        arrays = {key: a[sizes[0]:] for key, a in arrays.items()}
        sizes[0] = 0
    elif case == "too-many-levels":
        doc["glcm_params"]["levels"] = 2**16 + 1
    elif case == "short-feature-names":
        doc["feature_names"].pop()
    elif case == "null-glcm-params":
        doc["glcm_params"] = None
    elif case == "fractional-levels":
        doc["glcm_params"]["levels"] = 32.7
    elif case == "negative-count":
        counts[leaf] = [-5, 3]
    elif case == "nan-threshold":
        threshold[split] = math.nan
    elif case == "nan-scaler-std":
        doc["scaler"]["stds"][0] = math.nan
    elif case == "infinite-projection":
        projection[split, 0] = math.inf
    elif case == "more-trees-than-n-trees":
        doc["training_params"]["n_trees"] = len(sizes) - 1
    elif case == "subsets-wider-than-n-candidate-features":
        doc["training_params"]["n_candidate_features"] -= 1
    elif case == "counts-summing-past-int64":
        counts[leaf] = [2**62, 2**62]
    elif case == "leaf-with-a-threshold":
        threshold[leaf] = 1.0
    elif case == "split-with-counts":
        counts[split] = [0, 1]  # which makes it a leaf that keeps its split fields
    elif case == "leaf-with-a-negative-zero-projection":
        projection[leaf, 0] = -0.0
    elif case == "negative-master-seed":
        doc["training_params"]["master_seed"] = -1
    elif case == "master-seed-past-uint64":
        doc["training_params"]["master_seed"] = 2**64
    elif case == "min-node-size-0":
        doc["training_params"]["min_node_size"] = 0
    elif case == "subset-repeating-a-feature":
        feature[split] = feature[split, 0]
    elif case == "unsorted-subset":
        feature[split] = feature[split, ::-1]
    elif case == "zero-tree-size":
        # the node total still matches: the first tree's nodes move to the second
        sizes[:2] = [0, sizes[0] + sizes[1]]
    elif case == "tree-sizes-disagree-with-n-trees":
        sizes[-2:] = [sizes[-2] + sizes[-1]]
    elif case == "number-as-feature-name":
        doc["feature_names"][0] = 7
    elif case == "feature-names-not-the-glcm-params-features":
        names = doc["feature_names"]
        names[0], names[21] = names[21], names[0]
    elif case == "float-master-seed":
        doc["training_params"]["master_seed"] = float(doc["training_params"]["master_seed"])
    elif case == "null-n-candidate-features":
        doc["training_params"]["n_candidate_features"] = None
    elif case.startswith("extra-key-in-") and case != "extra-key-in-arrays":
        doc[case.removeprefix("extra-key-in-")]["note"] = 0
    elif case == "number-as-band-name":
        doc["glcm_params"]["bands"][0] = 2
    elif case == "integer-scaler-mean":
        doc["scaler"]["means"][0] = 0
    elif case == "directions-out-of-order":
        doc["glcm_params"]["directions"].reverse()
    elif case in ("non-canonical-padding", "true-tree-size"):
        # The first tree becomes one leaf, a valid model whose node total is not
        # a multiple of 3, so threshold's base64 ends in padding.
        keep = np.ones(len(threshold), dtype=bool)
        keep[1 : sizes[0]] = False
        arrays = {key: a[keep] for key, a in arrays.items()}
        for key in ("feature", "projection", "threshold"):
            arrays[key][0] = 0
        arrays["class_counts"][0] = [1, 1]
        sizes[0] = True if case == "true-tree-size" else 1  # JSON true, which equals 1
    if "arrays" in doc:
        doc["arrays"] = _packed(arrays)
    packed = doc.get("arrays", {})
    if case == "truncated-block":
        packed["threshold"] = packed["threshold"][:-4]
    elif case == "one-byte-too-many":
        raw = base64.b64decode(packed["class_counts"]) + b"\0"
        packed["class_counts"] = base64.b64encode(raw).decode()
    elif case == "extra-key-in-arrays":
        packed["note"] = packed["class_counts"]
    elif case == "non-alphabet-character":
        packed["projection"] = "-" + packed["projection"][1:]  # URL-safe base64's 62
    elif case == "non-canonical-padding":
        text = packed["threshold"].rstrip("=")
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        flipped = alphabet[alphabet.index(text[-1]) ^ 1]  # its lowest bit is padding
        packed["threshold"] = packed["threshold"].replace(text, text[:-1] + flipped)
    return json.dumps(doc).encode()


# The packed-layer and tree-shape rows, with the part of the error each must give.
_PACKED_LAYER_ERRORS = {
    "truncated-block": "threshold must hold 240 bytes, not 237",
    "one-byte-too-many": "class_counts must hold 480 bytes, not 481",
    "non-alphabet-character": "projection must be canonical base64",
    "non-canonical-padding": "threshold must be canonical base64",
    "zero-tree-size": "tree_sizes must hold n_trees = 10 sizes >= 1",
    "tree-sizes-disagree-with-n-trees": "tree_sizes must hold n_trees = 10 sizes >= 1",
    "tree-closes-early": "leaves must close one full binary tree",
    "tree-never-closes": "leaves must close one full binary tree",
    "sizes-cross-trees": "leaves must close one full binary tree",
}


@pytest.mark.parametrize(
    "case",
    [
        "json-array",
        "not-utf8",
        "even-window",
        "short-scaler",
        "negative-feature",
        "nested-format",
        "unknown-technique",
        "empty-tree",
        "too-many-levels",
        "short-feature-names",
        "null-glcm-params",
        "fractional-levels",
        "negative-count",
        "nan-threshold",
        "nan-scaler-std",
        "infinite-projection",
        "deeply-nested",
        "more-trees-than-n-trees",
        "subsets-wider-than-n-candidate-features",
        "counts-summing-past-int64",
        "leaf-with-a-threshold",
        "split-with-counts",
        "leaf-with-a-negative-zero-projection",
        "negative-master-seed",
        "master-seed-past-uint64",
        "min-node-size-0",
        "subset-repeating-a-feature",
        "unsorted-subset",
        "number-as-feature-name",
        "feature-names-not-the-glcm-params-features",
        "float-master-seed",
        "null-n-candidate-features",
        "extra-key-in-training_params",
        "extra-key-in-scaler",
        "extra-key-in-glcm_params",
        "extra-key-in-arrays",
        "number-as-band-name",
        "integer-scaler-mean",
        "true-tree-size",
        "directions-out-of-order",
        *_PACKED_LAYER_ERRORS,
    ],
)
def test_crafted_model_exits_three(case, demo, experiment_out, tmp_path):
    doc = json.loads((experiment_out / "two-texture_glcm_model.json").read_text())
    model = tmp_path / "model.json"
    model.write_bytes(_craft_model(case, doc))
    args = ["predict", "--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
    proc = subprocess.run(
        [sys.executable, "-m", "slummap", *args, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=10,  # a child index pointing backwards used to loop forever
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("i/o error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert _PACKED_LAYER_ERRORS.get(case, "") in proc.stderr


def _reversed_keys(value):
    """A JSON value with every object's keys in reverse order."""
    if type(value) is dict:
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    return [_reversed_keys(item) for item in value] if type(value) is list else value


def test_model_respaced_and_reordered_predicts_the_same_map(demo, experiment_out, tmp_path):
    # The model file is compared by value, not by bytes.
    doc = json.loads((experiment_out / "two-texture_glcm_model.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_reversed_keys(doc), indent=1), encoding="utf-8")
    args = ["--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
    proc = run_cli("predict", *args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    map_bytes = (tmp_path / "o" / "map.pgm").read_bytes()
    assert map_bytes == (experiment_out / "two-texture_glcm_map.pgm").read_bytes()


def test_padding_row_is_a_valid_model_until_its_padding_bits_change(
    demo, experiment_out, tmp_path
):
    # The pack helpers round-trip a saved file's arrays, and the padding row's
    # model, its single-leaf first tree included, loads once re-packed.
    doc = json.loads((experiment_out / "two-texture_glcm_model.json").read_text())
    assert _packed(_unpacked(doc)) == doc["arrays"]
    damaged = json.loads(_craft_model("non-canonical-padding", json.loads(json.dumps(doc))))
    arrays = _unpacked(damaged)
    damaged["arrays"] = _packed(arrays)
    assert damaged["arrays"]["threshold"].endswith("=")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(damaged))
    args = ["--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
    proc = run_cli("predict", *args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr


def test_version_1_model_exits_three_and_asks_to_retrain(demo, experiment_out, tmp_path):
    # Also version 2, which spelled out every tree value as a JSON number,
    # version 3, which stored each split's left child as an array of its own,
    # and version 4, which stored each split's right child.
    doc = json.loads((experiment_out / "two-texture_glcm_model.json").read_text())
    version_4 = version_4_document(doc)
    version_3 = version_3_document(version_4)
    version_2 = version_2_document(version_3)
    olds = {1: version_1_document(version_2), 2: version_2, 3: version_3, 4: version_4}
    for version, old in olds.items():
        model = tmp_path / f"model-v{version}.json"
        model.write_text(json.dumps(old, sort_keys=True, separators=(",", ":")))
        args = ["--model", str(model), "--image", str(demo["root"] / "scene.hdr")]
        proc = run_cli("predict", *args, "--out", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("i/o error:") and proc.stderr.count("\n") == 1
        assert f"version {version} files are no longer read" in proc.stderr
        assert "retrain the model" in proc.stderr
        assert not (tmp_path / "o").exists()


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_parse_sections_fuzz_parses_or_raises_config_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_sections.cfg"
    path.write_bytes(text.encode())
    try:
        sections = read_key_values(path, ConfigError)
    except ConfigError:
        return
    for i, (name, fields) in enumerate(sections):
        assert isinstance(name, str) or (name is None and i == 0 and fields)
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in fields.items())


_CONFIG_LINES = st.one_of(
    st.sampled_from(["[run]", "[glcm]", "[forest]", "[scene]", "[other]", "# note", ""]),
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted({key for keys in CONFIG_KEYS.values() for key in keys})),
        st.one_of(st.text(max_size=12), st.integers(-3, 40).map(str)),
    ),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CONFIG_LINES, max_size=12))
def test_load_config_fuzz_loads_or_raises_config_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        validate_config(load_config(path))
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# the config table: every key round-trips through config.used, every bad
# value is one config error naming its section and key
# ---------------------------------------------------------------------------

_NAME = st.text(alphabet="ABCXYZ0189-_", min_size=1, max_size=6)


def _tuples(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(tuple)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config").resolve()
    (root / "scene.hdr").write_text("")
    (root / "mask.hdr").write_text("")
    return root


@st.composite
def _sections(draw, root):
    """A valid config as (section, {key: value}) pairs, every value non-default."""
    run = {
        "technique": "spectral",
        "seed": draw(st.integers(1, 2**64 - 1)),
        "out": root / draw(_NAME),
        "jobs": draw(st.integers(2, 64)),
    }
    glcm = {
        "levels": draw(st.integers(2, 2**16).filter(lambda v: v != 32)),
        "window": draw(st.integers(1, 60).map(lambda k: 2 * k + 1).filter(lambda v: v != 19)),
        "directions": draw(_tuples(st.sampled_from([0, 45, 90, 135]), max_size=3)),
        "bands": draw(_tuples(_NAME, max_size=5)),
        "measures": draw(_tuples(st.sampled_from(MEASURES), max_size=6)),
    }
    forest = {
        "n_trees": draw(st.integers(1, 500).filter(lambda v: v != 10)),
        "min_node_size": draw(st.integers(1, 100).filter(lambda v: v != 2)),
        "n_candidate_features": draw(st.integers(1, 100)),
    }
    scenes = [
        ("scene", {"location": location, "image": root / "scene.hdr", "mask": root / "mask.hdr"})
        for location in draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
    ]
    return [("run", run), ("glcm", glcm), ("forest", forest), *scenes]


def _render(sections) -> str:
    """Config text; lists are written with spaces, which the reader strips."""
    lines = []
    for name, values in sections:
        lines.append(f"[{name}]")
        for key, value in values.items():
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_config_key_round_trips_through_the_echo(config_dir, data):
    sections = data.draw(_sections(config_dir))
    path = config_dir / "valid.cfg"
    path.write_text(_render(sections), encoding="utf-8")
    config = load_config(path)
    run, glcm, forest, *scenes = (values for _, values in sections)
    assert config == RunConfig(
        scenes=[SceneConfig(**scene) for scene in scenes],
        glcm=GlcmParams(**glcm),
        forest=ForestParams(**forest),
        **run,
    )
    defaults = RunConfig()
    for name, loaded, default in [
        ("run", config, defaults),
        ("glcm", config.glcm, defaults.glcm),
        ("forest", config.forest, defaults.forest),
    ]:
        assert all(getattr(loaded, key) != getattr(default, key) for key in CONFIG_KEYS[name])
    echo = echo_config(config)
    path.write_text(echo, encoding="utf-8")
    assert load_config(path) == config
    assert echo_config(load_config(path)) == echo


# Every key's bad values. [run] out takes any text without NUL, [scene] location
# any text without NUL, a path separator or a comma.
_BAD_VALUES = {
    ("run", "technique"): ["lidar", ""],
    ("run", "seed"): ["-1", "1.5", "x", "18446744073709551616"],
    ("run", "out"): ["out\0put"],
    ("run", "jobs"): ["0", "-2", "two"],
    ("glcm", "levels"): ["1", "65537", "x"],
    ("glcm", "window"): ["4", "1", "x", "2897"],
    ("glcm", "directions"): ["30", "", "0,,45", "0;45"],
    ("glcm", "bands"): ["", "B2,,B3", "B2,", "B2,B2"],
    ("glcm", "measures"): ["energy", "", "mean,"],
    ("forest", "n_trees"): ["0", "-1", "x"],
    ("forest", "min_node_size"): ["0", "-7"],
    ("forest", "n_candidate_features"): ["0", "-3", "Auto"],
    ("scene", "location"): ["city\0a", "city/north", "../x", "Rio, Brazil", '"Rio"'],
    ("scene", "image"): ["/nonexistent/scene.hdr"],
    ("scene", "mask"): ["/nonexistent/mask.hdr"],
}


def test_bad_values_cover_every_key_that_has_one():
    keys = {(name, key) for name, keys in CONFIG_KEYS.items() for key in keys}
    assert keys == set(_BAD_VALUES)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    target=st.sampled_from(sorted(_BAD_VALUES)),
    duplicate=st.booleans(),
)
def test_bad_config_value_is_one_error_naming_section_and_key(config_dir, data, target, duplicate):
    sections = [(name, dict(values)) for name, values in data.draw(_sections(config_dir))]
    section, key = target
    if not duplicate:
        values = next(values for name, values in sections if name == section)
        values[key] = data.draw(st.sampled_from(_BAD_VALUES[target]))
    text = _render(sections)
    if duplicate:  # the key twice in its first section, each value valid on its own
        line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        text = text.replace(line, f"{line}\n{line}", 1)
    path = config_dir / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["extract", "--config", str(path)])
    message = stderr.getvalue()
    assert code == 2, message
    assert message.startswith("config error:") and message.count("\n") == 1
    assert f"[{section}]" in message and key in message
